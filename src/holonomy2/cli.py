"""Command-line front end: run scenario tasks and emit reports.

Exit codes: 0 when every requested verdict passes, 1 on verdict
failures (witnesses included in the report), 2 on parse or reference
errors.  Reports are deterministic for a fixed scenario and seed;
timings are included only on request so that default output is
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from .groupoid import _skey, check_groupoid
from .xmod import check_crossed_module, find_xmod_isomorphism, check_xmod_morphism
from .dgpd import build_double_groupoid, check_double, crossed_module_of
from .homotopy import coadmissible_section, enumerate_free_derivations, enumerate_linear_sections
from .holonomy import (_MODEL_ERRORS, build_wg, check_wstructure,
                       check_locally_lie_double, check_locally_lie_xmod,
                       generation_equivalence, holonomy_groupoid,
                       identity_vertical_morphism, universal_morphism,
                       check_chart_coherence)
from .scenario import ScenarioError, load_scenario


def _sorted_strs(values):
    return sorted(str(v) for v in values)


def task_validate(scn, task, opts):
    """Structure validators plus the crossed-module axiom suite."""
    details = {"groupoids": {}, "xmods": {}, "wstructures": {}}
    ok = True
    for name in sorted(scn.groupoids):
        bad = check_groupoid(scn.groupoids[name])
        details["groupoids"][name] = bad
        ok = ok and not bad
    names = task.get("xmods", sorted(scn.xmods))
    for name in names:
        bad = check_crossed_module(scn.xmods[name])
        details["xmods"][name] = bad
        ok = ok and not bad
    for name in sorted(scn.windows):
        w, cm = scn.windows[name]
        bad = check_wstructure(cm, w)
        details["wstructures"][name] = bad
        ok = ok and not bad
    return ok, details


def _xmod_for(scn, task, loc):
    name = task.get("xmod")
    if name is None or name not in scn.xmods:
        raise ScenarioError(loc, "missing or unknown 'xmod' %r" % name)
    return name, scn.xmods[name]


def _double_for(scn, name, cm):
    """The crossed module's double groupoid, shared by every task of the
    run.  Only a successful build is kept: a model error fails each task
    that asks for it, and no other."""
    if name not in scn.doubles:
        scn.doubles[name] = build_double_groupoid(cm)
    return scn.doubles[name]


def task_double(scn, task, opts):
    name, cm = _xmod_for(scn, task, "tasks.double")
    dg = _double_for(scn, name, cm)
    bad = check_double(dg)
    details = {"xmod": name, "squares": len(dg.squares), "violations": bad}
    if opts.dump:
        _dump(opts.dump, "double_%s.json" % name, {
            "squares": [str(sq) for sq in dg.squares],
            "vertical": _table_dump(dg.vertical_groupoid()),
            "horizontal": _table_dump(dg.horizontal_groupoid())})
    return not bad, details


def task_gamma(scn, task, opts):
    name, cm = _xmod_for(scn, task, "tasks.gamma")
    dg = _double_for(scn, name, cm)
    back = crossed_module_of(dg)
    bad = check_crossed_module(back)
    iso = find_xmod_isomorphism(back, cm)
    details = {"xmod": name, "round_trip_valid": not bad,
               "isomorphism_found": iso is not None}
    if iso is not None:
        viols, is_iso = check_xmod_morphism(iso, back, cm)
        details["witness_reverified"] = (not viols) and is_iso
    return (not bad) and iso is not None and details.get("witness_reverified", False), details


def task_derivations(scn, task, opts):
    name, cm = _xmod_for(scn, task, "tasks.derivations")
    dg = _double_for(scn, name, cm)
    ders = enumerate_free_derivations(cm)
    secs = set(enumerate_linear_sections(dg))
    certs = []
    n_coad = matched = 0
    for s in ders:
        f1_bij, f2_bij, sec = coadmissible_section(dg, s)
        if sec is not None:
            n_coad += 1
            matched += sec in secs
        certs.append({"derivation": repr(s), "coadmissible": sec is not None,
                      "f1_bijective": f1_bij, "f2_bijective": f2_bij})
    details = {"xmod": name, "free_derivations": len(ders),
               "coadmissible": n_coad, "linear_sections": len(secs),
               "sections_matched": matched, "certificates": certs}
    return matched == n_coad == len(secs), details


def _windowed(scn, task, loc):
    """The task's crossed module and window, with the double groupoid,
    the window squares and their S1-S5 report, built once for the task."""
    name, cm = _xmod_for(scn, task, loc)
    wname = task.get("w")
    if wname is None or wname not in scn.windows:
        raise ScenarioError(loc, "missing or unknown 'w' %r" % wname)
    w, wcm = scn.windows[wname]
    if wcm is not cm:
        raise ScenarioError(loc, "window %r belongs to another xmod" % wname)
    dg = _double_for(scn, name, cm)
    wg = build_wg(dg, w)
    return name, cm, wname, w, dg, wg, check_locally_lie_double(dg, wg)


def task_holonomy(scn, task, opts):
    name, cm, wname, w, dg, wg, axioms = _windowed(scn, task, "tasks.holonomy")
    creport = check_locally_lie_xmod(cm, w, axioms)
    gen = generation_equivalence(cm, w.arrows, dg)
    details = {"xmod": name, "window": wname,
               "square_axioms": _strip(axioms), "kernel_axioms": _strip(creport),
               "generation_equivalence": gen}
    if not axioms["ok"]:
        details["holonomy"] = "skipped: axioms fail"
        return False, details
    hol = holonomy_groupoid(dg, wg, axioms)
    rep = {k: v for k, v in hol.report.items() if k != "axioms"}
    rep["arrows"] = len(hol.quotient.arrows)
    rep["objects"] = len(hol.quotient.objects)
    charts = check_chart_coherence(hol)
    rep["chart_coherence"] = charts["ok"]
    details["holonomy"] = rep
    if opts.dump:
        _dump(opts.dump, "holonomy_%s_%s.json" % (name, wname), {
            "germ_arrows": _sorted_strs(hol.germ_groupoid.arrows),
            "kernel_germs": _sorted_strs(hol.unit_sub.arrows),
            "classes": [_sorted_strs(cls) for cls in
                        sorted(hol.quotient.arrows, key=_skey)]})
    flags = [v for k, v in rep.items() if isinstance(v, bool)]
    return all(flags) and gen["agree"], details


def task_universal(scn, task, opts):
    name, cm, wname, w, dg, wg, axioms = _windowed(scn, task, "tasks.universal")
    mu_name = task.get("mu", "identity")
    hol = holonomy_groupoid(dg, wg, axioms)
    if mu_name == "identity" or scn.morphisms.get(mu_name) == "identity":
        mu = identity_vertical_morphism(hol.dg)
    else:
        raise ScenarioError("tasks.universal", "unsupported morphism %r" % mu_name)
    mp, rep = universal_morphism(cm, w, mu, hol, word_bound=opts.word_bound)
    details = {"xmod": name, "window": wname, "morphism": mu_name, "report": rep}
    return all(v for v in rep.values() if isinstance(v, bool)), details


def _strip(report):
    """Keep JSON-friendly leaves only."""
    out = {}
    for k, v in report.items():
        if isinstance(v, dict):
            out[k] = _strip(v)
        elif isinstance(v, (bool, int, str, float, type(None))):
            out[k] = v
        elif isinstance(v, (list, tuple)):
            out[k] = [str(x) for x in v]
        else:
            out[k] = str(v)
    return out


def _table_dump(g):
    return {"objects": _sorted_strs(g.objects),
            "arrows": _sorted_strs(g.arrows),
            "compose": sorted(["%s + %s = %s" % (a, b, c)
                               for (a, b), c in g._table.items()])}


def _dump(directory, filename, payload):
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, filename)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


TASKS = {"validate": task_validate, "double": task_double, "gamma": task_gamma,
         "derivations": task_derivations, "holonomy": task_holonomy,
         "universal": task_universal}


def execute(argv=None):
    parser = argparse.ArgumentParser(
        prog="holonomy2",
        description="validators and holonomy constructions over scenario files")
    parser.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    parser.add_argument("--task", action="append", default=None,
                        help="run only tasks with this name (repeatable)")
    parser.add_argument("--dump", default=None, help="directory for structure dumps")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    parser.add_argument("--max-points", type=int, default=64,
                        help="point cap for loaded spaces")
    parser.add_argument("--word-bound", type=int, default=8,
                        help="factorization bound for the universal property")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--timings", action="store_true",
                        help="include per-task wall times (non-deterministic)")
    opts = parser.parse_args(argv)

    random.seed(opts.seed)
    try:
        scn = load_scenario(opts.scenario, point_cap=opts.max_points)
    except ScenarioError as e:
        _emit_error(opts, str(e))
        return 2
    except OSError as e:
        _emit_error(opts, "cannot read scenario: %s" % e)
        return 2

    wanted = set(opts.task) if opts.task else None
    results = []
    try:
        for i, task in enumerate(scn.tasks):
            tname = task["task"]
            if wanted is not None and tname not in wanted:
                continue
            if tname not in TASKS:
                raise ScenarioError("tasks[%d]" % i, "unknown task %r" % tname)
            t0 = time.monotonic()
            try:
                ok, details = TASKS[tname](scn, task, opts)
            except _MODEL_ERRORS as e:
                ok, details = False, {"error": str(e)}
            entry = {"task": tname, "ok": ok, "details": details}
            if opts.timings:
                entry["seconds"] = round(time.monotonic() - t0, 3)
            results.append(entry)
    except ScenarioError as e:
        _emit_error(opts, str(e))
        return 2

    report = {"scenario": os.path.basename(str(opts.scenario)),
              "seed": opts.seed,
              "tasks": results,
              "ok": all(r["ok"] for r in results)}
    if opts.format == "json":
        print(json.dumps(report, indent=1, sort_keys=True, default=str))
    else:
        for r in results:
            print("[%s] %s" % ("pass" if r["ok"] else "FAIL", r["task"]))
            _print_details(r["details"], "  ")
        print("overall: %s" % ("pass" if report["ok"] else "FAIL"))
    return 0 if report["ok"] else 1


def _print_details(details, indent):
    if isinstance(details, dict):
        for k in sorted(details, key=str):
            v = details[k]
            if isinstance(v, (dict, list)) and v:
                print("%s%s:" % (indent, k))
                _print_details(v, indent + "  ")
            else:
                print("%s%s: %s" % (indent, k, v))
    elif isinstance(details, list):
        for v in details[:20]:
            print("%s- %s" % (indent, v))
    else:
        print("%s%s" % (indent, details))


def _emit_error(opts, message):
    if opts.format == "json":
        print(json.dumps({"error": message, "ok": False}, indent=1, sort_keys=True))
    else:
        print("error: %s" % message, file=sys.stderr)


def main():
    raise SystemExit(execute())


if __name__ == "__main__":
    main()
