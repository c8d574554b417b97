"""Frontier run: per-layer wall time and peak memory on models larger than
the corpus.  Standard library only; pytest does not collect it.

    PYTHONPATH=src python tests/frontier.py [MODEL ...]

A MODEL is ``zN`` (Z/N acting trivially on itself, identity boundary,
N**4 squares) or ``s3`` (S3 acting on itself by conjugation,
c^a = -a + c + a, with identity boundary: 1,296 squares); the default is
``z4 z5 s3``.  Every model is discrete, on the full window.  A Z/N
model also times ``universal_morphism`` into the holonomy groupoid of the
window {c0, c1, c(N-1)}, from the full window: there the preimage misses
squares, which must be reached by factorization.

Each model runs twice, each time in a fresh child process, so that no
run inherits another's memory:

- the layers in pipeline order, each timed once, the germ counts of
  the holonomy groupoid (J_r, the kernel of unit-valued germs and the
  classes), its charts and the squares they map, and the child's own
  peak resident set (``ru_maxrss``) at the end;
- the vertical square view alone under ``tracemalloc``: the memory it
  holds once built, with its position tables, and the peak of its build.
"""

from __future__ import annotations

import itertools
import json
import resource
import subprocess
import sys
import time


def zn_on_itself(n):
    """Z/n acting trivially on itself with identity boundary (n**4 squares)."""
    from holonomy2 import corpus
    from holonomy2.xmod import CrossedModule
    G, C = corpus.cyclic_groupoid(n), corpus.cyclic_groupoid(n, prefix="c")
    return CrossedModule(C, G, {"c%d" % i: str(i) for i in range(n)},
                         {(c, a): c for c in C.arrows for a in G.arrows})


def s3_by_conjugation():
    """S3 as permutations of 012 written as strings, a + b doing a then b."""
    from holonomy2.groupoid import Groupoid, pair_rows
    from holonomy2.xmod import CrossedModule
    perms = ["".join(p) for p in itertools.permutations("012")]

    def add(a, b):
        return "".join(b[int(a[i])] for i in range(3))

    def neg(a):
        return next(b for b in perms if add(a, b) == "012")

    def group(prefix):
        arrows = [prefix + p for p in perms]
        table = {(prefix + a, prefix + b): prefix + add(a, b) for a in perms for b in perms}
        return Groupoid(["x"], arrows, dict.fromkeys(arrows, "x"), dict.fromkeys(arrows, "x"),
                        pair_rows(arrows, table),
                        {prefix + a: prefix + neg(a) for a in perms}, {"x": prefix + "012"})

    G, C = group(""), group("c")
    return CrossedModule(C, G, {"c" + p: p for p in perms},
                         {("c" + c, a): "c" + add(add(neg(a), c), a)
                          for c in perms for a in perms})


def model(name):
    if name == "s3":
        return s3_by_conjugation()
    if name.startswith("z") and name[1:].isdigit():
        return zn_on_itself(int(name[1:]))
    raise SystemExit("unknown model %r: use zN or s3" % name)


def discrete_full_window(cm):
    from holonomy2 import corpus
    from holonomy2.fintop import FiniteTopSpace
    from holonomy2.holonomy import full_wstructure
    cm = corpus.with_topology(cm, "discrete")
    return cm, full_wstructure(cm, FiniteTopSpace.discrete(cm.C.arrows))


def layers(name):
    """Each layer's wall time in seconds, in pipeline order, then the
    peak resident set in MB."""
    from holonomy2.dgpd import build_double_groupoid, check_double
    from holonomy2.fintop import FiniteTopSpace
    from holonomy2.groupoid import check_groupoid_morphism
    from holonomy2.holonomy import (WStructure, build_wg, check_chart_coherence,
                                    check_locally_lie_double, holonomy_groupoid,
                                    identity_vertical_morphism, universal_morphism)
    from holonomy2.xmod import check_crossed_module

    out = {}

    def timed(layer, f, *args):
        t0 = time.perf_counter()
        result = f(*args)
        out[layer] = round(time.perf_counter() - t0, 3)
        return result

    cm, w = discrete_full_window(model(name))
    if check_crossed_module(cm):
        raise SystemExit("%s is not a crossed module" % name)
    dg = timed("squares", build_double_groupoid, cm)
    out["squares_n"] = len(dg.squares)
    timed("both square views",
          lambda: (dg.vertical_groupoid(), dg.horizontal_groupoid()))
    bad = timed("check_double", check_double, dg)
    wg = timed("window", build_wg, dg, w)
    axioms = timed("S1-S5", check_locally_lie_double, dg, wg)
    hol = timed("holonomy_groupoid", holonomy_groupoid, dg, wg, axioms)
    out["J_r / kernel / classes"] = "%d / %d / %d" % (
        len(hol.germ_groupoid.arrows), len(hol.unit_sub.arrows), len(hol.quotient.arrows))
    out["charts / chart squares"] = "%d / %d" % (
        len(hol.charts), sum(len(chart.mapping) for chart in hol.charts))
    charts = timed("check_chart_coherence", check_chart_coherence, hol)
    mu = identity_vertical_morphism(dg)
    timed("check_groupoid_morphism(mu)", check_groupoid_morphism,
          mu, dg.vertical_groupoid(), dg.vertical_groupoid())
    report = timed("universal_morphism", universal_morphism, wg, mu, hol)[1]
    verdicts = {"check_double": not bad, "axioms": axioms["ok"],
                "charts": charts["ok"], "unique": report["unique"]}
    if name != "s3":
        arrows = ["c0", "c1", "c%d" % (len(cm.C.arrows) - 1)]
        small = build_wg(dg, WStructure(arrows, FiniteTopSpace.discrete(arrows)))
        target = holonomy_groupoid(dg, small, check_locally_lie_double(dg, small))
        window = "window " + " ".join(arrows)
        report = timed("universal, " + window, universal_morphism, wg, mu, target)[1]
        verdicts["unique, " + window] = report["unique"]
    out["verdicts"] = verdicts
    out["peak RSS MB"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return out


def vertical_view_memory(name):
    """MB held by the vertical view with its tables, and the peak of its
    build, under tracemalloc; the squares are built before tracing."""
    import tracemalloc
    from holonomy2.dgpd import build_double_groupoid

    dg = build_double_groupoid(discrete_full_window(model(name))[0])
    tracemalloc.start()
    dg.vertical_groupoid().tables()
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {"vertical view held MB": round(held / 2**20, 1),
            "vertical view peak MB": round(peak / 2**20, 1)}


def child(name, what):
    return subprocess.run([sys.executable, __file__, "--child", what, name], check=True,
                          capture_output=True, text=True).stdout


def main(argv):
    if argv[:1] == ["--child"]:
        what, name = argv[1:3]
        print(json.dumps(layers(name) if what == "layers" else vertical_view_memory(name)))
        return
    for name in argv or ["z4", "z5", "s3"]:
        row = json.loads(child(name, "layers"))
        row.update(json.loads(child(name, "memory")))
        print("%s (%d squares)" % (name, row.pop("squares_n")))
        for key, value in row.items():
            print("  %-28s %s" % (key, value))
        sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
