import contextlib
import glob
import hashlib
import importlib
import io
import json
import os
import pkgutil
import runpy
import subprocess
import sys
import tempfile

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracles

import holonomy2
from holonomy2 import cli
from holonomy2.cli import execute
from holonomy2.dgpd import DoubleGroupoidError
from holonomy2.fintop import ModelError
from holonomy2.groupoid import check_groupoid
from holonomy2.scenario import ScenarioError, _groupoid_from_generators, load_scenario

ORACLE = settings.get_profile("oracles")
SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
EXPECTED = os.path.join(os.path.dirname(__file__), "..", "perfbench", "expected.json")
WORKLOADS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")


def scenario_path(name):
    return os.path.join(SCENARIOS, name)


def run_cli(args, capsys):
    code = execute(args)
    out = capsys.readouterr().out
    return code, out


def test_load_z2z2_scenario():
    scn = load_scenario(scenario_path("z2z2.json"))
    assert set(scn.groupoids) == {"G", "C"}
    assert "CM" in scn.xmods
    assert len(scn.tasks) == 5


def test_loader_reports_closure_violation_with_pair():
    data = {"spaces": {"S": {"points": ["a", "b", "c"],
                             "opens": [[], ["a"], ["b"], ["a", "b", "c"]]}}}
    with pytest.raises(ScenarioError, match="spaces.S.*union.*'a'.*'b'"):
        load_scenario(data)


def test_loader_reports_unknown_reference():
    data = {"groupoids": {"G": {"objects": ["x"],
                                "arrows": [{"id": "e", "src": "x", "tgt": "x"}],
                                "compose": [["e", "e", "e"]],
                                "topology": {"arrows": "nope", "objects": "nope"}}}}
    with pytest.raises(ScenarioError, match="groupoids.G.topology.arrows"):
        load_scenario(data)


def test_generated_z4_groupoid():
    data = {"groupoids": {"C": {
        "objects": ["x"],
        "generators": [{"id": "k", "src": "x", "tgt": "x"}],
        "relations": [[["k", "k", "k", "k"], []]]}}}
    g = load_scenario(data).groupoids["C"]
    assert len(g.arrows) == 4
    assert check_groupoid(g) == []
    assert g.add("k", "k") == "k+k"
    assert g.add("k+k", "k") == "-k"


def test_generated_pair_groupoid():
    data = {"groupoids": {"G": {
        "objects": ["x", "y"],
        "generators": [{"id": "p", "src": "x", "tgt": "y"}],
        "relations": []}}}
    g = load_scenario(data).groupoids["G"]
    assert len(g.arrows) == 4
    assert check_groupoid(g) == []


def test_generated_groupoid_arrow_cap():
    data = {"groupoids": {"F": {
        "objects": ["x"],
        "generators": [{"id": "a", "src": "x", "tgt": "x"}],
        "relations": []}}}
    with pytest.raises(ScenarioError, match="cap"):
        load_scenario(data, arrow_cap=16)


def test_cli_z2z2_all_tasks_pass(capsys):
    code, out = run_cli(["--scenario", scenario_path("z2z2.json")], capsys)
    assert code == 0
    assert "overall: pass" in out


def test_cli_double_reports_square_count(capsys):
    code, out = run_cli(["--scenario", scenario_path("z2z2.json"),
                         "--task", "double", "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    (task,) = rep["tasks"]
    assert task["details"]["squares"] == 16


def test_cli_broken_cm2_fails_with_witness(capsys):
    code, out = run_cli(["--scenario", scenario_path("z2z2_broken_cm2.json"),
                         "--format", "json"], capsys)
    assert code == 1
    rep = json.loads(out)
    flat = json.dumps(rep)
    assert "CM2 fails at (c=c0, c1=c1)" in flat


def test_cli_parse_error_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code = execute(["--scenario", str(p)])
    capsys.readouterr()
    assert code == 2


def test_cli_reads_a_scenario_file_of_any_name(tmp_path, capsys):
    """--scenario names a file, whatever its suffix: a copy of z2z2.json
    without one gives the same report but for its "scenario" name."""
    copy = tmp_path / "z2z2_noext"
    copy.write_bytes(open(scenario_path("z2z2.json"), "rb").read())
    code, out = run_cli(["--scenario", str(copy), "--format", "json"], capsys)
    _, want = run_cli(["--scenario", scenario_path("z2z2.json"), "--format", "json"], capsys)
    assert code == 0
    got, want = json.loads(out), json.loads(want)
    assert (got.pop("scenario"), want.pop("scenario")) == ("z2z2_noext", "z2z2.json")
    assert got == want


def test_cli_reference_error_exit_2(tmp_path, capsys):
    p = tmp_path / "dangling.json"
    p.write_text(json.dumps({
        "groupoids": {"G": {"objects": ["x"],
                            "arrows": [{"id": "e", "src": "x", "tgt": "zzz"}],
                            "compose": []}},
        "tasks": []}))
    code, out = run_cli(["--scenario", str(p), "--format", "json"], capsys)
    assert code == 2
    assert "dangling" in out or "G" in out


def test_cli_unknown_task_exit_2(tmp_path, capsys):
    p = tmp_path / "task.json"
    p.write_text(json.dumps({"tasks": [{"task": "frobnicate"}]}))
    code, out = run_cli(["--scenario", str(p)], capsys)
    assert code == 2


def test_cli_reports_byte_identical(capsys):
    _, out1 = run_cli(["--scenario", scenario_path("z4_interior.json"),
                       "--format", "json", "--seed", "5"], capsys)
    _, out2 = run_cli(["--scenario", scenario_path("z4_interior.json"),
                       "--format", "json", "--seed", "5"], capsys)
    assert out1 == out2


def test_cli_dump_writes_files(tmp_path, capsys):
    """The dumps of z2z2.json are pinned byte for byte: a lost, added or
    reordered entry changes the digest."""
    code, _ = run_cli(["--scenario", scenario_path("z2z2.json"), "--task", "double",
                       "--task", "holonomy", "--dump", str(tmp_path)], capsys)
    assert code == 0
    payload = json.loads((tmp_path / "double_CM.json").read_text())
    assert len(payload["squares"]) == 16
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir())}
    assert digests == {
        "double_CM.json": "8a0e541c32921542599c17dc411a6665f5aa5be107ae41cacc5f03de3dd10f51",
        "holonomy_CM_W.json": "1d0a22a7340389a2b18e50cf36b106eecd0e67ed3bec1573e12f2fde931b4f6f"}


def test_cli_universal_scenario(capsys):
    code, out = run_cli(["--scenario", scenario_path("universal_z2z2.json"),
                         "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    (task,) = rep["tasks"]
    assert task["details"]["report"]["unique"] is True


def test_cli_sierpinski_scenario(capsys):
    code, out = run_cli(["--scenario", scenario_path("pairz2_sierpinski.json")],
                        capsys)
    assert code == 0


def cli_env(**extra):
    """Environment in which a child interpreter imports the package under
    test, whether or not PYTHONPATH names it."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "holonomy2.cli", "--scenario",
         scenario_path("z2z2.json"), "--task", "validate"],
        capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 0
    assert "pass" in proc.stdout


def test_word_bound_is_a_usage_error():
    """The universal check has no bound to set: the old flag is an
    argparse usage error, exit 2, with no traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "holonomy2.cli", "--scenario",
         scenario_path("universal_z2z2.json"), "--word-bound", "3"],
        capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 2 and proc.stdout == ""
    assert "unrecognized arguments: --word-bound 3" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_missing_unit_off_an_open_set_fails_validate_with_its_list(tmp_path):
    """A topologized groupoid whose objects with units, {x}, are not open
    fails validate with exit 1 and its violation list, not an error
    message, and with no traceback."""
    arrows = [u + v for u in "xy" for v in "xy"]
    scenario = {
        "spaces": {"A": {"points": arrows, "kind": "discrete"},
                   "O": {"points": ["x", "y"], "opens": [[], ["y"], ["x", "y"]]}},
        "groupoids": {"P": {
            "objects": ["x", "y"],
            "arrows": [{"id": a, "src": a[0], "tgt": a[1]} for a in arrows],
            "compose": [[a, b, a[0] + b[1]] for a in arrows for b in arrows if a[1] == b[0]],
            "neg": {a: a[::-1] for a in arrows}, "units": {"x": "xx"},
            "topology": {"arrows": "A", "objects": "O"}}},
        "tasks": [{"task": "validate"}]}
    path = tmp_path / "missing_unit.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "holonomy2.cli", "--scenario", str(path), "--format", "json"],
        capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    (task,) = json.loads(proc.stdout)["tasks"]
    assert task["details"]["groupoids"]["P"][0] == "unit missing at object y"


def workload_inputs(workload, out_dir):
    """The benchmark's seed-0 input files for a workload, written to
    ``out_dir`` by its generator (run without importing the benchmark
    package, so nothing is written next to it)."""
    make_inputs = runpy.run_path(WORKLOADS)["make_inputs"]
    return [str(p) for p in make_inputs(workload, 0, SCENARIOS, out_dir)]


GOLDEN = ([pytest.param("corpus", path, id=os.path.basename(path))
           for path in sorted(glob.glob(os.path.join(SCENARIOS, "*.json")))]
          + [pytest.param(w, None, id=w + ".json") for w in ("z3-discrete", "z3-indiscrete")])


def test_byte_identical_across_processes(tmp_path):
    """The JSON reports of the five scenarios and of the generated Z/3
    models do not depend on the hash seed."""
    paths = [path or workload_inputs(workload, tmp_path)[0]
             for workload, path in (p.values for p in GOLDEN)]
    for path in paths:
        cmd = [sys.executable, "-m", "holonomy2.cli", "--scenario", path, "--format", "json"]
        a, b = (subprocess.run(cmd, capture_output=True, text=True,
                               env=cli_env(PYTHONHASHSEED=seed)) for seed in ("0", "1"))
        assert a.returncode == b.returncode and a.returncode in (0, 1), path
        assert a.stdout == b.stdout, path


@pytest.mark.parametrize("workload,path", GOLDEN)
def test_cli_report_matches_recorded_golden(workload, path, tmp_path, capsys):
    """Default JSON reports are byte-identical to the benchmark's seed-0
    recordings (exit code and sha256 of stdout): the five scenarios, and
    the generated Z/3 models with discrete and indiscrete topologies."""
    if path is None:
        [path] = workload_inputs(workload, tmp_path)
    with open(EXPECTED, encoding="utf-8") as fh:
        golden = json.load(fh)[workload][os.path.basename(path)]
    code, out = run_cli(["--scenario", path, "--format", "json"], capsys)
    assert code == golden["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == golden["sha256"]


# exit code and sha256 of the default JSON report of ``z4_discrete.json``;
# it lives beside the tests because the benchmark's corpus workload
# takes every file under scenarios/
Z4_GOLDEN = {"exit": 0,
             "sha256": "7bef63ec7145a13681caf7216c04d02c26ff51cd29904f00d96d63570c0bd1ff"}


def test_z4_report_matches_recorded_golden(capsys):
    """Z/4 on itself with discrete topologies and the full window: 256
    squares, classes and charts, eight times the largest scenario's.  Its
    validate and holonomy report is byte-identical to the recording."""
    path = os.path.join(os.path.dirname(__file__), "z4_discrete.json")
    code, out = run_cli(["--scenario", path, "--format", "json"], capsys)
    assert json.loads(out)["tasks"][1]["details"]["holonomy"]["arrows"] == 256
    assert code == Z4_GOLDEN["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == Z4_GOLDEN["sha256"]


@pytest.mark.parametrize("arrows", [[["c0"]], 5])
def test_loader_rejects_malformed_window_arrows(arrows):
    with open(scenario_path("z2z2.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    name = sorted(data["wstructures"])[0]
    data["wstructures"][name]["arrows"] = arrows
    with pytest.raises(ScenarioError, match="wstructures.%s.arrows" % name):
        load_scenario(data)


MODEL_ERRORS = sorted(ModelError.__subclasses__(), key=lambda cls: cls.__name__)


@pytest.mark.parametrize("error", MODEL_ERRORS)
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cli_model_error_is_a_failed_task(error, fmt, monkeypatch, capsys):
    """A library error raised inside a task gives that task an error entry
    and exit 1, not a traceback; the tasks before and after it still run.
    The library has six error types, one per module that checks a model."""
    assert len(MODEL_ERRORS) == 6
    def task_double(scn, task, opts):
        raise error("odd model")

    monkeypatch.setitem(cli.TASKS, "double", task_double)
    code, out = run_cli(["--scenario", scenario_path("z2z2.json"), "--format", fmt],
                        capsys)
    assert code == 1
    names = ["validate", "double", "gamma", "derivations", "holonomy"]
    if fmt == "json":
        report = json.loads(out)
        assert [t["task"] for t in report["tasks"]] == names
        assert report["tasks"][1] == {"task": "double", "ok": False,
                                      "details": {"error": "odd model"}}
        assert [t["ok"] for t in report["tasks"]] == [True, False, True, True, True]
        assert report["ok"] is False
    else:
        lines = out.splitlines()
        assert [ln for ln in lines if ln.startswith("[")] == [
            "[pass] validate", "[FAIL] double", "[pass] gamma", "[pass] derivations",
            "[pass] holonomy"]
        assert lines[lines.index("[FAIL] double") + 1] == "  error: odd model"
        assert lines[-1] == "overall: FAIL"


def test_every_library_error_is_a_model_error():
    """Every exception class a ``holonomy2`` module defines, but the
    loader's ``ScenarioError`` (exit 2), is a ``ModelError``, which the
    CLI turns into a failed task."""
    found = []
    for info in pkgutil.iter_modules(holonomy2.__path__):
        mod = importlib.import_module("holonomy2." + info.name)
        found += [cls for cls in vars(mod).values()
                  if isinstance(cls, type) and issubclass(cls, BaseException)
                  and cls.__module__ == mod.__name__ and cls is not ScenarioError]
    assert set(found) == {ModelError, *MODEL_ERRORS}


def cyclic_group(labels):
    """A block of the cyclic group on ``labels`` over the one object x."""
    n = len(labels)
    return {"objects": ["x"],
            "arrows": [{"id": a, "src": "x", "tgt": "x"} for a in labels],
            "compose": [[labels[i], labels[j], labels[(i + j) % n]]
                        for i in range(n) for j in range(n)],
            "neg": {labels[i]: labels[-i % n] for i in range(n)},
            "units": {"x": labels[0]}}


def test_non_linear_induced_section_is_a_failed_task(tmp_path, capsys):
    """C = G = Z/2, identity boundary, every action value c0: the derivation
    task's induced section is not linear.  That task gets an error entry,
    the exit code is 1, and the other tasks keep their entries.  The
    double task's error names the first vertical composite that is not a
    square and the boundary equation it breaks."""
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({
        "groupoids": {"C": cyclic_group(["c0", "c1"]), "G": cyclic_group(["g0", "g1"])},
        "xmods": {"CM": {"c": "C", "g": "G", "delta": {"c0": "g0", "c1": "g1"},
                         "action": [[c, a, "c0"] for c in ("c0", "c1") for a in ("g0", "g1")]}},
        "tasks": [{"task": "validate"}, {"task": "derivations", "xmod": "CM"},
                  {"task": "double", "xmod": "CM"}]}))
    code = execute(["--scenario", str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    report = json.loads(captured.out)
    assert [t["task"] for t in report["tasks"]] == ["validate", "derivations", "double"]
    assert report["tasks"][1] == {
        "task": "derivations", "ok": False,
        "details": {"error": "induced section invalid: linearity fails at (g0,g0)"}}
    assert report["tasks"][2] == {
        "task": "double", "ok": False,
        "details": {"error": "vertical composite [c1:g0|g0|g0|g1]+[c0:g1|g0|g0|g1]="
                             "[c0:g0|g0|g0|g1] breaks the boundary equation "
                             "delta(inner) = -bottom - left + top + right"}}


@st.composite
def cyclic_models(draw):
    """C = Z/m and G = Z/n on one object, m, n in {2, 3}, with the boundary
    and action tables drawn uniformly, a full discrete window and all six
    tasks."""
    m, n = draw(st.sampled_from([2, 3])), draw(st.sampled_from([2, 3]))
    cs, gs = ["c%d" % i for i in range(m)], ["g%d" % i for i in range(n)]
    return {"groupoids": {"C": cyclic_group(cs), "G": cyclic_group(gs)},
            "xmods": {"CM": {"c": "C", "g": "G",
                             "delta": {c: draw(st.sampled_from(gs)) for c in cs},
                             "action": [[c, a, draw(st.sampled_from(cs))]
                                        for c in cs for a in gs]}},
            "wstructures": {"W": {"xmod": "CM"}},
            "tasks": [{"task": "validate"}] + [
                {"task": t, "xmod": "CM"} for t in ("double", "gamma", "derivations")] + [
                {"task": t, "xmod": "CM", "w": "W"} for t in ("holonomy", "universal")]}


@settings(ORACLE, max_examples=60)
@given(cyclic_models())
def test_cli_never_raises_on_a_cyclic_model(data):
    """Any boundary and action tables over Z/m and Z/n run all six tasks
    to a report: exit 0 or 1 and one JSON object on standard output."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = execute(["--scenario", path, "--format", "json"])
    event("exit %d" % code)
    assert code in (0, 1)
    report = json.loads(out.getvalue())
    assert isinstance(report, dict) and len(report["tasks"]) == 6


def cyclic_scenario(n, tasks):
    """Scenario of Z/n acting trivially on itself, identity boundary."""
    def group(prefix):
        return cyclic_group([prefix + str(i) for i in range(n)])
    return {"groupoids": {"G": group(""), "C": group("c")},
            "xmods": {"CM": {"c": "C", "g": "G",
                             "delta": {"c%d" % i: str(i) for i in range(n)},
                             "action": [["c%d" % i, str(j), "c%d" % i]
                                        for i in range(n) for j in range(n)]}},
            "wstructures": {"W": {"xmod": "CM", "arrows": ["c%d" % i for i in range(n)]}},
            "tasks": tasks}


def counting(monkeypatch, module, name):
    """Wrap ``module.name`` wherever a ``holonomy2`` module binds it, so
    that its calls are counted."""
    fn, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "holonomy2"]:
        for attr, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, attr, counted)
    return calls


def test_derivations_build_one_endomorphism_each(tmp_path, monkeypatch, capsys):
    """On Z/3 on itself (9 derivations, 6 coadmissible) the task runs
    induced_endomorphism once per derivation, and its certificates are
    those of is_coadmissible."""
    from holonomy2 import homotopy
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(cyclic_scenario(3, [{"task": "derivations", "xmod": "CM"}])))
    calls = counting(monkeypatch, homotopy, "induced_endomorphism")
    code, out = run_cli(["--scenario", str(path), "--format", "json"], capsys)
    assert code == 0 and len(calls) == 9
    details = json.loads(out)["tasks"][0]["details"]
    assert (details["free_derivations"], details["coadmissible"]) == (9, 6)
    cm = load_scenario(str(path)).xmods["CM"]
    want = []
    for s in homotopy.enumerate_free_derivations(cm):
        ok, cert = homotopy.is_coadmissible(cm, s)
        want.append({"derivation": repr(s), "coadmissible": ok,
                     "f1_bijective": cert["f1_bijective"], "f2_bijective": cert["f2_bijective"]})
    assert details["certificates"] == want


def test_z3_pass_checks_each_section_once(tmp_path, monkeypatch, capsys):
    """validate, double and holonomy on Z/3 on itself (discrete, full
    window) search the minimal-domain sections once per arrow, for the
    window alone, check each of the 81 distinct sections once, and form
    only the section products the deductions can check."""
    from holonomy2 import holonomy
    path = tmp_path / "z3.json"
    tasks = [{"task": "validate"}, {"task": "double", "xmod": "CM"},
             {"task": "holonomy", "xmod": "CM", "w": "W"}]
    path.write_text(json.dumps(cyclic_scenario(3, tasks)))
    counted = [counting(monkeypatch, holonomy, name)
               for name in ("min_sections_at", "check_local_section", "local_section_mul")]
    code, out = run_cli(["--scenario", str(path), "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["tasks"][2]["details"]["holonomy"]["arrows"] == 81
    searches, checks, products = map(len, counted)
    assert (searches, checks) == (3, 81) and products <= 126


def test_tasks_share_one_double_groupoid(monkeypatch, capsys):
    calls = counting(monkeypatch, cli, "build_double_groupoid")
    code, out = run_cli(["--scenario", scenario_path("z2z2.json"), "--format", "json"], capsys)
    assert code == 0 and len(calls) == 1


def test_failed_double_groupoid_build_fails_each_task_that_needs_it(monkeypatch, capsys):
    """A build that raises is not kept: every task that asks tries again
    and fails on its own; validate, which needs none, still passes."""
    calls = []

    def broken(cm):
        calls.append(cm)
        raise DoubleGroupoidError("odd model")

    monkeypatch.setattr(cli, "build_double_groupoid", broken)
    code, out = run_cli(["--scenario", scenario_path("z2z2.json"), "--format", "json"], capsys)
    tasks = json.loads(out)["tasks"]
    assert code == 1 and len(calls) == 4
    assert [t["ok"] for t in tasks] == [True, False, False, False, False]
    assert all(t["details"] == {"error": "odd model"} for t in tasks[1:])


def test_universal_task_builds_each_structure_once(monkeypatch, capsys):
    """The universal task reads the double groupoid, the window squares
    and the S4 searches its own task built: one of each, and one section
    search per arrow of Z/2, for the window alone."""
    from holonomy2 import dgpd, holonomy
    built = [counting(monkeypatch, dgpd, "build_double_groupoid"),
             counting(monkeypatch, holonomy, "build_wg"),
             counting(monkeypatch, holonomy, "min_sections_at")]
    code, out = run_cli(["--scenario", scenario_path("universal_z2z2.json"),
                         "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["tasks"][0]["details"]["report"]["unique"]
    assert [len(calls) for calls in built] == [1, 1, 2]


def test_holonomy_then_universal_build_the_holonomy_groupoid_once(tmp_path, monkeypatch,
                                                                  capsys):
    """holonomy, then universal, on one window of Z/2: one S1-S5 report
    and one holonomy groupoid, read by both tasks."""
    from holonomy2 import holonomy
    with open(scenario_path("universal_z2z2.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["tasks"].insert(0, {"task": "holonomy", "xmod": "CM", "w": "W"})
    path = tmp_path / "both.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    built = [counting(monkeypatch, holonomy, "check_locally_lie_double"),
             counting(monkeypatch, holonomy, "holonomy_groupoid")]
    code, out = run_cli(["--scenario", str(path), "--format", "json"], capsys)
    assert code == 0 and [t["task"] for t in json.loads(out)["tasks"]] == ["holonomy", "universal"]
    assert [len(calls) for calls in built] == [1, 1]


def test_failed_holonomy_build_fails_each_task_that_needs_it(tmp_path, monkeypatch, capsys):
    """A holonomy groupoid that raises is not kept: universal, after
    holonomy on the same window, builds it again and fails with the same
    message."""
    from holonomy2 import holonomy
    with open(scenario_path("universal_z2z2.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["tasks"].insert(0, {"task": "holonomy", "xmod": "CM", "w": "W"})
    path = tmp_path / "both.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    calls = []

    def broken(*args):
        calls.append(args)
        raise holonomy.HolonomyError("odd window")

    monkeypatch.setattr(cli, "holonomy_groupoid", broken)
    code, out = run_cli(["--scenario", str(path), "--format", "json"], capsys)
    tasks = json.loads(out)["tasks"]
    assert code == 1 and len(calls) == 2
    assert all(t["details"] == {"error": "odd window"} for t in tasks)


def test_unsupported_morphism_exits_2_before_any_build(tmp_path, monkeypatch, capsys):
    """An unsupported morphism is bad input even where the model fails its
    axioms: here indiscrete topologies fail S4, which the task never
    reaches."""
    with open(scenario_path("universal_z2z2.json"), encoding="utf-8") as fh:
        data = json.load(fh)

    def indiscrete(points):
        return {"points": points, "kind": "indiscrete"}

    for name, arrows in (("G", ["0", "1"]), ("C", ["c0", "c1"])):
        data["groupoids"][name]["topology"] = {"arrows": indiscrete(arrows),
                                               "objects": indiscrete(["x"])}
    data["wstructures"]["W"]["space"] = indiscrete(["c0", "c1"])
    path = tmp_path / "nosuch.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out = run_cli(["--scenario", str(path), "--format", "json"], capsys)
    assert code == 1 and "axiom S4 failed" in out
    data["tasks"][0]["mu"] = "nosuch"
    path.write_text(json.dumps(data), encoding="utf-8")
    built = counting(monkeypatch, cli, "build_double_groupoid")
    code, out = run_cli(["--scenario", str(path), "--format", "json"], capsys)
    assert code == 2 and built == []
    assert json.loads(out) == {"error": "tasks.universal: unsupported morphism 'nosuch'",
                               "ok": False}



def test_cli_max_points_caps_inline_topologies(tmp_path, capsys):
    """``--max-points`` caps a space written inline under a groupoid's
    topology as it caps a named space."""
    with open(scenario_path("pairz2_sierpinski.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    spaces = data.pop("spaces")
    data["groupoids"]["G"]["topology"] = {"arrows": spaces["GA"], "objects": spaces["GX"]}
    data["wstructures"]["W"]["space"] = spaces["WA"]
    path = tmp_path / "inline.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run_cli(["--scenario", str(path)], capsys)[0] == 0
    code, out = run_cli(["--scenario", str(path), "--format", "json", "--max-points", "1"],
                        capsys)
    assert code == 2
    assert json.loads(out) == {"error": "groupoids.G.topology.arrows: space has 4 points, "
                                        "cap is 1", "ok": False}

def _bad_input(kind, tmp_path):
    """CLI arguments for one malformed input of the given kind."""
    base = "universal_z2z2.json" if kind == "mu-list" else "z2z2.json"
    with open(scenario_path(base), encoding="utf-8") as fh:
        data = json.load(fh)
    path = tmp_path / "bad.json"
    extra = []
    if kind == "top-level-array":
        data = [data]
    elif kind == "non-utf8":
        path.write_bytes(b'{"tasks": "\xff\xfe"}')
        data = None
    elif kind.endswith(("-list", "-string")) and kind.split("-")[0] in ("groupoids", "spaces",
                                                                         "xmods"):
        key = kind.split("-")[0]
        data[key] = [] if kind.endswith("-list") else key
    elif kind == "morphisms-number":
        data["morphisms"] = 5
    elif kind in ("xmod-list", "w-list", "mu-list"):
        field = kind.split("-")[0]
        task = next(t for t in data["tasks"] if t["task"] in ("holonomy", "universal"))
        task[field] = [task.get(field, "identity")]
    elif kind == "task-name-list":
        data["tasks"][0]["task"] = [data["tasks"][0]["task"]]
    elif kind == "dump-blocked":
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        extra = ["--dump", str(blocker / "dumps"), "--task", "double"]
    if data is not None:
        path.write_text(json.dumps(data), encoding="utf-8")
    return ["--scenario", str(path), "--format", "json"] + extra


@pytest.mark.parametrize("field, value, loc", [
    ("neg", ["0"], "groupoids.G.neg"),
    ("units", "x", "groupoids.G.units"),
    ("neg", {"0": ["0"]}, "groupoids.G.neg"),
    ("xmods", "CM", "tasks.validate"),
    ("xmods", ["Q"], "tasks.validate"),
    ("xmods", 5, "tasks.validate")])
def test_cli_bad_neg_units_and_xmods_exit_2(field, value, loc, tmp_path, capsys):
    """A groupoid's neg or units that is not an object of strings, and a
    validate task's xmods that is not a list of known xmods, end in exit
    2 and an error naming the field, not in a traceback."""
    with open(scenario_path("z2z2.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    if field == "xmods":
        data["tasks"][0][field] = value
    else:
        data["groupoids"]["G"][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = execute(["--scenario", str(path), "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 2 and "Traceback" not in err
    report = json.loads(out)
    assert report["ok"] is False and report["error"].startswith(loc + ": ")


# one field of z2z2.json at a time, and the location the error names; a
# path under "spaces" adds that space to the scenario
MALFORMED_FIELDS = [
    (("groupoids", "G", "objects"), 5, "groupoids.G.objects"),
    (("groupoids", "G", "objects"), [["x"]], "groupoids.G.objects"),
    (("groupoids", "G", "objects"), "x", "groupoids.G.objects"),
    (("groupoids", "G", "arrows"), 5, "groupoids.G.arrows"),
    (("groupoids", "G", "arrows", 0, "src"), ["x"], "groupoids.G.arrows[0].src"),
    (("groupoids", "G", "compose"), 5, "groupoids.G.compose"),
    (("groupoids", "G", "compose", 0), [["0"], "0", "0"], "groupoids.G.compose[0]"),
    (("groupoids", "G", "topology"), 5, "groupoids.G.topology"),
    (("xmods", "CM", "delta"), 5, "xmods.CM.delta"),
    (("xmods", "CM", "delta"), {"c0": ["0"], "c1": "1"}, "xmods.CM.delta"),
    (("xmods", "CM", "action"), 5, "xmods.CM.action"),
    (("xmods", "CM", "action", 0), [["c0"], "0", "c0"], "xmods.CM.action[0]"),
    (("xmods", "CM", "c"), ["C"], "xmods.CM.c"),
    (("wstructures", "W", "xmod"), ["CM"], "wstructures.W.xmod"),
    (("spaces", "S"), {"points": 5}, "spaces.S.points"),
    (("spaces", "S"), {"points": [["a"]]}, "spaces.S.points"),
    (("spaces", "S"), {"points": ["a"], "opens": 5}, "spaces.S.opens"),
    (("spaces", "S"), {"points": ["a"], "opens": [[["a"]]]}, "spaces.S.opens[0]")]


@pytest.mark.parametrize("path, value, loc", MALFORMED_FIELDS,
                         ids=["%s=%s" % (".".join(map(str, p)), json.dumps(v))
                              for p, v, _ in MALFORMED_FIELDS])
def test_cli_malformed_field_exits_2_naming_it(path, value, loc, tmp_path, capsys):
    """An identifier that is not a string, or a container that is not a
    list or an object, ends in exit 2 and a JSON error naming the field,
    not in a traceback.  Objects given as the string "x" are refused, not
    read as the characters of the string."""
    with open(scenario_path("z2z2.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    *head, last = path
    node = data
    for key in head:
        node = node.setdefault(key, {}) if isinstance(key, str) else node[key]
    node[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    code = execute(["--scenario", str(bad), "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 2 and "Traceback" not in err
    report = json.loads(out)
    assert report["ok"] is False and report["error"].startswith(loc + ": must be ")


@pytest.mark.parametrize("kind", [
    "top-level-array", "non-utf8",
    "groupoids-list", "groupoids-string", "spaces-list", "spaces-string",
    "xmods-list", "xmods-string", "morphisms-number",
    "xmod-list", "w-list", "mu-list", "task-name-list", "dump-blocked"])
def test_cli_malformed_input_exits_2_with_an_error_report(kind, tmp_path, capsys):
    """Bad input ends in exit 2 and the usual error report, never a traceback."""
    code, out = run_cli(_bad_input(kind, tmp_path), capsys)
    assert code == 2
    report = json.loads(out)
    assert set(report) == {"error", "ok"} and report["ok"] is False
    assert isinstance(report["error"], str) and report["error"]


# ---------------------------------------------------------------------------
# generated groupoids
# ---------------------------------------------------------------------------


def z4_presentation():
    """The C block of z4_interior.json: Z/4 as <k | k^4 = 1>."""
    with open(scenario_path("z4_interior.json"), encoding="utf-8") as fh:
        return json.load(fh)["groupoids"]["C"]


@pytest.mark.parametrize("cap, loads", [(3, False), (4, True)])
def test_arrow_cap_is_inclusive(cap, loads):
    """The arrow cap counts units and admits exactly ``cap`` arrows: Z/4
    has four."""
    data = {"groupoids": {"C": z4_presentation()}}
    if loads:
        assert len(load_scenario(data, arrow_cap=cap).groupoids["C"].arrows) == 4
    else:
        with pytest.raises(ScenarioError, match="exceeds the 3-arrow cap"):
            load_scenario(data, arrow_cap=cap)


@pytest.mark.parametrize("cap, loads", [(1, False), (2, True)])
def test_arrow_cap_counts_the_units_alone(cap, loads):
    """Two objects and no generators make two unit arrows: they load at
    cap 2 and are refused at cap 1, before any letter is read."""
    data = {"groupoids": {"G": {"objects": ["x", "y"], "generators": []}}}
    if loads:
        assert len(load_scenario(data, arrow_cap=cap).groupoids["G"].arrows) == 2
    else:
        with pytest.raises(ScenarioError, match="^groupoids.G: generated groupoid exceeds "
                                                "the 1-arrow cap$"):
            load_scenario(data, arrow_cap=cap)


K = {"id": "k", "src": "x", "tgt": "x"}
BAD_PRESENTATIONS = [
    ("relations", [[["k", "k", "k", "k"], []], [[], []]],
     "groupoids.C.relations[1]: needs a non-empty word"),
    ("generators", [dict(K, id="-k")], "groupoids.C.generators: generator id '-k' starts"),
    ("generators", [K, dict(K, id="-k")], "groupoids.C.generators: generator id '-k' starts"),
    ("generators", [K, K], "groupoids.C.generators: generator id 'k' repeats"),
    ("relations", [[["k"], ["k"]]], "groupoids.C: rewriting does not terminate")]


@pytest.mark.parametrize("field, value, message", BAD_PRESENTATIONS,
                         ids=["empty-relation", "dash-id", "id-and-its-inverse", "repeated-id",
                              "non-terminating"])
def test_cli_bad_presentation_exits_2_naming_the_field(field, value, message, tmp_path,
                                                        capsys):
    """A relation of two empty words, a relation that rewrites forever and
    a generator id that repeats or starts with '-' end in exit 2 and a
    JSON error naming the block or the field."""
    with open(scenario_path("z4_interior.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["groupoids"]["C"][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = execute(["--scenario", str(path), "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 2 and "Traceback" not in err
    report = json.loads(out)
    assert report["ok"] is False and report["error"].startswith(message)


@st.composite
def presentations(draw, plain=False):
    """A generator block on one to three objects with up to three ids and
    up to three relations: powers equal to the unit, random words, words
    with an unknown letter, and empty words.  ``plain`` ids are distinct
    and do not start with '-'."""
    objects = ["x", "y", "z"][:draw(st.integers(1, 3))]
    names = st.sampled_from(["a", "b", "c"] if plain else ["a", "b", "-a", "c"])
    n = draw(st.integers(0, 3))
    ids = draw(st.lists(names, min_size=n, max_size=n, unique=plain))
    gens = [{"id": g, "src": draw(st.sampled_from(objects)),
             "tgt": draw(st.sampled_from(objects))} for g in ids]
    letters = st.sampled_from([*ids, *("-" + g for g in ids)] or ["u"])
    words = st.lists(letters, min_size=1, max_size=4)
    relations = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["power"] * 3 + ["words", "unknown", "unit", "empty"]))
        if kind == "power":
            relations.append([[draw(letters)] * draw(st.integers(1, 4)), []])
        elif kind == "empty":
            relations.append([[], []])
        else:
            lhs, rhs = draw(words), [] if kind == "unit" else draw(words)
            relations.append([lhs + ["u"] if kind == "unknown" else lhs, rhs])
    return objects, {"objects": objects, "generators": gens, "relations": relations}


@settings(ORACLE, max_examples=200)
@given(presentations())
def test_cli_never_raises_on_a_presentation(drawn):
    """Any small generator block ends in exit 0, 1 or 2, never in an
    exception."""
    _, block = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"groupoids": {"G": block}, "tasks": [{"task": "validate"}]}, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = execute(["--scenario", path, "--format", "json"])
    event("exit %d" % code)
    assert code in (0, 1, 2)


def expansion(build, objects, block, cap):
    """The parts of a generated groupoid, or the message of the
    ScenarioError that refused it."""
    try:
        g = build("G", block, objects, cap)
    except ScenarioError as e:
        return "refused", str(e)
    return "loaded", (g.arrows, g._src, g._tgt, list(g.entries()), g._neg, g._units)


def capped(cap):
    return "refused", "G: generated groupoid exceeds the %d-arrow cap" % cap


@settings(ORACLE, max_examples=200)
@given(presentations(plain=True), st.integers(1, 24))
def test_generated_groupoid_matches_the_name_lookup_expansion(drawn, cap):
    """The letter table gives the groupoid, or the message, of the old
    expansion under a cap one lower, but for the number the cap's message
    names: the old cap admitted one arrow past it, and the library's
    admits none.  The old expansion let the units alone pass the cap;
    the library refuses such a block before reading the rest of it."""
    objects, block = drawn
    got = expansion(_groupoid_from_generators, objects, block, cap)
    if len(objects) > cap:
        event("the units pass the cap")
        assert got == capped(cap)
        return
    try:
        want = expansion(oracles.groupoid_from_generators, objects, block, cap - 1)
    except TypeError:  # the old expansion crashed on a relation of two empty words
        event("old crashed")
        assert got[0] == "refused" and got[1].endswith("needs a non-empty word")
        return
    if want == capped(cap - 1):
        want = capped(cap)
    if want != expansion(oracles.groupoid_from_generators, objects, block, cap):
        event("the inclusive cap refuses")
    event(want[0] if want[0] == "loaded" else want[1].split(": ", 1)[1][:24])
    assert got == want
