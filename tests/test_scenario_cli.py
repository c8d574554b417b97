import glob
import hashlib
import json
import os
import subprocess
import sys

import pytest

from holonomy2 import cli
from holonomy2.cli import execute
from holonomy2.dgpd import DoubleGroupoidError
from holonomy2.fintop import TopologyError
from holonomy2.groupoid import GroupoidError, check_groupoid
from holonomy2.holonomy import HolonomyError
from holonomy2.scenario import ScenarioError, load_scenario
from holonomy2.xmod import XModError

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
EXPECTED = os.path.join(os.path.dirname(__file__), "..", "perfbench", "expected.json")


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
    code, _ = run_cli(["--scenario", scenario_path("z2z2.json"),
                       "--task", "double", "--dump", str(tmp_path)], capsys)
    assert code == 0
    assert (tmp_path / "double_CM.json").exists()
    payload = json.loads((tmp_path / "double_CM.json").read_text())
    assert len(payload["squares"]) == 16


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


def test_byte_identical_across_processes():
    cmd = [sys.executable, "-m", "holonomy2.cli", "--scenario",
           scenario_path("z2z2.json"), "--format", "json"]
    a = subprocess.run(cmd, capture_output=True, text=True,
                       env=cli_env(PYTHONHASHSEED="1"))
    b = subprocess.run(cmd, capture_output=True, text=True,
                       env=cli_env(PYTHONHASHSEED="9"))
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SCENARIOS, "*.json"))),
                         ids=os.path.basename)
def test_cli_report_matches_recorded_golden(path, capsys):
    """Default JSON reports are byte-identical to the benchmark's seed-0
    recordings (exit code and sha256 of stdout)."""
    with open(EXPECTED, encoding="utf-8") as fh:
        golden = json.load(fh)["corpus"][os.path.basename(path)]
    code, out = run_cli(["--scenario", path, "--format", "json"], capsys)
    assert code == golden["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == golden["sha256"]


@pytest.mark.parametrize("arrows", [[["c0"]], 5])
def test_loader_rejects_malformed_window_arrows(arrows):
    with open(scenario_path("z2z2.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    name = sorted(data["wstructures"])[0]
    data["wstructures"][name]["arrows"] = arrows
    with pytest.raises(ScenarioError, match="wstructures.%s.arrows" % name):
        load_scenario(data)


@pytest.mark.parametrize("error", [HolonomyError, GroupoidError, DoubleGroupoidError,
                                   XModError, TopologyError])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cli_model_error_is_a_failed_task(error, fmt, monkeypatch, capsys):
    """A library error raised inside a task gives that task an error entry
    and exit 1, not a traceback; the tasks before and after it still run."""
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


def cyclic_scenario(n, tasks):
    """Scenario of Z/n acting trivially on itself, identity boundary."""
    def group(prefix):
        labels = [prefix + str(i) for i in range(n)]
        return {"objects": ["x"],
                "arrows": [{"id": a, "src": "x", "tgt": "x"} for a in labels],
                "compose": [[labels[i], labels[j], labels[(i + j) % n]]
                            for i in range(n) for j in range(n)],
                "neg": {labels[i]: labels[-i % n] for i in range(n)},
                "units": {"x": labels[0]}}
    return {"groupoids": {"G": group(""), "C": group("c")},
            "xmods": {"CM": {"c": "C", "g": "G",
                             "delta": {"c%d" % i: str(i) for i in range(n)},
                             "action": [["c%d" % i, str(j), "c%d" % i]
                                        for i in range(n) for j in range(n)]}},
            "wstructures": {"W": {"xmod": "CM", "arrows": ["c%d" % i for i in range(n)]}},
            "tasks": tasks}


def counting(monkeypatch, module, name):
    """Wrap ``module.name`` so that its calls are counted."""
    fn, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
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
