"""Tests of the benchmark itself: generator, correctness gate and tracer."""

import hashlib
import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SCENARIOS = ROOT / "scenarios"
Z3_SEED0_SHA256 = {
    "z3-discrete": "2a60dd87ef9dbf00d9f769e1cd8e02e73a3d61059721ac25bb5e280fcf1c2f74",
    "z3-indiscrete": "fea695e9cd4b2fcec8f721ff0dad85b7055003e756536ff2849fe688463b6f2f",
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def last_json_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_generator_seed0_is_stable(tmp_path):
    for name, digest in Z3_SEED0_SHA256.items():
        (path,) = workloads.make_inputs(name, 0, SCENARIOS, tmp_path / name)
        assert sha256(path.read_bytes()) == digest
    copies = workloads.make_inputs("corpus", 0, SCENARIOS, tmp_path / "corpus")
    assert [p.name for p in copies] == sorted(p.name for p in SCENARIOS.glob("*.json"))
    for p in copies:
        assert p.read_bytes() == (SCENARIOS / p.name).read_bytes()


def test_generator_other_seeds_relabel_deterministically(tmp_path):
    from holonomy2.scenario import load_scenario

    for name in workloads.WORKLOADS:
        a = workloads.make_inputs(name, 7, SCENARIOS, tmp_path / "a" / name)
        b = workloads.make_inputs(name, 7, SCENARIOS, tmp_path / "b" / name)
        zero = workloads.make_inputs(name, 0, SCENARIOS, tmp_path / "0" / name)
        assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]
        assert [p.read_bytes() for p in a] != [p.read_bytes() for p in zero]
        for p, q in zip(a, zero):
            new, old = load_scenario(str(p)), load_scenario(str(q))
            assert [t["task"] for t in new.tasks] == [t["task"] for t in old.tasks]
            for g in old.groupoids:
                assert len(new.groupoids[g].arrows) == len(old.groupoids[g].arrows)


def test_expected_verdicts_at_seed_0():
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    assert set(expected) == set(workloads.WORKLOADS)
    assert expected["z3-discrete"]["z3-discrete.json"]["exit"] == 0
    indiscrete = expected["z3-indiscrete"]["z3-indiscrete.json"]
    assert indiscrete["exit"] == 1
    (hol,) = [t for t in indiscrete["summary"]["tasks"] if t["task"] == "holonomy"]
    s4 = hol["details"]["square_axioms"]["S4"]
    assert s4["ok"] is False and s4["missing_sections"]


def test_check_report_names_every_kind_of_mismatch(tmp_path):
    report = {"ok": True, "scenario": "a.json", "tasks": [
        {"task": "double", "ok": True, "details": {"squares": 16, "xmod": "CM"}}]}
    text = json.dumps(report).encode()
    entry = {"exit": 0, "sha256": sha256(text), "summary": run.summary(report)}
    inv0 = run.Invocation(tmp_path / "a.json", entry, 0, tmp_path)
    inv5 = run.Invocation(tmp_path / "a.json", entry, 5, tmp_path)
    assert run.check_report(inv0, 0, text, b"") is None
    assert run.check_report(inv5, 0, text.replace(b"CM", b"XY"), b"") is None
    assert "sha256" in run.check_report(inv0, 0, text + b" ", b"")
    assert "summary" in run.check_report(inv5, 0, text.replace(b"16", b"15"), b"")
    assert "exit code" in run.check_report(inv0, 1, text, b"")
    assert "traceback" in run.check_report(inv0, 0, text, b"Traceback (most recent")
    assert "timed out" in run.check_report(inv0, None, b"", b"")


def test_layer_totals_counts_nested_spans_once():
    trace = {"names": ["cli.execute", "groupoid.check_groupoid"],
             "name_id": array("i", [0, 1, 1]),
             "parent": array("i", [-1, 0, 1]),
             "start": array("d", [0.0, 1.0, 2.0]),
             "end": array("d", [10.0, 5.0, 3.0]),
             "counts": {"groupoid.check_groupoid": {"arrows": 7}}}
    t = run.layer_totals([trace], 12.0)
    assert t["groupoid.check_groupoid.s"] == 4.0
    assert t["groupoid.check_groupoid.self_s"] == 3.0 + 1.0
    assert t["groupoid.check_groupoid.calls"] == 2
    assert t["groupoid.check_groupoid.arrows"] == 7
    assert t["cli.execute.self_s"] == 6.0
    assert t["trace.unattributed_s"] == 2.0


def _bindings():
    """Identity of every module attribute, module-level dict value and
    class attribute across the holonomy2 modules."""
    out = {}
    for mod in tracer.holonomy2_modules():
        for key, val in vars(mod).items():
            out[(mod.__name__, key)] = id(val)
            if isinstance(val, dict) and key != "__builtins__":
                for k, v in val.items():
                    out[(mod.__name__, key, k)] = id(v)
            if isinstance(val, type):
                for k, v in vars(val).items():
                    out[(mod.__name__, key, "." + k)] = id(v)
    return out


def test_tracing_patches_and_restores_every_binding(capsys):
    from holonomy2 import cli

    before = _bindings()
    recorder = tracer.Recorder()
    with tracer.tracing(recorder):
        during = _bindings()
        code = cli.execute(["--scenario", str(SCENARIOS / "z2z2_broken_cm2.json"),
                            "--format", "json"])
    capsys.readouterr()
    assert code == 1
    assert _bindings() == before
    changed = {k for k in before if during.get(k) != before[k]}
    assert ("holonomy2.cli", "TASKS", "validate") in changed
    assert ("holonomy2.fintop", "FiniteTopSpace", ".discrete") in changed
    assert ("holonomy2.holonomy", "pullback_space") in changed
    assert ("holonomy2", "check_groupoid") in changed
    spans = {recorder.names[i] for i in recorder.name_id}
    assert {"cli.execute", "scenario.load_scenario", "cli.task_validate"} <= spans


def test_benchmark_json_matches_the_code():
    bench = bench_json()
    assert bench["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def _copy_checkout(dst, with_program=True):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(BENCH, dst / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dst / "BENCHMARK.json")
    if with_program:
        shutil.copytree(ROOT / "src", dst / "src", ignore=ignore)
        shutil.copytree(SCENARIOS, dst / "scenarios")


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_altered_report_counts_as_failed(tmp_path):
    _copy_checkout(tmp_path)
    cli = tmp_path / "src" / "holonomy2" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count("indent=1, sort_keys=True, default=str") == 1
    cli.write_text(text.replace("indent=1, sort_keys=True, default=str",
                                "indent=2, sort_keys=True, default=str"), encoding="utf-8")
    proc = _bench(tmp_path, "--workload", "corpus", "--seed", "0",
                  "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = last_json_line(proc.stdout)
    assert result["correct"] is False
    # every one of the five reports is counted, not just the first
    assert result["failed"] == 5
    assert set(result["metrics"]) == {m["name"] for m in bench_json()["end_to_end"]}


def test_traced_run_prints_every_per_layer_metric():
    proc = _bench(ROOT, "--workload", "corpus", "--seed", "0",
                  "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = last_json_line(proc.stdout)
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in bench_json()["per_layer"]}
    assert metrics["holonomy.universal_morphism.s"]["value"] > 0
    assert metrics["fintop.discrete.calls"]["value"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    _copy_checkout(tmp_path, with_program=False)
    proc = _bench(tmp_path, "--workload", "corpus", "--seed", "0",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
