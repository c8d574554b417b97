"""End-to-end and per-layer benchmark of the holonomy2 CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 15 --trace 0

One closed-loop client runs one CLI invocation at a time, each in a
fresh interpreter, as a user runs ``holonomy2 --scenario F --format
json``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  Every report is checked
against ``expected.json``; the last line of output is one JSON object.
``--record`` rewrites ``expected.json`` from seed-0 runs of the current
code, for a change that alters reports on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, make_inputs  # noqa: E402

EXPECTED = HERE / "expected.json"
WORK = HERE / "out"
BUDGET_S = 170.0        # every run ends well inside the 180 s limit
SETUP_ROUNDS = 10       # at least this many set-up rounds per run,
SETUP_MIN_S = 3.0       # and at least this much set-up time
SETUP_PER_PASS = 2
NO_TASK = "__no_such_task__"
CLI = [sys.executable, "-m", "holonomy2.cli"]

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_TASKS = ["validate", "double", "gamma", "derivations", "holonomy", "universal"]
PER_LAYER = {
    "fintop.pullback_space.s": "s",
    "fintop.pullback_space.calls": "count",
    "fintop.pullback_space.points": "count",
    "fintop.is_continuous.s": "s",
    "fintop.is_continuous.calls": "count",
    "fintop.discrete.calls": "count",
    "groupoid.arrow_space.calls": "count",
    "dgpd.check_double.s": "s",
    "dgpd.build_double_groupoid.calls": "count",
    "dgpd.vertical_groupoid.calls": "count",
    "dgpd.vertical_groupoid.s": "s",
    "dgpd.horizontal_groupoid.s": "s",
    "groupoid.check_groupoid.s": "s",
    "groupoid.check_groupoid.calls": "count",
    "groupoid.check_groupoid.arrows": "count",
    "groupoid.generated_subgroupoid.s": "s",
    "groupoid.quotient.s": "s",
    "groupoid.quotient.classes": "count",
    "holonomy.check_locally_lie_double.s": "s",
    "holonomy.check_locally_lie_double.calls": "count",
    "holonomy.check_locally_lie_xmod.s": "s",
    "holonomy.has_enough_sections.calls": "count",
    "holonomy.generation_equivalence.s": "s",
    "holonomy.build_wg.s": "s",
    "holonomy.min_sections_at.s": "s",
    "holonomy.min_sections_at.calls": "count",
    "holonomy.min_sections_at.sections": "count",
    "holonomy.min_sections_at.empty_share": "ratio",
    "holonomy.build_germ_groupoid.s": "s",
    "holonomy.build_germ_groupoid.germs": "count",
    "holonomy.window_germs.s": "s",
    "holonomy.build_restricted_germs.s": "s",
    "holonomy.build_restricted_germs.germs": "count",
    "holonomy.build_unit_germs.s": "s",
    "holonomy.holonomy_groupoid.s": "s",
    "holonomy.holonomy_groupoid.self_s": "s",
    "holonomy.holonomy_groupoid.calls": "count",
    "holonomy.holonomy_groupoid.charts": "count",
    "holonomy.local_section_mul.calls": "count",
    "holonomy.check_chart_coherence.s": "s",
    "holonomy.check_chart_coherence.charts": "count",
    "holonomy.universal_morphism.s": "s",
    "holonomy.universal_morphism.self_s": "s",
    "xmod.check_crossed_module.s": "s",
    "xmod.find_xmod_isomorphism.s": "s",
    "homotopy.enumerate_free_derivations.s": "s",
    "homotopy.enumerate_linear_sections.s": "s",
    "scenario.load_scenario.s": "s",
    **{"cli.task_%s.s" % t: "s" for t in _TASKS},
    "cli.execute.self_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_share": "ratio",
}


class Failure(Exception):
    """The benchmark cannot run here (missing source or expectations)."""


class OutOfTime(Exception):
    """An invocation was killed at the run's deadline."""


# --------------------------------------------------------------------------
# one invocation


class Invocation:
    """A scenario file, what its report must be, and how to run it."""

    def __init__(self, path, expected, seed, work):
        self.path = Path(path)
        self.expected = expected
        self.seed = seed
        self.out = work / (self.path.stem + ".stdout")
        self.err = work / (self.path.stem + ".stderr")
        self.spans = work / (self.path.stem + ".spans.pickle")

    def cli_args(self, *extra):
        return ["--scenario", str(self.path), "--format", "json", *extra]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv, out, err, timeout):
    """Run ``argv`` to completion; return (exit code, wall s, peak RSS KB).

    The exit code is None on timeout, after the child was killed.  The
    child is reaped with wait4 so that its own peak RSS is reported.
    """
    ready = []
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fo, stderr=fe)
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([fd], [], [], max(timeout, 0.0))
            finally:
                os.close(fd)
        finally:
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)   # already reaped
    return (proc.returncode if ready else None), wall, usage.ru_maxrss


def summary(value):
    """Label-free view of a report: verdicts, counts and shape only.

    Strings are labels or label-bearing witnesses, except task names.
    """
    if isinstance(value, dict):
        return {k: v if k == "task" else summary(v) for k, v in sorted(value.items())}
    if isinstance(value, list):
        return sorted((summary(v) for v in value), key=_canonical)
    if isinstance(value, str):
        return "str"
    return value


def _canonical(value):
    return json.dumps(value, sort_keys=True)


def check_report(inv, code, stdout, stderr):
    """None when the invocation produced the expected report, else why not."""
    if code is None:
        return "timed out"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    if code != inv.expected["exit"]:
        return "exit code %d, expected %d" % (code, inv.expected["exit"])
    if inv.seed == 0:
        if hashlib.sha256(stdout).hexdigest() != inv.expected["sha256"]:
            return "report differs from the recorded sha256"
        return None
    try:
        got = summary(json.loads(stdout))
    except ValueError:
        return "report is not JSON"
    if got != inv.expected["summary"]:
        return "verdict summary differs from seed 0"
    return None


def check_setup(inv, code, stdout, stderr):
    """None when a set-up invocation loaded the file and ran no task."""
    if code is None:
        return "timed out"
    if b"Traceback" in stderr or code != 0:
        return "set-up invocation exited %d" % code
    try:
        report = json.loads(stdout)
    except ValueError:
        return "set-up report is not JSON"
    if report.get("tasks") != [] or report.get("ok") is not True:
        return "set-up invocation ran tasks"
    return None


# --------------------------------------------------------------------------
# passes


class Bench:
    def __init__(self, invocations, deadline):
        self.invocations = invocations
        self.deadline = deadline
        self.attempted = 0
        self.failures = []

    def _run(self, argv, inv, check):
        remaining = self.deadline - time.monotonic()
        code, wall, rss = spawn(argv, inv.out, inv.err, remaining)
        self.attempted += 1
        why = check(inv, code, inv.out.read_bytes(), inv.err.read_bytes())
        if why is not None:
            self.failures.append("%s: %s" % (inv.path.name, why))
        if code is None:
            raise OutOfTime()
        return wall, rss

    def setup_round(self):
        """Wall seconds to start, import, load and validate every file."""
        total = 0.0
        for inv in self.invocations:
            argv = [*CLI, *inv.cli_args("--task", NO_TASK)]
            total += self._run(argv, inv, check_setup)[0]
        return total

    def pass_(self, traced=False):
        """One pass over the workload: (wall s, peak RSS KB, span dumps)."""
        total, peak, traces = 0.0, 0, []
        for inv in self.invocations:
            if traced:
                inv.spans.unlink(missing_ok=True)
                argv = [sys.executable, str(HERE / "tracer.py"), "--spans",
                        str(inv.spans), "--", *inv.cli_args()]
            else:
                argv = [*CLI, *inv.cli_args()]
            wall, rss = self._run(argv, inv, check_report)
            total += wall
            peak = max(peak, rss)
            if traced and inv.spans.is_file():
                with open(inv.spans, "rb") as fh:
                    traces.append(pickle.load(fh))
            elif traced:
                self.failures.append("%s: tracer wrote no spans" % inv.path.name)
        return total, peak, traces

    def has_time_for(self, seconds):
        return time.monotonic() + seconds < self.deadline


def layer_totals(traces, pass_wall):
    """Per-layer metrics of one traced pass (sums over its invocations)."""
    totals = defaultdict(float)
    top = 0.0
    for trace in traces:
        names, name_id, parent = trace["names"], trace["name_id"], trace["parent"]
        dur = [e - s for s, e in zip(trace["start"], trace["end"])]
        child = [0.0] * len(dur)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[i]
        for i, p in enumerate(parent):
            ident = name_id[i]
            name = names[ident]
            totals[name + ".calls"] += 1
            totals[name + ".self_s"] += dur[i] - child[i]
            j = p
            while j >= 0 and name_id[j] != ident:
                j = parent[j]
            if j < 0:   # outermost span of this name: count inclusive time once
                totals[name + ".s"] += dur[i]
            if p < 0:
                top += dur[i]
        for name, counts in trace["counts"].items():
            for key, n in counts.items():
                totals["%s.%s" % (name, key)] += n
    calls = totals["holonomy.min_sections_at.calls"]
    totals["holonomy.min_sections_at.empty_share"] = (
        totals["holonomy.min_sections_at.empty"] / calls if calls else 0.0)
    totals["trace.unattributed_s"] = pass_wall - top
    return totals


def high_percentile(samples):
    """(percentile, value) with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(samples)[k - 1]


# --------------------------------------------------------------------------
# entry points


def load_invocations(workload, seed):
    if not (ROOT / "src" / "holonomy2" / "cli.py").is_file():
        raise Failure("no holonomy2 source under %s" % (ROOT / "src"))
    if not (ROOT / "scenarios").is_dir():
        raise Failure("no scenarios directory under %s" % ROOT)
    if not EXPECTED.is_file():
        raise Failure("missing %s; run with --record" % EXPECTED.name)
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[workload]
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    paths = make_inputs(workload, seed, ROOT / "scenarios", work / "in")
    if sorted(p.name for p in paths) != sorted(expected):
        raise Failure("%s inputs do not match expected.json" % workload)
    return [Invocation(p, expected[p.name], seed, work) for p in paths]


def measure(workload, seed, seconds, trace):
    start = time.monotonic()
    bench = Bench(load_invocations(workload, seed), start + BUDGET_S)
    metrics = {}
    lines = []
    setups, walls, peaks = [], [], []
    plain, traced, layers = [], [], []
    try:
        if not trace:
            # set-up rounds sit between passes so that both sample the same
            # stretch of machine time; only pass time counts to --seconds
            while not walls or (sum(walls) < seconds and bench.has_time_for(walls[-1])):
                setups.extend(bench.setup_round() for _ in range(SETUP_PER_PASS))
                wall, peak, _ = bench.pass_()
                walls.append(wall)
                peaks.append(peak)
            while len(setups) < SETUP_ROUNDS or sum(setups) < SETUP_MIN_S:
                setups.append(bench.setup_round())
        else:
            while not traced or (sum(plain) + sum(traced) < seconds
                                 and bench.has_time_for(plain[-1] + traced[-1])):
                wall = bench.pass_()[0]
                twall, _, traces = bench.pass_(traced=True)
                plain.append(wall)
                traced.append(twall)
                layers.append(layer_totals(traces, twall))
    except OutOfTime:
        pass
    if walls and setups:
        metrics["pass_s"] = statistics.median(walls)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = statistics.median(peaks) / 1024.0
        hp = high_percentile(walls)
        lines.append("pass_s: median %.4f s over %d passes; %s" % (
            metrics["pass_s"], len(walls),
            "p%.0f %.4f s" % hp if hp else "no percentile has ten samples beyond it"))
        lines.append("setup_s: median %.4f s over %d rounds" % (
            metrics["setup_s"], len(setups)))
        lines.append("peak_rss_mb: %.1f MB" % metrics["peak_rss_mb"])
    if layers:
        for name in PER_LAYER:
            metrics[name] = statistics.median(t.get(name, 0.0) for t in layers)
        base = statistics.median(plain)
        metrics["trace.overhead_share"] = (statistics.median(traced) - base) / base
        lines.append("traced passes: %d (untraced median %.4f s, traced %.4f s)"
                     % (len(traced), base, statistics.median(traced)))
    failed = len(bench.failures)
    # a run cut short before it could measure counts as one more failure
    if not metrics:
        failed += 1
        bench.failures.append("no complete pass within the time budget")
    attempted = max(bench.attempted, failed, 1)
    lines.append("failed_share: %.4f (%d of %d invocations)" % (
        failed / attempted, failed, attempted))
    lines.extend("FAILED %s" % f for f in bench.failures)
    units = PER_LAYER if trace else END_TO_END
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units if k in metrics}}
    return lines, result


def record():
    """Rewrite expected.json from seed-0 runs of the current code."""
    expected = {}
    for workload in WORKLOADS:
        work = WORK / "record" / workload
        shutil.rmtree(work, ignore_errors=True)
        entries = {}
        for path in make_inputs(workload, 0, ROOT / "scenarios", work / "in"):
            inv = Invocation(path, None, 0, work)
            code, _, _ = spawn([*CLI, *inv.cli_args()], inv.out, inv.err, BUDGET_S)
            stdout = inv.out.read_bytes()
            if code is None or b"Traceback" in inv.err.read_bytes():
                raise Failure("%s: %s did not finish cleanly" % (workload, path.name))
            entries[path.name] = {"exit": code,
                                  "sha256": hashlib.sha256(stdout).hexdigest(),
                                  "summary": summary(json.loads(stdout))}
            print("%s %s exit %d" % (workload, path.name, code))
        expected[workload] = entries
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from seed 0 and exit")
    args = parser.parse_args(argv)
    try:
        if args.record:
            record()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        lines, result = measure(args.workload, args.seed, args.seconds, args.trace)
    except Failure as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
