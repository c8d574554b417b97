"""Span recorder for the traced benchmark run.

Wraps the public functions listed in ``TARGETS`` wherever a
``holonomy2.*`` module binds them: module attributes and module-level
dicts (such as the CLI's task table) are patched by object identity,
classmethods and methods on their class.  Spans stay in memory and are
written once, when the traced invocation ends.

Run as a script it replaces one CLI invocation::

    PYTHONPATH=src python3 perfbench/tracer.py --spans OUT.pickle -- \\
        --scenario scenarios/z2z2.json --format json

The report goes to standard output and the exit code is the CLI's.
"""

from __future__ import annotations

import contextlib
import functools
import pickle
import sys
import time
from array import array
from collections import Counter, defaultdict

# (module, attribute) of every traced callable; "Class.method" patches
# the class.  The span is named "<module>.<last attribute part>".
TARGETS = [
    ("fintop", "pullback_space"),
    ("fintop", "is_continuous"),
    ("fintop", "FiniteTopSpace.discrete"),
    ("groupoid", "Groupoid.arrow_space"),
    ("groupoid", "check_groupoid"),
    ("groupoid", "generated_subgroupoid"),
    ("groupoid", "quotient"),
    ("xmod", "check_crossed_module"),
    ("xmod", "find_xmod_isomorphism"),
    ("dgpd", "build_double_groupoid"),
    ("dgpd", "check_double"),
    ("dgpd", "DoubleGroupoid.vertical_groupoid"),
    ("dgpd", "DoubleGroupoid.horizontal_groupoid"),
    ("homotopy", "enumerate_free_derivations"),
    ("homotopy", "enumerate_linear_sections"),
    ("holonomy", "build_wg"),
    ("holonomy", "check_locally_lie_double"),
    ("holonomy", "check_locally_lie_xmod"),
    ("holonomy", "has_enough_sections"),
    ("holonomy", "min_sections_at"),
    ("holonomy", "generation_equivalence"),
    ("holonomy", "build_germ_groupoid"),
    ("holonomy", "window_germs"),
    ("holonomy", "build_restricted_germs"),
    ("holonomy", "build_unit_germs"),
    ("holonomy", "holonomy_groupoid"),
    ("holonomy", "local_section_mul"),
    ("holonomy", "check_chart_coherence"),
    ("holonomy", "universal_morphism"),
    ("scenario", "load_scenario"),
    ("cli", "execute"),
    ("cli", "task_validate"),
    ("cli", "task_double"),
    ("cli", "task_gamma"),
    ("cli", "task_derivations"),
    ("cli", "task_holonomy"),
    ("cli", "task_universal"),
]

# Work counters read from (args, result) after a call returns.
COUNTERS = {
    "fintop.pullback_space": {"points": lambda a, r: len(r.points)},
    "groupoid.check_groupoid": {"arrows": lambda a, r: len(a[0].arrows)},
    "groupoid.quotient": {"classes": lambda a, r: len(r[0].arrows)},
    "holonomy.min_sections_at": {"sections": lambda a, r: len(r),
                                 "empty": lambda a, r: int(not r)},
    "holonomy.build_germ_groupoid": {"germs": lambda a, r: len(r[0].arrows)},
    "holonomy.build_restricted_germs": {"germs": lambda a, r: len(r[0].arrows)},
    "holonomy.holonomy_groupoid": {"charts": lambda a, r: len(r.charts)},
    "holonomy.check_chart_coherence": {"charts": lambda a, r: r["charts"]},
}


class Recorder:
    """Spans in flat arrays (name id, parent index, start, end) plus
    per-name counters.  Flat arrays keep the collector out of the way."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(Counter)
        self._stack = []

    def wrap(self, name, fn):
        ident = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counts = self._stack, self.counts
        counters = tuple(COUNTERS.get(name, {}).items())
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(ident)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            for key, count in counters:
                counts[name][key] += count(args, result)
            return result

        return traced

    def dump(self, fh):
        pickle.dump({"names": self.names, "name_id": self.name_id,
                     "parent": self.parent, "start": self.start, "end": self.end,
                     "counts": {k: dict(v) for k, v in self.counts.items()}},
                    fh, protocol=pickle.HIGHEST_PROTOCOL)


def holonomy2_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "holonomy2" or n.startswith("holonomy2."))]


@contextlib.contextmanager
def tracing(recorder):
    """Patch every target for the duration of the block, then restore."""
    import holonomy2.cli  # noqa: F401  (loads every traced module)

    modules = holonomy2_modules()
    undo = []
    try:
        for module, attr in TARGETS:
            name = "%s.%s" % (module, attr.rsplit(".", 1)[-1])
            owner = sys.modules["holonomy2." + module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(recorder.wrap(name, raw.__func__))
                else:
                    new = recorder.wrap(name, raw)
                undo.append((setattr, cls, meth, raw))
                setattr(cls, meth, new)
                continue
            fn = getattr(owner, attr)
            new = recorder.wrap(name, fn)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        undo.append((setattr, mod, key, fn))
                        setattr(mod, key, new)
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is fn:
                                undo.append((dict.__setitem__, val, k, fn))
                                val[k] = new
        yield recorder
    finally:
        for setter, target, key, original in reversed(undo):
            setter(target, key, original)


def main(argv):
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans OUT.pickle -- CLI-ARGS...", file=sys.stderr)
        return 2
    out, cli_args = argv[1], argv[3:]
    recorder = Recorder()
    with tracing(recorder):
        from holonomy2 import cli
        code = cli.execute(cli_args)
    sys.stdout.flush()
    with open(out, "wb") as fh:
        recorder.dump(fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
