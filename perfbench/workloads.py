"""Workload definitions and the seeded scenario generator.

Each workload is a list of scenario files that the benchmark hands to
the CLI, one fresh interpreter per file.  Seed 0 is canonical: the
corpus files are copied byte for byte and the Z/3 models use fixed
labels.  Any other seed rewrites the inputs without changing their
meaning, so every exit code, verdict and count must match seed 0.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Why each workload exists; the README repeats this with its layer table.
WORKLOADS = {
    "corpus": (
        "the five desk-scale scenarios (at most 32 squares); constant "
        "overheads dominate and only this workload runs universal and "
        "generator expansion"),
    "z3-discrete": (
        "Z/3 on itself with discrete topologies (81 squares) on the pass "
        "path; pullback_space, check_double and chart coherence dominate"),
    "z3-indiscrete": (
        "the same Z/3 model with indiscrete topologies: S4 fails, section "
        "searches are exhaustive and empty, germs and charts do no work"),
}

# Tasks of the generated Z/3 scenarios.  ``universal`` is left out of
# z3-discrete: it would mostly rebuild the same holonomy groupoid.
Z3_TASKS = {
    "z3-discrete": ["validate", "double", "gamma", "derivations", "holonomy"],
    "z3-indiscrete": ["validate", "holonomy"],
}

# Lists whose order carries no meaning to the loader; everything else
# (task order, relation words, composition and action triples) is kept.
_SET_LISTS = {"points", "opens", "open_generators", "objects", "arrows",
              "compose", "generators", "relations", "action", "xmods"}
_NESTED_SETS = {"opens", "open_generators"}


def make_inputs(workload, seed, scenarios_dir, out_dir):
    """Write the workload's scenario files for ``seed``; return their paths."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    if workload == "corpus":
        for src in sorted(Path(scenarios_dir).glob("*.json")):
            dst = out_dir / src.name
            if seed == 0:
                dst.write_bytes(src.read_bytes())
            else:
                rng = random.Random("corpus:%d:%s" % (seed, src.name))
                data = json.loads(src.read_text(encoding="utf-8"))
                dst.write_text(_dumps(_shuffle(data, rng)), encoding="utf-8")
            paths.append(dst)
    else:
        dst = out_dir / ("%s.json" % workload)
        dst.write_text(_dumps(z3_scenario(workload, seed)), encoding="utf-8")
        paths.append(dst)
    return paths


def z3_scenario(workload, seed):
    """Z/3 acting trivially on itself with identity boundary (81 squares).

    ``z3-discrete`` gives every space the discrete topology;
    ``z3-indiscrete`` makes the G arrows, the objects and the window
    indiscrete.  A non-zero seed relabels the arrows through a
    seed-chosen automorphism of Z/3 with fresh tokens and shuffles
    list and key order.
    """
    kind = "discrete" if workload == "z3-discrete" else "indiscrete"
    if seed == 0:
        mult = 1
        g = ["g0", "g1", "g2"]
        c = ["c0", "c1", "c2"]
    else:
        rng = random.Random("%s:%d" % (workload, seed))
        mult = rng.choice([1, 2])
        tokens = _fresh_tokens(rng, 6)
        g, c = tokens[:3], tokens[3:]
    # element i of Z/3 is named g[mult * i % 3] (resp. c[...])
    gl = [g[mult * i % 3] for i in range(3)]
    cl = [c[mult * i % 3] for i in range(3)]

    def group(labels):
        return {
            "objects": ["x"],
            "arrows": [{"id": a, "src": "x", "tgt": "x"} for a in labels],
            "compose": [[labels[i], labels[j], labels[(i + j) % 3]]
                        for i in range(3) for j in range(3)],
            "neg": {labels[i]: labels[-i % 3] for i in range(3)},
            "units": {"x": labels[0]},
        }

    G = group(gl)
    G["topology"] = {"arrows": {"points": list(gl), "kind": kind},
                     "objects": {"points": ["x"], "kind": kind}}
    tasks = []
    for name in Z3_TASKS[workload]:
        if name == "validate":
            tasks.append({"task": "validate"})
        elif name == "holonomy":
            tasks.append({"task": "holonomy", "xmod": "CM", "w": "W"})
        else:
            tasks.append({"task": name, "xmod": "CM"})
    data = {
        "groupoids": {"G": G, "C": group(cl)},
        "xmods": {"CM": {
            "c": "C", "g": "G",
            "delta": {cl[i]: gl[i] for i in range(3)},
            "action": [[cl[i], gl[j], cl[i]] for i in range(3) for j in range(3)],
        }},
        "wstructures": {"W": {"xmod": "CM", "arrows": list(cl),
                              "space": {"points": list(cl), "kind": kind}}},
        "tasks": tasks,
    }
    if seed != 0:
        data = _shuffle(data, rng)
    return data


def _fresh_tokens(rng, n):
    out = []
    while len(out) < n:
        tok = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(4))
        if tok not in out and tok != "x":
            out.append(tok)
    return out


def _shuffle(value, rng, key=None):
    """Shuffle dict key order everywhere and the order of set-like lists."""
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        return {k: _shuffle(value[k], rng, k) for k in keys}
    if isinstance(value, list):
        inner = "points" if key in _NESTED_SETS else None
        items = [_shuffle(v, rng, inner) for v in value]
        if key in _SET_LISTS:
            rng.shuffle(items)
        return items
    return value


def _dumps(data):
    return json.dumps(data, indent=1) + "\n"
