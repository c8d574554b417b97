"""Scenario files: named blocks of spaces, groupoids, crossed modules,
windows and morphisms, plus a task list.

One JSON file describes one reproducible experiment.  Every reference
must resolve and every block passes its validator before tasks run;
reference errors carry the offending location.
"""

from __future__ import annotations

import json

from .fintop import DEFAULT_POINT_CAP, FiniteTopSpace, TopologyError
from .groupoid import Groupoid, GroupoidError, _skey, pair_rows
from .xmod import CrossedModule, XModError
from .holonomy import HolonomyError, WStructure

DEFAULT_ARROW_CAP = 512
# rewrite steps one word may take before its relations count as non-terminating
REWRITE_STEPS = 10000


class ScenarioError(Exception):
    def __init__(self, location, message):
        self.location = location
        super().__init__("%s: %s" % (location, message))


_KINDS = {str: ("a string", "strings"), list: ("a list", "lists"), dict: ("an object", "objects")}


def _typed(loc, value, kind, item=None):
    """``value``, if it is a ``kind`` (str, list or dict) whose members,
    the items of a list or the values of an object, are ``item``s; else a
    ScenarioError at ``loc``.  Identifiers are strings, so a bad one
    names its field instead of failing where it is hashed or iterated."""
    if not isinstance(value, kind) or item is not None and not all(
            isinstance(v, item) for v in (value.values() if kind is dict else value)):
        raise ScenarioError(loc, "must be " + _KINDS[kind][0]
                            + ("" if item is None else " of " + _KINDS[item][1]))
    return value


class Scenario:
    def __init__(self, groupoids, xmods, windows, morphisms, tasks):
        self.groupoids = groupoids
        self.xmods = xmods
        self.windows = windows
        self.morphisms = morphisms
        self.tasks = tasks
        # built by the first task that needs them, and kept when built:
        # the double groupoid per xmod name, and per (xmod, window) name
        # the window squares with their S1-S5 report, and the holonomy
        # groupoid
        self.doubles, self.windowed, self.holonomies = {}, {}, {}


def load_scenario(source, point_cap=DEFAULT_POINT_CAP, arrow_cap=DEFAULT_ARROW_CAP):
    """Parse and validate a scenario from a dict or from the JSON file at
    the path ``source``, whatever its name."""
    if isinstance(source, dict):
        data = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as e:
            raise ScenarioError("<file>", "not UTF-8: %s" % e) from None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ScenarioError("<file>", "not valid JSON: %s" % e) from None
    if not isinstance(data, dict):
        raise ScenarioError("<file>", "top level must be a JSON object")

    def named(key):
        blocks = data.get(key, {})
        if not isinstance(blocks, dict):
            raise ScenarioError(key, "must be an object of named blocks")
        return sorted(blocks.items())

    spaces = {}
    for name, block in named("spaces"):
        spaces[name] = _load_space("spaces.%s" % name, block, point_cap)

    groupoids = {}
    for name, block in named("groupoids"):
        groupoids[name] = _load_groupoid("groupoids.%s" % name, block, spaces,
                                         point_cap, arrow_cap)

    xmods = {}
    for name, block in named("xmods"):
        xmods[name] = _load_xmod("xmods.%s" % name, block, groupoids)

    windows = {}
    for name, block in named("wstructures"):
        windows[name] = _load_window("wstructures.%s" % name, block, xmods, spaces,
                                     point_cap)

    morphisms = dict(named("morphisms"))

    tasks = data.get("tasks", [])
    if not isinstance(tasks, list):
        raise ScenarioError("tasks", "must be a list")
    for i, task in enumerate(tasks):
        if not isinstance(task, dict) or "task" not in task:
            raise ScenarioError("tasks[%d]" % i, "missing 'task' field")
        if not isinstance(task["task"], str):
            raise ScenarioError("tasks[%d].task" % i, "must be a task name")

    return Scenario(groupoids, xmods, windows, morphisms, tasks)


def _load_space(loc, block, point_cap):
    if "points" not in _typed(loc, block, dict):
        raise ScenarioError(loc, "missing 'points'")
    points = _typed(loc + ".points", block["points"], list, str)
    for key in ("opens", "open_generators"):
        for i, subset in enumerate(_typed("%s.%s" % (loc, key), block.get(key, []), list)):
            _typed("%s.%s[%d]" % (loc, key, i), subset, list, str)
    try:
        if "opens" in block:
            return FiniteTopSpace.from_opens(points, block["opens"], point_cap=point_cap)
        if "open_generators" in block:
            return FiniteTopSpace.from_generators(points, block["open_generators"],
                                                  point_cap=point_cap)
        kind = block.get("kind", "discrete")
        if kind == "discrete":
            return FiniteTopSpace.discrete(points)
        if kind == "indiscrete":
            return FiniteTopSpace.indiscrete(points)
        raise ScenarioError(loc, "unknown space kind %r" % kind)
    except TopologyError as e:
        raise ScenarioError(loc, str(e)) from None


def _resolve_space(loc, ref, spaces, point_cap):
    if ref is None:
        return None
    if isinstance(ref, str):
        if ref not in spaces:
            raise ScenarioError(loc, "unknown space %r" % ref)
        return spaces[ref]
    return _load_space(loc, ref, point_cap)


def _load_groupoid(loc, block, spaces, point_cap, arrow_cap):
    if "objects" not in _typed(loc, block, dict):
        raise ScenarioError(loc, "missing 'objects'")
    objects = _typed(loc + ".objects", block["objects"], list, str)
    if "arrows" in block:
        g = _groupoid_from_tables(loc, block, objects)
    elif "generators" in block:
        g = _groupoid_from_generators(loc, block, objects, arrow_cap)
    else:
        raise ScenarioError(loc, "needs 'arrows' or 'generators'")
    topo = block.get("topology")
    if topo is not None:
        _typed(loc + ".topology", topo, dict)
        arr = _resolve_space("%s.topology.arrows" % loc, topo.get("arrows"), spaces, point_cap)
        obj = _resolve_space("%s.topology.objects" % loc, topo.get("objects"), spaces, point_cap)
        if arr is None or obj is None:
            raise ScenarioError("%s.topology" % loc, "needs 'arrows' and 'objects'")
        try:
            g = g.with_topology(arr, obj)
        except GroupoidError as e:
            raise ScenarioError("%s.topology" % loc, str(e)) from None
    return g


def _groupoid_from_tables(loc, block, objects):
    arrows = []
    src, tgt = {}, {}
    for a, s, t in _ends("%s.arrows" % loc, block["arrows"]):
        arrows.append(a)
        src[a], tgt[a] = s, t
    table = {}
    for i, entry in enumerate(_typed(loc + ".compose", block.get("compose", []), list)):
        if len(_typed("%s.compose[%d]" % (loc, i), entry, list, str)) != 3:
            raise ScenarioError("%s.compose[%d]" % (loc, i), "needs [a, b, a+b]")
        table[(entry[0], entry[1])] = entry[2]
    for key in ("neg", "units"):
        if block.get(key) is not None:
            _typed("%s.%s" % (loc, key), block[key], dict, str)
    try:
        return Groupoid(objects, arrows, src, tgt, pair_rows(arrows, table),
                        block.get("neg"), block.get("units"))
    except GroupoidError as e:
        raise ScenarioError(loc, str(e)) from None


def _ends(loc, entries):
    """The (id, src, tgt) strings of a list of arrows or generators."""
    out = []
    for i, entry in enumerate(_typed(loc, entries, list)):
        if not (isinstance(entry, dict) and {"id", "src", "tgt"} <= entry.keys()):
            raise ScenarioError("%s[%d]" % (loc, i), "needs 'id', 'src', 'tgt'")
        out.append(tuple(_typed("%s[%d].%s" % (loc, i, key), entry[key], str)
                         for key in ("id", "src", "tgt")))
    return out


def _free_reduce(word):
    out = []
    for letter in word:
        if out and out[-1] == _invert_letter(letter):
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _invert_letter(letter):
    return letter[1:] if letter.startswith("-") else "-" + letter


def _rewrite(word, rules, loc):
    word = _free_reduce(word)
    steps = 0
    changed = True
    while changed:
        changed = False
        for lhs, rhs in rules:
            i = 0
            n = len(lhs)
            while n and i + n <= len(word):
                if word[i:i + n] == lhs:
                    word = _free_reduce(word[:i] + rhs + word[i + n:])
                    steps += 1
                    if steps > REWRITE_STEPS:
                        raise ScenarioError(
                            loc, "rewriting does not terminate; "
                            "provide a full composition table instead")
                    changed = True
                    i = 0
                else:
                    i += 1
    return word


def _groupoid_from_generators(loc, block, objects, arrow_cap):
    """The groupoid presented by ``generators`` and ``relations``: the
    closure of the units under right multiplication by letters, each
    element a (starting object, rewritten word), refused when its units
    or a new arrow would take it past ``arrow_cap`` arrows."""
    if len(set(objects)) > arrow_cap:
        raise ScenarioError(loc, "generated groupoid exceeds the %d-arrow cap" % arrow_cap)
    gens = _ends("%s.generators" % loc, block["generators"])
    names = [g for g, _, _ in gens]
    for g in names:
        if g.startswith("-") or names.count(g) > 1:
            raise ScenarioError("%s.generators" % loc, "generator id %r %s" % (
                g, "starts with '-'" if g.startswith("-") else "repeats"))
    # the (src, tgt) of each letter: g, then its inverse -g, by sorted id
    sides = {}
    for g, s, t in sorted(gens):
        sides[g], sides["-" + g] = (s, t), (t, s)

    def ends(word):
        """(src, tgt) of a word, None at its first break in composability
        (and for the empty word); an unknown letter met first is an error."""
        out = None
        for letter in word:
            if letter not in sides:
                raise ScenarioError(loc, "unknown generator %r" % letter.removeprefix("-"))
            s, t = sides[letter]
            if out is not None and out[1] != s:
                return None
            out = (s if out is None else out[0], t)
        return out

    rules, empty = [], []
    for i, rel in enumerate(_typed(loc + ".relations", block.get("relations", []), list)):
        if len(_typed("%s.relations[%d]" % (loc, i), rel, list, list)) != 2:
            raise ScenarioError("%s.relations[%d]" % (loc, i), "needs [lhs, rhs]")
        lhs, rhs = (tuple(_typed("%s.relations[%d]" % (loc, i), side, list, str))
                    for side in rel)
        if len(rhs) > len(lhs):
            lhs, rhs = rhs, lhs
        if lhs:
            rules.append((lhs, rhs))
        else:
            empty.append(i)
    # a pure power g^n = 1 also rewrites g^(n-1) to the negative letter and
    # squared negatives back to positive powers, so canonical words close up
    for lhs, rhs in list(rules):
        if not rhs and len(lhs) >= 2 and len(set(lhs)) == 1 and not lhs[0].startswith("-"):
            neg = "-" + lhs[0]
            if len(lhs) == 2:
                rules.append(((neg,), lhs[:-1]))
            else:
                rules.append((lhs[:-1], (neg,)))
                rules.append(((neg, neg), lhs[:-2]))
    rules.sort(key=lambda r: (-len(r[0]), r))

    for lhs, rhs in rules:
        e = ends(lhs)
        f = ends(rhs) if rhs and e else e
        if f is None:
            raise ScenarioError(loc, "relation words not composable")
        if not rhs and e[0] != e[1]:
            raise ScenarioError(loc, "relation equates a non-loop to a unit")
        if f != e:
            raise ScenarioError(loc, "relation endpoints differ")
    if empty:
        raise ScenarioError("%s.relations[%d]" % (loc, empty[0]), "needs a non-empty word")

    # rewriting keeps a word's ends, so an element's target is that of the
    # letter that reached it
    tgt = {(x, ()): x for x in objects}
    queue = list(tgt)
    for x, word in queue:
        for letter, (s, t) in sides.items():
            if s == tgt[x, word]:
                key = (x, _rewrite(word + (letter,), rules, loc))
                if key not in tgt:
                    if len(tgt) >= arrow_cap:
                        raise ScenarioError(loc, "generated groupoid exceeds the "
                                            "%d-arrow cap" % arrow_cap)
                    tgt[key] = t
                    queue.append(key)

    arrows = sorted(tgt, key=lambda k: (_skey(k[0]), _skey(k[1])))
    ids = {k: "+".join(k[1]) if k[1] else "1_%s" % k[0] for k in arrows}
    table = {}
    for ka in arrows:
        for kb in arrows:
            if tgt[ka] == kb[0]:
                kk = (ka[0], _rewrite(ka[1] + kb[1], rules, loc))
                if kk not in tgt:
                    raise ScenarioError(loc, "relations leave the generated set; "
                                        "composition %s+%s escaped" % (ids[ka], ids[kb]))
                table[ids[ka], ids[kb]] = ids[kk]
    neg = {}
    for k in arrows:
        kk = (tgt[k], _rewrite(tuple(_invert_letter(l) for l in reversed(k[1])), rules, loc))
        if kk not in tgt:
            raise ScenarioError(loc, "negation escaped the generated set at %s" % ids[k])
        neg[ids[k]] = ids[kk]
    try:
        return Groupoid(objects, ids.values(), {ids[k]: k[0] for k in arrows},
                        {ids[k]: tgt[k] for k in arrows}, pair_rows(ids.values(), table), neg,
                        {x: ids[x, ()] for x in objects})
    except GroupoidError as e:
        raise ScenarioError(loc, str(e)) from None


def _load_xmod(loc, block, groupoids):
    _typed(loc, block, dict)
    for field in ("c", "g", "delta", "action"):
        if field not in block:
            raise ScenarioError(loc, "missing %r" % field)
    cname, gname = _typed(loc + ".c", block["c"], str), _typed(loc + ".g", block["g"], str)
    if cname not in groupoids:
        raise ScenarioError("%s.c" % loc, "unknown groupoid %r" % cname)
    if gname not in groupoids:
        raise ScenarioError("%s.g" % loc, "unknown groupoid %r" % gname)
    action = {}
    for i, entry in enumerate(_typed(loc + ".action", block["action"], list)):
        if len(_typed("%s.action[%d]" % (loc, i), entry, list, str)) != 3:
            raise ScenarioError("%s.action[%d]" % (loc, i), "needs [c, a, c^a]")
        action[(entry[0], entry[1])] = entry[2]
    try:
        return CrossedModule(groupoids[cname], groupoids[gname],
                             _typed(loc + ".delta", block["delta"], dict, str), action)
    except XModError as e:
        raise ScenarioError(loc, str(e)) from None


def _load_window(loc, block, xmods, spaces, point_cap):
    if "xmod" not in _typed(loc, block, dict) or _typed(
            loc + ".xmod", block["xmod"], str) not in xmods:
        raise ScenarioError(loc, "missing or unknown 'xmod'")
    cm = xmods[block["xmod"]]
    arrows = block.get("arrows")
    arrows = frozenset(cm.C.arrows if arrows is None else
                       _typed(loc + ".arrows", arrows, list, str))
    space = (_resolve_space("%s.space" % loc, block.get("space"), spaces, point_cap)
             or FiniteTopSpace.discrete(arrows))
    try:
        return WStructure(arrows, space), cm
    except HolonomyError as e:
        raise ScenarioError(loc, str(e)) from None
