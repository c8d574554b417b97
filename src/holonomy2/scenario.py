"""Scenario files: named blocks of spaces, groupoids, crossed modules,
windows and morphisms, plus a task list.

One JSON file describes one reproducible experiment.  Every reference
must resolve and every block passes its validator before tasks run;
reference errors carry the offending location.
"""

from __future__ import annotations

import json

from .fintop import FiniteTopSpace, TopologyError
from .groupoid import Groupoid, GroupoidError, _skey
from .xmod import CrossedModule, XModError
from .holonomy import HolonomyError, WStructure

DEFAULT_ARROW_CAP = 512


class ScenarioError(Exception):
    def __init__(self, location, message):
        self.location = location
        super().__init__("%s: %s" % (location, message))


class Scenario:
    def __init__(self, spaces, groupoids, xmods, windows, morphisms, tasks, raw):
        self.spaces = spaces
        self.groupoids = groupoids
        self.xmods = xmods
        self.windows = windows
        self.morphisms = morphisms
        self.tasks = tasks
        self.raw = raw
        # double groupoid per xmod name, built by the first task that needs it
        self.doubles = {}


def load_scenario(source, point_cap=64, arrow_cap=DEFAULT_ARROW_CAP):
    """Parse and validate a scenario from a path, JSON text or dict."""
    if isinstance(source, dict):
        data = source
    else:
        text = source
        if "\n" not in str(source) and str(source).endswith(".json"):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ScenarioError("<file>", "not valid JSON: %s" % e) from None

    spaces = {}
    for name, block in sorted(data.get("spaces", {}).items()):
        spaces[name] = _load_space("spaces.%s" % name, block, point_cap)

    groupoids = {}
    for name, block in sorted(data.get("groupoids", {}).items()):
        groupoids[name] = _load_groupoid("groupoids.%s" % name, block, spaces,
                                         point_cap, arrow_cap)

    xmods = {}
    for name, block in sorted(data.get("xmods", {}).items()):
        xmods[name] = _load_xmod("xmods.%s" % name, block, groupoids)

    windows = {}
    for name, block in sorted(data.get("wstructures", {}).items()):
        windows[name] = _load_window("wstructures.%s" % name, block, xmods, spaces,
                                     point_cap)

    morphisms = dict(data.get("morphisms", {}))

    tasks = data.get("tasks", [])
    if not isinstance(tasks, list):
        raise ScenarioError("tasks", "must be a list")
    for i, task in enumerate(tasks):
        if not isinstance(task, dict) or "task" not in task:
            raise ScenarioError("tasks[%d]" % i, "missing 'task' field")

    return Scenario(spaces, groupoids, xmods, windows, morphisms, tasks, data)


def _load_space(loc, block, point_cap):
    try:
        points = block["points"]
    except (TypeError, KeyError):
        raise ScenarioError(loc, "missing 'points'") from None
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


def _resolve_space(loc, ref, spaces, default_points):
    if ref is None:
        return None
    if isinstance(ref, str):
        if ref not in spaces:
            raise ScenarioError(loc, "unknown space %r" % ref)
        return spaces[ref]
    return _load_space(loc, ref, None)


def _load_groupoid(loc, block, spaces, point_cap, arrow_cap):
    try:
        objects = block["objects"]
    except (TypeError, KeyError):
        raise ScenarioError(loc, "missing 'objects'") from None
    if "arrows" in block:
        g = _groupoid_from_tables(loc, block, objects)
    elif "generators" in block:
        g = _groupoid_from_generators(loc, block, objects, arrow_cap)
    else:
        raise ScenarioError(loc, "needs 'arrows' or 'generators'")
    topo = block.get("topology")
    if topo is not None:
        arr = _resolve_space("%s.topology.arrows" % loc, topo.get("arrows"),
                             spaces, g.arrows)
        obj = _resolve_space("%s.topology.objects" % loc, topo.get("objects"),
                             spaces, g.objects)
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
    for i, arr in enumerate(block["arrows"]):
        try:
            arrows.append(arr["id"])
            src[arr["id"]] = arr["src"]
            tgt[arr["id"]] = arr["tgt"]
        except (TypeError, KeyError):
            raise ScenarioError("%s.arrows[%d]" % (loc, i),
                                "needs 'id', 'src', 'tgt'") from None
    table = {}
    for i, entry in enumerate(block.get("compose", [])):
        if not isinstance(entry, list) or len(entry) != 3:
            raise ScenarioError("%s.compose[%d]" % (loc, i), "needs [a, b, a+b]")
        table[(entry[0], entry[1])] = entry[2]
    try:
        return Groupoid(objects, arrows, src, tgt, table,
                        block.get("neg"), block.get("units"))
    except GroupoidError as e:
        raise ScenarioError(loc, str(e)) from None


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


def _rewrite(word, rules, cap=10000):
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
                    if steps > cap:
                        raise ScenarioError(
                            "<relations>", "rewriting does not terminate; "
                            "provide a full composition table instead")
                    changed = True
                    i = 0
                else:
                    i += 1
    return word


def _groupoid_from_generators(loc, block, objects, arrow_cap):
    gens = {}
    for i, gen in enumerate(block["generators"]):
        try:
            gens[gen["id"]] = (gen["src"], gen["tgt"])
        except (TypeError, KeyError):
            raise ScenarioError("%s.generators[%d]" % (loc, i),
                                "needs 'id', 'src', 'tgt'") from None
    rules = []
    for i, rel in enumerate(block.get("relations", [])):
        if not isinstance(rel, list) or len(rel) != 2:
            raise ScenarioError("%s.relations[%d]" % (loc, i), "needs [lhs, rhs]")
        lhs, rhs = tuple(rel[0]), tuple(rel[1])
        if len(rhs) > len(lhs):
            lhs, rhs = rhs, lhs
        rules.append((lhs, rhs))
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

    def ends(word):
        if not word:
            return None
        first, last = word[0], word[-1]
        s = gens[first[1:]][1] if first.startswith("-") else gens[first][0]
        t = gens[last[1:]][0] if last.startswith("-") else gens[last][1]
        return s, t

    def word_ok(word):
        cur = None
        for letter in word:
            name = letter[1:] if letter.startswith("-") else letter
            if name not in gens:
                raise ScenarioError(loc, "unknown generator %r" % name)
            s, t = gens[name]
            if letter.startswith("-"):
                s, t = t, s
            if cur is not None and cur != s:
                return False
            cur = t
        return True

    for lhs, rhs in rules:
        if not word_ok(lhs) or not word_ok(rhs):
            raise ScenarioError(loc, "relation words not composable")
        if rhs and ends(lhs) != ends(rhs):
            raise ScenarioError(loc, "relation endpoints differ")
        if not rhs and ends(lhs)[0] != ends(lhs)[1]:
            raise ScenarioError(loc, "relation equates a non-loop to a unit")

    # elements are (starting object, rewritten word); units are empty words
    seen = {(x, ()) for x in objects}
    queue = [(x, ()) for x in objects]
    letters = []
    for gid in sorted(gens):
        letters.append(gid)
        letters.append("-" + gid)

    def letter_ends(letter):
        s, t = gens[letter[1:]] if letter.startswith("-") else gens[letter]
        if letter.startswith("-"):
            s, t = t, s
        return s, t

    while queue:
        x, word = queue.pop(0)
        tail = ends(word)[1] if word else x
        for letter in letters:
            s, t = letter_ends(letter)
            if s != tail:
                continue
            new = _rewrite(word + (letter,), rules)
            start = ends(new)[0] if new else x
            if new and start != x:
                continue
            key = (x, new)
            if key not in seen:
                if len(seen) > arrow_cap:
                    raise ScenarioError(loc, "generated groupoid exceeds the "
                                        "%d-arrow cap" % arrow_cap)
                seen.add(key)
                queue.append(key)

    def label(key):
        x, word = key
        return "+".join(word) if word else "1_%s" % x

    arrows = sorted(seen, key=lambda k: (_skey(k[0]), _skey(k[1])))
    ids = {k: label(k) for k in arrows}
    src = {}
    tgt = {}
    for k in arrows:
        x, word = k
        src[ids[k]] = x
        tgt[ids[k]] = ends(word)[1] if word else x
    table = {}
    for ka in arrows:
        for kb in arrows:
            xa, wa = ka
            xb, wb = kb
            if tgt[ids[ka]] != xb:
                continue
            new = _rewrite(wa + wb, rules)
            kk = (xa, new)
            if kk not in seen:
                raise ScenarioError(loc, "relations leave the generated set; "
                                    "composition %s+%s escaped" % (ids[ka], ids[kb]))
            table[(ids[ka], ids[kb])] = ids[kk]
    neg = {}
    for k in arrows:
        x, word = k
        inv = _rewrite(tuple(_invert_letter(l) for l in reversed(word)), rules)
        kk = (tgt[ids[k]], inv)
        if kk not in seen:
            raise ScenarioError(loc, "negation escaped the generated set at %s" % ids[k])
        neg[ids[k]] = ids[kk]
    units = {x: ids[(x, ())] for x in objects}
    try:
        return Groupoid(objects, [ids[k] for k in arrows], src, tgt, table, neg, units)
    except GroupoidError as e:
        raise ScenarioError(loc, str(e)) from None


def _load_xmod(loc, block, groupoids):
    for field in ("c", "g", "delta", "action"):
        if field not in block:
            raise ScenarioError(loc, "missing %r" % field)
    cname, gname = block["c"], block["g"]
    if cname not in groupoids:
        raise ScenarioError("%s.c" % loc, "unknown groupoid %r" % cname)
    if gname not in groupoids:
        raise ScenarioError("%s.g" % loc, "unknown groupoid %r" % gname)
    action = {}
    for i, entry in enumerate(block["action"]):
        if not isinstance(entry, list) or len(entry) != 3:
            raise ScenarioError("%s.action[%d]" % (loc, i), "needs [c, a, c^a]")
        action[(entry[0], entry[1])] = entry[2]
    try:
        return CrossedModule(groupoids[cname], groupoids[gname],
                             block["delta"], action)
    except XModError as e:
        raise ScenarioError(loc, str(e)) from None


def _load_window(loc, block, xmods, spaces, point_cap):
    if "xmod" not in block or block["xmod"] not in xmods:
        raise ScenarioError(loc, "missing or unknown 'xmod'")
    cm = xmods[block["xmod"]]
    arrows = block.get("arrows")
    try:
        arrows = frozenset(cm.C.arrows if arrows is None else arrows)
    except TypeError:
        raise ScenarioError("%s.arrows" % loc, "must be a list of arrow ids") from None
    ref = block.get("space")
    if ref is None:
        space = FiniteTopSpace.discrete(arrows)
    elif isinstance(ref, str):
        if ref not in spaces:
            raise ScenarioError("%s.space" % loc, "unknown space %r" % ref)
        space = spaces[ref]
    else:
        space = _load_space("%s.space" % loc, ref, point_cap)
    try:
        return WStructure(arrows, space), cm
    except HolonomyError as e:
        raise ScenarioError(loc, str(e)) from None
