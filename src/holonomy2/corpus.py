"""Small standing examples: groupoids, crossed modules and topologies.

These are the desk-scale structures every exhaustive check runs on:
a cyclic group of order two acting on itself, the pair groupoid with a
trivial kernel, the pair groupoid with order-two vertex groups and the
transport action, and an order-four kernel over an order-two quotient.
"""

from __future__ import annotations

from .fintop import FiniteTopSpace
from .groupoid import Groupoid, pair_rows
from .xmod import CrossedModule


def cyclic_groupoid(n, obj="x", prefix=""):
    """Z/n as a one-object groupoid with arrows prefix+'0'..prefix+str(n-1)."""
    arrows = [prefix + str(i) for i in range(n)]
    src = {a: obj for a in arrows}
    table = {(prefix + str(i), prefix + str(j)): prefix + str((i + j) % n)
             for i in range(n) for j in range(n)}
    neg = {prefix + str(i): prefix + str((-i) % n) for i in range(n)}
    return Groupoid([obj], arrows, src, dict(src), pair_rows(arrows, table), neg,
                    {obj: prefix + "0"})


def pair_groupoid(points):
    """Arrows 'uv' from u to v with 'uv' + 'vw' = 'uw'."""
    arrows = [u + v for u in points for v in points]
    src = {u + v: u for u in points for v in points}
    tgt = {u + v: v for u in points for v in points}
    table = {(u + v, v + w): u + w for u in points for v in points for w in points}
    neg = {u + v: v + u for u in points for v in points}
    units = {u: u + u for u in points}
    return Groupoid(list(points), arrows, src, tgt, pair_rows(arrows, table), neg, units)


def bundle_of_groups(points, n, sep="@"):
    """Totally intransitive groupoid with Z/n at every point."""
    arrows = [str(i) + sep + p for p in points for i in range(n)]
    src = {a: a.split(sep)[1] for a in arrows}
    table = {}
    for p in points:
        for i in range(n):
            for j in range(n):
                table[(str(i) + sep + p, str(j) + sep + p)] = str((i + j) % n) + sep + p
    neg = {str(i) + sep + p: str((-i) % n) + sep + p for p in points for i in range(n)}
    units = {p: "0" + sep + p for p in points}
    return Groupoid(list(points), arrows, src, dict(src), pair_rows(arrows, table), neg, units)


# -- crossed modules --------------------------------------------------------


def z2z2():
    """G = C = Z/2 over one object, boundary an isomorphism, trivial action."""
    G = cyclic_groupoid(2)
    C = cyclic_groupoid(2, prefix="c")
    delta = {"c0": "0", "c1": "1"}
    action = {(c, a): c for c in C.arrows for a in G.arrows}
    return CrossedModule(C, G, delta, action)


def pair2():
    """Pair groupoid on two points with a trivial kernel."""
    G = pair_groupoid("xy")
    C = bundle_of_groups("xy", 1)
    delta = {c: G.unit(C.src(c)) for c in C.arrows}
    action = {}
    for c in C.arrows:
        for a in G.arrows:
            if C.tgt(c) == G.src(a):
                action[(c, a)] = C.unit(G.tgt(a))
    return CrossedModule(C, G, delta, action)


def pairz2():
    """Pair groupoid on two points, Z/2 at each point, transport action."""
    G = pair_groupoid("xy")
    C = bundle_of_groups("xy", 2)
    delta = {c: G.unit(C.src(c)) for c in C.arrows}
    action = {}
    for c in C.arrows:
        i = c.split("@")[0]
        for a in G.arrows:
            if C.tgt(c) == G.src(a):
                action[(c, a)] = i + "@" + G.tgt(a)
    return CrossedModule(C, G, delta, action)


def z4_interior():
    """C = Z/4 over G = Z/2 with boundary mod 2 and trivial action."""
    G = cyclic_groupoid(2)
    C = cyclic_groupoid(4, prefix="c")
    delta = {"c" + str(i): str(i % 2) for i in range(4)}
    action = {(c, a): c for c in C.arrows for a in G.arrows}
    return CrossedModule(C, G, delta, action)


def corpus():
    return {"z2z2": z2z2(), "pair2": pair2(), "pairz2": pairz2(), "z4": z4_interior()}


# -- seeded-broken variants -------------------------------------------------


def broken_cm2():
    """Twisted self-action on z2z2: CM2 fails, e.g. at (c0, c1)."""
    cm = z2z2()
    action = {(c, a): c if a == "0" else ("c1" if c == "c0" else "c0")
              for c in cm.C.arrows for a in cm.G.arrows}
    return CrossedModule(cm.C, cm.G, cm.delta, action)


def broken_cm1():
    """C = G = Z/4 with identity boundary and negation action: CM1 fails at (c1, 1)."""
    G = cyclic_groupoid(4)
    C = cyclic_groupoid(4, prefix="c")
    delta = {"c" + str(i): str(i) for i in range(4)}
    action = {}
    for i in range(4):
        for j in range(4):
            v = (i * pow(3, j, 4)) % 4
            action[("c" + str(i), str(j))] = "c" + str(v)
    return CrossedModule(C, G, delta, action)


def broken_action():
    """pairz2 with the transport of 1@x through xy collapsed: functoriality fails."""
    cm = pairz2()
    action = dict(cm.action)
    action[("1@x", "xy")] = "0@y"
    return CrossedModule(cm.C, cm.G, cm.delta, action)


# -- topologies -------------------------------------------------------------


def discrete_topology(cm):
    """(arrow space, object space) pair for G, all discrete."""
    return (FiniteTopSpace.discrete(cm.G.arrows), FiniteTopSpace.discrete(cm.G.objects))


def indiscrete_topology(cm):
    return (FiniteTopSpace.indiscrete(cm.G.arrows), FiniteTopSpace.indiscrete(cm.G.objects))


def sierpinski_pair_topology():
    """Topologized pair groupoid on {x,y}: x open, y in the closure of x.

    Arrow minimal opens: xx -> {xx}, xy -> {xx,xy}, yx -> {xx,yx},
    yy -> everything; this makes all structure maps continuous.
    """
    arrows = ["xx", "xy", "yx", "yy"]
    amin = {"xx": {"xx"}, "xy": {"xx", "xy"}, "yx": {"xx", "yx"},
            "yy": {"xx", "xy", "yx", "yy"}}
    arr = FiniteTopSpace(arrows, {a: frozenset(m) for a, m in amin.items()})
    obj = FiniteTopSpace.from_opens("xy", [[], ["x"], ["x", "y"]])
    return arr, obj


def sierpinski_bundle_topology(points_arrows):
    """Topology on a two-point Z/2 bundle mirroring the Sierpinski base."""
    mins = {"0@x": {"0@x"}, "1@x": {"0@x", "1@x"},
            "0@y": {"0@x", "0@y"}, "1@y": {"0@x", "1@x", "0@y", "1@y"}}
    return FiniteTopSpace(points_arrows, {a: frozenset(mins[a]) for a in points_arrows})


def with_topology(cm, kind):
    """Rebuild the crossed module with a topologized G."""
    if kind == "discrete":
        topo = discrete_topology(cm)
    elif kind == "indiscrete":
        topo = indiscrete_topology(cm)
    elif kind == "sierpinski":
        topo = sierpinski_pair_topology()
        if set(cm.G.arrows) != set(topo[0].points):
            raise ValueError("sierpinski topology fits the pair groupoid only")
    else:
        raise ValueError("unknown topology kind %r" % (kind,))
    return CrossedModule(cm.C, cm.G.with_topology(*topo), cm.delta, cm.action)
