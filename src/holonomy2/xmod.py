"""Crossed modules of groupoids: boundary, action, axiom checks, morphisms.

A crossed module has a totally intransitive groupoid C acting base, a
groupoid G over the same objects, a boundary morphism delta: C -> G that
is the identity on objects, and a right action (c, a) |-> c^a of G on C
defined exactly when tgt(c) == src(a).
"""

from __future__ import annotations

import itertools

from .fintop import ModelError
from .groupoid import GroupoidMorphism, _skey, depth_first, triples_by_last


class XModError(ModelError):
    pass


class CrossedModule:
    def __init__(self, C, G, delta, action):
        self.C = C
        self.G = G
        if set(C.objects) != set(G.objects):
            raise XModError("C and G must share the object set")
        self.delta = dict(delta)
        c_arrows, g_arrows = set(C.arrows), set(G.arrows)
        for c, a in self.delta.items():
            if c not in c_arrows or a not in g_arrows:
                raise XModError("boundary entry %s -> %s has dangling identifiers" % (c, a))
        for c in C.arrows:
            if c not in self.delta:
                raise XModError("boundary missing at %s" % (c,))
            if G.src(self.delta[c]) != C.src(c) or G.tgt(self.delta[c]) != C.tgt(c):
                raise XModError("boundary not the identity on objects at %s" % (c,))
        self.action = dict(action)
        for (c, a), c2 in self.action.items():
            if c not in c_arrows or a not in g_arrows or c2 not in c_arrows:
                raise XModError("action entry (%s)^(%s)=%s has dangling identifiers" % (c, a, c2))

    def action_pairs(self):
        for c in self.C.arrows:
            for a in self.G.arrows:
                if self.C.tgt(c) == self.G.src(a):
                    yield c, a

    def __repr__(self):
        return "CrossedModule(|C|=%d, |G|=%d)" % (len(self.C.arrows), len(self.G.arrows))


def apply_action(cm, c, a):
    """The action value c^a; feet must match."""
    if cm.C.tgt(c) != cm.G.src(a):
        raise XModError("action undefined: tgt(%s)=%s but src(%s)=%s"
                        % (c, cm.C.tgt(c), a, cm.G.src(a)))
    try:
        return cm.action[(c, a)]
    except KeyError:
        raise XModError("action table missing entry (%s, %s)" % (c, a)) from None


def check_crossed_module(cm):
    """Every violated instance among the action axioms, CM1 and CM2."""
    C, G = cm.C, cm.G
    out = []
    for c in C.arrows:
        if C.src(c) != C.tgt(c):
            out.append("C not totally intransitive at %s" % (c,))
    for c, a in sorted(cm.action, key=lambda p: (_skey(p[0]), _skey(p[1]))):
        if C.tgt(c) != G.src(a):
            out.append("action defined off-domain at (%s, %s)" % (c, a))
    for c, a in cm.action_pairs():
        if (c, a) not in cm.action:
            out.append("action missing at (%s, %s)" % (c, a))
            continue
        v = cm.action[(c, a)]
        if C.tgt(v) != G.tgt(a):
            out.append("action foot wrong: (%s)^(%s) ends at %s, expected %s"
                       % (c, a, C.tgt(v), G.tgt(a)))
    # delta is a groupoid morphism
    dmor = GroupoidMorphism({x: x for x in C.objects}, cm.delta)
    from .groupoid import check_groupoid_morphism
    for v in check_groupoid_morphism(dmor, C, G):
        out.append("boundary: %s" % v)

    def act(c, a):
        return cm.action.get((c, a))

    # additivity in c, functoriality in a, unit action
    for c1 in C.arrows:
        for c2 in C.arrows:
            if not C.composable(c1, c2):
                continue
            for a in G.arrows:
                if C.tgt(c1) != G.src(a):
                    continue
                lhs = act(C.add(c1, c2), a)
                r1, r2 = act(c1, a), act(c2, a)
                rhs = C.add(r1, r2) if r1 is not None and r2 is not None else None
                if lhs is None or rhs is None or lhs != rhs:
                    out.append("action additivity fails: (%s+%s)^(%s)" % (c1, c2, a))
    for c in C.arrows:
        for a in G.arrows:
            if C.tgt(c) != G.src(a):
                continue
            for b in G.arrows:
                if not G.composable(a, b):
                    continue
                lhs = act(c, G.add(a, b))
                step = act(c, a)
                rhs = act(step, b) if step is not None else None
                if lhs is None or rhs is None or lhs != rhs:
                    out.append("action functoriality fails: (%s)^(%s+%s)" % (c, a, b))
        e = G.unit(C.tgt(c))
        if act(c, e) != c:
            out.append("unit action fails at %s" % (c,))
    # CM1: delta(c^a) = -a + delta(c) + a
    for c, a in cm.action_pairs():
        v = cm.action.get((c, a))
        if v is None:
            continue
        lhs = cm.delta[v]
        rhs = G.add(G.add(G.neg(a), cm.delta[c]), a)
        if lhs != rhs:
            out.append("CM1 fails at (c=%s, a=%s)" % (c, a))
    # CM2: c^{delta c1} = -c1 + c + c1
    for c in C.arrows:
        for c1 in C.arrows:
            if C.tgt(c) != C.tgt(c1):
                continue
            lhs = cm.action.get((c, cm.delta[c1]))
            rhs = C.add(C.add(C.neg(c1), c), c1)
            if lhs is None or lhs != rhs:
                out.append("CM2 fails at (c=%s, c1=%s)" % (c, c1))
    return out


class XModMorphism:
    """Triple (object map, G-arrow map, C-arrow map)."""

    def __init__(self, f0, f1, f2):
        self.f0 = dict(f0)
        self.f1 = dict(f1)
        self.f2 = dict(f2)

    def __repr__(self):
        return "XModMorphism(%d objects)" % len(self.f0)


def check_xmod_morphism(m, src, tgt):
    """(violations, is_isomorphism) for the five morphism conditions."""
    from .groupoid import check_groupoid_morphism
    out = []
    g_mor = GroupoidMorphism(m.f0, m.f1)
    c_mor = GroupoidMorphism(m.f0, m.f2)
    for v in check_groupoid_morphism(g_mor, src.G, tgt.G):
        out.append("f1: %s" % v)
    for v in check_groupoid_morphism(c_mor, src.C, tgt.C):
        out.append("f2: %s" % v)
    if not out:
        for c in src.C.arrows:
            if m.f1[src.delta[c]] != tgt.delta[m.f2[c]]:
                out.append("boundary square fails at %s" % (c,))
        for c, a in src.action_pairs():
            try:
                lhs = m.f2[apply_action(src, c, a)]
                rhs = apply_action(tgt, m.f2[c], m.f1[a])
            except XModError:
                out.append("f2(c^a) != f2(c)^{f1(a)} at (%s, %s): undefined" % (c, a))
                continue
            if lhs != rhs:
                out.append("f2(c^a) != f2(c)^{f1(a)} at (%s, %s)" % (c, a))
    is_iso = (not out
              and len(set(map(_skey, m.f0.values()))) == len(tgt.G.objects) == len(src.G.objects)
              and len(set(map(_skey, m.f1.values()))) == len(tgt.G.arrows) == len(src.G.arrows)
              and len(set(map(_skey, m.f2.values()))) == len(tgt.C.arrows) == len(src.C.arrows))
    return out, is_iso


def find_xmod_isomorphism(src, tgt):
    """Exhaustive search with pruning; None when no isomorphism exists."""
    if (len(src.G.objects) != len(tgt.G.objects)
            or len(src.G.arrows) != len(tgt.G.arrows)
            or len(src.C.arrows) != len(tgt.C.arrows)):
        return None
    src_objs = sorted(src.G.objects, key=_skey)
    for perm in itertools.permutations(sorted(tgt.G.objects, key=_skey)):
        f0 = dict(zip(src_objs, perm))
        for f1 in _arrow_bijections(src.G, tgt.G, f0):
            for f2 in _arrow_bijections(src.C, tgt.C, f0):
                m = XModMorphism(f0, f1, f2)
                bad, is_iso = check_xmod_morphism(m, src, tgt)
                if not bad and is_iso:
                    return m
    return None


def _arrow_bijections(gsrc, gtgt, f0):
    """Structure-preserving arrow bijections over a fixed object bijection,
    in ``depth_first`` order over the source arrows: each takes an unused
    target arrow with the mapped endpoints and the same unit status, and
    fits when it preserves the sums of the composable triples it
    completes."""
    arrows = gsrc.arrows
    choices = [[b for b in gtgt.arrows
                if gtgt.src(b) == f0[gsrc.src(a)] and gtgt.tgt(b) == f0[gsrc.tgt(a)]
                and gsrc.is_unit(a) == gtgt.is_unit(b)] for a in arrows]
    triples = triples_by_last(gsrc, arrows)

    def options(i, f):
        used = set(f[:i])
        return [b for b in choices[i] if b not in used]

    def fits(i, f):
        return all(gtgt.add(f[x], f[y]) == f[z] for x, y, z in triples[i])

    for f in depth_first(len(arrows), options, fits):
        yield dict(zip(arrows, f))
