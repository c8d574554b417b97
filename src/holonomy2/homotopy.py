"""Everywhere-defined free derivations and linear coadmissible sections.

A free derivation s = (s0, s1) deforms a crossed module: s0 picks an
arrow ending at each object, s1 twists arrows into the kernel direction,
subject to s1(a+b) = s1(a)^b + s1(b).  Each derivation induces an
endomorphism of the crossed module; the invertible derivations form a
group isomorphic to the group of linear coadmissible sections of the
associated double groupoid.
"""

from __future__ import annotations

import itertools

from .fintop import ModelError
from .groupoid import _skey, depth_first, triples_by_last
from .xmod import XModMorphism, apply_action
from .dgpd import Square
from .holonomy import LocalLinearSection, local_section_mul, square_tables


class DerivationError(ModelError):
    pass


class FreeDerivation:
    """Pair of tables (s0 on objects, s1 on G-arrows)."""

    def __init__(self, s0, s1):
        self.s0 = dict(s0)
        self.s1 = dict(s1)

    def __eq__(self, other):
        if not isinstance(other, FreeDerivation):
            return NotImplemented
        return self.s0 == other.s0 and self.s1 == other.s1

    def __hash__(self):
        return hash((tuple(sorted(self.s0.items(), key=lambda kv: _skey(kv[0]))),
                     tuple(sorted(self.s1.items(), key=lambda kv: _skey(kv[0])))))

    def __repr__(self):
        return "FreeDerivation(s0=%s, s1=%s)" % (
            {k: str(v) for k, v in sorted(self.s0.items(), key=lambda kv: _skey(kv[0]))},
            {str(k): str(v) for k, v in sorted(self.s1.items(), key=lambda kv: _skey(kv[0]))})


def check_free_derivation(cm, s):
    """Violations of the derivation identities; empty means valid."""
    C, G = cm.C, cm.G
    out = []
    for x in G.objects:
        if x not in s.s0:
            out.append("s0 missing at %s" % (x,))
        elif G.tgt(s.s0[x]) != x:
            out.append("s0 not a target section at %s" % (x,))
    for a in G.arrows:
        if a not in s.s1:
            out.append("s1 missing at %s" % (a,))
        elif C.tgt(s.s1[a]) != G.tgt(a):
            out.append("s1 foot wrong at %s" % (a,))
    if out:
        return out
    for a, b in G.composable_pairs():
        lhs = s.s1[G.add(a, b)]
        rhs = C.add(apply_action(cm, s.s1[a], b), s.s1[b])
        if lhs != rhs:
            out.append("derivation law fails at (%s,%s)" % (a, b))
    return out


def constant_derivation(cm):
    """Unit sections and unit twists: the identity of the derivation monoid."""
    G, C = cm.G, cm.C
    return FreeDerivation({x: G.unit(x) for x in G.objects},
                          {a: C.unit(G.tgt(a)) for a in G.arrows})


def enumerate_free_derivations(cm):
    """All free derivations: every target section s0 with every s1 table
    of the ``depth_first`` search over the G arrows, whose fit checks the
    derivation law on the composable triples that each arrow completes."""
    G, C = cm.G, cm.C
    arrows = G.arrows
    s0_choices = [sorted(G.beta_fiber(x), key=_skey) for x in G.objects]
    s1_choices = [[c for c in C.arrows if C.tgt(c) == G.tgt(a)] for a in arrows]
    triples = triples_by_last(G, arrows)

    def fits(i, f):
        return all(f[ab] == C.add(apply_action(cm, f[a], arrows[b]), f[b])
                   for a, b, ab in triples[i])

    results = [dict(zip(arrows, f))
               for f in depth_first(len(arrows), lambda i, f: s1_choices[i], fits)]
    out = []
    for combo in itertools.product(*s0_choices):
        s0 = dict(zip(G.objects, combo))
        for s1 in results:
            out.append(FreeDerivation(s0, s1))
    return out


def induced_endomorphism(cm, s):
    """The endomorphism (f0, f1, f2) determined by a free derivation."""
    bad = check_free_derivation(cm, s)
    if bad:
        raise DerivationError("not a free derivation: %s" % bad[0])
    G, C = cm.G, cm.C
    f0 = {x: G.src(s.s0[x]) for x in G.objects}
    f1 = {}
    for a in G.arrows:
        f1[a] = G.add(G.add(G.add(s.s0[G.src(a)], a), cm.delta[s.s1[a]]), G.neg(s.s0[G.tgt(a)]))
    f2 = {}
    for c in C.arrows:
        inner = C.add(c, s.s1[cm.delta[c]])
        f2[c] = apply_action(cm, inner, G.neg(s.s0[C.tgt(c)]))
    return XModMorphism(f0, f1, f2)


def derivation_mul(cm, s, t):
    """Product of free derivations: (s*t)1(z) = t1(z) + (s1 g1(z))^{t0(beta z)}."""
    G, C = cm.G, cm.C
    g = induced_endomorphism(cm, t)
    s0 = {x: G.add(s.s0[g.f0[x]], t.s0[x]) for x in G.objects}
    s1 = {}
    for z in G.arrows:
        s1[z] = C.add(t.s1[z], apply_action(cm, s.s1[g.f1[z]], t.s0[G.tgt(z)]))
    prod = FreeDerivation(s0, s1)
    bad = check_free_derivation(cm, prod)
    if bad:
        raise DerivationError("product is not a free derivation: %s" % bad[0])
    return prod


def _bijective(cm, f):
    """Whether the arrow maps f1 and f2 of an endomorphism are bijective."""
    return (len(set(map(_skey, f.f1.values()))) == len(cm.G.arrows),
            len(set(map(_skey, f.f2.values()))) == len(cm.C.arrows))


def is_coadmissible(cm, s):
    """(invertible?, certificate with bijectivity flags and the inverse)."""
    f1_bij, f2_bij = _bijective(cm, induced_endomorphism(cm, s))
    cert = {"f1_bijective": f1_bij, "f2_bijective": f2_bij, "inverse": None}
    if f1_bij:
        cert["inverse"] = inverse_derivation(cm, s)
    return f1_bij, cert


def inverse_derivation(cm, s):
    """The derivation t with s*t = t*s = the constant derivation."""
    G, C = cm.G, cm.C
    f = induced_endomorphism(cm, s)
    f0_inv = {v: k for k, v in f.f0.items()}
    f1_inv = {v: k for k, v in f.f1.items()}
    if len(f1_inv) != len(G.arrows) or len(f0_inv) != len(G.objects):
        raise DerivationError("derivation is not invertible")
    t0 = {x: G.neg(s.s0[f0_inv[x]]) for x in G.objects}
    t1 = {}
    for z in G.arrows:
        t1[z] = C.neg(apply_action(cm, s.s1[f1_inv[z]], t0[G.tgt(z)]))
    t = FreeDerivation(t0, t1)
    bad = check_free_derivation(cm, t)
    if bad:
        raise DerivationError("inverse is not a free derivation: %s" % bad[0])
    return t


def check_linear_section(dg, sec):
    """Violations of the linear coadmissible-section conditions.  A
    linear section is a ``LocalLinearSection`` whose domains are all
    objects and all arrows; its s0 is the paper's sigma0."""
    G = dg.edge
    out = []
    for x in G.objects:
        if x not in sec.s0:
            out.append("sigma0 missing at %s" % (x,))
        elif G.tgt(sec.s0[x]) != x:
            out.append("sigma0 not a target section at %s" % (x,))
    for a in G.arrows:
        sq = sec.squares.get(a)
        if sq is None:
            out.append("square missing at %s" % (a,))
            continue
        if not dg.contains(sq):
            out.append("value at %s is not a square" % (a,))
            continue
        if sq.bottom != a:
            out.append("bottom edge wrong at %s" % (a,))
        if sq.left != sec.s0.get(G.src(a)) or sq.right != sec.s0.get(G.tgt(a)):
            out.append("side edges disagree with sigma0 at %s" % (a,))
        if dg.cm.C.tgt(sq.inner) != G.tgt(a):
            out.append("inner foot wrong at %s" % (a,))
    if out:
        return out
    for a, b in G.composable_pairs():
        lhs = sec.squares[G.add(a, b)]
        rhs = dg.comp2(sec.squares[a], sec.squares[b])
        if lhs != rhs:
            out.append("linearity fails at (%s,%s)" % (a, b))
    alpha0 = {x: G.src(sec.s0[x]) for x in G.objects}
    if len(set(map(_skey, alpha0.values()))) != len(G.objects):
        out.append("alpha sigma0 is not a bijection")
    f1 = {a: sec.squares[a].top for a in G.arrows}
    if len(set(map(_skey, f1.values()))) != len(G.arrows):
        out.append("top map is not a bijection")
    else:
        for a, b in G.composable_pairs():
            if f1[G.add(a, b)] != G.add(f1[a], f1[b]):
                out.append("top map is not an automorphism at (%s,%s)" % (a, b))
    return out


def coadmissible_section(dg, s):
    """(f1 bijective, f2 bijective, square-valued section) of a free
    derivation, from one induced endomorphism.  The section is None
    unless the derivation is coadmissible (f1 bijective)."""
    G = dg.edge
    f = induced_endomorphism(dg.cm, s)
    f1_bij, f2_bij = _bijective(dg.cm, f)
    if not f1_bij:
        return f1_bij, f2_bij, None
    squares = {}
    for a in G.arrows:
        squares[a] = Square(s.s1[a], f.f1[a], s.s0[G.src(a)], s.s0[G.tgt(a)], a)
    sec = LocalLinearSection(s.s0, squares)
    bad = check_linear_section(dg, sec)
    if bad:
        raise DerivationError("induced section invalid: %s" % bad[0])
    return f1_bij, f2_bij, sec


def derivation_to_section(dg, s):
    """Square-valued form of a coadmissible derivation."""
    f1_bij, f2_bij, sec = coadmissible_section(dg, s)
    if sec is None:
        raise DerivationError(
            "derivation is not coadmissible: f1_bijective=%s f2_bijective=%s"
            % (f1_bij, f2_bij))
    return sec


def section_to_derivation(dg, sec):
    """Inverse of derivation_to_section."""
    bad = check_linear_section(dg, sec)
    if bad:
        raise DerivationError("not a linear section: %s" % bad[0])
    s = FreeDerivation(sec.s0,
                       {a: sec.squares[a].inner for a in dg.edge.arrows})
    bad = check_free_derivation(dg.cm, s)
    if bad:
        raise DerivationError("section does not carry a derivation: %s" % bad[0])
    return s


def section_mul(dg, sec, tau):
    """Group multiplication: the local section product of full-domain
    sections, (sec * tau)(z) = sec(top tau(z)) +1 tau(z)."""
    prod = local_section_mul(dg, sec, tau, check=False)
    bad = check_linear_section(dg, prod)
    if bad:
        raise DerivationError("product section invalid: %s" % bad[0])
    return prod


def enumerate_linear_sections(dg):
    """All linear coadmissible sections: for each target section sigma0
    with alpha sigma0 a bijection, the square tables whose side edges
    follow sigma0 that pass check_linear_section."""
    G = dg.edge
    objects = sorted(G.objects, key=_skey)
    arrows = sorted(G.arrows, key=_skey)
    out = []
    for combo in itertools.product(*(sorted(G.beta_fiber(x), key=_skey) for x in objects)):
        if len({G.src(e) for e in combo}) != len(objects):
            continue
        sigma0 = dict(zip(objects, combo))
        candidates = {a: [sq for sq in dg.with_bottom(a)
                          if sq.left == sigma0[G.src(a)] and sq.right == sigma0[G.tgt(a)]]
                      for a in arrows}
        for table in square_tables(dg, arrows, candidates):
            sec = LocalLinearSection(sigma0, table)
            if not check_linear_section(dg, sec):
                out.append(sec)
    return out
