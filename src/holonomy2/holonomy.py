"""Local linear sections, germs, and the holonomy groupoid of a windowed
double groupoid.

A local linear section assigns to each arrow of an open set of the edge
groupoid a square with that bottom edge, so that right edges factor
through the target map, the assignment is multiplicative on composable
pairs of non-identity arrows lying in the domain, and the induced top
map is a partial homeomorphism that is multiplicative in both
directions on such pairs.  Identity arrows carry no multiplicativity
constraint: this keeps single-square thickenings available through
every square, which the germ and holonomy constructions quantify over.

Germs are canonical: a section's germ at an arrow is its restriction to
the minimal open neighbourhood, so germ equality is decidable and
agrees with the usual some-neighbourhood definition.  The holonomy
groupoid is the quotient of the subgroupoid of germs generated by
window-valued sections by the normal subgroupoid of germs that evaluate
to an identity square, topologized by chart images of window opens.
"""

from __future__ import annotations

import bisect
import itertools
from collections import defaultdict

from .fintop import FiniteTopSpace, ModelError, TopologyError, is_continuous, is_partial_homeomorphism, operation_continuity, pullback_space
from .groupoid import Groupoid, GroupoidMorphism, NormalSubgroupoid, _skey, check_groupoid, check_groupoid_morphism, composite_triples, depth_first, difference_triples, generated_subgroupoid, quotient, triples_by_last
from .xmod import apply_action


class HolonomyError(ModelError):
    pass


# ---------------------------------------------------------------------------
# window structures
# ---------------------------------------------------------------------------


class WStructure:
    """A topologized subset of the kernel groupoid's arrows."""

    def __init__(self, arrows, space):
        self.arrows = frozenset(arrows)
        self.space = space
        if space.points != self.arrows:
            raise HolonomyError("window space points must equal the window arrows")

    def __repr__(self):
        return "WStructure(%d arrows)" % len(self.arrows)


def full_wstructure(cm, space=None):
    arrows = frozenset(cm.C.arrows)
    if space is None:
        space = FiniteTopSpace.discrete(arrows)
    return WStructure(arrows, space)


def check_wstructure(cm, w):
    """Violations: window inside C, contains identities, target map a
    continuous open surjection onto the object space.

    Openness is tested on the distinct minimal opens, in the order
    ``(len, sorted names)`` of the full open family, and the witness is
    the one the family gives.  Every open U is the union of the minimal
    opens M(p), p in U, and images commute with unions, so if U's image
    is not open then some M(p) <= U fails too, with |M(p)| <= |U|.  Hence
    every failing open of the least failing length is a minimal open, and
    the first failing minimal open is the first failing open."""
    out = []
    C = cm.C
    if not w.arrows <= set(C.arrows):
        out.append("window arrows not within C")
        return out
    for x in C.objects:
        if C.unit(x) not in w.arrows:
            out.append("identity at %s missing from window" % (x,))
    obj_space = cm.G.object_space()
    beta = {c: C.tgt(c) for c in w.arrows}
    if set(beta.values()) != set(C.objects):
        out.append("target map not surjective on objects")
    # the domain is all of w.space and the values are G's objects: no TopologyError
    if not is_continuous(beta, w.space, obj_space):
        out.append("target map not continuous on window")
    for o in sorted({w.space.minimal_open(c) for c in w.arrows},
                    key=lambda o: (len(o), sorted(map(str, o)))):
        img = frozenset(C.tgt(c) for c in o)
        if not obj_space.is_open(img):
            out.append("target map not open: image of %s" % (sorted(map(str, o)),))
            break
    return out


class WGSquares:
    """A subset of squares with a topology; usually the squares whose
    inner arrow lies in a window, with the pullback topology.

    ``ordered`` lists the squares in the double groupoid's square order."""

    def __init__(self, dg, squares, space):
        self.dg = dg
        self.squares = frozenset(squares)
        self.space = space
        if space.points != self.squares:
            raise HolonomyError("square window space points mismatch")
        self.ordered = tuple(sq for sq in dg.squares if sq in self.squares)
        if len(self.ordered) != len(self.squares):
            raise HolonomyError("window squares outside the double groupoid")
        self._by_bottom = {}
        for sq in self.ordered:
            self._by_bottom.setdefault(sq.bottom, []).append(sq)
        # smooth window-valued minimal-domain sections, by arrow
        self._sections = {}

    def with_bottom(self, a):
        return tuple(self._by_bottom.get(a, ()))

    def __contains__(self, sq):
        return sq in self.squares

    def __repr__(self):
        return "WGSquares(%d squares)" % len(self.squares)


def build_wg(dg, w):
    """Squares with inner arrow in the window, with the pullback topology
    of (window space, edge space^3) along (inner, left, bottom, right)."""
    bad = check_wstructure(dg.cm, w)
    if bad:
        raise HolonomyError("invalid window: %s" % bad[0])
    squares = [sq for sq in dg.squares if sq.inner in w.arrows]
    arr_space = dg.edge.arrow_space()
    space = pullback_space([w.space, arr_space, arr_space, arr_space],
                           squares,
                           lambda sq: (sq.inner, sq.left, sq.bottom, sq.right))
    return WGSquares(dg, squares, space)


# ---------------------------------------------------------------------------
# local linear sections
# ---------------------------------------------------------------------------


class LocalLinearSection:
    """Square-valued section on an open arrow set, with its boundary data:
    ``dom0`` and ``dom1`` are the keys of the tables ``s0`` and ``squares``."""

    __slots__ = ("dom0", "dom1", "s0", "squares", "_sorted")

    def __init__(self, s0, squares):
        self.s0 = dict(s0)
        self.squares = dict(squares)
        self.dom0 = frozenset(self.s0)
        self.dom1 = frozenset(self.squares)
        self._sorted = None

    @property
    def _key(self):
        """Sorted tables, built on first comparison: most products are
        never hashed.  The domains are the tables' keys, and the sections
        sorted together by ``_skey`` of the key (one search's) share them,
        so the tables alone decide both equality and that order."""
        if self._sorted is None:
            self._sorted = (tuple(sorted(self.s0.items(), key=lambda kv: _skey(kv[0]))),
                            tuple(sorted(self.squares.items(), key=lambda kv: _skey(kv[0]))))
        return self._sorted

    def __eq__(self, other):
        if not isinstance(other, LocalLinearSection):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "LocalLinearSection(|dom1|=%d)" % len(self.dom1)


def _feet(G, arrows):
    out = set()
    for z in arrows:
        out.add(G.src(z))
        out.add(G.tgt(z))
    return out


def _nonunit_pairs(G, dom):
    """The triples (u, v, u + v) of ``dom`` with u and v non-units, in
    ``_skey`` order of u, then of v."""
    arrows, by_src = G.arrows, G.tables()[3]
    for u in sorted(dom, key=_skey):
        if G.is_unit(u):
            continue
        for j in by_src.get(G.tgt(u), ()):
            v = arrows[j]
            if v in dom and not G.is_unit(v):
                uv = G.add(u, v)
                if uv in dom:
                    yield u, v, uv


def check_local_section(dg, sec):
    """Violations of the local linear section conditions.  Pairs with a
    unit member are not checked, so on the full domain this is weaker
    than ``homotopy.check_linear_section`` plus bijectivity: a square at a
    unit arrow that is not the unit square can pass here and fail there."""
    G = dg.edge
    AS, XS = G.arrow_space(), G.object_space()
    out = []
    if not AS.is_open(sec.dom1):
        out.append("arrow domain not open")
    if not XS.is_open(sec.dom0):
        out.append("object domain not open")
    if not _feet(G, sec.dom1) <= sec.dom0:
        out.append("feet of arrow domain leave object domain")
    for x in sorted(sec.dom0, key=_skey):
        if G.tgt(sec.s0[x]) != x:
            out.append("s0 not a target section at %s" % (x,))
    for z in sorted(sec.dom1, key=_skey):
        sq = sec.squares[z]
        if not dg.contains(sq):
            out.append("value at %s is not a square of the double groupoid" % (z,))
            continue
        if sq.bottom != z:
            out.append("bottom edge wrong at %s" % (z,))
        if sq.right != sec.s0[G.tgt(z)]:
            out.append("right edge disagrees with s0 at %s" % (z,))
        # left edges must induce the same base deformation as s0
        if G.src(sq.left) != G.src(sec.s0[G.src(z)]):
            out.append("left edge base point disagrees with s0 at %s" % (z,))
    if out:
        return out
    for u, v, uv in _nonunit_pairs(G, sec.dom1):
        try:
            rhs = dg.comp2(sec.squares[u], sec.squares[v])
        except ModelError:
            out.append("linearity fails at (%s,%s): not composable" % (u, v))
            continue
        if rhs != sec.squares[uv]:
            out.append("linearity fails at (%s,%s)" % (u, v))
    f1 = {z: sq.top for z, sq in sec.squares.items()}
    ok, reason = is_partial_homeomorphism(f1, AS, AS)
    if not ok:
        out.append("top map not a partial homeomorphism: %s" % reason)
    else:
        for u, v, uv in _nonunit_pairs(G, sec.dom1):
            if f1[uv] != G.add(f1[u], f1[v]):
                out.append("top map not multiplicative at (%s,%s)" % (u, v))
        inv = {t: z for z, t in f1.items()}
        for p, q, pq in _nonunit_pairs(G, inv):
            if inv[pq] != G.add(inv[p], inv[q]):
                out.append("inverse top map not multiplicative at (%s,%s)" % (p, q))
    f0a = {x: G.src(sec.s0[x]) for x in sec.dom0}
    ok, reason = is_partial_homeomorphism(f0a, XS, XS)
    if not ok:
        out.append("base deformation not a partial homeomorphism: %s" % reason)
    return out


def section_violations(dg, sec):
    """``check_local_section(dg, sec)``, run once per section content on
    each double groupoid and kept there: the verdict reads nothing of the
    section but its s0 and squares, which equal sections share.  The
    section searches, the closure products and the chart certificate's
    inverses meet the same sections again."""
    verdicts = dg._section_verdicts
    bad = verdicts.get(sec)
    if bad is None:
        bad = verdicts[sec] = check_local_section(dg, sec)
    return bad


def smoothness_violations(dg, wg, sec):
    """Window-valuedness plus continuity of s0 and of the square map."""
    G = dg.edge
    AS = G.arrow_space()
    out = []
    for z in sorted(sec.dom1, key=_skey):
        if sec.squares[z] not in wg:
            out.append("value at %s outside the window" % (z,))
    if out:
        return out
    if not is_continuous(sec.s0, G.object_space(), AS):
        out.append("s0 not continuous")
    if not is_continuous(sec.squares, AS, wg.space):
        out.append("square map not continuous into the window")
    return out


def constant_section(dg, dom1):
    """Identity-square section: the unit for the section product."""
    G = dg.edge
    dom0 = G.object_space().min_neighbourhood(_feet(G, dom1))
    return LocalLinearSection({x: G.unit(x) for x in dom0},
                              {z: dg.eps1(z) for z in dom1})


def local_section_mul(dg, sec, tau, check=True):
    """(sec * tau)(z) = sec(top tau(z)) +1 tau(z) on the matched open domain."""
    G = dg.edge
    dom1 = frozenset(z for z in tau.dom1 if tau.squares[z].top in sec.dom1)
    f0 = {x: G.src(tau.s0[x]) for x in tau.dom0}
    dom0 = frozenset(x for x in tau.dom0 if f0[x] in sec.dom0)
    squares = {z: dg.vcomp(sec.squares[tau.squares[z].top], tau.squares[z])
               for z in dom1}
    s0 = {x: G.add(sec.s0[f0[x]], tau.s0[x]) for x in dom0}
    out = LocalLinearSection(s0, squares)
    if check:
        bad = section_violations(dg, out)
        if bad:
            raise HolonomyError("section product invalid: %s" % bad[0])
    return out


def local_section_inv(dg, sec):
    """sec^{-1}(z) = -1 sec(topmap^{-1}(z)), on the image domains."""
    G = dg.edge
    f1inv = {sq.top: z for z, sq in sec.squares.items()}
    f0inv = {G.src(a): x for x, a in sec.s0.items()}
    if len(f1inv) != len(sec.squares) or len(f0inv) != len(sec.s0):
        raise TopologyError("cannot invert a non-injective partial map")
    squares = {t: dg.vneg(sec.squares[z]) for t, z in f1inv.items()}
    s0 = {y: G.neg(sec.s0[x]) for y, x in f0inv.items()}
    out = LocalLinearSection(s0, squares)
    bad = section_violations(dg, out)
    if bad:
        raise HolonomyError("section inverse invalid: %s" % bad[0])
    return out


# ---------------------------------------------------------------------------
# germs
# ---------------------------------------------------------------------------


class Germ:
    """Restriction of a section to the minimal open of its base arrow."""

    __slots__ = ("base", "values", "_vm", "_hash", "_str")

    def __init__(self, base, value_map):
        self.base = base
        self._vm = dict(value_map)
        if base not in self._vm:
            raise HolonomyError("germ base %s outside its value map" % (base,))
        values = tuple(self._vm.items())
        if len(values) > 1:
            values = tuple(sorted(values, key=lambda kv: _skey(kv[0])))
        self.values = values
        self._hash = hash((base, self.values))
        self._str = None

    def value(self):
        """The square at the base arrow (the final-map value)."""
        return self._vm[self.base]

    def source(self):
        return self._vm[self.base].top

    def target(self):
        return self.base

    def __eq__(self, other):
        if not isinstance(other, Germ):
            return NotImplemented
        return self.base == other.base and self.values == other.values

    def __hash__(self):
        return self._hash

    def __str__(self):
        # the germ's sort key: built once
        if self._str is None:
            self._str = "germ@%s:%s" % (self.base, ",".join("%s->%s" % (z, sq) for z, sq in self.values))
        return self._str

    def __repr__(self):
        return "Germ(base=%s, %d values)" % (self.base, len(self.values))


def germ_at(dg, sec, a):
    """Canonical germ of a section at an arrow of its domain."""
    if a not in sec.dom1:
        raise HolonomyError("arrow %s outside the section domain" % (a,))
    M = dg.edge.arrow_space().minimal_open(a)
    return Germ(a, {z: sec.squares[z] for z in M})


def unit_germ(dg, a):
    M = dg.edge.arrow_space().minimal_open(a)
    return Germ(a, {z: dg.eps1(z) for z in M})


def germ_mul(dg, gb, ga):
    """[s]_{top ta} * [t]_a = [s*t]_a, computed on value maps with
    composites read from the vertical table."""
    if gb.base != ga.value().top:
        raise HolonomyError("germs not composable: %s vs %s" % (gb.base, ga.value().top))
    bvals = gb._vm
    return Germ(ga.base, {z: dg.vcomp(bvals[sq.top], sq) for z, sq in ga._vm.items()})


def germ_inv(dg, g):
    vals = g._vm
    inv_top = {sq.top: z for z, sq in vals.items()}
    if len(inv_top) != len(vals):
        raise HolonomyError("germ top map not injective")
    out = {t: dg.vneg(vals[z]) for t, z in inv_top.items()}
    return Germ(g.value().top, out)


# ---------------------------------------------------------------------------
# enumeration of minimal-domain sections
# ---------------------------------------------------------------------------


def _complete_s0(dg, dom0, pins, alpha_req, smooth):
    """The first s0 on dom0, in ``_skey`` order of the unpinned fibres,
    that extends the right-edge pins, respects the base points required
    by left edges, makes the base deformation a partial homeomorphism
    (and is continuous when smooth); None when there is none."""
    G = dg.edge
    XS = G.object_space()
    AS = G.arrow_space()
    points = sorted(dom0, key=_skey)
    for x, arrow in pins.items():
        if x in alpha_req and G.src(arrow) != alpha_req[x]:
            return None
    free = [x for x in points if x not in pins]
    fibres = [[arrow for arrow in sorted(G.beta_fiber(x), key=_skey)
               if x not in alpha_req or G.src(arrow) == alpha_req[x]] for x in free]
    for combo in itertools.product(*fibres):
        s0 = dict(pins)
        s0.update(zip(free, combo))
        ok, _ = is_partial_homeomorphism({x: G.src(s0[x]) for x in points}, XS, XS)
        if ok and (not smooth or is_continuous(s0, XS, AS)):
            return s0
    return None


def section_from_squares(dg, square_map, window=None):
    """Assemble and validate a section from a square table on its arrow
    domain, completing the boundary data; None when no valid completion
    exists.  A ``window`` means smooth: values in the window, the first
    continuous s0, and a square map continuous into the window."""
    G = dg.edge
    dom0 = G.object_space().min_neighbourhood(_feet(G, square_map))
    smooth = window is not None
    pins = {}
    alpha_req = {}
    for z in square_map:
        t = G.tgt(z)
        r = square_map[z].right
        if pins.get(t, r) != r:
            return None
        pins[t] = r
        u = G.src(z)
        la = G.src(square_map[z].left)
        if alpha_req.get(u, la) != la:
            return None
        alpha_req[u] = la
    # the tables of a search share dom0 and repeat their pins: each
    # completion is searched once per double groupoid
    key = (dom0, tuple(pins.items()), tuple(alpha_req.items()), smooth)
    if key not in dg._s0_completions:
        dg._s0_completions[key] = _complete_s0(dg, dom0, pins, alpha_req, smooth)
    s0 = dg._s0_completions[key]
    if s0 is None:
        return None
    sec = LocalLinearSection(s0, square_map)
    if section_violations(dg, sec):
        return None
    if smooth and smoothness_violations(dg, window, sec):
        return None
    return sec


def square_tables(dg, arrows, candidates):
    """Every consistent square table on ``arrows``, in search order.

    Each arrow's square is drawn from ``candidates[z]``, in order.  A
    table is consistent when squares over a common target share their
    right edge, squares over a common source share the base point of
    their left edge, a right edge at an object starts at the base point
    required there, tops are distinct, and every triple (u, v, u + v)
    of listed arrows with u, v non-units has matching edges and
    comp2(u, v) = u + v.  A ``depth_first`` search: the options of an
    arrow are its candidates that take the right edge and left base
    point pinned by the first earlier arrow at each foot and a top not
    yet used; the fit checks the base points both of whose arrows are
    now placed and the triples whose last member this is.
    """
    G = dg.edge
    src, comp2 = G.src, dg.comp2
    triples = [[t for t in bucket if not G.is_unit(arrows[t[0]]) and not G.is_unit(arrows[t[1]])]
               for bucket in triples_by_last(G, arrows)]
    # the first arrow into and out of each object fix its right edge and
    # the base point of its left edge
    first_in, first_out = {}, {}
    for i, z in enumerate(arrows):
        first_in.setdefault(G.tgt(z), i)
        first_out.setdefault(G.src(z), i)
    pins, feet = [], []
    for i, z in enumerate(arrows):
        r, l = first_in[G.tgt(z)], first_out[G.src(z)]
        pins.append((candidates[z], r if r < i else None, l if l < i else None))
        feet.append([(first_in[x], first_out[x]) for x in dict.fromkeys((G.tgt(z), G.src(z)))
                     if x in first_in and x in first_out
                     and max(first_in[x], first_out[x]) == i])

    def options(i, f):
        cands, r, l = pins[i]
        if r is not None:
            right = f[r].right
            cands = [sq for sq in cands if sq.right == right]
        if l is not None:
            base = src(f[l].left)
            cands = [sq for sq in cands if src(sq.left) == base]
        if i:
            used = {sq.top for sq in f[:i]}
            cands = [sq for sq in cands if sq.top not in used]
        return cands

    def fits(i, f):
        return (all(src(f[r].right) == src(f[l].left) for r, l in feet[i])
                and all(f[u].right == f[v].left and comp2(f[u], f[v]) == f[uv]
                        for u, v, uv in triples[i]))

    return (dict(zip(arrows, f)) for f in depth_first(len(arrows), options, fits))


def min_sections_at(dg, a, window=None):
    """All sections whose arrow domain is the minimal open of ``a``, in
    ``_skey`` order of their contents.

    A ``window`` restricts values and demands smoothness, as in
    ``section_from_squares``.  Restriction to minimal domains loses no
    germs: any section restricts to one of these with the same germ at
    ``a``.
    """
    M = sorted(dg.edge.arrow_space().minimal_open(a), key=_skey)
    source = window if window is not None else dg
    candidates = {z: list(source.with_bottom(z)) for z in M}
    results = []
    for table in square_tables(dg, M, candidates):
        sec = section_from_squares(dg, table, window)
        if sec is not None:
            results.append(sec)
    results.sort(key=lambda s: _skey(s._key))
    return results


def _window_sections(wg, a):
    """Smooth window-valued sections on the minimal open of ``a``,
    searched once per window and arrow and kept on ``wg``."""
    if a not in wg._sections:
        wg._sections[a] = min_sections_at(wg.dg, a, window=wg)
    return wg._sections[a]


def sections_through(wg, w_square):
    """Window-valued sections through a square: value at its bottom is the square.

    These are the window sections at the bottom arrow that take the
    square there.  Pinning the square in the search would reach exactly
    these tables, in the same relative order, so the filtered list is
    the pinned search's list.
    """
    a = w_square.bottom
    return [s for s in _window_sections(wg, a) if s.squares[a] == w_square]


def has_enough_sections(wg):
    """Search a through-section for every window square.

    Witnesses live on minimal domains, which suffices: restriction keeps
    every defining property.  A missing witness is a certified failure
    since the candidate space is exhausted.  One search per bottom arrow
    serves all of its squares.
    """
    witnesses = {}
    failures = []
    for sq in wg.ordered:
        found = sections_through(wg, sq)
        if found:
            witnesses[sq] = found[0]
        else:
            witnesses[sq] = None
            failures.append(sq)
    return {"ok": not failures, "witnesses": witnesses,
            "failures": failures}


# ---------------------------------------------------------------------------
# axiom suites
# ---------------------------------------------------------------------------


# section triples the triple-restriction deduction checks at most
DEDUCTION_TRIPLES = 120


def check_locally_lie_double(dg, wg):
    """Axioms S1-S5 for a windowed double groupoid, with the standard
    deductions verified when the axioms pass.

    Inverses, differences and products of window squares are read from
    the vertical view's tables."""
    G = dg.edge
    AS = G.arrow_space()
    report = {}

    neg_set = {dg.vneg(sq) for sq in wg.squares}
    s1_ok = neg_set == wg.squares
    report["S1"] = {"ok": s1_ok,
                    "witnesses": sorted(map(str, neg_set.symmetric_difference(wg.squares)))[:4]}

    missing = [a for a in G.arrows if dg.eps1(a) not in wg]
    report["S2"] = {"ok": not missing, "witnesses": [str(a) for a in missing[:4]]}

    vert = dg.vertical_groupoid()
    wd_open, wd_cont = operation_continuity(
        [wg.space, wg.space], difference_triples(vert, wg.ordered), wg.space)
    report["S3"] = {"ok": bool(wd_open and wd_cont),
                    "difference_set_open": wd_open,
                    "difference_continuous": wd_cont}

    top_cont = is_continuous({sq: sq.top for sq in wg.squares}, wg.space, AS)
    bot_cont = is_continuous({sq: sq.bottom for sq in wg.squares}, wg.space, AS)
    enough = has_enough_sections(wg)
    report["S4"] = {"ok": bool(top_cont and bot_cont and enough["ok"]),
                    "source_continuous": top_cont,
                    "target_continuous": bot_cont,
                    "enough_sections": enough["ok"],
                    "missing_sections": [str(sq) for sq in enough["failures"][:4]]}

    gen = generated_subgroupoid(vert, wg.squares)
    report["S5"] = {"ok": gen == set(dg.squares),
                    "generated": len(gen), "total": len(dg.squares)}

    report["ok"] = all(report[k]["ok"] for k in ("S1", "S2", "S3", "S4", "S5"))

    if report["ok"]:
        report["deductions"] = _locally_lie_deductions(dg, wg, enough)
    return report


def _locally_lie_deductions(dg, wg, enough):
    out = {}
    # 1) the vertical inverse is continuous on the window
    out["inverse_continuous"] = is_continuous(
        {sq: dg.vneg(sq) for sq in wg.squares}, wg.space, wg.space)
    # 2) composable window pairs whose product stays in the window form an
    #    open set on which the product is continuous
    p_open, p_cont = operation_continuity(
        [wg.space, wg.space], composite_triples(dg.vertical_groupoid(), wg.ordered), wg.space)
    out["product_set_open"] = p_open
    out["product_continuous"] = p_cont
    # holds by construction; the key goes at the next re-record of perfbench/expected.json
    out["difference_lands_in_window"] = True
    # 3) triple-restriction: products of window sections that evaluate into
    #    the window restrict to window-valued sections
    secs = list(dict.fromkeys(w for w in enough["witnesses"].values() if w is not None))
    # The triples are walked in product order, k * s once per pair.  A
    # product whose factor's tops miss the other's arrow domain has an
    # empty arrow domain and checks nothing, so it is not formed.
    checked = failures = 0
    for k in secs:
        for s in secs:
            if checked >= DEDUCTION_TRIPLES:
                break
            if not any(sq.top in k.dom1 for sq in s.squares.values()):
                continue
            try:
                ks = local_section_mul(dg, k, s, check=False)
            except ModelError:
                continue
            for t in secs:
                if checked >= DEDUCTION_TRIPLES:
                    break
                if not any(sq.top in ks.dom1 for sq in t.squares.values()):
                    continue
                try:
                    kst = local_section_mul(dg, ks, t, check=False)
                except ModelError:
                    continue
                for a in sorted(kst.dom1, key=_skey):
                    b = t.squares[a].top
                    if b not in ks.dom1:
                        continue
                    if ks.squares[b] not in wg or kst.squares[a] not in wg:
                        continue
                    checked += 1
                    M = dg.edge.arrow_space().minimal_open(a)
                    if not M <= kst.dom1 or any(kst.squares[z] not in wg for z in M):
                        failures += 1
                    break
    out["triple_restriction_checked"] = checked
    out["triple_restriction_ok"] = failures == 0
    return out


def check_locally_lie_xmod(cm, w, square_axioms):
    """Axioms C1-C5 for a windowed crossed module, with the cross-check
    that the kernel-side continuity matches the square-side difference.

    ``square_axioms`` is the S1-S5 report of the same window's squares:
    C5 is its S4 section search and the square side of the cross-check
    is its S3 difference continuity.
    """
    C, G = cm.C, cm.G
    AS = G.arrow_space()
    arrows = sorted(w.arrows, key=_skey)
    report = {}

    gen = generated_subgroupoid(C, w.arrows)
    d_open, d_cont = operation_continuity(
        [w.space, w.space], difference_triples(C, arrows), w.space)
    report["C1"] = {"ok": bool(gen == set(C.arrows) and d_open and d_cont),
                    "generates": gen == set(C.arrows),
                    "difference_set_open": d_open,
                    "difference_continuous": d_cont}

    missing = [x for x in C.objects if C.unit(x) not in w.arrows]
    report["C2"] = {"ok": not missing, "witnesses": [str(x) for x in missing]}

    c3 = is_continuous({c: cm.delta[c] for c in arrows}, w.space, AS)
    report["C3"] = {"ok": c3}

    a_open, a_cont = operation_continuity(
        [w.space, AS],
        ((c, a, apply_action(cm, c, a)) for c in arrows for a in G.arrows
         if C.tgt(c) == G.src(a)),
        w.space)
    report["C4"] = {"ok": bool(a_open and a_cont),
                    "action_set_open": a_open, "action_continuous": a_cont}

    s4 = square_axioms["S4"]
    report["C5"] = {"ok": s4["enough_sections"], "missing": s4["missing_sections"]}

    sq_cont = bool(square_axioms["S3"]["difference_continuous"])
    report["cross_check"] = {
        "kernel_side": bool(c3 and report["C4"]["ok"]),
        "square_side_difference_continuous": sq_cont,
        "agree": bool(c3 and report["C4"]["ok"]) == sq_cont}

    report["ok"] = all(report[k]["ok"] for k in ("C1", "C2", "C3", "C4", "C5"))
    return report


def action_orbit_closure(cm, arrows):
    """Smallest action-stable superset of the given kernel arrows."""
    out = set(arrows)
    grew = True
    while grew:
        grew = False
        for c in list(out):
            for a in cm.G.arrows:
                if cm.C.tgt(c) == cm.G.src(a):
                    moved = apply_action(cm, c, a)
                    if moved not in out:
                        out.add(moved)
                        grew = True
    return frozenset(out)


def generation_equivalence(cm, w_arrows, dg):
    """Window generates the kernel and is action-stable iff the window
    squares generate the double groupoid vertically.

    The square side is insensitive to replacing the window by its action
    orbit, so the sharp equivalent of vertical generation is that the
    orbit closure generates; ``orbit_side`` records that refinement.
    """
    C = cm.C
    w_set = set(w_arrows)
    generates = generated_subgroupoid(C, w_arrows) == set(C.arrows)
    # the window is action-stable exactly when it is its orbit closure
    orbit = action_orbit_closure(cm, w_arrows)
    lhs = generates and orbit == w_set
    vert = dg.vertical_groupoid()
    wg_squares = [sq for sq in dg.squares if sq.inner in w_set]
    rhs = generated_subgroupoid(vert, wg_squares) == set(dg.squares)
    orbit_side = (generates if orbit == w_set
                  else generated_subgroupoid(C, orbit) == set(C.arrows))
    return {"kernel_side": lhs, "square_side": rhs, "agree": lhs == rhs,
            "orbit_side": orbit_side, "orbit_agree": orbit_side == rhs}


# ---------------------------------------------------------------------------
# germ groupoids
# ---------------------------------------------------------------------------


def generated_germs(dg, seed_witness):
    """The groupoid of germs generated by the seed germs and the unit
    germs under inverses and products.

    ``seed_witness`` maps each seed germ to a section with that germ.
    Returns (groupoid, seed germs, witness sections for every germ): a
    seed keeps its own section, a unit outside the seeds gets
    ``constant_section``, and a germ first met as an inverse or a
    product gets the inverse or the product of the witnesses, so every
    germ comes with an explicit word section.  The witnesses decide the
    charts, so the order is fixed: each pass walks a snapshot of the
    germs in sort order, as they stood when the pass began, adding
    inverses, then walks a second snapshot, composing each g with a
    snapshot of the germs out of its target, as they stand when g is
    reached.

    Products are read through the vertical rows: a germ is keyed by its
    base and the positions of its values, in the order of its arrows,
    and [s]_{top ta} * [t]_a takes, at each arrow z of [t]_a, the row of
    s's value at top t(z) at the position of t(z).  The germs at one
    base list the arrows of its minimal open in one order, so equal keys
    are equal germs.  ``germ_mul`` runs only for a product with no key
    yet, which the closure then admits.  Each product pass also fills
    the rows of the groupoid, by the positions of the germs as the pass
    began; the last pass admits nothing, so its rows are complete.
    """
    G = dg.edge
    pos, rows = dg.vertical_groupoid().tables()[:2]
    witness = dict(seed_witness)
    units = {a: unit_germ(dg, a) for a in G.arrows}
    for a, u in units.items():
        if u not in witness:
            witness[u] = constant_section(dg, G.arrow_space().minimal_open(a))
    # a germ's key, the positions of its values by arrow, and its steps
    # (top, position) in the order of its arrows
    keyed, info, by_src = {}, {}, {}

    def key(g):
        return g.base, tuple(pos[sq] for _, sq in g.values)

    def keep(g):
        k = key(g)
        keyed[k] = g
        info[g] = (k, {z: pos[sq] for z, sq in g.values},
                   [(sq.top, pos[sq]) for _, sq in g.values])
        bisect.insort(by_src.setdefault(g.source(), []), g, key=_skey)

    arrows = sorted(witness, key=_skey)
    for g in arrows:
        keep(g)

    def admit(g, sec):
        witness[g] = sec
        keep(g)
        bisect.insort(arrows, g, key=_skey)

    neg = {}
    frontier = True
    while frontier:
        frontier = False
        for g in list(arrows):
            if g not in neg:
                gi = germ_inv(dg, g)
                if key(gi) not in keyed:
                    admit(gi, local_section_inv(dg, witness[g]))
                    frontier = True
                neg[g] = keyed[key(gi)]
        index = {info[g][0]: i for i, g in enumerate(arrows)}
        germ_rows = []
        for g in list(arrows):
            b_at, row = info[g][1], [None] * len(index)
            for h in list(by_src.get(g.base, ())):
                h_key, _, h_steps = info[h]
                gh_key = (h.base, tuple(rows[b_at[t]][p] for t, p in h_steps))
                if gh_key not in keyed:
                    admit(germ_mul(dg, g, h), local_section_mul(dg, witness[g], witness[h]))
                    frontier = True
                elif not frontier:
                    row[index[h_key]] = index[gh_key]
            germ_rows.append(row)
    germs = Groupoid(G.arrows, arrows, {g: g.source() for g in arrows},
                     {g: g.target() for g in arrows}, germ_rows, neg, units)
    return germs, frozenset(seed_witness), witness


def build_germ_groupoid(dg):
    """The groupoid of germs of local linear sections over the edge arrows.

    Objects are edge arrows; a germ runs from the top of its base value to
    its base.  Returns (groupoid, witness sections per germ).  Every germ
    is the germ of a section on the minimal open of its base, so these
    germs seed ``generated_germs``; a germ the closure admits beyond them
    is refused.  The holonomy pipeline builds only the germs the window
    generates.
    """
    seed_witness = {}
    for a in sorted(dg.edge.arrows, key=_skey):
        for sec in min_sections_at(dg, a):
            seed_witness.setdefault(germ_at(dg, sec, a), sec)
    germs, _, witness = generated_germs(dg, seed_witness)
    for g in witness:
        if g not in seed_witness:
            raise HolonomyError("germ closure left the germ set at %s" % (g,))
    return germs, witness


def window_germs(dg, wg):
    """Germs of smooth window-valued sections, with witness sections."""
    out = {}
    for a in sorted(dg.edge.arrows, key=_skey):
        for sec in _window_sections(wg, a):
            g = germ_at(dg, sec, a)
            if g not in out:
                out[g] = sec
    return out


def build_restricted_germs(dg, wg):
    """J_r, the germs generated by the window germs: (groupoid, seed
    germs, witness sections for every germ), by ``generated_germs``."""
    return generated_germs(dg, window_germs(dg, wg))


def build_unit_germs(dg, jr, seed):
    """Window germs evaluating to an identity square: the normal kernel.

    Wideness and normality are re-verified, never assumed.

    On a discrete edge-arrow space the kernel is the units.  There
    M(a) = {a}, so a germ at a is the value map {a: value} and is fixed
    by its value.  A kernel germ at a has the value eps1(a), which is the
    one value of ``unit_germ(dg, a)``, so it is that unit germ.  Every
    class of the quotient is then a single germ: a model whose quotient
    binds needs a non-discrete edge-arrow space.
    """
    members = [g for g in seed if g.value() == dg.eps1(g.base)]
    sub = NormalSubgroupoid(jr, members)
    bad = sub.violations()
    if bad:
        raise HolonomyError("kernel germs not a wide normal subgroupoid: %s" % bad[0])
    return sub


# ---------------------------------------------------------------------------
# the holonomy groupoid
# ---------------------------------------------------------------------------


class Chart:
    """Partial injection of window squares into the holonomy groupoid."""

    def __init__(self, section, mapping):
        self.section = section
        self.mapping = mapping

    def __repr__(self):
        return "Chart(%d squares)" % len(self.mapping)


class HolonomyGroupoid:
    def __init__(self, dg, wg, quotient_groupoid, projection, psi, embed,
                 topology, germ_groupoid, unit_sub, charts, report):
        self.dg = dg
        self.wg = wg
        self.quotient = quotient_groupoid
        self.projection = projection
        self.psi = psi
        self.embed = embed
        self.topology = topology
        self.germ_groupoid = germ_groupoid
        self.unit_sub = unit_sub
        self.charts = charts
        self.report = report

    def __repr__(self):
        return "HolonomyGroupoid(%d arrows over %d objects)" % (
            len(self.quotient.arrows), len(self.quotient.objects))


def left_translation(dg, sec, w_square):
    """L_s(w) = s(top w) +1 w, defined when the top lies in the domain."""
    if w_square.top not in sec.dom1:
        raise HolonomyError("square top %s outside the section domain" % (w_square.top,))
    return dg.comp1(sec.squares[w_square.top], w_square)


def _chart_for(dg, hol, proj, jr_index, sec, through_by_top):
    """Chart of a section, c_s(w) = proj([s]_{top w}) + embed[w] in the
    quotient ``hol``, with the number of squares it skips because their
    embedding is ill-defined.

    ``through_by_top`` maps each top edge, in the order of its first
    square, to the window squares with a through-section under it, in
    square order, each with the classes of its through-germs as the
    embedding found them: one class, embed[w], where it is well defined.
    ``jr_index`` holds the generated germs, among them every
    through-germ; ``proj`` is the quotient's projection from them.

    The chart walks the tops in the arrow domain of s and forms one germ
    per top.  The feet of such a top lie in the object domain of s: every
    witness section passes ``check_local_section``, whose "feet of arrow
    domain leave object domain" verdict rules the contrary out.  Seeds
    are assembled by ``section_from_squares``, units are
    ``constant_section`` over the minimal neighbourhood of their feet,
    and inverses and products pass ``section_violations``.

    Chart-translate lemma.  The chart of s sends w to the class of
    [s * theta]_a, for any through-section theta of w and a = bottom w,
    and [s * theta]_a = [s]_{top w} + [theta]_a in the germ groupoid.
    For theta's top map is continuous, so it maps M(a), the minimal open
    of a, into M(top w), which lies in s's open arrow domain: on M(a) the
    product's value s(top theta(z)) +1 theta(z) is defined, and it is the
    value ``germ_mul`` gives for [s]_{top w} + [theta]_a.  ``proj`` is a
    morphism (the coset lemma of ``quotient``), so the class is
    proj([s]_{top w}) + proj([theta]_a): one class for all theta exactly
    where the embedding is well defined.  The generated germs form a
    subgroupoid holding [theta]_a, so [s * theta]_a is among them
    exactly when [s]_{top w} is.
    """
    qpos, qrows = hol.tables()[:2]
    mapping = {}
    skipped = 0
    for top, through in through_by_top.items():
        if top not in sec.dom1:
            continue
        g = germ_at(dg, sec, top)
        if g not in jr_index:
            raise HolonomyError("chart germ escaped the generated germs at %s" % (through[0][0],))
        # the class of [s]_top ends where each through-class starts, and
        # the quotient of a groupoid composes every such pair
        row = qrows[qpos[proj.arr_map[g]]]
        for sq, classes in through:
            if len(classes) != 1:
                skipped += 1
                continue
            mapping[sq] = hol.arrows[row[qpos[next(iter(classes))]]]
    return Chart(sec, mapping), skipped


def holonomy_groupoid(dg, wg, axioms, require_axioms=True):
    """Quotient of the generated germ groupoid by the unit-valued germs,
    with final morphism, window embedding and chart topology.

    ``axioms`` is the S1-S5 report of ``wg``.  Refuses when an axiom
    fails, naming it; with ``require_axioms`` off the germ quotient and
    charts are still assembled (the embedding is then only defined on
    squares that admit through-sections).
    """
    if require_axioms:
        for key in ("S1", "S2", "S3", "S4", "S5"):
            if not axioms[key]["ok"]:
                raise HolonomyError("axiom %s failed: %s" % (key, axioms[key]))

    jr, seed, witness = build_restricted_germs(dg, wg)
    bad = check_groupoid(jr)
    if bad:
        raise HolonomyError("germ groupoid invalid: %s" % bad[0])
    unit_sub = build_unit_germs(dg, jr, seed)
    hol, proj = quotient(jr, unit_sub)

    # the induced evaluation on classes must be constant on each class
    vert = dg.vertical_groupoid()
    psi_arrows = {}
    for cls in hol.arrows:
        vals = {g.value() for g in cls}
        if len(vals) != 1:
            raise HolonomyError("evaluation not constant on a class: %s"
                                % sorted(map(_skey, cls))[:2])
        psi_arrows[cls] = vals.pop()
    psi = GroupoidMorphism({obj: obj for obj in hol.objects}, psi_arrows)
    bad = check_groupoid_morphism(psi, hol, vert)
    if bad:
        raise HolonomyError("induced evaluation not a morphism: %s" % bad[0])

    # embedding of window squares by germs of through-sections; the
    # charts read the classes found for each square, grouped by top edge.
    # A through-section of w is a window section on M(bottom w) valued w
    # there, so its germ is a seed germ valued w: those seeds are w's
    # through-germs, arrows of J_r
    jr_set = set(jr.arrows)
    seed_classes = {}
    for g in seed:
        seed_classes.setdefault(g.value(), set()).add(proj.arr_map[g])
    through_by_top = {}
    embed = {}
    for sq in wg.ordered:
        classes = seed_classes.get(sq, set())
        if not classes:
            if require_axioms:
                raise HolonomyError("no through-section for %s despite S4" % (sq,))
            continue
        through_by_top.setdefault(sq.top, []).append((sq, classes))
        if len(classes) != 1:
            if require_axioms:
                raise HolonomyError("embedding ill-defined at %s" % (sq,))
            continue
        [embed[sq]] = classes

    # charts and the generated topology
    charts = []
    chart_skips = 0
    seen_sections = set()
    for g in jr.arrows:
        sec = witness[g]
        if sec in seen_sections:
            continue
        seen_sections.add(sec)
        chart, skipped = _chart_for(dg, hol, proj, jr_set, sec, through_by_top)
        chart_skips += skipped
        charts.append(chart)
    # the generated topology depends neither on the order of its basis
    # nor on repeats
    basis = set()
    for chart in charts:
        for sq in chart.mapping:
            basis.add(frozenset(chart.mapping[t] for t in wg.space.minimal_open(sq)
                                if t in chart.mapping))
    topology = FiniteTopSpace.from_generators(hol.arrows, basis, point_cap=None)

    report = {"axioms": axioms, "embedded_squares": len(embed),
              "window_squares": len(wg.squares), "chart_skips": chart_skips}
    report["psi_identity_on_objects"] = all(
        psi.obj_map[obj] == obj for obj in hol.objects)
    report["psi_section_of_embed"] = all(psi_arrows[embed[sq]] == sq for sq in embed)
    report["embed_injective"] = len(set(embed.values())) == len(embed)
    report["embed_image_open"] = topology.is_open(frozenset(embed.values()))
    preimage = frozenset(h for h in hol.arrows if psi_arrows[h] in wg.squares)
    report["psi_preimage_open"] = topology.is_open(preimage)
    try:
        report["psi_continuous_on_preimage"] = is_continuous(
            {h: psi_arrows[h] for h in preimage}, topology, wg.space)
    except TopologyError:
        report["psi_continuous_on_preimage"] = False
    report["psi_unit_on_objects"] = all(
        psi_arrows[hol.unit(obj)] == dg.eps1(obj) for obj in hol.objects)

    return HolonomyGroupoid(dg, wg, hol, proj, psi, embed, topology,
                            jr, unit_sub, charts, report)


def check_chart_coherence(hol):
    """Chart injectivity and transitions as left translations; openness of
    transition images is reported apart, since it is only guaranteed once
    the axioms hold.

    Transitions are proved to be left translations chart by chart
    (``_charts_translate``); otherwise, or when that proof fails, chart
    pairs are scanned for witnesses (``_transition_pairs``).  On a window
    with a non-isolated square the pair loop still runs for openness."""
    dg, wg = hol.dg, hol.wg
    out = {"charts": len(hol.charts), "violations": [], "open_image_failures": []}
    for chart in hol.charts:
        if len(set(chart.mapping.values())) != len(chart.mapping):
            out["violations"].append("chart of %r not injective" % (chart.section,))
    pos = dg.vertical_groupoid().tables()[0]
    # minimal opens of the non-isolated window squares, as positions; an
    # isolated square's basic open is itself alone
    wide = {pos[sq]: frozenset(map(pos.__getitem__, m))
            for sq, m in wg.space._min.items() if len(m) > 1}
    proved = not out["violations"] and _charts_translate(hol)
    if wide or not proved:
        _transition_pairs(hol, wide, proved, out)
    out["ok"] = not out["violations"]
    out["opens_to_opens"] = not out["open_image_failures"]
    return out


def _charts_translate(hol):
    """Chart coherence through psi: every transition is a left
    translation, proved one chart at a time, for injective charts.

    Preconditions, checked here: the vertical view passes
    ``check_groupoid`` (its cached verdict); for every chart s and every
    square v in its domain, psi(c_s(v)) = s(top v) +1 v; every chart
    with a square has a section whose inverse is defined
    (``local_section_inv`` does not raise).

    Then let c_s(v) = c_t(v').  Applying psi gives
    w = s(top v) +1 v = t(top v') +1 v', so top w = top t(top v') lies
    in the image of t's top map, the domain of t^-1, and
    t^-1(top w) = -t(top v').  The transition eta = t^-1 * s is thus
    defined at top v, and by associativity and the inverse laws

        L_eta(v) = (-t(top v') +1 s(top v)) +1 v = -t(top v') +1 w = v',

    which is the square the pair scan expects.  The check reads each
    chart's squares once instead of every overlapping pair of charts.
    """
    dg = hol.dg
    vert = dg.vertical_groupoid()
    if vert.violations():
        return False
    pos, rows = vert.tables()[:2]
    psi = hol.psi.arr_map
    for chart in hol.charts:
        squares = chart.section.squares
        for v, h in chart.mapping.items():
            i = pos.get(squares.get(v.top))
            k = None if i is None else rows[i][pos[v]]
            if k is None or k != pos.get(psi.get(h)):
                return False
    for chart in hol.charts:
        if chart.mapping:
            try:
                local_section_inv(dg, chart.section)
            except ModelError:
                return False
    return True


def _transition_pairs(hol, wide, proved, out):
    """The pair loop of ``check_chart_coherence``, into ``out``.

    Only chart pairs whose images meet are visited, found through an
    index from classes to the charts whose image holds them, in chart
    order.  Squares are read as positions of the double groupoid, taken
    in square order.  Unless ``proved``, the transition eta = t^-1 * s
    of charts s and t is read off the vertical rows and compared with
    the chart values; its object data is not built: no check reads it,
    and it composes for valid sections.  With ``wide``, transition
    images of basic opens are checked for openness."""
    dg = hol.dg
    pos, vert = dg.vertical_groupoid().tables()[:2]
    squares = dg.squares
    # each chart's squares as positions in square order, and its inverse:
    # class -> position, where on a non-injective chart the first wins
    ordered = [sorted(map(pos.__getitem__, chart.mapping)) for chart in hol.charts]
    inverses = []
    for chart, ps in zip(hol.charts, ordered):
        inverse = {}
        for p in ps:
            inverse.setdefault(chart.mapping[squares[p]], p)
        inverses.append(inverse)
    charts_at = {}
    for j, inverse in enumerate(inverses):
        for h in inverse:
            charts_at.setdefault(h, []).append(j)
    inverse_sections = {}
    for cs, ps in zip(hol.charts, ordered):
        overlaps = defaultdict(list)
        for p in ps:
            v = squares[p]
            entry = (v, p, cs.mapping[v])
            for j in charts_at[entry[2]]:
                overlaps[j].append(entry)
        s_at = [(z, sq.top, pos[sq]) for z, sq in cs.section.squares.items()]
        for j in sorted(overlaps):
            inverse = inverses[j]
            if proved:
                moved = {p: inverse[h] for _, p, h in overlaps[j]}
            else:
                try:
                    if j not in inverse_sections:
                        inv = local_section_inv(dg, hol.charts[j].section)
                        inverse_sections[j] = {z: pos[sq] for z, sq in inv.squares.items()}
                    t_inv = inverse_sections[j]
                except ModelError as e:
                    out["violations"].append("transition section undefined: %s" % e)
                    continue
                # eta(z) = t^-1(top s(z)) +1 s(z); t^-1(w) has bottom w, so
                # every such pair composes
                eta_at = {z: vert[vert[t_inv[top]][c]] for z, top, c in s_at if top in t_inv}
                for v, p, h in overlaps[j]:
                    row = eta_at.get(v.top)
                    if row is None:
                        out["violations"].append(
                            "transition at %s not covered by the translation" % (v,))
                    elif row[p] != inverse[h]:
                        out["violations"].append(
                            "transition disagrees with left translation at %s" % (v,))
                moved = {p: inverse[h] for v, p, h in overlaps[j] if v.top in eta_at}
            # transitions carry opens to opens: images of minimal opens
            # within an open overlap must be open.  Only non-isolated
            # squares constrain openness, so on a discrete window there
            # is nothing to check
            if not wide:
                continue
            if all(wide[p] <= moved.keys() for p in moved if p in wide):
                for v, p, _ in overlaps[j]:
                    img = {moved[t] for t in wide.get(p, (p,)) if t in moved}
                    if p in moved and not all(wide[q] <= img for q in img if q in wide):
                        out["open_image_failures"].append(
                            "transition image of a basic open not open at %s" % (v,))


# ---------------------------------------------------------------------------
# the universal property
# ---------------------------------------------------------------------------


def push_section(window, mu, sec):
    """Image of a section under a vertical morphism, assembled as a
    smooth section into the target ``window``; None when it is not one."""
    squares = {z: mu.arr_map[sq] for z, sq in sec.squares.items()}
    return section_from_squares(window.dg, squares, window)


def universal_morphism(wgA, mu, hol):
    """The unique morphism into the holonomy groupoid over a vertical
    morphism of double groupoids.

    Verifies the hypotheses (identity on objects; open, continuous,
    vertically generating preimage of the window; enough sections), builds
    the morphism by factoring through the preimage, verifies that it is
    independent of every choice of factorization and through-section, and
    proves it unique by generation (the last paragraph).

    ``wgA`` is the source's window on its double groupoid ``wgA.dg``; S4
    and the through-sections read the searches it keeps.  A window on
    every square is one on every kernel arrow c: c is the inner arrow of
    the square with unit left, bottom and right edges and top delta(c).

    A factor's through-sections are those of ``wgA`` valued in the
    preimage, in their order: the same list as a search on the preimage
    with the subspace topology.  A square table valued in the preimage
    is consistent in both searches and gets the same first continuous
    s0; its square map is continuous into the subspace exactly when it
    is continuous into ``wgA.space``, as its image lies in the preimage;
    and filtering a sorted list keeps its order.

    The construction factors a square w vertically as w = u1 + ... + uk
    with every ui in the preimage and u1, ..., u(k-1) non-units, picks
    for each ui a through-section theta valued in the preimage whose push
    along ``mu`` is smooth, and folds the classes of the pushed germs at
    the bottom edges, add(c1, add(c2, ..., ck)).  Its candidates at w are every
    class so reached, together with ``embed[mu w]`` when w is in the
    preimage; independence of choices means there is exactly one.

    They are computed exactly, in two steps.  (a) C(p), for p in the
    preimage, is the set of classes proj([mu theta] at the bottom of p)
    over every such theta whose germ lies in J_r.  The germ of the i-th
    choice is taken at the bottom of ui, and the fold moves up one factor
    per step, so a word's classes are the folds of c1 in C(u1), ...,
    ck in C(uk), chosen independently; a factor with empty C(ui) gives
    its word no class.  (b) R is the least set of pairs holding (p, c)
    for c in C(p) and, with (x, q), the pair (u + x, add(c, q)) for every
    non-unit u of the preimage above x and c in C(u).  By induction on
    k, R holds (u1 + ... + uk, add(c1, add(..., ck))) for exactly the
    words and choices above: the one-factor words start it and each step
    prepends a non-unit factor.  So R's values at w are the classes of
    all of w's factorizations, of any length.  R lies in squares x
    classes, so the worklist, which adds each pair once, ends.  A factor
    with empty C(p) can leave a square with no candidate, which is
    reported as such.

    A qualifying morphism is a table h on the squares that takes
    ``embed[mu p]`` at every p in the preimage, has psi(h(w)) = mu(w) and
    the ends of w at every other square w, and has h(u + x) = add(h(u),
    h(x)) on every composable pair.  Every square w has a candidate, so
    by the closure above w = u1 + ... + uk with each ui in the preimage,
    and h(w) is the fold add(h(u1), add(..., h(uk))) of values fixed on
    the preimage: at most one table qualifies.  This needs nothing of the
    target but that ``add`` is a function.  mu' takes ``embed[mu p]`` on
    the preimage by construction, and its morphism check fixes its ends
    and products; so it qualifies, and is the one qualifying morphism,
    exactly when psi(mu'(w)) = mu(w) at every square w outside the
    preimage.
    """
    dgA, dgC, wg = wgA.dg, hol.dg, hol.wg
    if wgA.squares != frozenset(dgA.squares):
        raise HolonomyError("hypothesis: the source needs a topology on all of its kernel")

    # (i) identity on objects
    if set(dgA.edge.arrows) != set(dgC.edge.arrows):
        raise HolonomyError("hypothesis (i) fails: edge groupoids differ")
    if any(mu.obj_map[a] != a for a in dgA.edge.arrows):
        raise HolonomyError("hypothesis (i) fails: not the identity on objects")
    bad = check_groupoid_morphism(mu, dgA.vertical_groupoid(), dgC.vertical_groupoid())
    if bad:
        raise HolonomyError("not a vertical morphism: %s" % bad[0])

    # (ii) the preimage of the window
    pre = frozenset(sq for sq in dgA.squares if mu.arr_map[sq] in wg.squares)
    if not wgA.space.is_open(pre):
        raise HolonomyError("hypothesis (ii) fails: window preimage not open")
    if not is_continuous({sq: mu.arr_map[sq] for sq in pre},
                         wgA.space, wg.space):
        raise HolonomyError("hypothesis (ii) fails: morphism not continuous on the preimage")
    vertA = dgA.vertical_groupoid()
    if generated_subgroupoid(vertA, pre) != set(dgA.squares):
        raise HolonomyError("hypothesis (ii) fails: preimage does not generate vertically")

    # (iii) enough sections on the source
    enough = has_enough_sections(wgA)
    if not enough["ok"]:
        raise HolonomyError("hypothesis (iii) fails: not enough sections on the source")
    for sq in dgA.squares:
        if sq in pre and mu.arr_map[sq] not in hol.embed:
            raise HolonomyError("the holonomy embedding misses %s, the image of %s"
                                % (mu.arr_map[sq], sq))

    # (a) each factor's classes, in the order of its through-sections
    jr_set = set(hol.germ_groupoid.arrows)
    squares = dgA.squares  # in _skey order
    factor = {p: [] for p in squares if p in pre}
    for p, classes in factor.items():
        for theta in sections_through(wgA, p):
            if not all(v in pre for v in theta.squares.values()):
                continue
            img = push_section(wg, mu, theta)
            if img is None:
                continue
            g = germ_at(dgC, img, p.bottom)
            if g in jr_set and hol.projection.arr_map[g] not in classes:
                classes.append(hol.projection.arr_map[g])

    # (b) the closure, breadth first: each pair once, in the order reached
    above = {}
    for u in squares:
        if factor.get(u) and not vertA.is_unit(u):
            above.setdefault(vertA.tgt(u), []).append(u)
    work = [(p, c) for p in squares for c in factor.get(p, ())]
    reached = set(work)
    for x, q in work:  # the loop reads the pairs appended as it runs
        for u in above.get(vertA.src(x), ()):
            ux = vertA.add(u, x)
            for c in factor[u]:
                pair = (ux, hol.quotient.add(c, q))
                if pair not in reached:
                    reached.add(pair)
                    work.append(pair)
    cands_at = {p: {hol.embed[mu.arr_map[p]]} for p in pre}
    for x, q in work:
        cands_at.setdefault(x, set()).add(q)

    mu_prime_map = {}
    for w_sq in squares:
        cands = cands_at.get(w_sq, set())
        if not cands:
            raise HolonomyError("no factorization through the preimage at %s" % (w_sq,))
        if len(cands) != 1:
            raise HolonomyError("construction not independent of choices at %s" % (w_sq,))
        mu_prime_map[w_sq] = cands.pop()

    mu_prime = GroupoidMorphism({a: a for a in dgA.edge.arrows}, mu_prime_map)
    report = {}
    bad = check_groupoid_morphism(mu_prime, vertA, hol.quotient)
    report["is_morphism"] = not bad
    report["psi_after"] = all(hol.psi.arr_map[mu_prime_map[sq]] == mu.arr_map[sq]
                              for sq in dgA.squares)
    report["embeds_preimage"] = all(mu_prime_map[sq] == hol.embed[mu.arr_map[sq]]
                                    for sq in pre)
    if bad:
        raise HolonomyError("constructed map not a morphism: %s" % bad[0])

    # uniqueness: mu' is the only table that can qualify (docstring)
    report["qualifying_morphisms"] = int(all(hol.psi.arr_map[mu_prime_map[sq]] == mu.arr_map[sq]
                                             for sq in squares if sq not in pre))
    report["unique"] = report["qualifying_morphisms"] == 1
    return mu_prime, report


def identity_vertical_morphism(dg):
    return GroupoidMorphism({a: a for a in dg.edge.arrows},
                            {sq: sq for sq in dg.squares})
