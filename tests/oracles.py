"""Slow reference implementations of the indexed kernels, kept for
differential tests.

Each function is the straightforward scan that the library replaced by
an indexed version: all point pairs for pullback minimal opens, every
point for continuity, every square pair and quadruple for the double
groupoid axioms, all arrow triples for associativity, a linear
inverse lookup for chart coherence, and, for the universal property,
through-sections recomputed per factorization, a preimage re-sorted at
every factorization node and a uniqueness search that rechecks every
assigned pair at every node.  The section searches are kept as they
were before the shared square-table search: a global linear section
search and a minimal-domain search that rescan every assigned pair at
every node, and a global section product with its own formula.  The
free-derivation search and the arrow-bijection search of the gamma
isomorphism are kept as they were before the shared depth-first
search: one recursive level per arrow, rescanning every assigned pair
at every node.  The germ groupoid J is built with its own table, apart
from the closure that generates J_r in it, and that closure re-sorts
the closure for every germ it extends; a generated subgroupoid tries
every pair of its members, and openness is membership in the
materialised open family, and so is a window's target map tested for
openness.  The generated groupoids of the loader are expanded as they
were before one letter table held every letter's ends.  Finite spaces
are built, checked and queried once per point, as before minimal opens
were interned; through-sections come from one search pinned to each
square; a chart multiplies whole sections to read one germ, per
through-section; the quotient merges objects along non-loop members
and composes every pair of class members.  The
window operations of S3, C1 and C4 test openness and continuity on a
materialised pair space, and so do a topologized groupoid's difference
map and composition.  The square views compose every pair of squares
through ``comp1``/``comp2``, and the triple-restriction deduction walks
every triple of witness sections.  The square views, the germ closure
and the coset quotient hand the constructor a pair table, as before
they filled rows by position.  The fast versions must agree with these,
violation order included.
"""

from __future__ import annotations

import bisect
import functools
import itertools

from holonomy2.dgpd import (DoubleGroupoidError, build_double_groupoid,
                            square_boundary_ok)
from holonomy2.fintop import FiniteTopSpace, ModelError, PartialMap, TopologyError
from holonomy2.groupoid import (Groupoid, GroupoidError, GroupoidMorphism, _skey,
                                check_groupoid_morphism, composite_triples, pair_rows)
from holonomy2 import holonomy
from holonomy2.holonomy import (Chart, HolonomyError, LocalLinearSection,
                                WGSquares, _feet, build_wg, constant_section, germ_at,
                                germ_inv, germ_mul, unit_germ, window_germs, left_translation,
                                local_section_inv, local_section_mul, section_from_squares,
                                smoothness_violations)
from holonomy2.holonomy import square_tables as library_square_tables
from holonomy2.scenario import ScenarioError, _ends, _invert_letter, _rewrite, _typed
from holonomy2.homotopy import DerivationError, FreeDerivation, check_linear_section
from holonomy2.xmod import XModMorphism, apply_action


def pullback_space(component_spaces, points, components):
    """Subspace of a product, without materialising the product.

    ``points`` are the admitted tuples-in-disguise, ``components(p)``
    returns the tuple of coordinates of ``p`` in the given spaces.
    """
    pts = frozenset(points)
    comp = {p: components(p) for p in pts}
    for p, c in comp.items():
        if len(c) != len(component_spaces):
            raise TopologyError("component arity mismatch for %r" % (p,))
    mins = {}
    for p in pts:
        cmins = [sp.minimal_open(x) for sp, x in zip(component_spaces, comp[p])]
        mins[p] = frozenset(q for q in pts
                            if all(x in m for x, m in zip(comp[q], cmins)))
    return FiniteTopSpace(pts, mins)


def is_continuous(f, src, tgt):
    """Preimages of opens are open in the subspace topology of the domain.

    Over finite spaces this is equivalent to the pointwise condition
    f(min(p)) <= min(f(p)), which is what gets checked.
    """
    if not f.domain <= src.points:
        raise TopologyError("domain not within source space")
    if not is_open_pointwise(src, f.domain):
        raise TopologyError("domain of partial map is not open")
    if not f.image() <= tgt.points:
        raise TopologyError("values leave the target space")
    for p in f.domain:
        fp = f.table[p]
        tmin = tgt.minimal_open(fp)
        # domain open, so min(p) stays inside it
        for q in src.minimal_open(p):
            if f.table[q] not in tmin:
                return False
    return True


@functools.cache
def open_sets(space):
    """Every open set of ``space`` (every down-set of its preorder), as
    the unions of its minimal opens, by size, then by sorted names."""
    opens = {frozenset()}
    for p in sorted(space.points, key=str):
        m = space.minimal_open(p)
        opens |= {o | m for o in opens}
    return tuple(sorted(opens, key=lambda o: (len(o), sorted(map(str, o)))))


def is_open(space, subset):
    """Openness as membership in the materialised family of opens."""
    s = frozenset(subset)
    if not s <= space.points:
        raise TopologyError("subset %s not within point set" % (sorted(map(str, s)),))
    return s in set(open_sets(space))


def is_open_pointwise(space, subset):
    """Openness as one containment test per point of the subset."""
    s = frozenset(subset)
    if not s <= space.points:
        raise TopologyError("subset %s not within point set" % (sorted(map(str, s)),))
    return all(space.minimal_open(p) <= s for p in s)


def window_operation(factors, pairs, op, target):
    """Openness and continuity of a partial operation on pairs, over the
    materialised pair space: ``pairs`` as a pullback of ``factors``, the
    pairs whose value ``op(*pair)`` lands in ``target`` tested for
    openness, and the operation on them for continuity (None when the
    set is not open)."""
    pspace = pullback_space(factors, pairs, lambda p: p)
    values = {}
    for p in pairs:
        value = op(*p)
        if value in target.points:
            values[p] = value
    is_open = pspace.is_open(frozenset(values))
    cont = None
    if is_open:
        try:
            cont = is_continuous(PartialMap(values), pspace, target)
        except TopologyError:
            cont = False
    return is_open, cont


def is_partial_homeomorphism(f, src, tgt):
    """Injective, open image, continuous both ways, checked point by point."""
    if not is_open_pointwise(src, f.domain):
        return False, "domain-not-open"
    if not f.image() <= tgt.points:
        return False, "values-outside-target"
    if not f.is_injective():
        return False, "not-injective"
    if not is_open_pointwise(tgt, f.image()):
        return False, "image-not-open"
    if not is_continuous(f, src, tgt):
        return False, "not-continuous"
    if not is_continuous(f.inverse(), tgt, src):
        return False, "inverse-not-continuous"
    return True, ""


def checked_min_opens(points, min_opens):
    """The constructor's check of a minimal-open table, one point at a
    time: every point's open is copied and tested, shared or not."""
    points = frozenset(points)
    mins = {p: frozenset(min_opens[p]) for p in points}
    for p, m in mins.items():
        if p not in m or not m <= points:
            raise TopologyError("bad minimal open for %r" % (p,))
    return mins


def min_neighbourhood(space, subset):
    out = frozenset()
    for p in subset:
        out |= space.minimal_open(p)
    return out


def check_groupoid(g):
    """Every violated axiom instance; empty list means valid.

    Includes continuity results for the structure maps when the groupoid
    is topologized.
    """
    out = []
    table = dict(g.entries())
    for (a, b), c in sorted(table.items(), key=lambda kv: (_skey(kv[0][0]), _skey(kv[0][1]))):
        if g.tgt(a) != g.src(b):
            out.append("composition domain: %s+%s defined but tgt(%s)=%s != src(%s)=%s"
                       % (a, b, a, g.tgt(a), b, g.src(b)))
            continue
        if g.src(c) != g.src(a) or g.tgt(c) != g.tgt(b):
            out.append("composition endpoints: %s+%s=%s has wrong src/tgt" % (a, b, c))
    for a in g.arrows:
        for b in g.arrows:
            if g.composable(a, b) and (a, b) not in table:
                out.append("composition missing: %s+%s (tgt=src=%s)" % (a, b, g.tgt(a)))
    for x in g.objects:
        if x not in g._units:
            out.append("unit missing at object %s" % (x,))
            continue
        e = g._units[x]
        if g.src(e) != x or g.tgt(e) != x:
            out.append("unit endpoints: unit(%s)=%s is not a loop at %s" % (x, e, x))
    for a in g.arrows:
        if g.src(a) in g._units and (g._units[g.src(a)], a) in table:
            if table[(g._units[g.src(a)], a)] != a:
                out.append("left unit law fails at %s" % (a,))
        if g.tgt(a) in g._units and (a, g._units[g.tgt(a)]) in table:
            if table[(a, g._units[g.tgt(a)])] != a:
                out.append("right unit law fails at %s" % (a,))
        if a not in g._neg:
            out.append("negation missing for %s" % (a,))
        else:
            n = g._neg[a]
            if g.src(n) != g.tgt(a) or g.tgt(n) != g.src(a):
                out.append("negation endpoints wrong for %s" % (a,))
            else:
                if table.get((a, n)) != g._units.get(g.src(a)):
                    out.append("right negative law fails at %s" % (a,))
                if table.get((n, a)) != g._units.get(g.tgt(a)):
                    out.append("left negative law fails at %s" % (a,))
    for a in g.arrows:
        for b in g.arrows:
            if not g.composable(a, b) or (a, b) not in table:
                continue
            for c in g.arrows:
                if not g.composable(b, c) or (b, c) not in table:
                    continue
                lhs = table.get((table[(a, b)], c))
                rhs = table.get((a, table[(b, c)]))
                if lhs != rhs:
                    out.append("associativity fails at (%s,%s,%s)" % (a, b, c))
    if g.topology is not None:
        out.extend(continuity_report(g))
    return out


def continuity_report(g):
    """The continuity verdicts of a topologized groupoid's structure
    maps, the difference map and the composition tested on materialised
    pair spaces.  A unit map or negation whose domain is not open is not
    tested."""
    out = []
    arr, obj = g.topology
    alpha = PartialMap({a: g.src(a) for a in g.arrows})
    beta = PartialMap({a: g.tgt(a) for a in g.arrows})
    if not is_continuous(alpha, arr, obj):
        out.append("continuity: source map not continuous")
    if not is_continuous(beta, arr, obj):
        out.append("continuity: target map not continuous")
    eps = PartialMap({x: g.unit(x) for x in g.objects if x in g._units})
    if is_open(obj, eps.domain) and not is_continuous(eps, obj, arr):
        out.append("continuity: unit map not continuous")
    neg = PartialMap({a: g._neg[a] for a in g.arrows if a in g._neg})
    if is_open(arr, neg.domain) and not is_continuous(neg, arr, arr):
        out.append("continuity: negation not continuous")
    # difference map on the beta-fibred pairs, (a,b) |-> a - b
    pairs = [(a, b) for a in g.arrows for b in g.arrows if g.tgt(a) == g.tgt(b)]
    if all(a in g._neg for a in g.arrows) and any(g.entries()):
        pspace = pullback_space([arr, arr], pairs, lambda p: p)
        try:
            diff = PartialMap({(a, b): g.add(a, g.neg(b)) for a, b in pairs})
            if not is_continuous(diff, pspace, arr):
                out.append("continuity: difference map not continuous")
        except GroupoidError:
            out.append("continuity: difference map not totally defined")
        cpairs = list(g.composable_pairs())
        cspace = pullback_space([arr, arr], cpairs, lambda p: p)
        try:
            addm = PartialMap({(a, b): g.add(a, b) for a, b in cpairs})
            if not is_continuous(addm, cspace, arr):
                out.append("continuity: composition not continuous")
        except GroupoidError:
            out.append("continuity: composition not totally defined")
    return out


def generated_subgroupoid(g, seed):
    """Least arrow subset containing the seed and all units, closed under
    + and -: every pair of closure members is tried, pass after pass,
    until a pass adds nothing."""
    closure = set(g.units()) | set(seed)
    frontier = True
    while frontier:
        frontier = False
        for a in list(closure):
            n = g.neg(a)
            if n not in closure:
                closure.add(n)
                frontier = True
        for a in list(closure):
            for b in list(closure):
                if g.composable(a, b):
                    c = g.add(a, b)
                    if c not in closure:
                        closure.add(c)
                        frontier = True
    return frozenset(closure)


def view_table(dg, vertical):
    """The composition table of the vertical (horizontal) square view,
    composed pair by pair by ``dg.comp1`` (``dg.comp2``) over every pair
    of squares."""
    table = {}
    for u in dg.squares:
        for v in dg.squares:
            if vertical and u.bottom == v.top:
                table[(u, v)] = dg.comp1(u, v)
            elif not vertical and u.right == v.left:
                table[(u, v)] = dg.comp2(u, v)
    return table


def view(dg, vertical):
    """The vertical (horizontal when not ``vertical``) square view from the pair table of
    ``view_table``, handed to the constructor through ``pair_rows``.
    After every composition, negation and unit error, the first
    composite outside the square set, in table order, is refused, named
    by whether it keeps the boundary equation."""
    table = view_table(dg, vertical)
    neg, unit = (dg.neg1, dg.eps1) if vertical else (dg.neg2, dg.eps2)
    negs = {sq: neg(sq) for sq in dg.squares}
    units = {a: unit(a) for a in dg.edge.arrows}
    for (u, v), w in table.items():
        if not dg.contains(w):
            raise DoubleGroupoidError("%s composite %s+%s=%s %s" % (
                "vertical" if vertical else "horizontal", u, v, w,
                "is not in the square set" if square_boundary_ok(dg.cm, w) else
                "breaks the boundary equation delta(inner) = -bottom - left + top + right"))
    return Groupoid(dg.edge.arrows, dg.squares,
                    {sq: sq.top if vertical else sq.left for sq in dg.squares},
                    {sq: sq.bottom if vertical else sq.right for sq in dg.squares},
                    pair_rows(dg.squares, table), negs, units)


def check_double(dg):
    """All violated double-groupoid and connection axioms."""
    out = []
    G = dg.edge
    for sq in dg.squares:
        if not square_boundary_ok(dg.cm, sq):
            out.append("boundary equation fails for %s" % (sq,))
    vert = view(dg, True)
    for v in check_groupoid(vert):
        out.append("vertical: %s" % v)
    horiz = view(dg, False)
    for v in check_groupoid(horiz):
        out.append("horizontal: %s" % v)
    # closure of the square set under both compositions
    for u in dg.squares:
        for v in dg.squares:
            if u.bottom == v.top and not dg.contains(dg.comp1(u, v)):
                out.append("vertical composition leaves the square set at (%s,%s)" % (u, v))
            if u.right == v.left and not dg.contains(dg.comp2(u, v)):
                out.append("horizontal composition leaves the square set at (%s,%s)" % (u, v))
    # each structure's maps are morphisms for the other
    for u in dg.squares:
        for v in dg.squares:
            if u.bottom != v.top:
                continue
            w = dg.comp1(u, v)
            if w.left != G.add(u.left, v.left) or w.right != G.add(u.right, v.right):
                out.append("horizontal faces of vertical composite wrong at (%s,%s)" % (u, v))
    # interchange on all valid quadruples
    for u in dg.squares:
        for v in dg.squares:
            if u.right != v.left:
                continue
            for u2 in dg.squares:
                if u2.top != u.bottom:
                    continue
                for v2 in dg.squares:
                    if v2.top != v.bottom or u2.right != v2.left:
                        continue
                    lhs = dg.comp1(dg.comp2(u, v), dg.comp2(u2, v2))
                    rhs = dg.comp2(dg.comp1(u, u2), dg.comp1(v, v2))
                    if lhs != rhs:
                        out.append("interchange fails at (%s,%s,%s,%s)" % (u, v, u2, v2))
    # connection: boundary shape and transport law
    for a in G.arrows:
        con = dg.connection.get(a)
        if con is None:
            out.append("connection missing at %s" % (a,))
            continue
        y = G.tgt(a)
        if not (con.top == a and con.left == a
                and con.right == G.unit(y) and con.bottom == G.unit(y)):
            out.append("connection boundary wrong at %s" % (a,))
        if not dg.contains(con):
            out.append("connection square missing from square set at %s" % (a,))
    for a in G.arrows:
        for b in G.arrows:
            if not G.composable(a, b):
                continue
            con = dg.connection.get(G.add(a, b))
            if con is None or dg.connection.get(a) is None or dg.connection.get(b) is None:
                continue
            try:
                want = dg.comp2(dg.comp1(dg.connection[a], dg.eps2(b)), dg.connection[b])
            except DoubleGroupoidError as e:
                out.append("transport law fails at (%s,%s): %s" % (a, b, e))
                continue
            if con != want:
                out.append("transport law fails at (%s,%s)" % (a, b))
    for x in G.objects:
        e = G.unit(x)
        con = dg.connection.get(e)
        if con is not None and not (con == dg.eps1(e) == dg.eps2(e)):
            out.append("connection not degenerate at unit %s" % (x,))
    return out


def chart_for(dg, hol_proj, jr_index, sec, through_cache, strict=True):
    """Chart of a section, each germ read off the whole product section."""
    G = dg.edge
    mapping = {}
    skipped = 0
    for sq, thetas in through_cache.items():
        a = sq.bottom
        if sq.top not in sec.dom1:
            continue
        if G.src(sq.top) not in sec.dom0 or G.tgt(sq.top) not in sec.dom0:
            continue
        if not thetas:
            continue
        classes = set()
        for theta in thetas:
            prod = local_section_mul(dg, sec, theta, check=False)
            g = germ_at(dg, prod, a)
            if g not in jr_index:
                raise HolonomyError("chart germ escaped the generated germs at %s" % (sq,))
            classes.add(hol_proj.arr_map[g])
        if len(classes) != 1:
            if strict:
                raise HolonomyError("chart value depends on the through-section at %s" % (sq,))
            skipped += 1
            continue
        mapping[sq] = classes.pop()
    return Chart(sec, mapping), skipped


def quotient(g, n):
    """Quotient groupoid and its projection morphism, as ``holonomy_groupoid``
    read it before the quotient kept its objects: arrows merged by
    two-sided translation by members of ``n``, objects merged along its
    non-loop members, composition checked on every pair of class members
    (bridged through a connecting member where they do not compose), and
    the singleton object classes unwrapped."""
    bad = n.violations()
    if bad:
        raise GroupoidError("not a normal subgroupoid: %s" % bad[0])

    # object classes
    oparent = {x: x for x in g.objects}

    def ofind(x):
        while oparent[x] != x:
            oparent[x] = oparent[oparent[x]]
            x = oparent[x]
        return x

    def ounion(x, y):
        rx, ry = ofind(x), ofind(y)
        if rx != ry:
            if _skey(ry) < _skey(rx):
                rx, ry = ry, rx
            oparent[ry] = rx

    for m in n.arrows:
        ounion(g.src(m), g.tgt(m))

    # arrow classes under two-sided translation by members of n
    aparent = {a: a for a in g.arrows}

    def afind(a):
        while aparent[a] != a:
            aparent[a] = aparent[aparent[a]]
            a = aparent[a]
        return a

    def aunion(a, b):
        ra, rb = afind(a), afind(b)
        if ra != rb:
            if _skey(rb) < _skey(ra):
                ra, rb = rb, ra
            aparent[rb] = ra

    for a in g.arrows:
        for m in n.arrows:
            if g.tgt(m) == g.src(a):
                aunion(a, g.add(m, a))
            if g.tgt(a) == g.src(m):
                aunion(a, g.add(a, m))

    classes = {}
    for a in g.arrows:
        classes.setdefault(afind(a), []).append(a)
    arrow_class = {a: frozenset(classes[afind(a)]) for a in g.arrows}
    obj_class = {x: frozenset(y for y in g.objects if ofind(y) == ofind(x))
                 for x in g.objects}

    qobjects = sorted(set(obj_class.values()), key=_skey)
    qarrows = sorted(set(arrow_class.values()), key=_skey)
    qsrc = {}
    qtgt = {}
    for cls in qarrows:
        reps = sorted(cls, key=_skey)
        srcs = {obj_class[g.src(a)] for a in reps}
        tgts = {obj_class[g.tgt(a)] for a in reps}
        if len(srcs) != 1 or len(tgts) != 1:
            raise GroupoidError("quotient ill-defined: class %s has mixed endpoints"
                                % (sorted(map(_skey, cls)),))
        qsrc[cls] = srcs.pop()
        qtgt[cls] = tgts.pop()

    qtable = {}
    for ca in qarrows:
        for cb in qarrows:
            if qtgt[ca] != qsrc[cb]:
                continue
            results = set()
            for a in ca:
                for b in cb:
                    if g.composable(a, b):
                        results.add(arrow_class[g.add(a, b)])
                    else:
                        # bridge through a connecting member of n
                        for m in n.arrows:
                            if g.src(m) == g.tgt(a) and g.tgt(m) == g.src(b):
                                results.add(arrow_class[g.add(g.add(a, m), b)])
                                break
            if len(results) != 1:
                raise GroupoidError("quotient composition ill-defined on (%s,%s)"
                                    % (sorted(map(_skey, ca)), sorted(map(_skey, cb))))
            qtable[(ca, cb)] = results.pop()

    qneg = {cls: arrow_class[g.neg(sorted(cls, key=_skey)[0])] for cls in qarrows}
    qunits = {obj_class[x]: arrow_class[g.unit(x)] for x in g.objects}
    q = Groupoid(qobjects, qarrows, qsrc, qtgt, pair_rows(qarrows, qtable), qneg, qunits)
    if len(q.objects) != len(g.objects):
        raise HolonomyError("unit germs merged objects; kernel not loop-shaped")
    # kernel members are loops, so object classes are singletons; unwrap them
    unwrap = {o: next(iter(o)) for o in q.objects}
    q = Groupoid([unwrap[o] for o in q.objects], q.arrows,
                 {h: unwrap[q.src(h)] for h in q.arrows},
                 {h: unwrap[q.tgt(h)] for h in q.arrows},
                 pair_rows(q.arrows, dict(q.entries())), q._neg,
                 {unwrap[o]: q.unit(o) for o in q.objects})
    return q, GroupoidMorphism({x: x for x in g.objects}, arrow_class)


def _inverse_of(chart, h):
    for sq in sorted(chart.mapping, key=_skey):
        if chart.mapping[sq] == h:
            return sq
    raise HolonomyError("value outside chart image")


def check_chart_coherence(hol):
    """Chart injectivity and transitions as left translations; openness of
    transition images is reported apart, since it is only guaranteed once
    the axioms hold."""
    dg, wg = hol.dg, hol.wg
    out = {"charts": len(hol.charts), "violations": [], "open_image_failures": []}
    for chart in hol.charts:
        if len(set(chart.mapping.values())) != len(chart.mapping):
            out["violations"].append("chart of %r not injective" % (chart.section,))
    for cs in hol.charts:
        for ct in hol.charts:
            overlap = [v for v in sorted(cs.domain, key=_skey)
                       if cs.mapping[v] in ct.image()]
            if not overlap:
                continue
            try:
                eta = local_section_mul(dg, local_section_inv(dg, ct.section),
                                        cs.section, check=False)
            except ModelError as e:
                out["violations"].append("transition section undefined: %s" % e)
                continue
            moved = {}
            for v in overlap:
                w_sq = _inverse_of(ct, cs.mapping[v])
                if v.top not in eta.dom1:
                    out["violations"].append(
                        "transition at %s not covered by the translation" % (v,))
                    continue
                lt = left_translation(dg, eta, v)
                if lt != w_sq:
                    out["violations"].append(
                        "transition disagrees with left translation at %s" % (v,))
                moved[v] = w_sq
            # transitions carry opens to opens: images of minimal opens
            # within an open overlap must be open
            dom = frozenset(moved)
            if wg.space.is_open(dom):
                for v in sorted(dom, key=_skey):
                    img = frozenset(moved[t] for t in wg.space.minimal_open(v) & dom)
                    if not wg.space.is_open(img):
                        out["open_image_failures"].append(
                            "transition image of a basic open not open at %s" % (v,))
    out["ok"] = not out["violations"]
    out["opens_to_opens"] = not out["open_image_failures"]
    return out


def _factorizations(dg, pre_set, w_sq, bound, cap):
    """Vertical factorizations of a square into members of a generating set."""
    results = []

    def walk(current, acc, depth):
        if len(results) >= cap:
            return
        if current in pre_set:
            results.append(tuple(acc) + (current,))
            if len(acc) + 1 >= bound:
                return
        if depth >= bound:
            return
        for u in sorted(pre_set, key=_skey):
            if u.top != current.top:
                continue
            rest = dg.comp1(dg.neg1(u), current)
            if rest == current and u == dg.eps1(current.top):
                continue
            walk(rest, acc + [u], depth + 1)

    walk(w_sq, [], 0)
    seen = []
    for r in results:
        if r not in seen:
            seen.append(r)
    return seen


def closure_classes(dgA, pre, factor, add):
    """Every class of every factorization of every square, of any length,
    by square: the least set of pairs holding (p, c) for c in
    ``factor[p]`` and, with (x, q), the pair (u + x, add(c, q)) for every
    non-unit u of ``pre`` above x and c in ``factor[u]``.  Round by
    round, each round rescanning ``pre`` with comp1 for the factors above
    the pairs the last round found, in the order they were found, so a
    composite that ``add`` lacks raises at the same pair as in the
    library's worklist."""
    ordered = sorted(pre, key=_skey)
    frontier = [(p, c) for p in ordered for c in factor[p]]
    seen = set(frontier)
    values = {}
    while frontier:
        found = []
        for x, q in frontier:
            values.setdefault(x, set()).add(q)
            for u in ordered:
                if u.bottom != x.top or u == dgA.eps1(u.top):
                    continue
                ux = dgA.comp1(u, x)
                for c in factor[u]:
                    pair = (ux, add(c, q))
                    if pair not in seen:
                        seen.add(pair)
                        found.append(pair)
        frontier = found
    return values


def universal_morphism(cmA, wA, mu, hol, word_bound=8, max_factorizations=24,
                       theta_choices=3, search_cap=200000):
    """The unique morphism into the holonomy groupoid over a vertical
    morphism of double groupoids.

    Verifies the hypotheses (identity on objects; open, continuous,
    vertically generating preimage of the window; enough sections), builds
    the morphism by factoring through the preimage, re-verifies
    independence of all choices up to the bounds, and certifies
    uniqueness by exhaustive search.  With ``word_bound`` None there are
    no bounds: every through-section of every factor, and every
    factorization, by ``closure_classes``.
    """
    dgC, wg = hol.dg, hol.wg
    dgA = build_double_groupoid(cmA)
    if frozenset(wA.arrows) != frozenset(cmA.C.arrows):
        raise HolonomyError("hypothesis: the source needs a topology on all of its kernel")
    wgA = build_wg(dgA, wA)

    # (i) identity on objects
    if set(cmA.G.arrows) != set(dgC.edge.arrows):
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
    if not is_continuous(PartialMap({sq: mu.arr_map[sq] for sq in pre}),
                         wgA.space, wg.space):
        raise HolonomyError("hypothesis (ii) fails: morphism not continuous on the preimage")
    vertA = dgA.vertical_groupoid()
    if generated_subgroupoid(vertA, pre) != set(dgA.squares):
        raise HolonomyError("hypothesis (ii) fails: preimage does not generate vertically")

    # (iii) enough sections on the source
    enough = has_enough_sections(dgA, wgA)
    if not enough["ok"]:
        raise HolonomyError("hypothesis (iii) fails: not enough sections on the source")

    preW = square_subwindow(wgA, pre)
    jr_set = set(hol.germ_groupoid.arrows)

    def pushed(piece, choices):
        out = []
        for theta in sections_through(dgA, preW, piece)[:choices]:
            # the reference push: the first completion of s0, then
            # smoothness into the window
            squares = {z: mu.arr_map[sq] for z, sq in theta.squares.items()}
            img = section_from_squares(dgC, squares)
            if img is not None and not smoothness_violations(dgC, wg, img):
                out.append(img)
        return out

    def classes_for(w_sq):
        found = set()
        for fact in _factorizations(dgA, pre, w_sq, word_bound, max_factorizations):
            chain = [pushed(piece, theta_choices) for piece in reversed(fact)]
            if not all(chain):
                continue
            for combo in itertools.product(*chain):
                a = w_sq.bottom
                cls = None
                good = True
                for img in combo:
                    if a not in img.dom1:
                        good = False
                        break
                    g = germ_at(dgC, img, a)
                    if g not in jr_set:
                        good = False
                        break
                    step = hol.projection.arr_map[g]
                    cls = step if cls is None else hol.quotient.add(step, cls)
                    a = g.source()
                if good and cls is not None:
                    found.add(cls)
        return found

    if word_bound is None:
        factor = {}
        for p in sorted(pre, key=_skey):
            factor[p] = []
            for img in pushed(p, None):
                g = germ_at(dgC, img, p.bottom)
                if g in jr_set and hol.projection.arr_map[g] not in factor[p]:
                    factor[p].append(hol.projection.arr_map[g])
        values = closure_classes(dgA, pre, factor, hol.quotient.add)

        def classes_for(w_sq):
            return set(values.get(w_sq, ()))

    mu_prime_map = {}
    for w_sq in sorted(dgA.squares, key=_skey):
        if w_sq in pre:
            cands = {hol.embed[mu.arr_map[w_sq]]}
            extra = classes_for(w_sq)
            cands |= extra
        else:
            cands = classes_for(w_sq)
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

    # uniqueness by exhaustive search over qualifying morphisms
    squares = sorted(dgA.squares, key=_skey)
    fibers = {}
    for sq in squares:
        if sq in pre:
            fibers[sq] = [hol.embed[mu.arr_map[sq]]]
        else:
            fibers[sq] = [h for h in hol.quotient.arrows
                          if hol.psi.arr_map[h] == mu.arr_map[sq]
                          and hol.quotient.src(h) == sq.top
                          and hol.quotient.tgt(h) == sq.bottom]
    count = [0]
    solutions = []

    def search(i, assign):
        if len(solutions) > 1:
            return
        count[0] += 1
        if count[0] > search_cap:
            raise HolonomyError("uniqueness search cap exceeded")
        if i == len(squares):
            solutions.append(dict(assign))
            return
        sq = squares[i]
        for h in fibers[sq]:
            assign[sq] = h
            good = True
            for u in squares[:i + 1]:
                for v in squares[:i + 1]:
                    if u.bottom == v.top:
                        uv = dgA.comp1(u, v)
                        if uv in assign:
                            # a table through an undefined composite
                            # is not a morphism: it does not qualify
                            try:
                                good = hol.quotient.add(assign[u], assign[v]) == assign[uv]
                            except GroupoidError:
                                good = False
                            if not good:
                                break
                if not good:
                    break
            if good:
                search(i + 1, assign)
            del assign[sq]

    search(0, {})
    report["qualifying_morphisms"] = len(solutions)
    report["unique"] = len(solutions) == 1 and solutions[0] == mu_prime_map
    return mu_prime, report


def section_mul(dg, sec, tau):
    """Group multiplication (sec * tau)(z) = sec(top tau(z)) +1 tau(z)."""
    G = dg.edge
    sigma0 = {}
    for x in G.objects:
        sigma0[x] = G.add(sec.s0[G.src(tau.s0[x])], tau.s0[x])
    squares = {}
    for z in G.arrows:
        squares[z] = dg.comp1(sec.squares[tau.squares[z].top], tau.squares[z])
    out = LocalLinearSection(sigma0, squares)
    bad = check_linear_section(dg, out)
    if bad:
        raise DerivationError("product section invalid: %s" % bad[0])
    return out


def enumerate_linear_sections(dg):
    """All linear coadmissible sections, by direct search over square tables."""
    G = dg.edge
    arrows = sorted(G.arrows, key=_skey)
    out = []

    def consistent(partial, sigma0):
        for a in partial:
            for b in partial:
                if not G.composable(a, b):
                    continue
                ab = G.add(a, b)
                if ab in partial:
                    try:
                        if dg.comp2(partial[a], partial[b]) != partial[ab]:
                            return False
                    except ModelError:
                        return False
        return True

    def extend(i, partial, sigma0):
        if i == len(arrows):
            sec = LocalLinearSection(sigma0, dict(partial))
            if not check_linear_section(dg, sec):
                out.append(sec)
            return
        a = arrows[i]
        for sq in dg.with_bottom(a):
            sx = sigma0.get(G.src(a))
            tx = sigma0.get(G.tgt(a))
            if sx is not None and sq.left != sx:
                continue
            if tx is not None and sq.right != tx:
                continue
            new_sigma = dict(sigma0)
            new_sigma[G.src(a)] = sq.left
            new_sigma[G.tgt(a)] = sq.right
            partial[a] = sq
            if consistent(partial, new_sigma):
                extend(i + 1, partial, new_sigma)
            del partial[a]

    extend(0, {}, {})
    return out


def enumerate_free_derivations(cm):
    """All free derivations, in the order of the library search: each
    node rescans every assigned pair."""
    G, C = cm.G, cm.C
    arrows = sorted(G.arrows, key=_skey)
    s0_choices = [sorted(G.beta_fiber(x), key=_skey) for x in G.objects]
    results = []

    def s1_candidates(a, partial):
        return [c for c in C.arrows if C.tgt(c) == G.tgt(a)]

    def consistent(partial):
        for a in partial:
            for b in partial:
                if not G.composable(a, b):
                    continue
                ab = G.add(a, b)
                if ab in partial:
                    if partial[ab] != C.add(apply_action(cm, partial[a], b), partial[b]):
                        return False
        return True

    def extend(i, partial):
        if i == len(arrows):
            results.append(dict(partial))
            return
        a = arrows[i]
        for c in s1_candidates(a, partial):
            partial[a] = c
            if consistent(partial):
                extend(i + 1, partial)
            del partial[a]

    extend(0, {})
    out = []
    for combo in itertools.product(*s0_choices):
        s0 = dict(zip(G.objects, combo))
        for s1 in results:
            out.append(FreeDerivation(s0, s1))
    return out


def arrow_bijections(gsrc, gtgt, f0):
    """Structure-preserving arrow bijections over a fixed object
    bijection, in the order of the library search: each node rescans
    every assigned pair."""
    arrows = sorted(gsrc.arrows, key=_skey)

    def candidates(a, partial):
        used = set(partial.values())
        out = []
        for b in gtgt.arrows:
            if b in used:
                continue
            if gtgt.src(b) != f0[gsrc.src(a)] or gtgt.tgt(b) != f0[gsrc.tgt(a)]:
                continue
            if gsrc.is_unit(a) != gtgt.is_unit(b):
                continue
            out.append(b)
        return out

    def consistent(partial):
        for x in partial:
            for y in partial:
                if gsrc.composable(x, y):
                    z = gsrc.add(x, y)
                    if z in partial and gtgt.add(partial[x], partial[y]) != partial[z]:
                        return False
        return True

    def extend(i, partial):
        if i == len(arrows):
            yield dict(partial)
            return
        a = arrows[i]
        for b in candidates(a, partial):
            partial[a] = b
            if consistent(partial):
                yield from extend(i + 1, partial)
            del partial[a]

    yield from extend(0, {})


def min_sections_at(dg, a, window=None, pin=None):
    """All sections whose arrow domain is the minimal open of ``a``.

    ``window`` restricts values and demands smoothness; ``pin`` fixes
    chosen squares in advance.
    Restriction to minimal domains loses no germs: any section restricts
    to one of these with the same germ at ``a``.
    """
    G = dg.edge
    AS = G.arrow_space()
    M = sorted(AS.minimal_open(a), key=_skey)
    source = window if window is not None else dg
    candidates = {}
    for z in M:
        opts = list(source.with_bottom(z))
        if pin and z in pin:
            opts = [sq for sq in opts if sq == pin[z]]
        candidates[z] = opts

    results = []

    def consistent(assign):
        rights = {}
        lefts_at = {}
        tops = set()
        for z, sq in assign.items():
            t = G.tgt(z)
            if rights.get(t, sq.right) != sq.right:
                return False
            rights[t] = sq.right
            u = G.src(z)
            la = G.src(sq.left)
            if lefts_at.get(u, la) != la:
                return False
            lefts_at[u] = la
            tops.add(sq.top)
        for t, arrow in rights.items():
            if t in lefts_at and G.src(arrow) != lefts_at[t]:
                return False
        if len(tops) != len(assign):
            return False
        for u in assign:
            if G.is_unit(u):
                continue
            for v in assign:
                if G.is_unit(v) or not G.composable(u, v):
                    continue
                uv = G.add(u, v)
                if uv in assign:
                    if assign[u].right != assign[v].left:
                        return False
                    if dg.comp2(assign[u], assign[v]) != assign[uv]:
                        return False
        return True

    def extend(i, assign):
        if i == len(M):
            sec = section_from_squares(dg, dict(assign), window)
            if sec is not None:
                results.append(sec)
            return
        z = M[i]
        for sq in candidates[z]:
            assign[z] = sq
            if consistent(assign):
                extend(i + 1, assign)
            del assign[z]

    extend(0, {})
    results.sort(key=lambda s: _skey(s._key))
    return results


def pinned_search(dg, a, window=None, pin=None):
    """The library's minimal-domain search as it stood with pins: the
    shared square-table search over candidates cut down to the pins."""
    M = sorted(dg.edge.arrow_space().minimal_open(a), key=_skey)
    source = window if window is not None else dg
    candidates = {z: [sq for sq in source.with_bottom(z)
                      if not pin or z not in pin or sq == pin[z]] for z in M}
    results = []
    for table in library_square_tables(dg, M, candidates):
        sec = section_from_squares(dg, table, window)
        if sec is not None:
            results.append(sec)
    results.sort(key=lambda s: _skey(s._key))
    return results


def sections_through(dg, wg, w_square, search=min_sections_at):
    """Through-sections of one square, by a search pinned to it."""
    return search(dg, w_square.bottom, window=wg, pin={w_square.bottom: w_square})


def has_enough_sections(dg, wg, search=min_sections_at):
    """One pinned through-section search per window square."""
    witnesses = {}
    failures = []
    for sq in sorted(wg.squares, key=_skey):
        found = sections_through(dg, wg, sq, search)
        witnesses[sq] = found[0] if found else None
        if not found:
            failures.append(sq)
    return {"ok": not failures, "witnesses": witnesses, "failures": failures}


def square_tables(dg, arrows, candidates):
    """The square tables the minimal-domain search above reaches, in its
    order: each node rescans every assigned arrow and pair."""
    G = dg.edge
    results = []

    def consistent(assign):
        rights = {}
        lefts_at = {}
        tops = set()
        for z, sq in assign.items():
            t = G.tgt(z)
            if rights.get(t, sq.right) != sq.right:
                return False
            rights[t] = sq.right
            u = G.src(z)
            la = G.src(sq.left)
            if lefts_at.get(u, la) != la:
                return False
            lefts_at[u] = la
            tops.add(sq.top)
        for t, arrow in rights.items():
            if t in lefts_at and G.src(arrow) != lefts_at[t]:
                return False
        if len(tops) != len(assign):
            return False
        for u in assign:
            if G.is_unit(u):
                continue
            for v in assign:
                if G.is_unit(v) or not G.composable(u, v):
                    continue
                uv = G.add(u, v)
                if uv in assign:
                    if assign[u].right != assign[v].left:
                        return False
                    if dg.comp2(assign[u], assign[v]) != assign[uv]:
                        return False
        return True

    def extend(i, assign):
        if i == len(arrows):
            results.append(dict(assign))
            return
        z = arrows[i]
        for sq in candidates[z]:
            assign[z] = sq
            if consistent(assign):
                extend(i + 1, assign)
            del assign[z]

    extend(0, {})
    return results


def build_germ_groupoid(dg):
    """The germ groupoid J with its own table, as the library built it
    before one closure generated both J and J_r: every minimal-domain
    germ, each product read through the vertical rows by its key and
    ``germ_mul`` run only for a product with no key, to be refused."""
    G = dg.edge
    germs = {}
    witness = {}
    for a in sorted(G.arrows, key=_skey):
        for sec in holonomy.min_sections_at(dg, a):
            g = germ_at(dg, sec, a)
            if g not in germs:
                germs[g] = g
                witness[g] = sec
    arrows = sorted(germs, key=_skey)
    src = {g: g.source() for g in arrows}
    tgt = {g: g.target() for g in arrows}
    by_base = {}
    for g in arrows:
        by_base.setdefault(g.base, []).append(g)
    pos, rows = dg.vertical_groupoid().tables()[:2]
    keyed, at, steps = {}, {}, {}
    for g in arrows:
        at[g] = {z: pos[sq] for z, sq in g.values}
        keyed[(g.base, tuple(at[g].values()))] = g
        steps[g] = [(sq.top, pos[sq]) for _, sq in g.values]
    table = {}
    for ga in arrows:
        for gb in by_base.get(src[ga], ()):
            b_at = at[gb]
            prod = keyed.get((ga.base, tuple(rows[b_at[t]][p] for t, p in steps[ga])))
            if prod is None:
                prod = germ_mul(dg, gb, ga)
                if prod not in germs:
                    raise HolonomyError("germ product left the germ set at (%s, %s)"
                                        % (gb, ga))
                prod = germs[prod]
            table[(gb, ga)] = prod
    neg = {}
    for g in arrows:
        gi = germ_inv(dg, g)
        if gi not in germs:
            raise HolonomyError("germ inverse left the germ set at %s" % (g,))
        neg[g] = germs[gi]
    units = {a: germs[unit_germ(dg, a)] for a in G.arrows}
    groupoid = Groupoid(G.arrows, arrows, src, tgt, pair_rows(arrows, table), neg, units)
    return groupoid, witness


def generated_germs(dg, seed_witness):
    """``holonomy.generated_germs`` as it was before its passes filled the
    groupoid's rows: the last pass records every product in a pair
    table, which the constructor then reads."""
    G = dg.edge
    pos, rows = dg.vertical_groupoid().tables()[:2]
    witness = dict(seed_witness)
    units = {a: unit_germ(dg, a) for a in G.arrows}
    for a, u in units.items():
        if u not in witness:
            witness[u] = constant_section(dg, G.arrow_space().minimal_open(a))
    keyed, at, steps, by_src = {}, {}, {}, {}

    def key(g):
        return g.base, tuple(pos[sq] for _, sq in g.values)

    def keep(g):
        keyed[key(g)] = g
        at[g] = {z: pos[sq] for z, sq in g.values}
        steps[g] = [(sq.top, pos[sq]) for _, sq in g.values]
        bisect.insort(by_src.setdefault(g.source(), []), g, key=_skey)

    arrows = sorted(witness, key=_skey)
    for g in arrows:
        keep(g)

    def admit(g, sec):
        witness[g] = sec
        keep(g)
        bisect.insort(arrows, g, key=_skey)

    neg, table = {}, {}
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
        for g in list(arrows):
            b_at = at[g]
            for h in list(by_src.get(g.base, ())):
                gh = keyed.get((h.base, tuple(rows[b_at[t]][p] for t, p in steps[h])))
                if gh is None:
                    gh = germ_mul(dg, g, h)
                    admit(gh, local_section_mul(dg, witness[g], witness[h]))
                    frontier = True
                table[(g, h)] = gh
    germs = Groupoid(G.arrows, arrows, {g: g.source() for g in arrows},
                     {g: g.target() for g in arrows}, pair_rows(arrows, table), neg, units)
    return germs, frozenset(seed_witness), witness


def coset_quotient(g, n):
    """``groupoid.quotient`` as it was before it read class rows through
    positions: each class built by ``add``, and a pair table composing
    the representatives."""
    bad = n.violations()
    if bad:
        raise GroupoidError("not a normal subgroupoid: %s" % bad[0])
    vertex = {x: [] for x in g.objects}
    for m in sorted(n.arrows, key=_skey):
        if g.src(m) != g.tgt(m):
            raise GroupoidError("not a subgroupoid of loops: member %s runs from %s to %s"
                                % (m, g.src(m), g.tgt(m)))
        vertex[g.src(m)].append(m)
    arrow_class, reps = {}, {}
    for a in g.arrows:
        if a not in arrow_class:
            cls = frozenset(g.add(m, a) for m in vertex[g.src(a)])
            reps[cls] = a
            arrow_class.update(dict.fromkeys(cls, cls))
    by_src = {}
    for cls, a in reps.items():
        by_src.setdefault(g.src(a), []).append(cls)
    qtable = {(ca, cb): arrow_class[g.add(a, reps[cb])]
              for ca, a in reps.items() for cb in by_src[g.tgt(a)]}
    q = Groupoid(g.objects, reps,
                 {cls: g.src(a) for cls, a in reps.items()},
                 {cls: g.tgt(a) for cls, a in reps.items()}, pair_rows(reps, qtable),
                 {cls: arrow_class[g.neg(a)] for cls, a in reps.items()},
                 {x: arrow_class[g.unit(x)] for x in g.objects})
    return q, GroupoidMorphism({x: x for x in g.objects}, arrow_class)


def build_restricted_germs(dg, wg, J):
    """Germ closure that re-sorts the closure for every germ it extends."""
    seed_witness = window_germs(dg, wg)
    seed = set()
    witness = {}
    for g, sec in seed_witness.items():
        if g not in set(J.arrows):
            raise HolonomyError("window germ missing from the germ groupoid: %s" % (g,))
        seed.add(g)
        witness[g] = sec
    for a in dg.edge.arrows:
        u = unit_germ(dg, a)
        if u not in witness:
            witness[u] = constant_section(dg, dg.edge.arrow_space().minimal_open(a))
    closure = set(witness)
    frontier = True
    while frontier:
        frontier = False
        for g in sorted(closure, key=_skey):
            gi = J.neg(g)
            if gi not in closure:
                witness[gi] = local_section_inv(dg, witness[g])
                closure.add(gi)
                frontier = True
        for g in sorted(closure, key=_skey):
            for h in sorted(closure, key=_skey):
                if J.composable(g, h) and J.add(g, h) not in closure:
                    p = J.add(g, h)
                    witness[p] = local_section_mul(dg, witness[g], witness[h])
                    closure.add(p)
                    frontier = True
    arrows = sorted(closure, key=_skey)
    table = {(g, h): J.add(g, h) for g in arrows for h in arrows if J.composable(g, h)}
    jr = Groupoid(dg.edge.arrows, arrows,
                  {g: g.source() for g in arrows},
                  {g: g.target() for g in arrows},
                  pair_rows(arrows, table),
                  {g: J.neg(g) for g in arrows},
                  {a: unit_germ(dg, a) for a in dg.edge.arrows})
    return jr, frozenset(seed), witness


# ---------------------------------------------------------------------------
# definitions only the tests read
# ---------------------------------------------------------------------------


def germs_equal_somewhere(dg, s, t, a):
    """Existential germ equivalence: agreement on some open neighbourhood.

    Quantifies over all open sets of the arrow space; the canonical test
    (``germ_at``) compares restrictions to the minimal open instead.
    """
    AS = dg.edge.arrow_space()
    if a not in s.dom1 or a not in t.dom1:
        raise HolonomyError("arrow %s outside a section domain" % (a,))
    for o in open_sets(AS):
        if a not in o or not (o <= s.dom1 and o <= t.dom1):
            continue
        if all(s.squares[z] == t.squares[z] for z in o):
            return True
    return False


def restrict_section(dg, sec, dom1, dom0=None):
    """The section on the arrows of ``dom1`` it is defined on, over the
    minimal open neighbourhood of their feet unless ``dom0`` is given."""
    G = dg.edge
    XS = G.object_space()
    dom1 = frozenset(dom1) & sec.dom1
    if dom0 is None:
        dom0 = XS.min_neighbourhood(_feet(G, dom1))
    dom0 = frozenset(dom0) & sec.dom0
    return LocalLinearSection({x: sec.s0[x] for x in dom0},
                              {z: sec.squares[z] for z in dom1})


def locally_lie_deductions(dg, wg, enough):
    """The S1-S5 deductions with the triple-restriction loop over every
    triple of witness sections in product order, k * s recomputed for
    every t and the witnesses deduplicated by list membership."""
    out = {}
    inv_map = PartialMap({sq: dg.vneg(sq) for sq in wg.squares})
    out["inverse_continuous"] = holonomy.is_continuous(inv_map, wg.space, wg.space)
    p_open, p_cont = holonomy.operation_continuity(
        [wg.space, wg.space], composite_triples(dg.vertical_groupoid(), wg.ordered), wg.space)
    out["product_set_open"] = p_open
    out["product_continuous"] = p_cont
    out["difference_lands_in_window"] = True
    secs = []
    for wit in enough["witnesses"].values():
        if wit is not None and wit not in secs:
            secs.append(wit)
    checked = failures = 0
    for k, s, t in itertools.product(secs, repeat=3):
        if checked >= holonomy.DEDUCTION_TRIPLES:
            break
        try:
            ks = local_section_mul(dg, k, s, check=False)
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


def square_subwindow(wg, squares):
    """Window on a subset of squares, with the subspace topology; ``wg``
    itself, with the section searches it keeps, on all of its squares."""
    subset = frozenset(squares)
    if subset == wg.squares:
        return wg
    return WGSquares(wg.dg, subset, wg.space.subspace(subset))


def morphism_kernel(m, src, tgt):
    """Arrows of src mapped to a unit of tgt."""
    units = tgt.units()
    return frozenset(a for a in src.arrows if m.arr_map[a] in units)


def identity_xmod_morphism(cm):
    return XModMorphism({x: x for x in cm.G.objects},
                        {a: a for a in cm.G.arrows},
                        {c: c for c in cm.C.arrows})


def groupoid_from_generators(loc, block, objects, arrow_cap):
    """The generated groupoid as the loader expanded it before its letter
    table: generator ends looked up by name, composability checked by a
    separate walk, a queue popped from its head, and an arrow cap that
    admits one arrow past it."""
    gens = {g: (s, t) for g, s, t in _ends("%s.generators" % loc, block["generators"])}
    rules = []
    for i, rel in enumerate(_typed(loc + ".relations", block.get("relations", []), list)):
        if len(_typed("%s.relations[%d]" % (loc, i), rel, list, list)) != 2:
            raise ScenarioError("%s.relations[%d]" % (loc, i), "needs [lhs, rhs]")
        lhs, rhs = (tuple(_typed("%s.relations[%d]" % (loc, i), side, list, str))
                    for side in rel)
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
            new = _rewrite(word + (letter,), rules, loc)
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
            new = _rewrite(wa + wb, rules, loc)
            kk = (xa, new)
            if kk not in seen:
                raise ScenarioError(loc, "relations leave the generated set; "
                                    "composition %s+%s escaped" % (ids[ka], ids[kb]))
            table[(ids[ka], ids[kb])] = ids[kk]
    neg = {}
    for k in arrows:
        x, word = k
        inv = _rewrite(tuple(_invert_letter(l) for l in reversed(word)), rules, loc)
        kk = (tgt[ids[k]], inv)
        if kk not in seen:
            raise ScenarioError(loc, "negation escaped the generated set at %s" % ids[k])
        neg[ids[k]] = ids[kk]
    units = {x: ids[(x, ())] for x in objects}
    try:
        return Groupoid(objects, ids.values(), src, tgt, pair_rows(ids.values(), table), neg,
                        units)
    except GroupoidError as e:
        raise ScenarioError(loc, str(e)) from None


def check_wstructure(cm, w):
    """The window check as it was before openness was read from minimal
    opens: the target map's image is tested on every open set of the
    materialised family."""
    out = []
    C = cm.C
    if not w.arrows <= set(C.arrows):
        out.append("window arrows not within C")
        return out
    for x in C.objects:
        if C.unit(x) not in w.arrows:
            out.append("identity at %s missing from window" % (x,))
    obj_space = cm.G.object_space()
    beta = PartialMap({c: C.tgt(c) for c in sorted(w.arrows, key=_skey)})
    if beta.image() != frozenset(C.objects):
        out.append("target map not surjective on objects")
    try:
        if not is_continuous(beta, w.space, obj_space):
            out.append("target map not continuous on window")
    except TopologyError as e:
        out.append("target map continuity: %s" % e)
    for o in open_sets(w.space):
        img = frozenset(C.tgt(c) for c in o)
        if not obj_space.is_open(img):
            out.append("target map not open: image of %s" % (sorted(map(str, o)),))
            break
    return out
