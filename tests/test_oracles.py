"""Differential tests: each indexed kernel against the scan it replaced.

The oracles live in ``oracles.py``.  Inputs are random finite preorders,
generated crossed modules (Z/2 to Z/5, pair groupoids on two and three
points with and without a Z/2 or Z/3 bundle, Z/4 over Z/2, under
discrete, indiscrete and Sierpinski topologies), drawn windows and
pins for the section searches, and deliberately corrupted composition
tables, square sets, connections, charts, vertical morphisms and
holonomy quotients, so that non-empty violation lists, raised errors
and failed uniqueness searches are compared, order included.
"""

import bisect
import contextlib
import copy
import functools
import itertools
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (corpus_groupoids, discrete_item, indiscrete_item, pair_bundle,
                      sierpinski_pairz2_item, square_axioms, z4_coset_item, zn_on_itself)
from holonomy2 import corpus, dgpd, groupoid, holonomy, xmod
from holonomy2.dgpd import (DoubleGroupoid, Square, build_double_groupoid, check_double,
                            crossed_module_of)
from holonomy2.fintop import (FiniteTopSpace, PartialMap, is_continuous, is_partial_homeomorphism,
                              pullback_space)
from holonomy2.groupoid import (Groupoid, GroupoidMorphism, _skey, check_groupoid,
                                generated_subgroupoid)
from holonomy2.holonomy import (Chart, WStructure, _chart_for, _factorizations, _product_germ,
                                build_germ_groupoid, build_restricted_germs, build_wg,
                                check_chart_coherence, full_wstructure, germ_at,
                                has_enough_sections, holonomy_groupoid,
                                identity_vertical_morphism, local_section_inv, local_section_mul,
                                min_sections_at, sections_through, square_subwindow,
                                square_tables, universal_morphism)
from holonomy2.homotopy import (LinearSection, enumerate_free_derivations,
                                enumerate_linear_sections, induced_endomorphism,
                                is_coadmissible, section_mul)
from holonomy2.xmod import CrossedModule

ORACLE = settings.get_profile("oracles")


def outcome(fn, *args):
    """Result of a call, or the type and message of what it raised."""
    try:
        return "ok", fn(*args)
    except Exception as e:  # compared, never swallowed: both sides must agree
        return "raised", type(e), str(e)


def kind_of(result):
    """Hypothesis event naming what an example exercised."""
    if result[0] == "raised":
        return "raised %s" % result[1].__name__
    value = result[1]
    if isinstance(value, dict):
        value = value["violations"] + value["open_image_failures"]
    return "violations" if value else "clean"


# ---------------------------------------------------------------------------
# random finite spaces
# ---------------------------------------------------------------------------


@st.composite
def preorders(draw, prefix="p", max_points=5):
    """A finite space from a random relation closed reflexively and transitively."""
    n = draw(st.integers(1, max_points))
    below = {i: {i} for i in range(n)}
    for a, b in draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))):
        below[b].add(a)
    for k, i, j in itertools.product(range(n), repeat=3):
        if k in below[j] and i in below[k]:
            below[j].add(i)
    name = lambda i: "%s%d" % (prefix, i)
    return FiniteTopSpace.from_min_opens(
        [name(i) for i in range(n)],
        {name(i): frozenset(name(j) for j in below[i]) for i in range(n)})


@ORACLE
@given(preorders())
def test_preorders_are_transitive(space):
    for p in space.points:
        for q in space.minimal_open(p):
            assert space.minimal_open(q) <= space.minimal_open(p)


@ORACLE
@given(preorders())
def test_is_open_matches_the_open_family_on_every_subset(space):
    points = sorted(space.points)
    for r in range(len(points) + 1):
        for subset in itertools.combinations(points, r):
            assert space.is_open(subset) == oracles.is_open(space, subset)
    outside = points[:1] + ["outside"]
    assert outcome(space.is_open, outside) == outcome(oracles.is_open, space, outside)


@st.composite
def pullback_inputs(draw):
    spaces = draw(st.lists(st.integers(0, 9).flatmap(
        lambda k: preorders(prefix="s%d_" % k)), min_size=1, max_size=3))
    coords = st.tuples(*[st.sampled_from(sorted(sp.points)) for sp in spaces])
    # point labels need not be the coordinate tuples; repeats are allowed
    table = draw(st.lists(coords, min_size=1, max_size=12))
    return spaces, list(range(len(table))), table.__getitem__


@ORACLE
@given(pullback_inputs())
def test_pullback_matches_all_pairs_scan(data):
    spaces, points, components = data
    fast = pullback_space(spaces, points, components)
    slow = oracles.pullback_space(spaces, points, components)
    assert fast.points == slow.points
    assert fast._min == slow._min


@ORACLE
@given(pullback_inputs(), st.sampled_from(["arity", "foreign"]))
def test_pullback_errors_match(data, fault):
    spaces, points, components = data
    if fault == "arity":
        bad = lambda p: components(p) + ("extra",)
    else:
        bad = lambda p: ("nowhere",) + components(p)[1:] if p == points[-1] else components(p)
    assert outcome(pullback_space, spaces, points, bad) == \
        outcome(oracles.pullback_space, spaces, points, bad)


def test_pullback_shares_minimal_opens():
    """Points with equal component minimal opens get one frozenset."""
    a = FiniteTopSpace.indiscrete("xyz")
    b = FiniteTopSpace.discrete("uv")
    pts = list(itertools.product("xyz", "uv"))
    space = pullback_space([a, b], pts, lambda p: p)
    assert space._min == oracles.pullback_space([a, b], pts, lambda p: p)._min
    for p in pts:
        for q in pts:
            if p[1] == q[1]:
                assert space.minimal_open(p) is space.minimal_open(q)


@pytest.mark.parametrize("name", sorted(corpus.corpus()))
def test_vertical_lookups_match_comp1_and_neg1(name):
    """vcomp and vneg return what comp1 and neg1 return, and raise what
    they raise with the same message: on every pair of squares, and on a
    square outside the square set."""
    dg = build_double_groupoid(corpus.corpus()[name])
    foreign = dg.squares[-1]._replace(inner="outside")
    assert not dg.contains(foreign)
    squares = dg.squares + (foreign,)
    raised = 0
    for u in squares:
        assert outcome(dg.vneg, u) == outcome(dg.neg1, u)
        for v in squares:
            got = outcome(dg.vcomp, u, v)
            assert got == outcome(dg.comp1, u, v)
            raised += got[0] == "raised"
    assert raised


@st.composite
def window_operations(draw):
    """Two factor spaces, a pair set over them, a target space and an
    operation whose values lie in the target or outside it."""
    first = draw(preorders(prefix="x", max_points=4))
    second = draw(preorders(prefix="y", max_points=4))
    target = draw(preorders(prefix="t", max_points=4))
    grid = list(itertools.product(sorted(first.points), sorted(second.points)))
    keep = draw(st.lists(st.booleans(), min_size=len(grid), max_size=len(grid)))
    pairs = [p for p, k in zip(grid, keep) if k] or grid[:1]
    values = draw(st.lists(st.sampled_from(sorted(target.points) + ["outside"]),
                           min_size=len(pairs), max_size=len(pairs)))
    return (first, second), dict(zip(pairs, values)), target


def window_verdicts(spaces, table, target):
    """The lazy and the materialised verdicts of one window operation."""
    fast = outcome(holonomy._window_operation, spaces, table, target)
    slow = outcome(oracles.window_operation, list(spaces), list(table),
                   lambda x, y: table[(x, y)], target)
    return fast, slow


@settings(ORACLE, max_examples=300)
@given(window_operations())
def test_window_operation_matches_materialised_pair_space(data):
    fast, slow = window_verdicts(*data)
    event("raised" if fast[0] == "raised" else "open %s, continuous %s" % fast[1])
    assert fast == slow


def test_window_operation_verdicts_on_hand_cases():
    """Not open, open but not continuous, open and continuous, and a pair
    off the factor space: each verdict equals the materialised one."""
    sierpinski = FiniteTopSpace.from_min_opens("ab", {"a": {"a"}, "b": {"a", "b"}})
    single = FiniteTopSpace.discrete(["u"])
    discrete, indiscrete = FiniteTopSpace.discrete(["s", "t"]), FiniteTopSpace.indiscrete(["s", "t"])
    cases = [
        ({("a", "u"): "outside", ("b", "u"): "t"}, discrete, ("ok", (False, None))),
        ({("a", "u"): "s", ("b", "u"): "t"}, discrete, ("ok", (True, False))),
        ({("a", "u"): "s", ("b", "u"): "t"}, indiscrete, ("ok", (True, True))),
        ({("a", "u"): "s", ("c", "u"): "t"}, discrete, None),
    ]
    for table, target, want in cases:
        fast, slow = window_verdicts((sierpinski, single), table, target)
        assert fast == slow
        assert fast == want if want else fast[0] == "raised"


@pytest.mark.parametrize("item", [discrete_item(corpus.z2z2()), indiscrete_item(corpus.pairz2()),
                                  sierpinski_pairz2_item(), discrete_item(corpus.z4_interior())],
                         ids=["z2z2-discrete", "pairz2-indiscrete", "pairz2-sierpinski", "z4-discrete"])
def test_pullback_matches_on_window_pairs(item):
    """The S3 difference pairs of generated models."""
    cm, w = item
    dg, wg, _ = square_axioms(cm, w)
    pairs = [(u, v) for u in wg.squares for v in wg.squares if u.bottom == v.bottom]
    fast = pullback_space([wg.space, wg.space], pairs, lambda p: p)
    assert fast._min == oracles.pullback_space([wg.space, wg.space], pairs, lambda p: p)._min


@st.composite
def partial_maps(draw):
    """A random map on an open domain, or now and then on any subset or
    with a value outside the target, to compare the guards too."""
    src = draw(preorders(prefix="a"))
    tgt = draw(preorders(prefix="b"))
    domain = draw(st.sets(st.sampled_from(sorted(src.points)), min_size=1))
    if draw(st.integers(0, 3)):
        domain = src.min_neighbourhood(domain)
    values = sorted(tgt.points) + ([] if draw(st.integers(0, 3)) else ["outside"])
    table = {p: draw(st.sampled_from(values)) for p in sorted(domain)}
    return PartialMap(table), src, tgt


@settings(ORACLE, max_examples=300)
@given(partial_maps())
def test_is_continuous_matches_pointwise_scan(data):
    f, src, tgt = data
    got = outcome(is_continuous, f, src, tgt)
    event("raised" if got[0] == "raised" else "continuous=%s" % got[1])
    assert got == outcome(oracles.is_continuous, f, src, tgt)


# ---------------------------------------------------------------------------
# interned minimal opens against per-point builds and checks
# ---------------------------------------------------------------------------


def assert_interned(space):
    """One object per distinct minimal open."""
    first = {}
    for m in space._min.values():
        assert first.setdefault(m, m) is m


def test_every_constructor_interns_equal_minimal_opens():
    ab, ab_again = frozenset("ab"), frozenset("ab")
    assert ab is not ab_again
    xy = FiniteTopSpace.indiscrete("xy")
    spaces = {
        "discrete": FiniteTopSpace.discrete("abc"),
        "indiscrete": FiniteTopSpace.indiscrete("abc"),
        "from_opens": FiniteTopSpace.from_opens("abc", [[], ["a", "b"], ["a", "b", "c"]]),
        "from_generators": FiniteTopSpace.from_generators("abc", [["a", "b"], ["b", "a"]]),
        "from_min_opens": FiniteTopSpace.from_min_opens(
            "abc", {"a": ab, "b": ab_again, "c": frozenset("abc")}),
        "subspace": FiniteTopSpace.indiscrete("abcd").subspace("abc"),
        "product": xy.product(FiniteTopSpace.discrete("uv")),
        "pullback_space": pullback_space([xy, xy], list(itertools.product("xy", repeat=2)),
                                         lambda p: p),
    }
    for name, space in spaces.items():
        assert_interned(space)
        shared = [p for p in sorted(space.points) if len(space.minimal_open(p)) > 1]
        assert name == "discrete" or len(shared) > 1, name
        for p, q in itertools.combinations(shared, 2):
            if space.minimal_open(p) == space.minimal_open(q):
                assert space.minimal_open(p) is space.minimal_open(q), name
    assert spaces["from_min_opens"].minimal_open("a") is spaces["from_min_opens"].minimal_open("b")


@ORACLE
@given(preorders(), st.data())
def test_constructor_check_matches_per_point_check(space, data):
    """Tables with a point missing from its own open, a foreign point, a
    point without an entry, or another point's open: the interned check
    raises the per-point check's first error, or builds its table."""
    points = sorted(space.points)
    table = {p: set(space.minimal_open(p)) for p in points}
    for p in data.draw(st.lists(st.sampled_from(points), max_size=3)):
        if p not in table:
            continue
        fault = data.draw(st.sampled_from(["drop-self", "foreign", "missing", "borrow"]))
        if fault == "drop-self":
            table[p].discard(p)
        elif fault == "foreign":
            table[p].add("outside")
        elif fault == "missing":
            del table[p]
        else:
            table[p] = set(space.minimal_open(data.draw(st.sampled_from(points))))
    got = outcome(lambda: FiniteTopSpace(points, table)._min)
    event(kind_of(got) if got[0] == "raised" else "built")
    assert got == outcome(oracles.checked_min_opens, points, table)


@ORACLE
@given(preorders(), preorders(prefix="q", max_points=3), st.data())
def test_derived_spaces_are_interned(space, other, data):
    """Subspaces, products and generated topologies come out interned,
    and minimal neighbourhoods, unioned once per distinct open, match
    unioning every point's open; foreign points raise alike."""
    points = sorted(space.points)
    subset = data.draw(st.sets(st.sampled_from(points)))
    gens = data.draw(st.lists(st.sets(st.sampled_from(points)), max_size=6))
    gens = [list(g) for g in gens + gens[:2]]
    for derived in (space.subspace(subset), space.product(other),
                    FiniteTopSpace.from_generators(points, gens)):
        assert_interned(derived)
    foreign = subset | {"outside"}
    assert outcome(space.min_neighbourhood, subset) == \
        outcome(oracles.min_neighbourhood, space, subset)
    assert outcome(space.min_neighbourhood, foreign) == \
        outcome(oracles.min_neighbourhood, space, foreign)


@st.composite
def derived_spaces(draw, prefix):
    """A random preorder, built from equal opens that are distinct
    objects, or a subspace of one, or its product with another."""
    space = draw(preorders(prefix=prefix, max_points=4))
    kind = draw(st.sampled_from(["space", "subspace", "product"]))
    if kind == "subspace":
        return space.subspace(draw(st.sets(st.sampled_from(sorted(space.points)), min_size=1)))
    if kind == "product":
        return space.product(draw(preorders(prefix=prefix + "q", max_points=3)))
    return space


@st.composite
def derived_maps(draw):
    """A partial map between derived spaces, injective half of the time
    so that partial homeomorphisms occur."""
    src, tgt = draw(derived_spaces("a")), draw(derived_spaces("b"))
    domain = draw(st.sets(st.sampled_from(sorted(src.points)), min_size=1))
    if draw(st.integers(0, 3)):
        domain = src.min_neighbourhood(domain)
    domain, targets = sorted(domain), sorted(tgt.points)
    if len(domain) <= len(targets) and draw(st.booleans()):
        values = draw(st.permutations(targets))[:len(domain)]
    else:
        values = [draw(st.sampled_from(targets)) for _ in domain]
    return PartialMap(dict(zip(domain, values))), src, tgt


@settings(ORACLE, max_examples=300)
@given(derived_maps(), st.data())
def test_interned_predicates_match_per_point_oracles(data, draws):
    f, src, tgt = data
    assert_interned(src)
    assert_interned(tgt)
    subsets = [f.domain, f.image()] + draws.draw(st.lists(
        st.sets(st.sampled_from(sorted(src.points))), max_size=4))
    for s in subsets:
        assert outcome(src.is_open, s) == outcome(oracles.is_open_pointwise, src, s)
    got = outcome(is_continuous, f, src, tgt)
    assert got == outcome(oracles.is_continuous, f, src, tgt)
    homeo = outcome(is_partial_homeomorphism, f, src, tgt)
    event("homeomorphism" if homeo == ("ok", (True, "")) else
          "raised" if got[0] == "raised" else "continuous=%s" % got[1])
    assert homeo == outcome(oracles.is_partial_homeomorphism, f, src, tgt)


# ---------------------------------------------------------------------------
# groupoids with corrupted tables
# ---------------------------------------------------------------------------


def product_groupoid(g, h):
    """Arrows (a, b) with componentwise structure."""
    arrows = [(a, b) for a in g.arrows for b in h.arrows]
    return Groupoid(
        [(x, y) for x in g.objects for y in h.objects], arrows,
        {(a, b): (g.src(a), h.src(b)) for a, b in arrows},
        {(a, b): (g.tgt(a), h.tgt(b)) for a, b in arrows},
        {((a, b), (c, d)): (g.add(a, c), h.add(b, d))
         for a, b in arrows for c, d in arrows
         if g.composable(a, c) and h.composable(b, d)},
        {(a, b): (g.neg(a), h.neg(b)) for a, b in arrows},
        {(x, y): (g.unit(x), h.unit(y)) for x in g.objects for y in h.objects})


GROUPOIDS = {
    "z2": lambda: corpus.cyclic_groupoid(2),
    "z3": lambda: corpus.cyclic_groupoid(3),
    "z4": lambda: corpus.cyclic_groupoid(4),
    "pair3": lambda: corpus.pair_groupoid("xyz"),
    "bundle": lambda: corpus.bundle_of_groups("xy", 3),
    "pair2xz2": lambda: product_groupoid(corpus.pair_groupoid("xy"), corpus.cyclic_groupoid(2)),
}


@st.composite
def corrupted_groupoids(draw):
    g = GROUPOIDS[draw(st.sampled_from(sorted(GROUPOIDS)))]()
    table, neg, units = dict(g._table), dict(g._neg), dict(g._units)
    keys = sorted(table, key=repr)
    arrow = st.sampled_from(g.arrows)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["value", "drop", "extra", "neg", "unit"]))
        if kind == "value":
            table[draw(st.sampled_from(keys))] = draw(arrow)
        elif kind == "drop":
            table.pop(draw(st.sampled_from(keys)), None)
        elif kind == "extra":
            table[(draw(arrow), draw(arrow))] = draw(arrow)
        elif kind == "neg":
            a = draw(arrow)
            if draw(st.booleans()):
                neg.pop(a, None)
            else:
                neg[a] = draw(arrow)
        else:
            units.pop(draw(st.sampled_from(g.objects)), None)
    return Groupoid(g.objects, g.arrows, g._src, g._tgt, table, neg, units)


@settings(ORACLE, max_examples=150)
@given(corrupted_groupoids())
def test_check_groupoid_matches_all_triples_scan(g):
    got = check_groupoid(g)
    event(kind_of(("ok", got)))
    assert got == oracles.check_groupoid(g)


def test_check_groupoid_reports_associativity_in_oracle_order():
    g = corpus.cyclic_groupoid(3)
    table = dict(g._table)
    table[("1", "1")] = "0"
    bad = Groupoid(g.objects, g.arrows, g._src, g._tgt, table, g._neg, g._units)
    got = check_groupoid(bad)
    assert sum(v.startswith("associativity") for v in got) > 1
    assert got == oracles.check_groupoid(bad)


def test_check_groupoid_matches_on_z3_square_views():
    dg = build_double_groupoid(zn_on_itself(3))
    vert = dg.vertical_groupoid()
    table = dict(vert._table)
    key = next(k for k, v in table.items() if v != dg.squares[0])
    table[key] = dg.squares[0]
    broken = Groupoid(vert.objects, vert.arrows, vert._src, vert._tgt, table,
                      vert._neg, vert._units)
    for g in (vert, dg.horizontal_groupoid(), broken):
        assert check_groupoid(g) == oracles.check_groupoid(g)
    assert check_groupoid(broken)


PERTURBATIONS = ("drop", "redirect", "endpoints", "domain", "neg", "unit", "swap")


@st.composite
def perturbed_corpus_groupoids(draw):
    """A corpus groupoid or square view with one to three perturbations:
    a dropped entry, a composite redirected to a parallel arrow, a
    composite with wrong endpoints, an entry on a non-composable pair, a
    dropped negation or unit, or two parallel composites swapped (which
    breaks associativity without touching endpoints)."""
    name = draw(st.sampled_from(sorted(corpus_groupoids())))
    g = corpus_groupoids()[name]
    table, neg, units = dict(g._table), dict(g._neg), dict(g._units)
    ends = {a: (g.src(a), g.tgt(a)) for a in g.arrows}
    kinds = draw(st.lists(st.sampled_from(PERTURBATIONS), min_size=1, max_size=3))
    for kind in kinds:
        keys = sorted(table, key=repr)
        key = draw(st.sampled_from(keys))
        value = table[key]
        parallel = [a for a in g.arrows if ends[a] == ends[value] and a != value]
        if kind == "drop":
            del table[key]
        elif kind == "redirect" and parallel:
            table[key] = draw(st.sampled_from(parallel))
        elif kind == "endpoints":
            table[key] = draw(st.sampled_from(
                [a for a in g.arrows if ends[a] != ends[value]] or g.arrows))
        elif kind == "domain":
            pairs = [(a, b) for a in g.arrows for b in g.arrows if not g.composable(a, b)]
            if pairs:
                table[draw(st.sampled_from(pairs))] = draw(st.sampled_from(g.arrows))
        elif kind == "neg":
            neg.pop(draw(st.sampled_from(g.arrows)), None)
        elif kind == "unit":
            units.pop(draw(st.sampled_from(g.objects)), None)
        elif kind == "swap":
            others = [k for k in keys if table[k] in parallel]
            if others:
                other = draw(st.sampled_from(others))
                table[key], table[other] = table[other], value
    event("%s: %s" % (name.split(".")[1], "+".join(sorted(set(kinds)))))
    return Groupoid(g.objects, g.arrows, g._src, g._tgt, table, neg, units)


@settings(ORACLE, max_examples=200)
@given(perturbed_corpus_groupoids())
def test_check_groupoid_matches_scan_on_perturbed_corpus_groupoids(g):
    """The position-table checker and the all-triples scan report the
    same violations, order included, on perturbed corpus groupoids and
    square views."""
    got = check_groupoid(g)
    event(kind_of(("ok", got)))
    for kind in {" ".join(v.split()[:2]) for v in got}:
        event("reports " + kind)
    assert got == oracles.check_groupoid(g)


@functools.cache
def z3_vertical():
    return build_double_groupoid(zn_on_itself(3)).vertical_groupoid()


@settings(ORACLE, max_examples=150)
@given(st.data())
def test_generated_subgroupoid_matches_all_pairs_scan(data):
    """The closure over by-source buckets is the closure over all pairs,
    on corpus groupoids and square views and on the vertical view of
    Z/3, from seeds of up to three arrows."""
    groupoids = {**corpus_groupoids(), "z3.vertical": z3_vertical()}
    name = data.draw(st.sampled_from(sorted(groupoids)))
    g = groupoids[name]
    seed = data.draw(st.sets(st.sampled_from(g.arrows), max_size=3))
    got = generated_subgroupoid(g, seed)
    event("%s: %s" % (name, "all" if len(got) == len(g.arrows) else "proper"))
    assert got == oracles.generated_subgroupoid(g, seed)


# ---------------------------------------------------------------------------
# double groupoids with corrupted actions, connections and square sets
# ---------------------------------------------------------------------------


def trivial_boundary(cm):
    """The same groupoids with unit boundary: every composite stays a
    square, so a corrupted action surfaces as violations, not errors."""
    return CrossedModule(cm.C, cm.G, {c: cm.G.unit(cm.C.tgt(c)) for c in cm.C.arrows},
                         cm.action)


def zn_over_trivial_kernel(n):
    G = corpus.cyclic_groupoid(n)
    C = corpus.cyclic_groupoid(1, prefix="c")
    return CrossedModule(C, G, {"c0": "0"}, {("c0", a): "c0" for a in G.arrows})


MODELS = {
    "z2": lambda: zn_on_itself(2),
    "z2-trivial": lambda: trivial_boundary(zn_on_itself(2)),
    "z3-edges": lambda: zn_over_trivial_kernel(3),
    "pair2": corpus.pair2,
    "pairz2": corpus.pairz2,
    "pairz2-trivial": lambda: trivial_boundary(corpus.pairz2()),
}


@st.composite
def corrupted_double_groupoids(draw):
    cm = MODELS[draw(st.sampled_from(sorted(MODELS)))]()
    action = dict(cm.action)
    keys = sorted(action, key=repr)
    for _ in range(draw(st.integers(0, 2))):
        # a value in the right fibre keeps every composition defined
        key = draw(st.sampled_from(keys))
        fibre = [c for c in cm.C.arrows if cm.C.tgt(c) == cm.C.tgt(action[key])]
        action[key] = draw(st.sampled_from(fibre))
    cm = CrossedModule(cm.C, cm.G, cm.delta, action)
    dg = build_double_groupoid(cm)
    squares = list(dg.squares)
    connection = dict(dg.connection)
    arrows = sorted(cm.G.arrows)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["drop-connection", "move-connection",
                                     "drop-square", "foreign-square"]))
        if kind == "drop-connection":
            connection.pop(draw(st.sampled_from(arrows)), None)
        elif kind == "move-connection":
            connection[draw(st.sampled_from(arrows))] = draw(st.sampled_from(dg.squares))
        elif kind == "drop-square" and len(squares) > 1:
            squares.remove(draw(st.sampled_from(squares)))
        elif kind == "foreign-square":
            sq = draw(st.sampled_from(dg.squares))
            squares.append(sq._replace(inner=draw(st.sampled_from(cm.C.arrows))))
    return DoubleGroupoid(cm, squares, connection)


@settings(ORACLE, max_examples=40)
@given(corrupted_double_groupoids())
def test_check_double_matches_quadruple_scan(dg):
    got = outcome(check_double, dg)
    event(kind_of(got))
    assert got == outcome(oracles.check_double, dg)


def test_check_double_violations_in_oracle_order():
    """A twisted action on a unit-boundary model keeps the square set
    closed, so interchange and the groupoid laws fail instead."""
    cm = trivial_boundary(corpus.pairz2())
    action = dict(cm.action)
    action[("1@x", "xx")] = "0@x"
    dg = build_double_groupoid(CrossedModule(cm.C, cm.G, cm.delta, action))
    got = check_double(dg)
    assert any(v.startswith("interchange") for v in got)
    assert got == oracles.check_double(dg)


class BentDoubleGroupoid(DoubleGroupoid):
    """A double groupoid whose vertical composite of one pair is replaced
    by the square with the same boundary and another inner arrow."""

    def __init__(self, cm, squares, bent):
        self.bent = bent
        super().__init__(cm, squares)

    def comp1(self, u, v):
        w = super().comp1(u, v)
        if (u, v) != self.bent:
            return w
        C = self.cm.C
        return w._replace(inner=next(c for c in C.arrows
                                     if c != w.inner and C.tgt(c) == C.tgt(w.inner)))


@pytest.mark.parametrize("model", ["z2-trivial", "pairz2-trivial"])
@pytest.mark.parametrize("end", [0, -1], ids=["first", "last"])
def test_check_double_finds_interchange_at_the_end_squares(model, end):
    """Bending v +1 v2 for the first (last) square v2 in square order makes
    interchange fail at quadruples whose fourth square is v2.  The drawn
    action corruptions never made it fail there: a check that skipped
    those quadruples passed every other test."""
    cm = MODELS[model]()
    squares = build_double_groupoid(cm).squares
    v2 = squares[end]
    v = next(sq for sq in squares if sq.bottom == v2.top)
    dg = BentDoubleGroupoid(cm, squares, (v, v2))
    got = check_double(dg)
    assert any(x.startswith("interchange") and x.endswith(",%s)" % (v2,)) for x in got)
    assert got == oracles.check_double(dg)


def test_groupoid_views_match_scans():
    for make in MODELS.values():
        dg = build_double_groupoid(make())
        for fast, slow in ((dg.vertical_groupoid(), oracles.vertical_groupoid(dg)),
                           (dg.horizontal_groupoid(), oracles.horizontal_groupoid(dg))):
            assert list(fast._table.items()) == list(slow._table.items())
            assert fast._neg == slow._neg and fast._units == slow._units
        assert dg.vertical_groupoid() is dg.vertical_groupoid()
        assert dg.vertical_groupoid().violations() == tuple(check_groupoid(dg.vertical_groupoid()))


def test_views_keep_one_verdict(monkeypatch):
    """check_double reads each view's verdict once, and chart coherence
    reuses the vertical one."""
    hol = holonomy_model("z2z2")
    calls = []
    real = groupoid.check_groupoid
    monkeypatch.setattr(groupoid, "check_groupoid", lambda g: calls.append(g) or real(g))
    dg = copy.copy(hol.dg)
    dg._vertical = dg._horizontal = None
    views = [dg.vertical_groupoid(), dg.horizontal_groupoid()]
    assert check_double(dg) == check_double(dg) == []
    hol = copy.copy(hol)
    hol.dg = dg
    assert check_chart_coherence(hol)["ok"]
    assert calls == views


# ---------------------------------------------------------------------------
# chart coherence with corrupted charts
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def holonomy_model(name):
    item = {"z2z2": lambda: discrete_item(corpus.z2z2()),
            "pairz2": lambda: discrete_item(corpus.pairz2()),
            "z4": lambda: discrete_item(corpus.z4_interior()),
            "pairz2-sierpinski": sierpinski_pairz2_item}[name]()
    return holonomy_groupoid(*square_axioms(*item), require_axioms=False)


@st.composite
def corrupted_holonomy(draw):
    hol = copy.copy(holonomy_model(draw(st.sampled_from(
        ["z2z2", "pairz2", "z4", "pairz2-sierpinski"]))))
    charts = [(c.section, dict(c.mapping)) for c in hol.charts]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(charts) - 1))
        section, mapping = charts[i]
        kind = draw(st.sampled_from(["merge", "shift", "drop", "swap-section", "reorder",
                                     "widen-section"]))
        squares = sorted(mapping, key=str)
        if kind == "merge" and len(squares) > 1:
            a, b = draw(st.permutations(squares))[:2]
            mapping[a] = mapping[b]
        elif kind == "shift":
            mapping[draw(st.sampled_from(squares))] = draw(st.sampled_from(hol.quotient.arrows))
        elif kind == "drop" and squares:
            mapping.pop(draw(st.sampled_from(squares)))
        elif kind == "swap-section":
            charts[i] = (charts[draw(st.integers(0, len(charts) - 1))][0], mapping)
        elif kind == "reorder":
            charts = draw(st.permutations(charts))
        elif kind == "widen-section":
            # one more arrow, valued at a square whose top the section
            # already reaches: chart values are kept, but the top map is
            # no longer injective, so the section has no inverse
            tops = {sq.top for sq in section.squares.values()}
            extra = [sq for sq in hol.dg.squares
                     if sq.bottom not in section.dom1 and sq.top in tops]
            if extra:
                sq = draw(st.sampled_from(extra))
                charts[i] = (holonomy.LocalLinearSection(
                    section.dom0, section.dom1 | {sq.bottom}, section.s0,
                    {**section.squares, sq.bottom: sq}), mapping)
    hol.charts = [Chart(section, mapping) for section, mapping in charts]
    return hol


@settings(ORACLE, max_examples=40)
@given(corrupted_holonomy())
def test_chart_coherence_matches_linear_scan(hol):
    got = check_chart_coherence(hol)
    event(kind_of(("ok", got)))
    assert got == oracles.check_chart_coherence(hol)


@pytest.mark.parametrize("item", [lambda: discrete_item(corpus.z2z2()),
                                  lambda: discrete_item(corpus.pairz2()),
                                  lambda: discrete_item(corpus.z4_interior()),
                                  sierpinski_pairz2_item,
                                  lambda: discrete_item(zn_on_itself(3))],
                         ids=["z2z2", "pairz2", "z4", "pairz2-sierpinski", "z3"])
def test_restricted_germs_match_resorting_closure(item):
    """The closure kept in sort order finds the same germs, in the same
    order, with the same witness sections as re-sorting it per germ."""
    dg, wg, _ = square_axioms(*item())
    J, _ = build_germ_groupoid(dg)
    fast = build_restricted_germs(dg, wg, J)
    slow = oracles.build_restricted_germs(dg, wg, J)
    assert fast[0].arrows == slow[0].arrows
    assert list(fast[0]._table.items()) == list(slow[0]._table.items())
    assert fast[1] == slow[1]
    assert list(fast[2].items()) == list(slow[2].items())


@pytest.mark.parametrize("name", ["z2z2", "pairz2", "z4", "pairz2-sierpinski"])
def test_charts_match_whole_product_germs(name):
    """Charts whose germs are read on the minimal open alone equal charts
    whose germs are read off the whole product section; so does every
    single germ, raised errors included, over every chart section,
    window square and through-section."""
    hol = holonomy_model(name)
    dg, wg = hol.dg, hol.wg
    through = {sq: sections_through(dg, wg, sq) for sq in sorted(wg.squares, key=_skey)}
    jr = set(hol.germ_groupoid.arrows)
    kinds = set()
    for chart in hol.charts:
        fast = _chart_for(dg, hol.projection, jr, chart.section, through, strict=False)
        slow = oracles.chart_for(dg, hol.projection, jr, chart.section, through, strict=False)
        assert fast[0].mapping == slow[0].mapping == chart.mapping
        assert fast[1] == slow[1]
        for sq, thetas in through.items():
            for theta in thetas:
                got = outcome(_product_germ, dg, chart.section, theta, sq.bottom)
                assert got == outcome(lambda: germ_at(dg, local_section_mul(
                    dg, chart.section, theta, check=False), sq.bottom))
                kinds.add(got[0] if got[0] == "ok" else got[1])
    assert "ok" in kinds and len(kinds) > 1


@pytest.mark.parametrize("name", ["z2z2", "pairz2", "z4", "pairz2-sierpinski"])
def test_chart_topology_is_generated_by_every_basic_open(name):
    """The holonomy topology is the one generated by the chart image of
    every window square's basic open, listed in square order, repeats
    included."""
    hol = holonomy_model(name)
    basis = [frozenset(chart.mapping[t] for t in hol.wg.space.minimal_open(sq) & chart.domain)
             for chart in hol.charts for sq in sorted(chart.domain, key=_skey)]
    assert hol.topology == FiniteTopSpace.from_generators(hol.quotient.arrows, basis,
                                                          point_cap=None)


@pytest.mark.parametrize("name", ["z4", "pairz2-sierpinski"])
def test_chart_coherence_matches_linear_scan_on_models(name):
    """Z/4 with a discrete window, and Sierpinski pairz2, whose window
    has non-isolated squares."""
    hol = holonomy_model(name)
    got = check_chart_coherence(hol)
    assert got["charts"] == len(hol.charts) > 1
    assert got == oracles.check_chart_coherence(hol)


def test_chart_coherence_matches_linear_scan_with_a_moved_value():
    """Every value of the first Sierpinski pairz2 chart moved to every
    class: some moves leave a non-isolated square of a transition
    uncovered, which must name no open-image failure."""
    base = holonomy_model("pairz2-sierpinski")
    first = base.charts[0]
    for sq in sorted(first.mapping, key=str):
        for h in base.quotient.arrows:
            hol = copy.copy(base)
            hol.charts = [Chart(first.section, {**first.mapping, sq: h})] + base.charts[1:]
            assert check_chart_coherence(hol) == oracles.check_chart_coherence(hol)


def test_chart_coherence_violations_in_oracle_order():
    hol = copy.copy(holonomy_model("pairz2"))
    charts = [Chart(c.section, c.mapping) for c in hol.charts]
    first = charts[0]
    squares = sorted(first.mapping, key=str)
    bent = dict(first.mapping)
    bent[squares[0]] = first.mapping[squares[-1]]
    charts[0] = Chart(first.section, bent)
    charts[1] = Chart(charts[2].section, charts[1].mapping)
    hol.charts = charts
    got = check_chart_coherence(hol)
    assert len(got["violations"]) > 1
    assert got == oracles.check_chart_coherence(hol)


# ---------------------------------------------------------------------------
# the universal property with corrupted quotients and morphisms
# ---------------------------------------------------------------------------


# source model and, when smaller than the whole kernel, the target window;
# a smaller window leaves squares outside the preimage, whose fibres the
# uniqueness search has to choose from
UNIVERSAL_MODELS = {
    "z2z2": (corpus.z2z2, None),
    "pairz2": (corpus.pairz2, None),
    "z4": (corpus.z4_interior, None),
    "z4-c013": (corpus.z4_interior, ["c0", "c1", "c3"]),
    "z4-c01": (corpus.z4_interior, ["c0", "c1"]),
}


@functools.lru_cache(maxsize=None)
def universal_model(name):
    """Source crossed module, its full window, and the holonomy groupoid
    of the target window."""
    make, arrows = UNIVERSAL_MODELS[name]
    cm, wa = discrete_item(make())
    w = wa if arrows is None else WStructure(arrows, FiniteTopSpace.discrete(arrows))
    return cm, wa, holonomy_groupoid(*square_axioms(cm, w), require_axioms=False)


def universal_outcome(fn, cm, wa, mu, hol, **bounds):
    """The outcome of ``fn`` under ``bounds``; the library reads its
    factorization and through-section bounds from module constants,
    patched for the call."""
    constants = contextlib.nullcontext()
    if fn is universal_morphism:
        constants = mock.patch.multiple(
            holonomy,
            MAX_FACTORIZATIONS=bounds.pop("max_factorizations", holonomy.MAX_FACTORIZATIONS),
            THETA_CHOICES=bounds.pop("theta_choices", holonomy.THETA_CHOICES))
    with constants:
        got = outcome(functools.partial(fn, **bounds), cm, wa, mu, hol)
    if got[0] == "ok":
        mu_prime, report = got[1]
        return "ok", mu_prime.obj_map, mu_prime.arr_map, report
    return got


def universal_event(got):
    if got[0] == "raised":
        return "raised %s: %s" % (got[1].__name__, got[2].split(":")[0])
    return "qualifiers %d, unique %s" % (got[3]["qualifying_morphisms"], got[3]["unique"])


def add_twin(k, arrows, src, tgt, table, neg, psi, rows=True):
    """Add a class that copies the endpoints, evaluation and, with
    ``rows``, the table rows of ``k`` (products keep their values), and
    sorts before every class."""
    t = ("twin", len(arrows), k)
    for (x, y), c in list(table.items()) if rows else ():
        if k in (x, y):
            table[(t if x == k else x, t if y == k else y)] = c
            if x == y == k:
                table[(t, k)] = table[(k, t)] = c
    src[t], tgt[t], neg[t], psi[t] = src[k], tgt[k], neg[k], psi[k]
    arrows.append(t)


def altered_holonomy(hol, arrows, src, tgt, table, neg, psi):
    out = copy.copy(hol)
    out.quotient = Groupoid(hol.quotient.objects, arrows, src, tgt, table, neg,
                            hol.quotient._units)
    out.psi = GroupoidMorphism(hol.psi.obj_map, psi)
    return out


def quotient_parts(hol):
    q = hol.quotient
    return (list(q.arrows), dict(q._src), dict(q._tgt), dict(q._table), dict(q._neg),
            dict(hol.psi.arr_map))


@st.composite
def corrupted_universal(draw):
    """A universal-property instance whose vertical morphism, quotient
    table, evaluation or class set has been altered, with drawn bounds.

    A twin class copies the table rows and the evaluation of a class
    outside the window, so a fibre of the search holds two candidates
    and the twin, which sorts first, must be rejected once a pair that
    tells them apart is assigned.  A swapped evaluation empties or
    misdirects a fibre, so no qualifier is found.  Two qualifiers cannot
    occur on these models, whatever the table: every square is a
    composite of preimage squares, whose values are fixed, so the table
    fixes the rest.  Twins, swaps and the smaller windows are drawn more
    often: only the smaller windows leave squares outside the preimage.
    """
    cm, wa, hol = universal_model(draw(st.sampled_from(
        ["z2z2", "pairz2", "z4"] + 3 * ["z4-c013", "z4-c01"])))
    dg = hol.dg
    arr_map = {sq: sq for sq in dg.squares}
    arrows, src, tgt, table, neg, psi = parts = quotient_parts(hol)
    outside = [h for h in arrows if psi[h] not in hol.wg.squares] or arrows
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["mu", "entry", "drop"] + 2 * ["twin", "psi-swap"]))
        if kind == "mu":
            sq = draw(st.sampled_from(dg.squares))
            arr_map[sq] = draw(st.sampled_from([t for t in dg.squares
                                                if (t.top, t.bottom) == (sq.top, sq.bottom)]))
        elif kind == "entry":
            key = draw(st.sampled_from(sorted(table, key=repr)))
            table[key] = draw(st.sampled_from([h for h in arrows if (src[h], tgt[h]) ==
                                               (src[table[key]], tgt[table[key]])]))
        elif kind == "drop":
            del table[draw(st.sampled_from(sorted(table, key=repr)))]
        elif kind == "twin":
            add_twin(draw(st.sampled_from(outside)), arrows, src, tgt, table, neg, psi)
        elif kind == "psi-swap":
            h = draw(st.sampled_from(outside))
            h2 = draw(st.sampled_from([x for x in arrows if x != h and
                                       (src[x], tgt[x]) == (src[h], tgt[h])] or [h]))
            psi[h], psi[h2] = psi[h2], psi[h]
    hol = altered_holonomy(hol, *parts)
    mu = GroupoidMorphism({a: a for a in dg.edge.arrows}, arr_map)
    bounds = {"word_bound": draw(st.sampled_from([1, 3])),
              "max_factorizations": draw(st.sampled_from([1, 24])),
              "theta_choices": draw(st.sampled_from([1, 3])),
              "search_cap": draw(st.one_of(st.just(200000),
                                           st.integers(1, 2 * len(dg.squares) + 2)))}
    return cm, wa, mu, hol, bounds


@settings(ORACLE, max_examples=40)
@given(corrupted_universal())
def test_universal_morphism_matches_rescanning_search(instance):
    cm, wa, mu, hol, bounds = instance
    got = universal_outcome(universal_morphism, cm, wa, mu, hol, **bounds)
    event(universal_event(got))
    assert got == universal_outcome(oracles.universal_morphism, cm, wa, mu, hol, **bounds)


@pytest.mark.parametrize("name", ["pairz2", "z2z2", "z4", "z4-c013"])
def test_universal_morphism_matches_oracle_on_models(name):
    cm, wa, hol = universal_model(name)
    mu = identity_vertical_morphism(hol.dg)
    got = universal_outcome(universal_morphism, cm, wa, mu, hol)
    assert got == universal_outcome(oracles.universal_morphism, cm, wa, mu, hol)


@pytest.mark.parametrize("alteration", ["twins", "bare-twins", "swapped-evaluation"])
def test_uniqueness_search_matches_oracle_when_it_backtracks(alteration):
    """Every class outside the window gets a twin that the search tries
    first and must reject (one qualifier), or the evaluations of those
    classes are swapped in pairs with equal endpoints, so the search meets
    a wrong candidate and rejects it (no qualifier).  A bare twin has no
    table rows: a pair with the twin as a factor raises, a pair with it as
    the composite rejects it, so the outcome shows which pair the search
    checks first.  Both searches must also stop at the same node count."""
    cm, wa, hol = universal_model("z4-c01")
    arrows, src, tgt, table, neg, psi = parts = quotient_parts(hol)
    outside = [h for h in arrows if psi[h] not in hol.wg.squares]
    if alteration.endswith("twins"):
        for k in outside:
            add_twin(k, arrows, src, tgt, table, neg, psi, rows=alteration == "twins")
    else:
        by_ends = {}
        for h in outside:
            by_ends.setdefault((src[h], tgt[h]), []).append(h)
        for group in by_ends.values():
            for h, h2 in zip(group[::2], group[1::2]):
                psi[h], psi[h2] = psi[h2], psi[h]
    hol = altered_holonomy(hol, *parts)
    mu = identity_vertical_morphism(hol.dg)
    fast, slow = (functools.partial(universal_outcome, fn, cm, wa, mu, hol, word_bound=3)
                  for fn in (universal_morphism, oracles.universal_morphism))
    got = fast()
    assert got == slow()
    if alteration == "bare-twins":
        return
    assert got[0] == "ok"
    assert got[3]["qualifying_morphisms"] == (1 if alteration == "twins" else 0)
    # the fast search visits ``nodes`` nodes; the rescanning one must too
    nodes = 1 + bisect.bisect(range(1, 10 ** 4), False,
                              key=lambda cap: fast(search_cap=cap)[0] == "ok")
    for cap in (nodes - 1, nodes):
        assert fast(search_cap=cap) == slow(search_cap=cap)


def test_universal_morphism_matches_oracle_on_z3():
    cm, wa = discrete_item(zn_on_itself(3))
    hol = holonomy_groupoid(*square_axioms(cm, wa))
    mu = identity_vertical_morphism(hol.dg)
    got = universal_outcome(universal_morphism, cm, wa, mu, hol)
    assert got[0] == "ok" and got[3]["unique"]
    assert got == universal_outcome(oracles.universal_morphism, cm, wa, mu, hol)


@pytest.mark.parametrize("name", ["z4-c013", "z4-c01"])
def test_factorizations_match_deduplicated_scan(name):
    """The walk finds each factorization once, in the order the re-sorting
    walk with list de-duplication gave."""
    cm, wa, hol = universal_model(name)
    dg = build_double_groupoid(cm)
    vert = dg.vertical_groupoid()
    pre = frozenset(sq for sq in dg.squares if sq in hol.wg.squares)
    pre_by_top = {a: [sq for sq in dg.with_top(a) if sq in pre] for a in dg.edge.arrows}
    for sq in dg.squares:
        for bound, cap in ((2, 24), (4, 5), (8, 24)):
            assert (_factorizations(vert, pre, pre_by_top, sq, bound, cap)
                    == oracles._factorizations(dg, pre, sq, bound, cap))


# ---------------------------------------------------------------------------
# through-sections: one search per bottom arrow against one per square
# ---------------------------------------------------------------------------


S4_MODELS = {"z3-indiscrete": lambda: indiscrete_item(zn_on_itself(3)),
             "pairz2-sierpinski": sierpinski_pairz2_item,
             "z4-coset": z4_coset_item}


@pytest.mark.parametrize("name", sorted(S4_MODELS))
def test_through_sections_match_pinned_search_on_every_square(name, monkeypatch):
    """Every window square's through-sections, in order, and the S4
    witnesses and failure order, against a rescanning search pinned to
    each square; the library searches once per bottom arrow."""
    cm, w = S4_MODELS[name]()
    dg = build_double_groupoid(cm)
    wg = build_wg(dg, w)
    squares = sorted(wg.squares, key=_skey)
    searched = []

    def counted(dg, a, *args, **kwargs):
        searched.append(a)
        return min_sections_at(dg, a, *args, **kwargs)

    monkeypatch.setattr(holonomy, "min_sections_at", counted)
    fast = {sq: sections_through(dg, wg, sq) for sq in squares}
    assert sorted(searched, key=_skey) == sorted({sq.bottom for sq in squares}, key=_skey)
    assert fast == {sq: oracles.sections_through(dg, wg, sq) for sq in squares}
    enough = has_enough_sections(dg, wg)
    assert enough == oracles.has_enough_sections(dg, wg)
    assert enough["failures"] and len(searched) == len(wg._sections)
    counts = [len(found) for found in fast.values()]
    if name == "z4-coset":
        assert counts.count(2) == 64


def test_s1_s5_report_on_z4_indiscrete_matches_per_square_search(monkeypatch):
    """The whole S1-S5 report on Z/4 indiscrete (256 squares), with one
    section search per bottom arrow, equals the report with one search
    pinned to each square."""
    cm, w = indiscrete_item(zn_on_itself(4))
    fast = square_axioms(cm, w)[2]
    monkeypatch.setattr(holonomy, "has_enough_sections", functools.partial(
        oracles.has_enough_sections, search=oracles.pinned_search))
    slow = square_axioms(cm, w)[2]
    assert fast == slow
    assert not fast["S4"]["enough_sections"] and len(fast["S4"]["missing_sections"]) == 4


# ---------------------------------------------------------------------------
# section searches: one square-table search against the two it replaced
# ---------------------------------------------------------------------------


def sierpinski_pair2_item():
    """pair2 over the Sierpinski pair groupoid, its window mirroring the base."""
    cm = corpus.with_topology(corpus.pair2(), "sierpinski")
    space = FiniteTopSpace.from_min_opens(
        cm.C.arrows, {"0@x": frozenset({"0@x"}), "0@y": frozenset({"0@x", "0@y"})})
    return cm, WStructure(cm.C.arrows, space)


def plain_item(cm):
    """The crossed module as built, untopologized, with its full discrete window."""
    return cm, full_wstructure(cm)


SECTION_MODELS = {
    "pair2-sierpinski": sierpinski_pair2_item,
    "pairz2-sierpinski": sierpinski_pairz2_item,
    "z3-indiscrete": lambda: indiscrete_item(zn_on_itself(3)),
    "z4-self-indiscrete": lambda: indiscrete_item(zn_on_itself(4)),
    "z5-discrete": lambda: discrete_item(zn_on_itself(5)),
    "pair3z2-indiscrete": lambda: indiscrete_item(pair_bundle("xyz", 2)),
    "pair3z3-discrete": lambda: discrete_item(pair_bundle("xyz", 3)),
}
for _name, _make in {"z2z2": corpus.z2z2, "pair2": corpus.pair2, "pairz2": corpus.pairz2,
                     "z4": corpus.z4_interior}.items():
    SECTION_MODELS[_name] = lambda make=_make: plain_item(make())
    SECTION_MODELS[_name + "-discrete"] = lambda make=_make: discrete_item(make())
    SECTION_MODELS[_name + "-indiscrete"] = lambda make=_make: indiscrete_item(make())


@functools.lru_cache(maxsize=None)
def section_model(name):
    """Double groupoid and window squares of a section-search model."""
    cm, w = SECTION_MODELS[name]()
    dg = build_double_groupoid(cm)
    return dg, build_wg(dg, w)


def derivation_tables(dg, limit=4):
    """Square tables of the first free derivations that are not
    coadmissible: genuine squares whose top map is not a bijection."""
    cm, G = dg.cm, dg.edge
    out = []
    for s in enumerate_free_derivations(cm):
        if len(out) == limit:
            break
        if not is_coadmissible(cm, s)[0]:
            f = induced_endomorphism(cm, s)
            out.append(LinearSection(s.s0, {a: Square(s.s1[a], f.f1[a], s.s0[G.src(a)],
                                                      s.s0[G.tgt(a)], a) for a in G.arrows}))
    return out


@pytest.mark.parametrize("name", sorted(SECTION_MODELS))
def test_linear_sections_and_products_match_oracle(name):
    dg, _ = section_model(name)
    secs = enumerate_linear_sections(dg)
    assert len(set(secs)) == len(secs)
    assert set(secs) == set(oracles.enumerate_linear_sections(dg))
    extra = derivation_tables(dg)
    raised = 0
    for s, t in itertools.product(secs + extra, repeat=2):
        got = outcome(section_mul, dg, s, t)
        assert got == outcome(oracles.section_mul, dg, s, t)
        raised += got[0] == "raised"
    assert bool(raised) == bool(extra)


def pinned_min_sections_at(dg, a, window, smooth, pin):
    """The sections of ``min_sections_at`` that take the pinned squares."""
    return [s for s in min_sections_at(dg, a, window, smooth)
            if all(s.squares[z] == sq for z, sq in (pin or {}).items())]


@settings(ORACLE, max_examples=8)
@given(data=st.data())
@pytest.mark.parametrize("name", sorted(SECTION_MODELS))
def test_min_sections_at_matches_rescanning_search(name, data):
    """Every arrow, under a drawn window (none, the whole window, or a
    random square subwindow), smoothness flag and pinned window square;
    the fast search has no pins, so its results are filtered by the pin."""
    dg, wg = section_model(name)
    G = dg.edge
    window = data.draw(st.sampled_from([None, wg, "subset"]))
    if window == "subset":
        rnd = data.draw(st.randoms(use_true_random=False))
        keep = data.draw(st.sampled_from([0.3, 0.6, 0.9]))
        window = square_subwindow(wg, [sq for sq in sorted(wg.squares, key=_skey)
                                       if rnd.random() < keep])
    smooth = data.draw(st.booleans())
    for a in sorted(G.arrows, key=_skey):
        pin = None
        if data.draw(st.booleans()):
            z = data.draw(st.sampled_from(sorted(G.arrow_space().minimal_open(a), key=_skey)))
            if wg.with_bottom(z):
                pin = {z: data.draw(st.sampled_from(wg.with_bottom(z)))}
        got = outcome(pinned_min_sections_at, dg, a, window, smooth, pin)
        assert got == outcome(oracles.min_sections_at, dg, a, window, smooth, pin)
        event("sections" if got[0] == "ok" and got[1] else kind_of(got))


@settings(ORACLE, max_examples=10)
@given(data=st.data())
@pytest.mark.parametrize("name", sorted(SECTION_MODELS))
def test_square_tables_match_rescanning_search(name, data):
    """Every consistent table, in order, before any final check: on a
    minimal open, as min_sections_at searches, or on all arrows with side
    edges on a drawn target section, as enumerate_linear_sections does."""
    dg, wg = section_model(name)
    G = dg.edge
    source = data.draw(st.sampled_from([dg, wg]))
    if data.draw(st.booleans()):
        a = data.draw(st.sampled_from(sorted(G.arrows, key=_skey)))
        arrows = sorted(G.arrow_space().minimal_open(a), key=_skey)
        candidates = {z: list(source.with_bottom(z)) for z in arrows}
    else:
        arrows = sorted(G.arrows, key=_skey)
        s0 = {x: data.draw(st.sampled_from(sorted(G.beta_fiber(x), key=_skey)))
              for x in sorted(G.objects, key=_skey)}
        candidates = {z: [sq for sq in source.with_bottom(z)
                          if sq.left == s0[G.src(z)] and sq.right == s0[G.tgt(z)]]
                      for z in arrows}
    tables = list(square_tables(dg, arrows, candidates))
    assert tables == oracles.square_tables(dg, arrows, candidates)
    event("tables" if tables else "no table")


SEARCH_MODELS = dict(corpus.corpus(), **{"z%d" % n: zn_on_itself(n) for n in (2, 3, 4)})


@pytest.mark.parametrize("name", sorted(SEARCH_MODELS))
def test_free_derivations_match_rescanning_search(name):
    cm = SEARCH_MODELS[name]
    got = enumerate_free_derivations(cm)
    assert got and got == oracles.enumerate_free_derivations(cm)


@pytest.mark.parametrize("name", sorted(SEARCH_MODELS))
def test_arrow_bijections_match_rescanning_search(name):
    """The bijections of the gamma search, from the crossed module of the
    double groupoid back to the model and from the model to itself, over
    every object bijection, for the edge and the kernel groupoids."""
    cm = SEARCH_MODELS[name]
    back = crossed_module_of(build_double_groupoid(cm))
    found = 0
    for source in (back, cm):
        for perm in itertools.permutations(cm.G.objects):
            f0 = dict(zip(source.G.objects, perm))
            for gsrc, gtgt in ((source.G, cm.G), (source.C, cm.C)):
                got = list(xmod._arrow_bijections(gsrc, gtgt, f0))
                assert got == list(oracles.arrow_bijections(gsrc, gtgt, f0))
                found += len(got)
    assert found



# ---------------------------------------------------------------------------
# certificates against the scans they replace
# ---------------------------------------------------------------------------


@st.composite
def inverse_loops(draw):
    """A Latin square on 0..n-1 with identity 0 and two-sided inverses, as
    a one-object groupoid: every axiom but associativity holds, and
    from order 5 on most such squares are not associative."""
    n = draw(st.integers(2, 6))
    rnd = draw(st.randoms(use_true_random=False))
    while True:
        rest = list(range(1, n))
        rnd.shuffle(rest)
        inv = {0: 0}
        while rest:
            a = rest.pop()
            b = rest.pop() if rest and rnd.random() < 0.7 else a
            inv[a], inv[b] = b, a
        table = {(0, a): a for a in range(n)}
        table.update({(a, 0): a for a in range(n)})
        table.update({(a, inv[a]): 0 for a in range(1, n)})
        cells = [(a, b) for a in range(1, n) for b in range(1, n) if (a, b) not in table]
        if _fill_latin(n, table, cells, rnd, [2000]):
            break
    arrows = [str(a) for a in range(n)]
    return Groupoid(["*"], arrows, {a: "*" for a in arrows}, {a: "*" for a in arrows},
                    {(str(a), str(b)): str(c) for (a, b), c in table.items()},
                    {str(a): str(inv[a]) for a in range(n)}, {"*": "0"})


def _fill_latin(n, table, cells, rnd, budget):
    """Complete ``table`` to a Latin square by randomized backtracking over
    ``cells``; False when it cannot, or after ``budget[0]`` nodes."""
    if not cells:
        return True
    budget[0] -= 1
    if budget[0] < 0:
        return False
    (a, b), rest = cells[0], cells[1:]
    used = {table[a, c] for c in range(n) if (a, c) in table}
    used |= {table[c, b] for c in range(n) if (c, b) in table}
    values = [v for v in range(1, n) if v not in used]
    rnd.shuffle(values)
    for v in values:
        table[a, b] = v
        if _fill_latin(n, table, rest, rnd, budget):
            return True
    table.pop((a, b), None)
    return False


@settings(ORACLE, max_examples=150)
@given(inverse_loops(), st.booleans())
def test_light_test_matches_associativity_scan(loop, paired):
    """On tables that pass every other axiom, Light's test proves
    associativity exactly when the all-triples scan finds no failure;
    with two objects (the loop times the pair groupoid on x, y) too."""
    g = product_groupoid(corpus.pair_groupoid("xy"), loop) if paired else loop
    want = oracles.check_groupoid(g)
    assert all(v.startswith("associativity") for v in want)
    event("%s, %s" % ("two objects" if paired else "one object",
                      "associative" if not want else "not associative"))
    assert groupoid._associative_on_generators(g) == (not want)
    assert check_groupoid(g) == want


class ConjugatedDoubleGroupoid(DoubleGroupoid):
    """The horizontal structure moved along a permutation of the squares
    that keeps every boundary: u +2 v becomes p^-1(p(u) +2 p(v)), and
    likewise for neg2 and eps2.  The horizontal view stays a groupoid,
    the vertical view is untouched, and interchange may fail."""

    def __init__(self, cm, squares, perm):
        self.perm, self.back = perm, {v: k for k, v in perm.items()}
        super().__init__(cm, squares)

    def comp2(self, u, v):
        return self.back[super().comp2(self.perm[u], self.perm[v])]

    def neg2(self, u):
        return self.back[super().neg2(self.perm[u])]

    def eps2(self, a):
        return self.back[super().eps2(a)]


@st.composite
def conjugated_double_groupoids(draw):
    """A unit-boundary model, its action twisted at up to one entry, with
    its horizontal structure conjugated by a drawn boundary-preserving
    permutation (often the identity)."""
    cm = MODELS[draw(st.sampled_from(["z2-trivial", "pairz2-trivial"]))]()
    action = dict(cm.action)
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(action, key=repr)))
        action[key] = draw(st.sampled_from(
            [c for c in cm.C.arrows if cm.C.tgt(c) == cm.C.tgt(action[key])]))
    cm = CrossedModule(cm.C, cm.G, cm.delta, action)
    squares = build_double_groupoid(cm).squares
    by_boundary = {}
    for sq in squares:
        by_boundary.setdefault(sq[1:], []).append(sq)
    perm = {}
    for group in by_boundary.values():
        moved = draw(st.permutations(group)) if draw(st.booleans()) else group
        perm.update(zip(group, moved))
    return ConjugatedDoubleGroupoid(cm, squares, perm)


@settings(ORACLE, max_examples=60)
@given(conjugated_double_groupoids())
def test_interchange_certificate_matches_quadruple_scan(dg):
    """Where both square views pass, the certificate holds exactly when
    no quadruple fails; every violation list equals the oracle's."""
    want = oracles.check_double(dg)
    views_pass = not any(v.startswith(("vertical", "horizontal")) for v in want)
    holds = not any(v.startswith("interchange") for v in want)
    event("views %s, interchange %s" % ("pass" if views_pass else "fail",
                                         "holds" if holds else "fails"))
    if views_pass:
        assert dgpd._interchange_on_generators(dg) == holds
    assert check_double(dg) == want


class BentFacesDoubleGroupoid(DoubleGroupoid):
    """The vertical structure moved along a permutation of the squares
    that keeps top and bottom edges but not side edges: the vertical
    view stays a groupoid, but the side faces of its composites no
    longer follow G, so horizontally composable pairs need not compose
    to one."""

    def __init__(self, cm, squares, perm):
        self.perm, self.back = perm, {v: k for k, v in perm.items()}
        super().__init__(cm, squares)

    def comp1(self, u, v):
        return self.back[super().comp1(self.perm[u], self.perm[v])]

    def neg1(self, u):
        return self.back[super().neg1(self.perm[u])]

    def eps1(self, a):
        return self.back[super().eps1(a)]


@settings(ORACLE, max_examples=60)
@given(st.sampled_from(["z2-trivial", "pairz2-trivial", "pairz2"]), st.booleans(),
       st.randoms(use_true_random=False))
def test_interchange_certificate_refuses_bent_faces(model, swap, rnd):
    """With side faces that are not functions of the factors' faces the
    certificate's lemma does not apply: it must not claim interchange
    where the quadruple scan finds failures.  One swapped pair of
    squares bends few composites, which the generators may all miss;
    a shuffle of every class bends most."""
    cm = MODELS[model]()
    squares = build_double_groupoid(cm).squares
    by_ends = {}
    for sq in squares:
        by_ends.setdefault((sq.top, sq.bottom), []).append(sq)
    perm = {sq: sq for sq in squares}
    if swap:
        group = rnd.choice([g for g in by_ends.values() if len(g) > 1])
        u, v = rnd.sample(group, 2)
        perm[u], perm[v] = v, u
    else:
        for group in by_ends.values():
            moved = list(group)
            rnd.shuffle(moved)
            perm.update(zip(group, moved))
    dg = BentFacesDoubleGroupoid(cm, squares, perm)
    assert not dg.vertical_groupoid().violations()
    failures = dgpd._interchange_failures(dg)
    event("interchange fails" if failures else "interchange holds")
    if failures:
        assert not dgpd._interchange_on_generators(dg)
        assert [v for v in check_double(dg) if v.startswith("interchange")] == failures


@settings(ORACLE, max_examples=40)
@given(corrupted_holonomy())
def test_chart_certificate_matches_pair_scan(hol):
    """A proved chart coherence leaves the pair scan nothing to find."""
    scan = {"violations": [], "open_image_failures": []}
    holonomy._transition_pairs(hol, {}, False, scan)
    injective = all(len(set(c.mapping.values())) == len(c.mapping) for c in hol.charts)
    proved = injective and holonomy._charts_translate(hol)
    event("proved" if proved else "scanned, %s" % kind_of(("ok", scan)))
    if proved:
        assert scan["violations"] == []


@pytest.mark.parametrize("name", ["z2z2", "pairz2", "z4", "pairz2-sierpinski"])
def test_chart_certificate_holds_on_models(name):
    assert holonomy._charts_translate(holonomy_model(name))


@functools.lru_cache(maxsize=None)
def scan_products(name):
    """The vertical products the chart pair scan reads on a holonomy
    model: t^-1(top s(z)) +1 s(z), then eta(z) +1 v, in _skey order."""
    hol = holonomy_model(name)
    vert = hol.dg.vertical_groupoid()
    read = set()
    for cs in hol.charts:
        for ct in hol.charts:
            if not set(cs.mapping.values()) & set(ct.mapping.values()):
                continue
            t_inv = local_section_inv(hol.dg, ct.section).squares
            for z, sq in cs.section.squares.items():
                if sq.top in t_inv:
                    read.add((t_inv[sq.top], sq))
                    eta = vert.add(t_inv[sq.top], sq)
                    read.update((eta, v) for v in cs.mapping if v.top == z)
    return sorted(read, key=_skey)


@settings(ORACLE, max_examples=60)
@given(st.sampled_from(["z2z2", "pairz2", "z4", "pairz2-sierpinski"]), st.data())
def test_chart_certificate_needs_a_groupoid_vertical_view(name, data):
    """With one vertical product the pair scan reads redirected to a
    parallel square, the rows the scan reads may disagree with the ones
    the chart values were checked on: the certificate must then defer
    to the scan.  On the Sierpinski model the scan reads products the
    chart values do not."""
    hol = copy.copy(holonomy_model(name))
    vert = hol.dg.vertical_groupoid()
    table = dict(vert._table)
    key = data.draw(st.sampled_from(scan_products(name)))
    value = table[key]
    parallel = [sq for sq in vert.arrows
                if (sq.top, sq.bottom) == (value.top, value.bottom) and sq != value]
    if parallel:
        table[key] = data.draw(st.sampled_from(parallel))
    hol.dg = copy.copy(hol.dg)
    hol.dg._vertical = Groupoid(vert.objects, vert.arrows, vert._src, vert._tgt, table,
                                vert._neg, vert._units)
    scan = {"violations": [], "open_image_failures": []}
    holonomy._transition_pairs(hol, {}, False, scan)
    proved = holonomy._charts_translate(hol)
    event("proved" if proved else "scanned, %s" % kind_of(("ok", scan)))
    if proved:
        assert scan["violations"] == []


def words(gens, ends, add):
    """Every left-bracketed word in ``gens``: the generators closed under
    right multiplication by a generator starting where the word ends;
    ``ends(a)`` is (source, target)."""
    starting = {}
    for s in gens:
        starting.setdefault(ends(s)[0], []).append(s)
    out, seen = list(gens), set(gens)
    for w in out:
        for s in starting.get(ends(w)[1], ()):
            p = add(w, s)
            if p not in seen:
                seen.add(p)
                out.append(p)
    return seen


def cert_model(name):
    return zn_on_itself(int(name[1])) if name in ("z3", "z4") else corpus.corpus()[name]


@pytest.mark.parametrize("name", sorted(corpus.corpus()) + ["z3", "z4"])
def test_generating_sets_reach_every_arrow(name):
    """The generating sets of the certificates: every arrow of the kernel
    and edge groupoids, both square views, the germ groupoid J and the
    groupoid P of horizontally composable pairs is a word in them."""
    cm = cert_model(name)
    dg = build_double_groupoid(discrete_item(cm)[0])
    J = build_germ_groupoid(dg)[0]
    for g in (cm.C, cm.G, dg.vertical_groupoid(), dg.horizontal_groupoid(), J):
        rows = g.tables()[1]
        gens = groupoid._arrow_generators(g)
        assert len(gens) < len(g.arrows) or len(g.arrows) <= 2 * len(g.objects)
        assert words(gens, lambda i: (g.src(g.arrows[i]), g.tgt(g.arrows[i])),
                     lambda i, j: rows[i][j]) == set(range(len(g.arrows)))
    objects, out = dgpd._pair_arrows(dg)
    vt, squares = dg.vertical_groupoid().tables()[1], dg.squares
    gens = dgpd._pair_generators(dg, objects, out)
    got = words(gens, lambda s: ((squares[s[0]].top, squares[s[1]].top),
                                 (squares[s[0]].bottom, squares[s[1]].bottom)),
                lambda s, a: (vt[s[0]][a[0]], vt[s[1]][a[1]]))
    pairs = {(i, j) for i, u in enumerate(squares) for j, v in enumerate(squares)
             if u.right == v.left}
    assert {s for x in objects for s, _ in out(x)} == pairs
    assert got == pairs


SCANS = ((groupoid, "_associativity_failures"), (dgpd, "_interchange_failures"),
         (holonomy, "_transition_pairs"))
CERTIFICATES = ((groupoid, "_associative_on_generators"), (dgpd, "_interchange_on_generators"),
                (holonomy, "_charts_translate"))


def test_certificates_are_taken_on_z4(monkeypatch):
    """On Z/4 discrete (256 squares) check_double, check_groupoid on the
    germ groupoid and chart coherence never reach their scans, and give
    the verdicts that the scans give with every certificate refused."""
    cm, w = discrete_item(zn_on_itself(4))
    dg, wg, axioms = square_axioms(cm, w)
    hol = holonomy_groupoid(dg, wg, axioms)

    def refuse(*args):
        raise AssertionError("a scan ran where its certificate should hold")

    def verdicts():
        fresh = build_double_groupoid(cm)
        return (check_double(fresh), check_groupoid(build_germ_groupoid(fresh)[0]),
                check_chart_coherence(hol))

    with monkeypatch.context() as m:
        for module, name in SCANS:
            m.setattr(module, name, refuse)
        got = verdicts()
    with monkeypatch.context() as m:
        for module, name in CERTIFICATES:
            m.setattr(module, name, lambda *args: False)
        want = verdicts()
    assert got == want
    assert got[:2] == ([], []) and got[2]["ok"] and got[2]["opens_to_opens"]
