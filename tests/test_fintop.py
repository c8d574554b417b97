import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy2.fintop import (FiniteTopSpace, PartialMap, TopologyError,
                              is_continuous, is_partial_homeomorphism,
                              pullback_space)

from conftest import sierpinski_space


def test_minimal_open_discrete():
    sp = FiniteTopSpace.discrete("ab")
    assert sp.minimal_open("a") == {"a"}


def test_minimal_open_indiscrete():
    sp = FiniteTopSpace.indiscrete("ab")
    assert sp.minimal_open("a") == {"a", "b"}


def test_minimal_open_sierpinski_closed_point():
    # intersect all opens containing b
    assert sierpinski_space().minimal_open("b") == {"a", "b"}


def test_minimal_open_unknown_point():
    with pytest.raises(TopologyError, match="c"):
        sierpinski_space().minimal_open("c")


def test_from_opens_validates_union_closure():
    with pytest.raises(TopologyError, match="union"):
        FiniteTopSpace.from_opens("abc", [[], ["a"], ["b"], ["a", "b", "c"]])


def test_from_opens_validates_intersection_closure():
    with pytest.raises(TopologyError, match="intersection"):
        FiniteTopSpace.from_opens(
            "abcd", [[], ["a", "b"], ["b", "c"], ["a", "b", "c"], list("abcd")])


def test_from_opens_needs_empty_and_full():
    with pytest.raises(TopologyError, match="empty"):
        FiniteTopSpace.from_opens("ab", [["a"], ["a", "b"]])
    with pytest.raises(TopologyError, match="full"):
        FiniteTopSpace.from_opens("ab", [[], ["a"]])


def test_point_cap():
    points = ["p%d" % i for i in range(65)]
    with pytest.raises(TopologyError, match="cap"):
        FiniteTopSpace.from_opens(points, [[], points])


def test_open_sets_roundtrip():
    sp = sierpinski_space()
    assert set(sp.open_sets()) == {frozenset(), frozenset("a"), frozenset("ab")}


def test_open_sets_are_exactly_down_sets():
    # a family closed under union/intersection regenerates itself
    fam = [[], ["b"], ["a", "b"], ["b", "c"], ["a", "b", "c"]]
    sp = FiniteTopSpace.from_opens("abc", fam)
    sp._opens_cache = None
    assert set(sp.open_sets()) == {frozenset(o) for o in fam}


def test_is_continuous_identity_and_constant():
    sp = sierpinski_space()
    ident = PartialMap({p: p for p in sp.points})
    assert is_continuous(ident, sp, sp)
    const = PartialMap({p: "a" for p in sp.points})
    assert is_continuous(const, sp, sp)


def test_is_continuous_swap_on_sierpinski_fails():
    sp = sierpinski_space()
    swap = PartialMap({"a": "b", "b": "a"})
    # preimage of {a} is {b}, not open
    assert not is_continuous(swap, sp, sp)


def test_is_continuous_requires_open_domain():
    sp = sierpinski_space()
    with pytest.raises(TopologyError, match="not open"):
        is_continuous(PartialMap({"b": "a"}), sp, sp)


def _brute_force_continuous(f, src, tgt):
    for o in tgt.open_sets():
        pre = frozenset(p for p in f.domain if f.table[p] in o)
        found = any(pre == u & f.domain for u in src.open_sets())
        if not found:
            return False
    return True


SPACES = [
    FiniteTopSpace.discrete("abc"),
    FiniteTopSpace.indiscrete("abc"),
    sierpinski_space(),
    FiniteTopSpace.from_opens("abc", [[], ["a"], ["a", "b"], ["a", "c"], ["a", "b", "c"]]),
]


def test_continuity_agrees_with_brute_force_everywhere():
    for src, tgt in itertools.product(SPACES, SPACES):
        for o in src.open_sets():
            if not o:
                continue
            for values in itertools.product(sorted(tgt.points), repeat=len(o)):
                f = PartialMap(dict(zip(sorted(o), values)))
                assert is_continuous(f, src, tgt) == _brute_force_continuous(f, src, tgt)


def test_partial_homeo_identity():
    sp = sierpinski_space()
    ok, reason = is_partial_homeomorphism(PartialMap({p: p for p in sp.points}), sp, sp)
    assert ok and reason == ""


def test_partial_homeo_open_inclusion():
    sp = sierpinski_space()
    incl = PartialMap({"a": "a"})
    ok, _ = is_partial_homeomorphism(incl, sp, sp)
    assert ok


def test_partial_homeo_non_open_image():
    sp = sierpinski_space()
    f = PartialMap({"a": "b"})
    ok, reason = is_partial_homeomorphism(f, sp, sp)
    assert not ok and reason == "image-not-open"


def test_partial_homeo_not_injective():
    sp = FiniteTopSpace.discrete("ab")
    f = PartialMap({"a": "a", "b": "a"})
    ok, reason = is_partial_homeomorphism(f, sp, sp)
    assert not ok and reason == "not-injective"


@st.composite
def space_and_two_homeos(draw):
    sp = draw(st.sampled_from(SPACES))
    opens = [o for o in sp.open_sets() if o]
    maps = []
    for _ in range(2):
        dom = draw(st.sampled_from(opens))
        img = draw(st.sampled_from(opens))
        if len(dom) != len(img):
            img = dom
        perm = draw(st.permutations(sorted(img)))
        maps.append(PartialMap(dict(zip(sorted(dom), perm))))
    return sp, maps[0], maps[1]


@settings(max_examples=200, deadline=None)
@given(space_and_two_homeos())
def test_composition_of_partial_homeos(data):
    sp, f, g = data
    if not is_partial_homeomorphism(f, sp, sp)[0]:
        return
    if not is_partial_homeomorphism(g, sp, sp)[0]:
        return
    comp = f.compose(g)
    if not sp.is_open(comp.domain):
        return
    ok, reason = is_partial_homeomorphism(comp, sp, sp)
    assert ok, reason


def test_pullback_space_matches_product_subspace():
    a = sierpinski_space()
    b = FiniteTopSpace.discrete("cd")
    pairs = [(p, q) for p in a.points for q in b.points]
    pb = pullback_space([a, b], pairs, lambda p: p)
    prod = a.product(b)
    for p in pairs:
        assert pb.minimal_open(p) == prod.minimal_open(p)


def test_min_neighbourhood():
    sp = sierpinski_space()
    assert sp.min_neighbourhood({"b"}) == {"a", "b"}
