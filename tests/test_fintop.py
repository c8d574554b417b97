import itertools

import pytest

from holonomy2.fintop import (FiniteTopSpace, PartialMap, TopologyError,
                              is_continuous, is_partial_homeomorphism,
                              pullback_space)

from conftest import sierpinski_space
from oracles import open_sets


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
    assert set(open_sets(sp)) == {frozenset(), frozenset("a"), frozenset("ab")}


def test_open_sets_are_exactly_down_sets():
    # a family closed under union/intersection regenerates itself from
    # the minimal opens it determines
    fam = [[], ["b"], ["a", "b"], ["b", "c"], ["a", "b", "c"]]
    sp = FiniteTopSpace.from_opens("abc", fam)
    assert set(open_sets(sp)) == {frozenset(o) for o in fam}


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
    for o in open_sets(tgt):
        pre = frozenset(p for p in f.domain if f.table[p] in o)
        found = any(pre == u & f.domain for u in open_sets(src))
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
        for o in open_sets(src):
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
