import itertools

import pytest

from holonomy2 import corpus
from holonomy2.fintop import FiniteTopSpace
from holonomy2.groupoid import GroupoidMorphism, check_groupoid_morphism, triples_by_last
from holonomy2.holonomy import (HolonomyError, WStructure, full_wstructure,
                                identity_vertical_morphism, qualifying_tables,
                                universal_morphism)

from conftest import discrete_item, holonomy_of, zn_on_itself


@pytest.fixture(scope="module")
def z2z2_setup():
    cm, w = discrete_item(corpus.z2z2())
    hol = holonomy_of(cm, w)
    return cm, w, hol


def test_identity_instance_satisfies_theorem(z2z2_setup):
    cm, w, hol = z2z2_setup
    mu = identity_vertical_morphism(hol.dg)
    mp, rep = universal_morphism(cm, w, mu, hol)
    assert rep["is_morphism"]
    assert rep["psi_after"]
    assert rep["embeds_preimage"]


def test_identity_instance_inverts_the_final_map(z2z2_setup):
    cm, w, hol = z2z2_setup
    mu = identity_vertical_morphism(hol.dg)
    mp, rep = universal_morphism(cm, w, mu, hol)
    for sq in hol.dg.squares:
        assert hol.psi.arr_map[mp.arr_map[sq]] == sq
    # and covers every class: the inverse of the evaluation
    assert set(mp.arr_map.values()) == set(hol.quotient.arrows)


def test_uniqueness_exhaustive(z2z2_setup):
    cm, w, hol = z2z2_setup
    mu = identity_vertical_morphism(hol.dg)
    mp, rep = universal_morphism(cm, w, mu, hol)
    assert rep["qualifying_morphisms"] == 1
    assert rep["unique"]


def test_psi_after_construction_on_z4():
    cm, w = discrete_item(corpus.z4_interior())
    hol = holonomy_of(cm, w)
    mu = identity_vertical_morphism(hol.dg)
    mp, rep = universal_morphism(cm, w, mu, hol)
    assert rep["psi_after"] and rep["unique"]
    bad = check_groupoid_morphism(mp, hol.dg.vertical_groupoid(), hol.quotient)
    assert bad == []


def test_identity_instance_on_z3_is_unique():
    # Z/3 acting trivially on itself, discrete, full window: 81 squares
    cm, w = discrete_item(zn_on_itself(3))
    hol = holonomy_of(cm, w)
    mp, rep = universal_morphism(cm, w, identity_vertical_morphism(hol.dg), hol)
    assert len(hol.dg.squares) == 81
    assert rep["unique"] and rep["qualifying_morphisms"] == 1
    assert rep["psi_after"] and rep["is_morphism"]


def test_uniqueness_search_reports_two_qualifiers():
    """Z/2 into Z/2 x Z/2 with the unit on the unit: the generator may go
    to any of the four elements, so four tables qualify.  The search
    returns the first two, counting one node per prefix entered: the
    empty prefix, the unit, and one per qualifier."""
    z2 = corpus.cyclic_groupoid(2)
    triples = triples_by_last(z2, z2.arrows)
    klein = list(itertools.product(range(2), repeat=2))

    def add(x, y):
        return tuple((i + j) % 2 for i, j in zip(x, y))

    e = (0, 0)
    assert qualifying_tables([[e], klein], triples, add, 4) == [(e, (0, 0)), (e, (0, 1))]
    with pytest.raises(HolonomyError, match="cap exceeded"):
        qualifying_tables([[e], klein], triples, add, 3)
    assert qualifying_tables([[e], [(1, 1)]], triples, add, 3) == [(e, (1, 1))]
    # the unit law fails at the first position: no qualifier, one node
    assert qualifying_tables([[(1, 0)], klein], triples, add, 1) == []


def test_universal_through_restricted_window():
    # the source factors its squares through the preimage of a proper window
    cm, _ = discrete_item(corpus.z4_interior())
    w = WStructure(["c0", "c1", "c3"],
                   FiniteTopSpace.discrete(["c0", "c1", "c3"]))
    hol = holonomy_of(cm, w)
    wa = full_wstructure(cm, FiniteTopSpace.discrete(cm.C.arrows))
    mu = identity_vertical_morphism(hol.dg)
    mp, rep = universal_morphism(cm, wa, mu, hol)
    assert rep["psi_after"] and rep["is_morphism"] and rep["unique"]
    # squares outside the window needed genuine factorizations
    pre = {sq for sq in hol.dg.squares if sq in hol.wg.squares}
    assert pre != set(hol.dg.squares)


def test_hypothesis_failure_named_nongenerating():
    # a window whose preimage cannot generate: kernel restricted to the
    # subgroup {0, 2} inside Z/4
    cm, _ = discrete_item(corpus.z4_interior())
    w02 = WStructure(["c0", "c2"], FiniteTopSpace.discrete(["c0", "c2"]))
    hol = holonomy_of(corpus.with_topology(corpus.z4_interior(), "discrete"),
                      full_wstructure(cm, FiniteTopSpace.discrete(cm.C.arrows)))
    # build a fake "window" holonomy target via the w02 window squares
    from holonomy2.dgpd import build_double_groupoid
    from holonomy2.holonomy import build_wg
    dg = build_double_groupoid(cm)
    wg02 = build_wg(dg, w02)
    hol.wg = wg02
    mu = identity_vertical_morphism(dg)
    wa = full_wstructure(cm, FiniteTopSpace.discrete(cm.C.arrows))
    with pytest.raises(HolonomyError, match="hypothesis \\(ii\\).*generate"):
        universal_morphism(cm, wa, mu, hol)


def test_hypothesis_failure_named_objects(z2z2_setup):
    cm, w, hol = z2z2_setup
    dg = hol.dg
    swapped = GroupoidMorphism({"0": "1", "1": "0"},
                               {sq: sq for sq in dg.squares})
    with pytest.raises(HolonomyError, match="hypothesis \\(i\\)"):
        universal_morphism(cm, w, swapped, hol)


def test_source_needs_global_kernel_topology(z2z2_setup):
    cm, w, hol = z2z2_setup
    partial = WStructure(["c0"], FiniteTopSpace.discrete(["c0"]))
    mu = identity_vertical_morphism(hol.dg)
    with pytest.raises(HolonomyError, match="topology on all"):
        universal_morphism(cm, partial, mu, hol)
