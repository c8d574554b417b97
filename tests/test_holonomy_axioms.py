import pytest

from holonomy2 import corpus
from holonomy2.dgpd import build_double_groupoid
from holonomy2.fintop import (FiniteTopSpace, PartialMap, TopologyError,
                              is_continuous, pullback_space)
from holonomy2.groupoid import _skey, generated_subgroupoid
from holonomy2.holonomy import (HolonomyError, WStructure, _window_differences,
                                _window_operation, _window_products,
                                build_wg, check_locally_lie_double,
                                check_locally_lie_xmod, check_wstructure,
                                full_wstructure, generation_equivalence,
                                has_enough_sections, is_equivariant,
                                sections_through)
from holonomy2.xmod import apply_action

from conftest import (discrete_item, indiscrete_item, sierpinski_pairz2_item,
                      square_axioms)


def test_build_wg_full_window_z2z2(z2z2):
    cm, w = discrete_item(z2z2)
    dg = build_double_groupoid(cm)
    wg = build_wg(dg, w)
    assert len(wg.squares) == 16


def test_build_wg_units_window_trivial_action(pair2):
    cm, _ = discrete_item(pair2)
    dg = build_double_groupoid(cm)
    units = [c for c in cm.C.arrows]
    w = WStructure(units, FiniteTopSpace.discrete(units))
    wg = build_wg(dg, w)
    G = cm.G
    for sq in wg.squares:
        assert G.add(sq.left, sq.bottom) == G.add(sq.top, sq.right)


def test_build_wg_z4_count(z4):
    cm, _ = discrete_item(z4)
    dg = build_double_groupoid(cm)
    w = WStructure(["c0", "c1", "c3"], FiniteTopSpace.discrete(["c0", "c1", "c3"]))
    wg = build_wg(dg, w)
    assert len(wg.squares) == 24


def test_build_wg_rejects_bad_window(z4):
    cm, _ = discrete_item(z4)
    dg = build_double_groupoid(cm)
    w = WStructure(["c1", "c3"], FiniteTopSpace.discrete(["c1", "c3"]))
    with pytest.raises(HolonomyError, match="identity"):
        build_wg(dg, w)


def test_axioms_all_pass_discrete_z2z2(z2z2):
    cm, w = discrete_item(z2z2)
    dg = build_double_groupoid(cm)
    rep = check_locally_lie_double(dg, build_wg(dg, w))
    assert all(rep[k]["ok"] for k in ("S1", "S2", "S3", "S4", "S5"))
    ded = rep["deductions"]
    assert ded["inverse_continuous"] and ded["product_set_open"]
    assert ded["product_continuous"] and ded["triple_restriction_ok"]
    assert ded["difference_lands_in_window"]


def test_s2_fails_without_identities(z4):
    # windows missing an identity are rejected upfront, so test the axiom on
    # a hand-made square window instead
    cm, _ = discrete_item(z4)
    dg = build_double_groupoid(cm)
    from holonomy2.holonomy import WGSquares
    squares = [sq for sq in dg.squares if sq.inner in ("c1", "c3")]
    wg = WGSquares(dg, squares, FiniteTopSpace.discrete(squares))
    rep = check_locally_lie_double(dg, wg)
    assert not rep["S2"]["ok"] and rep["S2"]["witnesses"]


def test_window_squares_outside_the_double_groupoid_rejected(z4):
    cm, _ = discrete_item(z4)
    dg = build_double_groupoid(cm)
    from holonomy2.holonomy import WGSquares
    squares = [dg.squares[0], dg.squares[0]._replace(inner="outside")]
    with pytest.raises(HolonomyError, match="outside the double groupoid"):
        WGSquares(dg, squares, FiniteTopSpace.discrete(squares))


def test_s1_s5_on_z4_window(z4):
    cm, _ = discrete_item(z4)
    dg = build_double_groupoid(cm)
    w = WStructure(["c0", "c1", "c3"], FiniteTopSpace.discrete(["c0", "c1", "c3"]))
    rep = check_locally_lie_double(dg, build_wg(dg, w))
    assert rep["S1"]["ok"]
    assert rep["S5"]["ok"]


def test_s4_fails_indiscrete_z2z2(z2z2):
    # witnesses would have to be globally defined sections
    cm, w = indiscrete_item(z2z2)
    dg = build_double_groupoid(cm)
    rep = check_locally_lie_double(dg, build_wg(dg, w))
    assert not rep["S4"]["ok"]
    assert rep["S4"]["missing_sections"]


def test_enough_sections_discrete_one_object(all_cms):
    for name in ("z2z2", "z4"):
        cm, w = discrete_item(all_cms[name])
        dg = build_double_groupoid(cm)
        rep = has_enough_sections(dg, build_wg(dg, w))
        assert rep["ok"], name
        for sq, wit in rep["witnesses"].items():
            assert wit.squares[sq.bottom] == sq


def test_enough_sections_failure_witness(pairz2):
    # squares over an identity loop whose side edges deform the base
    # differently cannot be thickened
    cm, w = discrete_item(pairz2)
    dg = build_double_groupoid(cm)
    rep = has_enough_sections(dg, build_wg(dg, w))
    assert not rep["ok"]
    bad = rep["failures"][0]
    assert sections_through(dg, build_wg(dg, w), bad) == []


def test_kernel_axioms_discrete(z2z2):
    cm, w = discrete_item(z2z2)
    rep = check_locally_lie_xmod(cm, w, square_axioms(cm, w)[2])
    assert rep["ok"]
    assert rep["cross_check"]["agree"]


def test_kernel_axioms_indiscrete_window_on_z2z2(z2z2):
    # discrete edge groupoid with an indiscrete window: the action-domain
    # openness verdict is computed and reported
    cm, _ = discrete_item(z2z2)
    w = WStructure(cm.C.arrows, FiniteTopSpace.indiscrete(cm.C.arrows))
    assert check_wstructure(cm, w) == []
    rep = check_locally_lie_xmod(cm, w, square_axioms(cm, w)[2])
    assert "C4" in rep and isinstance(rep["C4"]["ok"], bool)
    assert rep["C4"]["action_set_open"] is True
    assert rep["C4"]["action_continuous"] is True


def test_kernel_axioms_sierpinski():
    cm, w = sierpinski_pairz2_item()
    rep = check_locally_lie_xmod(cm, w, square_axioms(cm, w)[2])
    assert rep["C2"]["ok"]
    assert isinstance(rep["cross_check"]["agree"], bool)


def test_generation_equivalence_corpus(all_cms):
    pairs = []
    for name, cm in all_cms.items():
        pairs.append((name + ":full", cm, set(cm.C.arrows)))
        units = {cm.C.unit(x) for x in cm.C.objects}
        pairs.append((name + ":units", cm, units))
    z4 = all_cms["z4"]
    pairs.append(("z4:013", z4, {"c0", "c1", "c3"}))
    pairs.append(("z4:02", z4, {"c0", "c2"}))
    for name, cm, arrows in pairs:
        res = generation_equivalence(cm, arrows, build_double_groupoid(cm))
        assert res["agree"], (name, res)


def test_generation_counterexample_is_nongenerating(z4):
    res = generation_equivalence(z4, {"c0", "c2"}, build_double_groupoid(z4))
    assert not res["kernel_side"] and not res["square_side"]
    assert generated_subgroupoid(z4.C, {"c0", "c2"}) == {"c0", "c2"}


def test_equivariance(pairz2):
    assert is_equivariant(pairz2, set(pairz2.C.arrows))
    assert not is_equivariant(pairz2, {"0@x", "0@y", "1@x"})


def test_equivariant_nongenerating_pairz2(pairz2):
    units = {"0@x", "0@y"}
    assert is_equivariant(pairz2, units)
    res = generation_equivalence(pairz2, units, build_double_groupoid(pairz2))
    assert not res["kernel_side"] and not res["square_side"] and res["agree"]


# -- oracles: the per-suite blocks that the shared S1-S5 report replaced ------


def _old_openness_and_continuity(pspace, subset, mapping, target_space):
    is_open = pspace.is_open(subset)
    cont = None
    if is_open:
        try:
            cont = is_continuous(PartialMap(mapping), pspace, target_space)
        except TopologyError:
            cont = False
    return is_open, cont


def _old_square_verdicts(dg, wg):
    """Bottom-pair difference (S3 and the C-suite cross-check) and
    top-bottom product (deductions), each with its own pullback."""
    squares = sorted(wg.squares, key=_skey)
    pairs = [(u, v) for u in squares for v in squares if u.bottom == v.bottom]
    pspace = pullback_space([wg.space, wg.space], pairs, lambda p: p)
    wd = [(u, v) for (u, v) in pairs if dg.comp1(u, dg.neg1(v)) in wg]
    diff = {(u, v): dg.comp1(u, dg.neg1(v)) for (u, v) in wd}
    difference = _old_openness_and_continuity(pspace, frozenset(wd), diff, wg.space)
    pairs = [(u, v) for u in squares for v in squares if u.bottom == v.top]
    pspace = pullback_space([wg.space, wg.space], pairs, lambda p: p)
    good = [(u, v) for (u, v) in pairs if dg.comp1(u, v) in wg]
    comp = {(u, v): dg.comp1(u, v) for (u, v) in good}
    product = _old_openness_and_continuity(pspace, frozenset(good), comp, wg.space)
    return difference, product


def _old_kernel_verdicts(cm, w):
    """Kernel difference (C1) and action (C4) blocks."""
    C, G = cm.C, cm.G
    AS = G.arrow_space()
    pairs = [(c1, c2) for c1 in sorted(w.arrows, key=_skey)
             for c2 in sorted(w.arrows, key=_skey) if C.tgt(c1) == C.tgt(c2)]
    pspace = pullback_space([w.space, w.space], pairs, lambda p: p)
    wdiff = [(c1, c2) for (c1, c2) in pairs if C.add(c1, C.neg(c2)) in w.arrows]
    dmap = {(c1, c2): C.add(c1, C.neg(c2)) for (c1, c2) in wdiff}
    difference = _old_openness_and_continuity(pspace, frozenset(wdiff), dmap, w.space)
    act_pairs = [(c, a) for c in sorted(w.arrows, key=_skey)
                 for a in sorted(G.arrows, key=_skey) if C.tgt(c) == G.src(a)]
    act_space = pullback_space([w.space, AS], act_pairs, lambda p: p)
    wa = [(c, a) for (c, a) in act_pairs if apply_action(cm, c, a) in w.arrows]
    amap = {(c, a): apply_action(cm, c, a) for (c, a) in wa}
    action = _old_openness_and_continuity(act_space, frozenset(wa), amap, w.space)
    return difference, action


def _oracle_items():
    items = []
    for name, cm in corpus.corpus().items():
        items.append(pytest.param(*discrete_item(cm), id=name + "-discrete"))
        items.append(pytest.param(*indiscrete_item(cm), id=name + "-indiscrete"))
    items.append(pytest.param(*sierpinski_pairz2_item(), id="pairz2-sierpinski"))
    cm, _ = discrete_item(corpus.z4_interior())
    arrows = ["c0", "c1", "c3"]
    items.append(pytest.param(cm, WStructure(arrows, FiniteTopSpace.discrete(arrows)),
                              id="z4-c0c1c3"))
    return items


@pytest.mark.parametrize("cm,w", _oracle_items())
def test_shared_report_matches_replaced_blocks(cm, w):
    dg, wg, axioms = square_axioms(cm, w)
    kernel = check_locally_lie_xmod(cm, w, axioms)
    fresh = has_enough_sections(dg, build_wg(dg, w))
    assert kernel["C5"]["ok"] == fresh["ok"]
    assert kernel["C5"]["missing"] == [str(sq) for sq in fresh["failures"][:4]]

    difference, product = _old_square_verdicts(dg, wg)
    assert (kernel["cross_check"]["square_side_difference_continuous"]
            == bool(difference[1]))
    s3 = axioms["S3"]
    assert (s3["difference_set_open"], s3["difference_continuous"]) == difference
    squares = sorted(wg.squares, key=_skey)
    products = {(u, v): dg.comp1(u, v) for u in squares for v in squares if u.bottom == v.top}
    assert _window_operation([wg.space, wg.space], products, wg.space) == product
    if "deductions" in axioms:
        ded = axioms["deductions"]
        assert (ded["product_set_open"], ded["product_continuous"]) == product

    kdiff, kaction = _old_kernel_verdicts(cm, w)
    c1, c4 = kernel["C1"], kernel["C4"]
    assert (c1["difference_set_open"], c1["difference_continuous"]) == kdiff
    assert (c4["action_set_open"], c4["action_continuous"]) == kaction


@pytest.mark.parametrize("cm,w", _oracle_items())
def test_window_differences_and_products_match_comp1(cm, w):
    """The table-read S3 differences and deduction products are comp1's,
    on every pair the suites compose."""
    dg, wg, _ = square_axioms(cm, w)
    squares = sorted(wg.squares, key=_skey)
    assert _window_differences(dg, wg) == {
        (u, v): dg.comp1(u, dg.neg1(v)) for u in squares for v in squares
        if u.bottom == v.bottom}
    assert _window_products(dg, wg) == {
        (u, v): dg.comp1(u, v) for u in squares for v in squares if u.bottom == v.top}
