import itertools
import random

import pytest

from holonomy2.dgpd import DoubleGroupoidError, build_double_groupoid
from holonomy2.fintop import FiniteTopSpace
from holonomy2.holonomy import (Germ, HolonomyError, LocalLinearSection, WStructure,
                                build_wg, check_local_section,
                                check_wstructure, constant_section,
                                full_wstructure, germ_at, germ_inv, germ_mul,
                                local_section_inv, local_section_mul,
                                min_sections_at, smoothness_violations, unit_germ)
from holonomy2.xmod import XModError

from oracles import germs_equal_somewhere, restrict_section

from conftest import discrete_item, indiscrete_item, sierpinski_pairz2_item


def topologized_items(all_cms):
    items = []
    for name, cm in all_cms.items():
        items.append((name + "-discrete",) + discrete_item(cm))
        items.append((name + "-indiscrete",) + indiscrete_item(cm))
    items.append(("pairz2-sierpinski",) + sierpinski_pairz2_item())
    return items


def all_min_sections(dg, window=None, smooth=False):
    out = []
    for a in sorted(dg.edge.arrows):
        out.extend(min_sections_at(dg, a, window=window, smooth=smooth))
    seen = []
    for s in out:
        if s not in seen:
            seen.append(s)
    return seen


def test_constant_section_is_valid(all_cms):
    for name, cm in all_cms.items():
        cm, w = discrete_item(cm)
        dg = build_double_groupoid(cm)
        sec = constant_section(dg, dg.edge.arrows)
        assert check_local_section(dg, sec) == [], name


def test_wstructure_validation(pairz2):
    cm, w = discrete_item(pairz2)
    assert check_wstructure(cm, w) == []
    missing = WStructure(["1@x", "1@y"], FiniteTopSpace.discrete(["1@x", "1@y"]))
    assert any("identity" in v for v in check_wstructure(cm, missing))


def test_restriction_keeps_validity(all_cms):
    for name, cm in all_cms.items():
        cmt, _ = indiscrete_item(cm)
        dg = build_double_groupoid(cmt)
        for sec in all_min_sections(dg)[:6]:
            for a in sec.dom1:
                m = dg.edge.arrow_space().minimal_open(a)
                sub = restrict_section(dg, sec, m)
                assert check_local_section(dg, sub) == [], name


def test_section_times_constant_restriction(all_cms):
    for name, cm in all_cms.items():
        cmt, _ = discrete_item(cm)
        dg = build_double_groupoid(cmt)
        for sec in all_min_sections(dg)[:10]:
            ident = constant_section(dg, sec.dom1, sec.dom0)
            assert local_section_mul(dg, sec, ident) == sec, name


def test_inverse_semigroup_laws(all_cms):
    # x * x^-1 * x = x and (x^-1)^-1 = x over every topologized item
    for name, cm, w in topologized_items(all_cms):
        dg = build_double_groupoid(cm)
        secs = all_min_sections(dg)
        assert secs, name
        for x in secs:
            xi = local_section_inv(dg, x)
            assert local_section_inv(dg, xi) == x, name
            assert local_section_mul(dg, local_section_mul(dg, x, xi), x) == x, name


def test_idempotents_commute(all_cms):
    for name, cm, w in topologized_items(all_cms):
        dg = build_double_groupoid(cm)
        secs = all_min_sections(dg)
        idems = []
        for x in secs:
            e = local_section_mul(dg, x, local_section_inv(dg, x))
            if e not in idems:
                idems.append(e)
        for e in idems:
            # idempotents are restrictions of the identity section
            assert all(e.squares[z] == dg.eps1(z) for z in e.dom1), name
            assert local_section_mul(dg, e, e) == e, name
        for e in idems:
            for f in idems:
                ef = local_section_mul(dg, e, f)
                fe = local_section_mul(dg, f, e)
                assert ef == fe, name


def test_product_domain_open_against_oracle(all_cms):
    rng = random.Random(7)
    for name, cm, w in topologized_items(all_cms):
        dg = build_double_groupoid(cm)
        arr_space = dg.edge.arrow_space()
        obj_space = dg.edge.object_space()
        secs = all_min_sections(dg)
        pairs = [(a, b) for a in secs for b in secs]
        rng.shuffle(pairs)
        for a, b in pairs[:40]:
            p = local_section_mul(dg, a, b, check=False)
            assert arr_space.is_open(p.dom1), name
            assert obj_space.is_open(p.dom0), name


def test_germ_discrete_is_single_square(z2z2):
    cm, w = discrete_item(z2z2)
    dg = build_double_groupoid(cm)
    sec = constant_section(dg, dg.edge.arrows)
    g = germ_at(dg, sec, "1")
    assert dict(g.values) == {"1": dg.eps1("1")}


def test_germ_indiscrete_is_whole_table(z2z2):
    cm, w = indiscrete_item(z2z2)
    dg = build_double_groupoid(cm)
    sec = constant_section(dg, dg.edge.arrows)
    g = germ_at(dg, sec, "1")
    assert set(dict(g.values)) == set(dg.edge.arrows)


def test_germ_outside_domain_errors(z2z2):
    cm, w = discrete_item(z2z2)
    dg = build_double_groupoid(cm)
    sec = constant_section(dg, ["0"])
    with pytest.raises(HolonomyError, match="outside"):
        germ_at(dg, sec, "1")


def test_sections_agreeing_on_minimal_open_share_germ():
    # two sections on the sierpinski-topologized pair groupoid that agree
    # near an arrow but not globally
    name, cm, w = ("pairz2-sierpinski",) + sierpinski_pairz2_item()
    dg = build_double_groupoid(cm)
    secs = all_min_sections(dg)
    found = False
    for s in secs:
        for t in secs:
            if s is t or s.dom1 != t.dom1:
                continue
            shared = [a for a in s.dom1
                      if all(s.squares[z] == t.squares[z]
                             for z in dg.edge.arrow_space().minimal_open(a))]
            differs = any(s.squares[z] != t.squares[z] for z in s.dom1)
            for a in shared:
                if differs:
                    assert germ_at(dg, s, a) == germ_at(dg, t, a)
                    found = True
    assert found


def test_germ_equivalence_matches_existential_oracle(all_cms):
    for name, cm, w in topologized_items(all_cms):
        dg = build_double_groupoid(cm)
        secs = all_min_sections(dg)
        by_arrow = {}
        for s in secs:
            for a in s.dom1:
                by_arrow.setdefault(a, []).append(s)
        checked = 0
        for a, group in sorted(by_arrow.items()):
            for s, t in itertools.combinations(group, 2):
                canonical = germ_at(dg, s, a) == germ_at(dg, t, a)
                existential = germs_equal_somewhere(dg, s, t, a)
                assert canonical == existential, name
                checked += 1
                if checked > 150:
                    break
            if checked > 150:
                break
        assert checked > 0, name


def test_germ_products_and_inverses(z4):
    cm, w = discrete_item(z4)
    dg = build_double_groupoid(cm)
    secs = all_min_sections(dg)
    germs = []
    for s in secs:
        for a in s.dom1:
            g = germ_at(dg, s, a)
            if g not in germs:
                germs.append(g)
    for g in germs[:20]:
        gi = germ_inv(dg, g)
        u = germ_mul(dg, g, gi)
        assert u.value() == dg.eps1(u.base)
    # unit germs are neutral
    for g in germs[:20]:
        assert germ_mul(dg, g, unit_germ(dg, g.base)) == g
        assert germ_mul(dg, unit_germ(dg, g.source()), g) == g


def test_non_composable_germ_product_raises_comp1_error(z4):
    """A germ product whose values do not compose vertically raises what
    comp1 raises on those squares, with the same message."""
    cm, _ = discrete_item(z4)
    dg = build_double_groupoid(cm)
    ga = unit_germ(dg, "1")
    sq = ga.value()
    # a square on the right base whose bottom is not the top of ga's value
    bad = next(b for b in dg.squares if b.bottom != sq.top)
    gb = Germ(sq.top, {z: bad for z in dg.edge.arrow_space().minimal_open(sq.top)})
    with pytest.raises(DoubleGroupoidError) as want:
        dg.comp1(bad, sq)
    with pytest.raises(DoubleGroupoidError) as got:
        germ_mul(dg, gb, ga)
    assert str(got.value) == str(want.value)
    assert "vertical composition undefined" in str(got.value)


def test_smoothness_violations_on_window(pairz2):
    name, cm, w = ("pairz2-sierpinski",) + sierpinski_pairz2_item()
    dg = build_double_groupoid(cm)
    wg = build_wg(dg, w)
    sec = constant_section(dg, dg.edge.arrow_space().minimal_open("xx"))
    assert smoothness_violations(dg, wg, sec) == []


def _raising(exc):
    def comp2(u, v):
        raise exc("comp2 broke")
    return comp2


def test_linearity_bug_propagates_instead_of_verdict(z2z2, monkeypatch):
    """A programming error inside comp2 is not a "not composable" verdict."""
    cm, _ = discrete_item(z2z2)
    dg = build_double_groupoid(cm)
    sec = constant_section(dg, dg.edge.arrows)
    monkeypatch.setattr(dg, "comp2", _raising(TypeError))
    with pytest.raises(TypeError, match="comp2 broke"):
        check_local_section(dg, sec)


@pytest.mark.parametrize("exc", [DoubleGroupoidError, XModError])
def test_model_error_in_linearity_is_a_verdict(z2z2, monkeypatch, exc):
    cm, _ = discrete_item(z2z2)
    dg = build_double_groupoid(cm)
    sec = constant_section(dg, dg.edge.arrows)
    monkeypatch.setattr(dg, "comp2", _raising(exc))
    assert any("not composable" in v for v in check_local_section(dg, sec))
