import pytest

from holonomy2 import homotopy
from holonomy2.dgpd import build_double_groupoid
from holonomy2.homotopy import (DerivationError, FreeDerivation,
                                check_free_derivation, check_linear_section,
                                constant_derivation, derivation_mul,
                                derivation_to_section,
                                enumerate_free_derivations,
                                enumerate_linear_sections,
                                induced_endomorphism,
                                is_coadmissible, section_mul,
                                section_to_derivation)
from holonomy2.holonomy import square_tables
from holonomy2.xmod import check_xmod_morphism

from conftest import pair_bundle, zn_on_itself


def with_larger_models(all_cms):
    """The corpus plus Z/4 and Z/5 on themselves and the pair groupoid on
    three points with Z/2 vertex groups (162 squares, 24 sections), the
    first model where target sections fail the alpha-bijection test."""
    return dict(all_cms, z4_self=zn_on_itself(4), z5_self=zn_on_itself(5),
                pair3z2=pair_bundle("xyz", 2))


def test_four_free_derivations_on_z2z2(z2z2):
    assert len(enumerate_free_derivations(z2z2)) == 4


def test_constant_derivation_induces_identity(all_cms):
    for cm in all_cms.values():
        c = constant_derivation(cm)
        f = induced_endomorphism(cm, c)
        assert all(f.f0[x] == x for x in cm.G.objects)
        assert all(f.f1[a] == a for a in cm.G.arrows)
        assert all(f.f2[w] == w for w in cm.C.arrows)


def test_identity_twist_doubles(z2z2):
    # s0 trivial, s1 the identity table: the induced edge map is a + a
    s = FreeDerivation({"x": "0"}, {"0": "c0", "1": "c1"})
    assert check_free_derivation(z2z2, s) == []
    f = induced_endomorphism(z2z2, s)
    assert all(f.f1[a] == "0" for a in z2z2.G.arrows)


def test_all_induced_endomorphisms_are_morphisms(all_cms):
    for name, cm in all_cms.items():
        for s in enumerate_free_derivations(cm):
            m = induced_endomorphism(cm, s)
            bad, _ = check_xmod_morphism(m, cm, cm)
            assert bad == [], name


def test_constant_is_two_sided_unit(all_cms):
    for cm in all_cms.values():
        c = constant_derivation(cm)
        for s in enumerate_free_derivations(cm):
            assert derivation_mul(cm, c, s) == s
            assert derivation_mul(cm, s, c) == s


def test_product_associative_on_all_triples(all_cms):
    assert len(enumerate_free_derivations(all_cms["z2z2"])) == 4
    for name, cm in all_cms.items():
        ders = enumerate_free_derivations(cm)
        for s in ders:
            for t in ders:
                for u in ders:
                    assert (derivation_mul(cm, derivation_mul(cm, s, t), u)
                            == derivation_mul(cm, s, derivation_mul(cm, t, u))), name


def test_induced_endomorphism_of_product_composes(all_cms):
    for cm in all_cms.values():
        ders = enumerate_free_derivations(cm)
        for s in ders:
            for t in ders:
                f = induced_endomorphism(cm, s)
                g = induced_endomorphism(cm, t)
                h = induced_endomorphism(cm, derivation_mul(cm, s, t))
                assert all(h.f0[x] == f.f0[g.f0[x]] for x in cm.G.objects)
                assert all(h.f1[a] == f.f1[g.f1[a]] for a in cm.G.arrows)
                assert all(h.f2[c] == f.f2[g.f2[c]] for c in cm.C.arrows)


def test_exactly_two_coadmissible_on_z2z2(z2z2):
    flags = [is_coadmissible(z2z2, s)[0] for s in enumerate_free_derivations(z2z2)]
    assert sum(flags) == 2


def test_constant_is_coadmissible(all_cms):
    for cm in all_cms.values():
        ok, cert = is_coadmissible(cm, constant_derivation(cm))
        assert ok and cert["inverse"] is not None


def test_invertibility_equivalence(all_cms):
    # f1 bijective iff f2 bijective, and the inverse certificate works
    for name, cm in all_cms.items():
        for s in enumerate_free_derivations(cm):
            ok, cert = is_coadmissible(cm, s)
            assert cert["f1_bijective"] == cert["f2_bijective"], name
            assert ok == cert["f1_bijective"]
            if ok:
                t = cert["inverse"]
                c = constant_derivation(cm)
                assert derivation_mul(cm, s, t) == c
                assert derivation_mul(cm, t, s) == c


def test_f2_injective_whenever_f1_injective(all_cms):
    for cm in all_cms.values():
        for s in enumerate_free_derivations(cm):
            f = induced_endomorphism(cm, s)
            f1_inj = len(set(f.f1.values())) == len(cm.G.arrows)
            f2_inj = len(set(f.f2.values())) == len(cm.C.arrows)
            if f1_inj:
                assert f2_inj


def test_inverse_endomorphism_is_componentwise_inverse(all_cms):
    for cm in all_cms.values():
        for s in enumerate_free_derivations(cm):
            ok, cert = is_coadmissible(cm, s)
            if not ok:
                continue
            f = induced_endomorphism(cm, s)
            g = induced_endomorphism(cm, cert["inverse"])
            assert all(g.f1[f.f1[a]] == a for a in cm.G.arrows)
            assert all(g.f2[f.f2[c]] == c for c in cm.C.arrows)


def test_constant_maps_to_unit_square_section(z2z2):
    dg = build_double_groupoid(z2z2)
    sec = derivation_to_section(dg, constant_derivation(z2z2))
    for a in z2z2.G.arrows:
        assert sec.squares[a] == dg.eps1(a)


def test_round_trip_derivation_section(all_cms):
    for cm in all_cms.values():
        dg = build_double_groupoid(cm)
        for s in enumerate_free_derivations(cm):
            if not is_coadmissible(cm, s)[0]:
                with pytest.raises(DerivationError):
                    derivation_to_section(dg, s)
                continue
            sec = derivation_to_section(dg, s)
            assert check_linear_section(dg, sec) == []
            assert section_to_derivation(dg, sec) == s


def test_section_product_matches_derivation_product(all_cms):
    for cm in all_cms.values():
        dg = build_double_groupoid(cm)
        coad = [s for s in enumerate_free_derivations(cm) if is_coadmissible(cm, s)[0]]
        for s in coad:
            for t in coad:
                lhs = derivation_to_section(dg, derivation_mul(cm, s, t))
                rhs = section_mul(dg, derivation_to_section(dg, s),
                                  derivation_to_section(dg, t))
                assert lhs == rhs


def test_linear_sections_form_a_group(all_cms):
    for name, cm in with_larger_models(all_cms).items():
        dg = build_double_groupoid(cm)
        secs = enumerate_linear_sections(dg)
        unit = derivation_to_section(dg, constant_derivation(cm))
        assert unit in secs
        for s in secs:
            assert section_mul(dg, unit, s) == s
            assert section_mul(dg, s, unit) == s
            assert any(section_mul(dg, s, t) == unit
                       and section_mul(dg, t, s) == unit for t in secs), name
        for s in secs:
            for t in secs:
                assert section_mul(dg, s, t) in secs


def test_group_isomorphism_derivations_to_sections(all_cms):
    # the square-valued form is a bijective homomorphism onto all sections
    for name, cm in with_larger_models(all_cms).items():
        dg = build_double_groupoid(cm)
        coad = [s for s in enumerate_free_derivations(cm) if is_coadmissible(cm, s)[0]]
        secs = enumerate_linear_sections(dg)
        images = [derivation_to_section(dg, s) for s in coad]
        assert len(set(images)) == len(coad) == len(secs), name
        assert set(images) == set(secs), name


def test_linear_section_search_lets_bugs_propagate(z2z2, monkeypatch):
    """Only model errors mean "not composable"; a TypeError is a bug."""
    dg = build_double_groupoid(z2z2)

    def comp2(u, v):
        raise TypeError("comp2 broke")

    monkeypatch.setattr(dg, "comp2", comp2)
    with pytest.raises(TypeError, match="comp2 broke"):
        enumerate_linear_sections(dg)


def test_linear_section_search_pins_both_sides_to_sigma0(all_cms, monkeypatch):
    """The table search runs once per target section sigma0 with alpha
    sigma0 a bijection, and offers each arrow only squares whose left and
    right edges are sigma0 at its ends."""
    calls = []

    def spy(dg, arrows, candidates):
        calls.append(candidates)
        return square_tables(dg, arrows, candidates)

    monkeypatch.setattr(homotopy, "square_tables", spy)
    for name, cm in with_larger_models(all_cms).items():
        G = cm.G
        calls.clear()
        enumerate_linear_sections(build_double_groupoid(cm))
        sigmas = set()
        for candidates in calls:
            sigma0 = {}
            for a, squares in candidates.items():
                for sq in squares:
                    assert sigma0.setdefault(G.src(a), sq.left) == sq.left, name
                    assert sigma0.setdefault(G.tgt(a), sq.right) == sq.right, name
            assert set(sigma0) == set(G.objects), name
            assert len({G.src(e) for e in sigma0.values()}) == len(G.objects), name
            sigmas.add(frozenset(sigma0.items()))
        assert len(sigmas) == len(calls), name
    assert len(calls) == 6  # pair3z2: the 3! target sections that alpha maps bijectively
