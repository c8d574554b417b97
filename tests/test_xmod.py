import pytest

from holonomy2 import corpus
from holonomy2.xmod import (XModError, apply_action, check_crossed_module,
                            check_xmod_morphism, find_xmod_isomorphism)
from holonomy2.homotopy import enumerate_free_derivations, induced_endomorphism

from oracles import identity_xmod_morphism


def test_corpus_crossed_modules_valid(all_cms):
    for name, cm in all_cms.items():
        assert check_crossed_module(cm) == [], name


def test_broken_cm2_reports_intended_witness():
    bad = check_crossed_module(corpus.broken_cm2())
    assert any("CM2 fails at (c=c0, c1=c1)" in v for v in bad)


def test_broken_cm1_reports_intended_witness():
    bad = check_crossed_module(corpus.broken_cm1())
    assert any("CM1 fails at (c=c1, a=1)" in v for v in bad)


def test_broken_action_reports_functoriality_witness():
    bad = check_crossed_module(corpus.broken_action())
    assert any("functoriality fails: (1@x)^(xy+yx)" in v for v in bad)
    # the break is surgical: only functoriality versions appear
    assert not any("CM1" in v for v in bad)
    assert not any("CM2" in v for v in bad)


def test_apply_action_unit(z2z2):
    for c in z2z2.C.arrows:
        e = z2z2.G.unit(z2z2.C.tgt(c))
        assert apply_action(z2z2, c, e) == c


def test_apply_action_additive_and_functorial(all_cms):
    for cm in all_cms.values():
        C, G = cm.C, cm.G
        for c1 in C.arrows:
            for c2 in C.arrows:
                if not C.composable(c1, c2):
                    continue
                for a in G.arrows:
                    if C.tgt(c1) != G.src(a):
                        continue
                    assert (apply_action(cm, C.add(c1, c2), a)
                            == C.add(apply_action(cm, c1, a), apply_action(cm, c2, a)))
        for c in C.arrows:
            for a in G.arrows:
                if C.tgt(c) != G.src(a):
                    continue
                for b in G.arrows:
                    if not G.composable(a, b):
                        continue
                    assert (apply_action(cm, c, G.add(a, b))
                            == apply_action(cm, apply_action(cm, c, a), b))


def test_apply_action_feet_mismatch_error(pairz2):
    with pytest.raises(XModError, match="tgt.*src"):
        apply_action(pairz2, "0@x", "yx")


def test_delta_lands_in_vertex_groups(all_cms):
    for cm in all_cms.values():
        for c in cm.C.arrows:
            a = cm.delta[c]
            assert cm.G.src(a) == cm.G.tgt(a) == cm.C.src(c)


def test_delta_image_acts_by_conjugation(all_cms):
    for cm in all_cms.values():
        C = cm.C
        for c in C.arrows:
            for c1 in C.arrows:
                if C.tgt(c) != C.tgt(c1):
                    continue
                assert (apply_action(cm, c, cm.delta[c1])
                        == C.add(C.add(C.neg(c1), c), c1))


def test_identity_morphism_is_iso(z2z2):
    m = identity_xmod_morphism(z2z2)
    bad, is_iso = check_xmod_morphism(m, z2z2, z2z2)
    assert bad == [] and is_iso


def test_induced_endomorphism_is_valid_morphism(z2z2):
    for s in enumerate_free_derivations(z2z2):
        m = induced_endomorphism(z2z2, s)
        bad, _ = check_xmod_morphism(m, z2z2, z2z2)
        assert bad == []


def test_broken_equivariance_reported(pairz2):
    from holonomy2.xmod import XModMorphism
    # swap the base points but collapse one kernel transport
    m = XModMorphism({"x": "y", "y": "x"},
                     {"xx": "yy", "xy": "yx", "yx": "xy", "yy": "xx"},
                     {"0@x": "0@y", "1@x": "0@y", "0@y": "0@x", "1@y": "1@x"})
    bad, _ = check_xmod_morphism(m, pairz2, pairz2)
    assert any("f2(c^a) != f2(c)^{f1(a)}" in v for v in bad)
    assert not any(v.startswith("f1:") or v.startswith("f2:") for v in bad)


def test_find_isomorphism_between_relabelings(z2z2):
    assert find_xmod_isomorphism(z2z2, z2z2) is not None


def test_no_isomorphism_between_different_sizes(z2z2, z4):
    assert find_xmod_isomorphism(z2z2, z4) is None


