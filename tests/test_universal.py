import copy
import functools

import pytest

import oracles
from holonomy2 import corpus, holonomy
from holonomy2.fintop import FiniteTopSpace
from holonomy2.groupoid import Groupoid, GroupoidMorphism, check_groupoid_morphism, pair_rows
from holonomy2.holonomy import (HolonomyError, WStructure, build_wg, check_wstructure,
                                full_wstructure, identity_vertical_morphism,
                                universal_morphism)

from conftest import (altered_holonomy, discrete_item, holonomy_of, quotient_parts,
                      square_axioms, z4_coset_item, zn_on_itself)


@pytest.fixture(scope="module")
def z2z2_setup():
    cm, w = discrete_item(corpus.z2z2())
    hol = holonomy_of(cm, w)
    return cm, w, hol


def test_identity_instance_satisfies_theorem(z2z2_setup):
    cm, w, hol = z2z2_setup
    mu = identity_vertical_morphism(hol.dg)
    mp, rep = universal_morphism(hol.wg, mu, hol)
    assert rep["is_morphism"]
    assert rep["psi_after"]
    assert rep["embeds_preimage"]


def test_identity_instance_inverts_the_final_map(z2z2_setup):
    cm, w, hol = z2z2_setup
    mu = identity_vertical_morphism(hol.dg)
    mp, rep = universal_morphism(hol.wg, mu, hol)
    for sq in hol.dg.squares:
        assert hol.psi.arr_map[mp.arr_map[sq]] == sq
    # and covers every class: the inverse of the evaluation
    assert set(mp.arr_map.values()) == set(hol.quotient.arrows)


def test_uniqueness_exhaustive(z2z2_setup):
    cm, w, hol = z2z2_setup
    mu = identity_vertical_morphism(hol.dg)
    mp, rep = universal_morphism(hol.wg, mu, hol)
    assert rep["qualifying_morphisms"] == 1
    assert rep["unique"]


def test_psi_after_construction_on_z4():
    cm, w = discrete_item(corpus.z4_interior())
    hol = holonomy_of(cm, w)
    mu = identity_vertical_morphism(hol.dg)
    mp, rep = universal_morphism(hol.wg, mu, hol)
    assert rep["psi_after"] and rep["unique"]
    bad = check_groupoid_morphism(mp, hol.dg.vertical_groupoid(), hol.quotient)
    assert bad == []


def test_identity_instance_on_z3_is_unique():
    # Z/3 acting trivially on itself, discrete, full window: 81 squares
    cm, w = discrete_item(zn_on_itself(3))
    hol = holonomy_of(cm, w)
    mp, rep = universal_morphism(hol.wg, identity_vertical_morphism(hol.dg), hol)
    assert len(hol.dg.squares) == 81
    assert rep["unique"] and rep["qualifying_morphisms"] == 1
    assert rep["psi_after"] and rep["is_morphism"]


def test_universal_through_restricted_window():
    # the source factors its squares through the preimage of a proper window
    cm, _ = discrete_item(corpus.z4_interior())
    w = WStructure(["c0", "c1", "c3"],
                   FiniteTopSpace.discrete(["c0", "c1", "c3"]))
    hol = holonomy_of(cm, w)
    wa = full_wstructure(cm, FiniteTopSpace.discrete(cm.C.arrows))
    mu = identity_vertical_morphism(hol.dg)
    mp, rep = universal_morphism(build_wg(hol.dg, wa), mu, hol)
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
    dg = build_double_groupoid(cm)
    wg02 = build_wg(dg, w02)
    hol.wg = wg02
    mu = identity_vertical_morphism(dg)
    wa = full_wstructure(cm, FiniteTopSpace.discrete(cm.C.arrows))
    with pytest.raises(HolonomyError, match="hypothesis \\(ii\\).*generate"):
        universal_morphism(build_wg(dg, wa), mu, hol)


def test_hypothesis_failure_named_objects(z2z2_setup):
    cm, w, hol = z2z2_setup
    dg = hol.dg
    swapped = GroupoidMorphism({"0": "1", "1": "0"},
                               {sq: sq for sq in dg.squares})
    with pytest.raises(HolonomyError, match="hypothesis \\(i\\)"):
        universal_morphism(hol.wg, swapped, hol)


MODELS = {"z2z2": corpus.z2z2, "z4": corpus.z4_interior}


@functools.lru_cache(maxsize=None)
def full_window_holonomy(name):
    return holonomy_of(*discrete_item(MODELS[name]()))


# every proper window of z2z2 and Z/4 that passes check_wstructure: the
# subsets that hold the unit c0
@pytest.mark.parametrize("name,arrows", [
    pytest.param(name, arrows, id="-".join((name,) + arrows))
    for name, arrows in [("z2z2", ("c0",)), ("z4", ("c0",)), ("z4", ("c0", "c1")),
                         ("z4", ("c0", "c2")), ("z4", ("c0", "c3")),
                         ("z4", ("c0", "c1", "c2")), ("z4", ("c0", "c1", "c3")),
                         ("z4", ("c0", "c2", "c3"))]])
def test_source_needs_global_kernel_topology(name, arrows):
    """A source window that misses a kernel arrow misses a square, and
    the source's window squares are all that the hypothesis reads."""
    hol = full_window_holonomy(name)
    w = WStructure(arrows, FiniteTopSpace.discrete(arrows))
    assert check_wstructure(hol.dg.cm, w) == []
    wga = build_wg(hol.dg, w)
    assert len(wga.squares) < len(hol.dg.squares)
    with pytest.raises(HolonomyError, match="topology on all"):
        universal_morphism(wga, identity_vertical_morphism(hol.dg), hol)


def test_second_class_from_a_fourth_through_section_is_caught(monkeypatch):
    """A factor whose fourth through-section gives a second class: every
    through-section of every factor is read, so the closure reaches two
    classes, and the first square in order to hold two is the unit."""
    hol = full_window_holonomy("z4")
    dg = hol.dg
    p = dg.squares[5]
    q = next(t for t in dg.squares if t != p and (t.top, t.bottom) == (p.top, p.bottom))
    real = holonomy.sections_through

    def listed(wg, sq):
        return real(wg, p) * 3 + real(wg, q) if sq == p else real(wg, sq)

    assert len(real(hol.wg, p)) == 1
    monkeypatch.setattr(holonomy, "sections_through", listed)
    with pytest.raises(HolonomyError,
                       match=r"not independent of choices at \[c0:0\|0\|0\|0\]$"):
        universal_morphism(hol.wg, identity_vertical_morphism(dg), hol)


def test_corrupted_quotient_entry_is_named_at_a_square():
    """On Z/3, class(s) + unit := unit for the loop s = [c2:0|0|2|0]: the
    word s + unit now folds to the unit class, so s, and through s the
    unit square, get two classes.  A square is named, before the
    morphism check runs."""
    cm, w = discrete_item(zn_on_itself(3))
    hol = holonomy_of(cm, w)
    q = hol.quotient
    s = next(sq for sq in hol.dg.squares if str(sq) == "[c2:0|0|2|0]")
    unit = q.unit(s.top)
    table = dict(q.entries())
    table[(hol.embed[s], unit)] = unit
    bad = copy.copy(hol)
    bad.quotient = Groupoid(q.objects, q.arrows, q._src, q._tgt, pair_rows(q.arrows, table),
                            q._neg, q._units)
    with pytest.raises(HolonomyError,
                       match=r"not independent of choices at \[c0:0\|0\|0\|0\]$"):
        universal_morphism(hol.wg, identity_vertical_morphism(hol.dg), bad)


def test_morphism_check_catches_what_the_closure_misses(z2z2_setup):
    """On z2z2, unit + class(s) := class(t) for the loop s = [c0:0|1|1|0]
    and a parallel t: the closure composes only non-unit factors above a
    square, so it never reads the entry, and every square keeps one
    class.  mu' then fails to be a morphism at the one pair (unit, s),
    and only the morphism check, which the uniqueness proof rests on,
    catches it; the oracle's exhaustive reference raises the same error."""
    cm, w, hol = z2z2_setup
    squares = {str(sq): sq for sq in hol.dg.squares}
    s, t = squares["[c0:0|1|1|0]"], squares["[c1:0|0|1|0]"]
    arrows, src, tgt, table, neg, psi = parts = quotient_parts(hol)
    table[(hol.quotient.unit(s.top), hol.embed[s])] = hol.embed[t]
    bad = altered_holonomy(hol, *parts)
    mu = identity_vertical_morphism(hol.dg)
    message = (r"^constructed map not a morphism: "
               r"composition not preserved at \(\[c0:0\|0\|0\|0\],\[c0:0\|1\|1\|0\]\)$")
    with pytest.raises(HolonomyError, match=message):
        universal_morphism(hol.wg, mu, bad)
    with pytest.raises(HolonomyError, match=message):
        oracles.universal_morphism(cm, w, mu, bad, word_bound=None)


def test_target_embedding_missing_a_preimage_image_is_named():
    """A target built without its axioms (Z/4 by the cosets of {0, 2})
    embeds only part of its window: the first square of the preimage
    whose image it misses is named in a HolonomyError."""
    hol = holonomy_of(*z4_coset_item(), require_axioms=False)
    dg, wg, _ = square_axioms(*discrete_item(zn_on_itself(4)))
    with pytest.raises(HolonomyError,
                       match=r"embedding misses \[c0:0\|0\|1\|1\], the image of \[c0:0\|0\|1\|1\]$"):
        universal_morphism(wg, identity_vertical_morphism(dg), hol)
