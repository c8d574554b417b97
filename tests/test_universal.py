import os
import subprocess
import sys
import textwrap

import pytest

from holonomy2 import corpus
from holonomy2.fintop import FiniteTopSpace
from holonomy2.groupoid import GroupoidMorphism, check_groupoid_morphism
from holonomy2.holonomy import (HolonomyError, WStructure, full_wstructure,
                                identity_vertical_morphism, universal_morphism)

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


def test_uniqueness_search_is_not_bounded_by_the_recursion_limit():
    """The search goes one level per square: with 81 squares and a
    recursion limit of 60 it must still answer, without RecursionError."""
    here = os.path.dirname(os.path.abspath(__file__))
    script = textwrap.dedent("""
        import sys
        from conftest import discrete_item, holonomy_of, zn_on_itself
        from holonomy2.holonomy import identity_vertical_morphism, universal_morphism
        cm, w = discrete_item(zn_on_itself(3))
        hol = holonomy_of(cm, w)
        sys.setrecursionlimit(60)
        mp, rep = universal_morphism(cm, w, identity_vertical_morphism(hol.dg), hol)
        print(rep["unique"], rep["qualifying_morphisms"])
        """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(here, "..", "src"), here, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "1"]


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
