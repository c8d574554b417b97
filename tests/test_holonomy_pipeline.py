import ast
import os
import subprocess
import sys

import pytest

import holonomy2
from holonomy2 import corpus
from holonomy2.dgpd import build_double_groupoid
from holonomy2.groupoid import NormalSubgroupoid, check_groupoid, check_groupoid_morphism
from holonomy2.holonomy import (HolonomyError, build_germ_groupoid,
                                build_restricted_germs, build_unit_germs,
                                build_wg, check_chart_coherence,
                                constant_section, germ_at,
                                left_translation, local_section_inv,
                                min_sections_at, unit_germ)

from conftest import (discrete_item, holonomy_of, indiscrete_item,
                      sierpinski_pairz2_item, z4_coset_item, zn_on_itself)
from oracles import morphism_kernel


def brute_force_singleton_germs(dg, a):
    """Oracle: count valid single-arrow sections at an arrow directly."""
    G = dg.edge
    count = 0
    for sq in dg.with_bottom(a):
        from holonomy2.holonomy import section_from_squares
        if section_from_squares(dg, {a: sq}) is not None:
            count += 1
    return count


def test_germ_groupoid_discrete_z2z2_counts(z2z2):
    cm, w = discrete_item(z2z2)
    dg = build_double_groupoid(cm)
    J, _ = build_germ_groupoid(dg)
    assert check_groupoid(J) == []
    by_base = {}
    for g in J.arrows:
        by_base.setdefault(g.base, []).append(g)
    for a in dg.edge.arrows:
        assert len(by_base[a]) == brute_force_singleton_germs(dg, a)
    # every square with a given bottom is a germ value here
    assert len(J.arrows) == len(dg.squares)


def test_unit_germs_are_units(z2z2):
    cm, w = discrete_item(z2z2)
    dg = build_double_groupoid(cm)
    J, _ = build_germ_groupoid(dg)
    for a in dg.edge.arrows:
        assert J.unit(a) == unit_germ(dg, a)


def test_restricted_germs_wide_subgroupoid(z4):
    cm, w = discrete_item(z4)
    dg = build_double_groupoid(cm)
    J, _ = build_germ_groupoid(dg)
    wg = build_wg(dg, w)
    jr, seed, wit = build_restricted_germs(dg, wg)
    assert set(jr.arrows) <= set(J.arrows)
    assert check_groupoid(jr) == []
    for a in dg.edge.arrows:
        assert unit_germ(dg, a) in set(jr.arrows)
    # witnesses really witness their germs
    for g in jr.arrows:
        assert germ_at(dg, wit[g], g.base) == g


def test_final_map_is_morphism_on_germs(z2z2):
    for builder in (discrete_item, indiscrete_item):
        cm, w = builder(z2z2)
        dg = build_double_groupoid(cm)
        J, _ = build_germ_groupoid(dg)
        assert check_groupoid(J) == []
        for g in J.arrows:
            for h in J.arrows:
                if J.composable(g, h):
                    prod = J.add(g, h)
                    assert prod.value() == dg.comp1(g.value(), h.value())


def test_final_map_unit_value(z2z2):
    cm, w = discrete_item(z2z2)
    dg = build_double_groupoid(cm)
    for a in dg.edge.arrows:
        assert unit_germ(dg, a).value() == dg.eps1(a)


def test_final_map_surjective_discrete_full_window(z2z2):
    cm, w = discrete_item(z2z2)
    dg = build_double_groupoid(cm)
    wg = build_wg(dg, w)
    jr, seed, wit = build_restricted_germs(dg, wg)
    assert {g.value() for g in jr.arrows} == set(dg.squares)


@pytest.mark.parametrize("cm", [*corpus.corpus().values(), zn_on_itself(3)],
                         ids=[*corpus.corpus(), "z3"])
def test_kernel_germs_discrete_are_units(cm):
    """On a discrete edge-arrow space the kernel is the units (the lemma
    in ``build_unit_germs``)."""
    cm, w = discrete_item(cm)
    dg = build_double_groupoid(cm)
    wg = build_wg(dg, w)
    jr, seed, wit = build_restricted_germs(dg, wg)
    sub = build_unit_germs(dg, jr, seed)
    assert sub.arrows == frozenset(unit_germ(dg, a) for a in dg.edge.arrows)


def test_kernel_germs_contain_constant_everywhere(all_cms):
    for name in ("z2z2", "z4"):
        cm, w = discrete_item(all_cms[name])
        dg = build_double_groupoid(cm)
        wg = build_wg(dg, w)
        jr, seed, wit = build_restricted_germs(dg, wg)
        sub = build_unit_germs(dg, jr, seed)
        for a in dg.edge.arrows:
            assert unit_germ(dg, a) in sub.arrows


def test_kernel_germs_conjugation_closed_indiscrete(z2z2):
    cm, w = indiscrete_item(z2z2)
    dg = build_double_groupoid(cm)
    wg = build_wg(dg, w)
    jr, seed, wit = build_restricted_germs(dg, wg)
    sub = build_unit_germs(dg, jr, seed)
    assert sub.violations() == []
    for n in sub.arrows:
        for g in jr.arrows:
            if jr.src(g) == jr.src(n):
                conj = jr.add(jr.add(jr.neg(g), n), g)
                assert conj in sub.arrows


def test_holonomy_refuses_indiscrete_with_axiom_id(z2z2):
    cm, w = indiscrete_item(z2z2)
    with pytest.raises(HolonomyError, match="S4"):
        holonomy_of(cm, w)


def full_window_pipeline(cm_name, all_cms):
    cm, w = discrete_item(all_cms[cm_name])
    return holonomy_of(cm, w)


def test_pipeline_isomorphism_on_passing_items(all_cms):
    for name in ("z2z2", "z4"):
        hol = full_window_pipeline(name, all_cms)
        dg = hol.dg
        vert = dg.vertical_groupoid()
        assert check_groupoid(hol.quotient) == []
        assert check_groupoid_morphism(hol.psi, hol.quotient, vert) == []
        values = [hol.psi.arr_map[h] for h in hol.quotient.arrows]
        assert len(set(values)) == len(dg.squares) == len(hol.quotient.arrows), name
        rep = hol.report
        for key in ("psi_identity_on_objects", "psi_section_of_embed",
                    "embed_injective", "embed_image_open", "psi_preimage_open",
                    "psi_continuous_on_preimage", "psi_unit_on_objects"):
            assert rep[key], (name, key)


def test_pipeline_quotient_kernel_is_unit_subgroupoid(all_cms):
    for name in ("z2z2", "z4"):
        hol = full_window_pipeline(name, all_cms)
        ker = morphism_kernel(hol.projection, hol.germ_groupoid, hol.quotient)
        assert ker == hol.unit_sub.arrows, name


@pytest.mark.parametrize("item", [lambda: discrete_item(corpus.z2z2()),
                                  lambda: discrete_item(corpus.z4_interior()),
                                  lambda: discrete_item(zn_on_itself(3))],
                         ids=["z2z2", "z4", "z3"])
def test_unit_germs_are_loops(item):
    """A germ valued at eps1(a) runs from top eps1(a) = a to a, so every
    unit germ is a loop and the quotient by them keeps its objects."""
    hol = holonomy_of(*item())
    assert hol.report["axioms"]["ok"]
    assert all(g.source() == g.target() for g in hol.unit_sub.arrows)
    assert hol.quotient.objects == hol.germ_groupoid.objects



def test_quotient_binds_on_z4_cosets():
    """Z/4 on itself with G's arrows and the window topologized by the
    cosets of {0, 2}, where S4 fails: the kernel holds two unit-valued
    germs besides the four units, so 64 of the 72 classes hold two
    germs.  A quotient that ignored its kernel would keep 136 classes."""
    hol = holonomy_of(*z4_coset_item(), require_axioms=False)
    assert not hol.report["axioms"]["S4"]["ok"]
    assert (len(hol.germ_groupoid.arrows), len(hol.unit_sub.arrows)) == (136, 6)
    assert morphism_kernel(hol.projection, hol.germ_groupoid, hol.quotient) == hol.unit_sub.arrows
    sizes = [len(cls) for cls in hol.quotient.arrows]
    assert (len(sizes), sizes.count(2), sizes.count(1)) == (72, 64, 8)
    assert len(hol.charts) == 68 and check_chart_coherence(hol)["ok"]

def test_pipeline_objects_are_edge_arrows(all_cms):
    hol = full_window_pipeline("z2z2", all_cms)
    assert set(hol.quotient.objects) == set(hol.dg.edge.arrows)


def test_left_translation_constant_is_identity(z2z2):
    cm, w = discrete_item(z2z2)
    dg = build_double_groupoid(cm)
    ident = constant_section(dg, dg.edge.arrows)
    for sq in dg.squares:
        assert left_translation(dg, ident, sq) == sq


def test_left_translation_inverse(z2z2):
    cm, w = indiscrete_item(z2z2)
    dg = build_double_groupoid(cm)
    secs = []
    for a in dg.edge.arrows:
        secs.extend(min_sections_at(dg, a))
    for sec in secs:
        inv = local_section_inv(dg, sec)
        for sq in dg.squares:
            if sq.top not in sec.dom1:
                continue
            moved = left_translation(dg, sec, sq)
            if moved.top not in inv.dom1:
                continue
            assert left_translation(dg, inv, moved) == sq


def test_chart_coherence_discrete(all_cms):
    for name in ("z2z2", "z4"):
        hol = full_window_pipeline(name, all_cms)
        rep = check_chart_coherence(hol)
        assert rep["ok"], (name, rep["violations"][:3])
        # on axiom-passing items the transitions also carry opens to opens
        assert rep["opens_to_opens"], (name, rep["open_image_failures"][:3])


def test_chart_coherence_nondiscrete_items():
    cm, w = indiscrete_item(corpus.z2z2())
    hol = holonomy_of(cm, w, require_axioms=False)
    rep = check_chart_coherence(hol)
    assert rep["ok"], rep["violations"][:3]
    assert len(hol.charts) >= 2
    cm2, w2 = sierpinski_pairz2_item()
    hol2 = holonomy_of(cm2, w2, require_axioms=False)
    rep2 = check_chart_coherence(hol2)
    assert rep2["ok"], rep2["violations"][:3]


def test_chart_images_form_topology_with_open_embed(all_cms):
    hol = full_window_pipeline("z2z2", all_cms)
    embed_image = frozenset(hol.embed.values())
    assert hol.topology.is_open(embed_image)
    assert hol.topology.is_open(frozenset(hol.quotient.arrows))


def test_every_class_is_chart_covered(all_cms):
    for name in ("z2z2", "z4"):
        hol = full_window_pipeline(name, all_cms)
        covered = set()
        for chart in hol.charts:
            covered |= set(chart.mapping.values())
        assert covered == set(hol.quotient.arrows), name


def test_unit_germs_are_scanned_once_per_holonomy_groupoid(z2z2, monkeypatch):
    """``build_unit_germs`` and the quotient both read the kernel's
    verdict; it is computed once."""
    scans = []
    real = NormalSubgroupoid._scan

    def counted(self):
        scans.append(self)
        return real(self)

    monkeypatch.setattr(NormalSubgroupoid, "_scan", counted)
    hol = holonomy_of(*discrete_item(z2z2))
    assert scans == [hol.unit_sub]


def test_frontier_tool_runs_every_layer_on_z3():
    """``tests/frontier.py z3`` runs the layers in child processes and
    prints one row each, so a library rename cannot break it unseen."""
    src = os.path.dirname(os.path.dirname(holonomy2.__file__))
    proc = subprocess.run([sys.executable, os.path.join(os.path.dirname(__file__), "frontier.py"),
                           "z3"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    title, *lines = proc.stdout.splitlines()
    assert title == "z3 (81 squares)"
    rows = {line[2:30].rstrip(): line[31:] for line in lines}
    assert rows["J_r / kernel / classes"] == "81 / 3 / 81"
    assert rows["charts / chart squares"] == "81 / 2187"
    verdicts = ast.literal_eval(rows["verdicts"])
    assert verdicts and all(v is True for v in verdicts.values())
