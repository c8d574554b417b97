"""Acceptance suite: one test per criterion, each printing a verdict line.

The standing corpus is the four crossed modules under discrete and
indiscrete topologies plus the Sierpinski-style pair variant.  Every
check is exhaustive at this scale; runtime bounds are asserted where
stated.
"""

import itertools
import time

from holonomy2 import corpus
from holonomy2.dgpd import Square, build_double_groupoid, check_double, crossed_module_of, square_boundary_ok
from holonomy2.fintop import FiniteTopSpace
from holonomy2.groupoid import check_groupoid, check_groupoid_morphism
from holonomy2.homotopy import (constant_derivation, derivation_mul,
                                derivation_to_section,
                                enumerate_free_derivations,
                                enumerate_linear_sections,
                                is_coadmissible,
                                section_mul)
from holonomy2.holonomy import (WStructure, build_wg,
                                check_chart_coherence, generation_equivalence,
                                germ_at,
                                holonomy_groupoid,
                                identity_vertical_morphism, local_section_inv,
                                local_section_mul, min_sections_at,
                                universal_morphism)
from holonomy2.xmod import check_crossed_module, check_xmod_morphism, find_xmod_isomorphism

from conftest import (discrete_item, holonomy_of, indiscrete_item,
                      sierpinski_pairz2_item, square_axioms)
from oracles import germs_equal_somewhere


def _verdict(number, label, ok):
    print("ACCEPT-%02d %s: %s" % (number, label, "pass" if ok else "FAIL"))
    assert ok, "criterion %d (%s) failed" % (number, label)


def topologized_corpus():
    items = []
    for name, cm in corpus.corpus().items():
        items.append((name + "-discrete",) + discrete_item(cm))
        items.append((name + "-indiscrete",) + indiscrete_item(cm))
    items.append(("pairz2-sierpinski",) + sierpinski_pairz2_item())
    return items


def test_criterion_01_axiom_suites():
    """Every corpus crossed module passes the defining axioms; the three
    seeded-broken variants fail with the intended witnesses.  < 1 s each."""
    ok = True
    for name, cm in corpus.corpus().items():
        t0 = time.monotonic()
        ok = ok and check_crossed_module(cm) == []
        ok = ok and (time.monotonic() - t0) < 1.0
    t0 = time.monotonic()
    bad = check_crossed_module(corpus.broken_cm2())
    ok = ok and any("CM2 fails at (c=c0, c1=c1)" in v for v in bad)
    bad = check_crossed_module(corpus.broken_cm1())
    ok = ok and any("CM1 fails at (c=c1, a=1)" in v for v in bad)
    bad = check_crossed_module(corpus.broken_action())
    ok = ok and any("functoriality fails: (1@x)^(xy+yx)" in v for v in bad)
    ok = ok and (time.monotonic() - t0) < 3.0
    _verdict(1, "axiom suites with seeded breakage", ok)


def test_criterion_02_double_groupoid_round_trip():
    """gamma(D(C)) isomorphic to C with an explicit re-verified witness;
    interchange and transport hold on all composable tuples.  < 5 s each."""
    ok = True
    for name, cm in corpus.corpus().items():
        t0 = time.monotonic()
        dg = build_double_groupoid(cm)
        back = crossed_module_of(dg)
        iso = find_xmod_isomorphism(back, cm)
        ok = ok and iso is not None
        if iso is not None:
            viols, is_iso = check_xmod_morphism(iso, back, cm)
            ok = ok and not viols and is_iso
        ok = ok and check_double(dg) == []
        ok = ok and (time.monotonic() - t0) < 5.0
    _verdict(2, "double-groupoid round trip", ok)


def test_criterion_03_counting_oracle():
    """|D(Z2Z2)| = 16 and the order-four window has 24 squares, matching
    independent brute-force enumeration."""
    z2 = corpus.z2z2()
    dg = build_double_groupoid(z2)
    brute = 0
    for w in z2.C.arrows:
        for d in z2.G.arrows:
            for b in z2.G.arrows:
                for c in z2.G.arrows:
                    for a in z2.G.arrows:
                        if square_boundary_ok(z2, Square(w, d, b, c, a)):
                            brute += 1
    ok = len(dg.squares) == 16 == brute

    z4, _ = discrete_item(corpus.z4_interior())
    dg4 = build_double_groupoid(z4)
    w = WStructure(["c0", "c1", "c3"], FiniteTopSpace.discrete(["c0", "c1", "c3"]))
    wg = build_wg(dg4, w)
    brute4 = 0
    for win in ("c0", "c1", "c3"):
        for d in z4.G.arrows:
            for b in z4.G.arrows:
                for c in z4.G.arrows:
                    for a in z4.G.arrows:
                        if square_boundary_ok(z4, Square(win, d, b, c, a)):
                            brute4 += 1
    ok = ok and len(wg.squares) == 24 == brute4
    _verdict(3, "square counting oracles", ok)


def test_criterion_04_invertibility_theorem():
    """Invertible iff edge map bijective iff kernel map bijective, on every
    free derivation of every corpus item; exactly 2 of 4 qualify on Z2Z2."""
    ok = True
    for name, cm in corpus.corpus().items():
        for s in enumerate_free_derivations(cm):
            invertible, cert = is_coadmissible(cm, s)
            ok = ok and cert["f1_bijective"] == cert["f2_bijective"] == invertible
            if invertible:
                t = cert["inverse"]
                c = constant_derivation(cm)
                ok = ok and derivation_mul(cm, s, t) == c == derivation_mul(cm, t, s)
    z2 = corpus.z2z2()
    ders = enumerate_free_derivations(z2)
    ok = ok and len(ders) == 4
    ok = ok and sum(1 for s in ders if is_coadmissible(z2, s)[0]) == 2
    _verdict(4, "invertibility theorem", ok)


def test_criterion_05_derivation_section_isomorphism():
    """The square-valued form is a group isomorphism from invertible
    derivations onto linear sections, re-verified on every corpus item."""
    ok = True
    for name, cm in corpus.corpus().items():
        dg = build_double_groupoid(cm)
        coad = [s for s in enumerate_free_derivations(cm) if is_coadmissible(cm, s)[0]]
        secs = enumerate_linear_sections(dg)
        images = [derivation_to_section(dg, s) for s in coad]
        ok = ok and len(set(images)) == len(coad) == len(secs)
        ok = ok and set(images) == set(secs)
        for s in coad:
            for t in coad:
                lhs = derivation_to_section(dg, derivation_mul(cm, s, t))
                rhs = section_mul(dg, derivation_to_section(dg, s),
                                  derivation_to_section(dg, t))
                ok = ok and lhs == rhs
    _verdict(5, "derivations isomorphic to sections", ok)


def test_criterion_06_inverse_semigroup_and_germs():
    """Inverse-semigroup laws over all minimal-domain sections of every
    topologized item; canonical germ equality agrees with the existential
    oracle on every comparable pair."""
    ok = True
    for name, cm, w in topologized_corpus():
        dg = build_double_groupoid(cm)
        secs = []
        for a in sorted(dg.edge.arrows):
            for s in min_sections_at(dg, a):
                if s not in secs:
                    secs.append(s)
        ok = ok and bool(secs)
        idems = []
        for x in secs:
            xi = local_section_inv(dg, x)
            ok = ok and local_section_mul(dg, local_section_mul(dg, x, xi), x) == x
            ok = ok and local_section_inv(dg, xi) == x
            e = local_section_mul(dg, x, xi)
            if e not in idems:
                idems.append(e)
        for e, f in itertools.combinations(idems, 2):
            ok = ok and local_section_mul(dg, e, f) == local_section_mul(dg, f, e)
        # germ-equivalence oracle, all comparable pairs
        by_arrow = {}
        for s in secs:
            for a in s.dom1:
                by_arrow.setdefault(a, []).append(s)
        pairs = checked = 0
        for a, group in sorted(by_arrow.items()):
            for s, t in itertools.combinations(group, 2):
                canonical = germ_at(dg, s, a) == germ_at(dg, t, a)
                existential = germs_equal_somewhere(dg, s, t, a)
                ok = ok and canonical == existential
                pairs += 1
                checked += 1 if canonical == existential else 0
        ok = ok and pairs == checked
    _verdict(6, "inverse semigroup and germ oracle", ok)


def test_criterion_07_holonomy_pipeline():
    """On every corpus item with the full window passing the axioms: the
    kernel germs are wide and normal, the quotient is well-defined, the
    evaluation is an isomorphism and the embedding properties hold. < 30 s."""
    ok = True
    passing = 0
    for name, cm, w in topologized_corpus():
        if set(w.arrows) != set(cm.C.arrows):
            continue
        t0 = time.monotonic()
        dg, wg, axioms = square_axioms(cm, w)
        if not axioms["ok"]:
            continue
        passing += 1
        hol = holonomy_groupoid(dg, wg, axioms)
        ok = ok and hol.unit_sub.violations() == []
        ok = ok and check_groupoid(hol.quotient) == []
        vert = dg.vertical_groupoid()
        ok = ok and check_groupoid_morphism(hol.psi, hol.quotient, vert) == []
        values = [hol.psi.arr_map[h] for h in hol.quotient.arrows]
        ok = ok and len(set(values)) == len(dg.squares) == len(hol.quotient.arrows)
        for key in ("psi_identity_on_objects", "psi_section_of_embed",
                    "embed_injective", "embed_image_open", "psi_preimage_open",
                    "psi_continuous_on_preimage", "psi_unit_on_objects"):
            ok = ok and hol.report[key]
        ok = ok and (time.monotonic() - t0) < 30.0
    ok = ok and passing >= 2
    _verdict(7, "holonomy pipeline on %d passing items" % passing, ok)


def test_criterion_08_chart_coherence():
    """Charts are injective and transitions equal left translations on all
    overlap points, on non-discrete corpus items."""
    ok = True
    nondiscrete = 0
    for name, cm, w in topologized_corpus():
        if "discrete" in name and "indiscrete" not in name:
            continue
        hol = holonomy_of(cm, w, require_axioms=False)
        if len(hol.charts) < 2:
            continue
        nondiscrete += 1
        rep = check_chart_coherence(hol)
        ok = ok and rep["ok"]
    ok = ok and nondiscrete >= 1
    _verdict(8, "chart coherence on %d non-discrete items" % nondiscrete, ok)


def test_criterion_09_universal_property():
    """For the identity instance over the full window: the constructed
    morphism satisfies both equations and is the unique qualifier. < 60 s."""
    t0 = time.monotonic()
    cm, w = discrete_item(corpus.z2z2())
    hol = holonomy_of(cm, w)
    mu = identity_vertical_morphism(hol.dg)
    mp, rep = universal_morphism(hol.wg, mu, hol)
    ok = rep["is_morphism"] and rep["psi_after"] and rep["embeds_preimage"]
    ok = ok and rep["qualifying_morphisms"] == 1 and rep["unique"]
    cm4, w4 = discrete_item(corpus.z4_interior())
    hol4 = holonomy_of(cm4, w4)
    mp4, rep4 = universal_morphism(hol4.wg, identity_vertical_morphism(hol4.dg),
                                   hol4)
    ok = ok and rep4["psi_after"] and rep4["unique"]
    ok = ok and (time.monotonic() - t0) < 60.0
    _verdict(9, "universal property", ok)


def test_criterion_10_generation_equivalence():
    """Window generates the kernel and is action-stable iff the window
    squares generate vertically; verified on every corpus pair including a
    non-generating counterexample."""
    ok = True
    pairs = 0
    for name, cm in corpus.corpus().items():
        windows = [set(cm.C.arrows), {cm.C.unit(x) for x in cm.C.objects}]
        if name == "z4":
            windows.append({"c0", "c1", "c3"})
            windows.append({"c0", "c2"})
        for arrows in windows:
            res = generation_equivalence(cm, arrows, build_double_groupoid(cm))
            ok = ok and res["agree"] and res["orbit_agree"]
            pairs += 1
    z4 = corpus.z4_interior()
    res = generation_equivalence(z4, {"c0", "c2"}, build_double_groupoid(z4))
    ok = ok and not res["kernel_side"] and not res["square_side"]
    # sharp form: vertical generation matches orbit-closure generation even
    # for a non-equivariant window whose orbit generates
    pairz2 = corpus.pairz2()
    tricky = generation_equivalence(pairz2, {"0@x", "0@y", "1@x"},
                                    build_double_groupoid(pairz2))
    ok = ok and tricky["orbit_agree"] and tricky["square_side"]
    ok = ok and not tricky["kernel_side"]
    _verdict(10, "generation equivalence on %d pairs" % pairs, ok)
