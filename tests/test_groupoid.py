import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy2 import corpus
from holonomy2.fintop import FiniteTopSpace
from holonomy2.groupoid import (Groupoid, GroupoidError, GroupoidMorphism,
                                NormalSubgroupoid, check_groupoid,
                                check_groupoid_morphism, generated_subgroupoid,
                                pair_rows, quotient)

from oracles import morphism_kernel


def test_z2_valid():
    g = corpus.cyclic_groupoid(2)
    assert check_groupoid(g) == []


def test_pair_groupoid_valid():
    g = corpus.pair_groupoid("xy")
    assert check_groupoid(g) == []
    assert len(g.arrows) == 4


def test_bad_composition_domain_reported():
    g = Groupoid(["x", "y"], ["a", "b"],
                 {"a": "x", "b": "y"}, {"a": "x", "b": "y"},
                 pair_rows("ab", {("a", "b"): "a", ("a", "a"): "a", ("b", "b"): "b"}),
                 {"a": "a", "b": "b"}, {"x": "a", "y": "b"})
    bad = check_groupoid(g)
    assert any(v.startswith("composition domain") for v in bad)


def test_missing_composition_reported():
    g = Groupoid(["x"], ["e", "a"], {"e": "x", "a": "x"}, {"e": "x", "a": "x"},
                 pair_rows("ea", {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a"}),
                 {"e": "e", "a": "a"}, {"x": "e"})
    bad = check_groupoid(g)
    assert any("composition missing" in v for v in bad)


def test_dangling_identifier_is_load_error():
    with pytest.raises(GroupoidError, match="dangling"):
        Groupoid(["x"], ["a"], {"a": "x"}, {"a": "x"}, pair_rows("a", {("a", "a"): "zzz"}),
                 {"a": "a"}, {"x": "a"})


def test_associativity_violation_reported():
    g = corpus.cyclic_groupoid(2)
    bent = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "a"}
    h = Groupoid(["x"], ["e", "a"], {"e": "x", "a": "x"}, {"e": "x", "a": "x"},
                 pair_rows("ea", bent), None, None)
    assert check_groupoid(g) == []
    assert check_groupoid(h)


def test_generated_subgroupoid_units_only():
    g = corpus.cyclic_groupoid(4)
    units = g.units()
    assert generated_subgroupoid(g, units) == units


def test_generated_subgroupoid_z4_from_generator():
    g = corpus.cyclic_groupoid(4)
    assert generated_subgroupoid(g, {"1"}) == set(g.arrows)


def test_generated_subgroupoid_pair_from_one_arrow():
    g = corpus.pair_groupoid("xy")
    assert generated_subgroupoid(g, {"xy"}) == set(g.arrows)


def test_generated_subgroupoid_idempotent_and_monotone():
    g = corpus.cyclic_groupoid(4)
    seeds = [set(), {"1"}, {"2"}, {"1", "2"}, {"3"}]
    for s in seeds:
        c = generated_subgroupoid(g, s)
        assert generated_subgroupoid(g, c) == c
        for t in seeds:
            if s <= t:
                assert c <= generated_subgroupoid(g, t)


def test_quotient_by_units_is_isomorphic():
    g = corpus.cyclic_groupoid(4)
    n = NormalSubgroupoid(g, g.units())
    q, proj = quotient(g, n)
    assert len(q.arrows) == len(g.arrows)
    assert check_groupoid(q) == []
    assert check_groupoid_morphism(proj, g, q) == []


def test_quotient_z4_by_02_is_z2():
    g = corpus.cyclic_groupoid(4)
    n = NormalSubgroupoid(g, {"0", "2"})
    q, proj = quotient(g, n)
    assert len(q.arrows) == 2
    assert check_groupoid(q) == []
    # kernel of the projection is exactly the subgroupoid
    assert morphism_kernel(proj, g, q) == n.arrows


def test_quotient_equivalence_matches_projection():
    g = corpus.cyclic_groupoid(4)
    n = NormalSubgroupoid(g, {"0", "2"})
    q, proj = quotient(g, n)
    for a in g.arrows:
        for b in g.arrows:
            related = any(
                g.tgt(n1) == g.src(a) and g.tgt(a) == g.src(n2)
                and g.add(g.add(n1, a), n2) == b
                for n1 in n.arrows for n2 in n.arrows)
            assert related == (proj.arr_map[a] == proj.arr_map[b])


def test_quotient_rejects_non_normal():
    g = corpus.pair_groupoid("xy")
    with pytest.raises(GroupoidError, match="normal"):
        quotient(g, NormalSubgroupoid(g, {"xx", "yy", "xy"}))


def test_quotient_rejects_non_loop_member():
    """Every arrow of the pair groupoid is a wide normal subgroupoid, but
    its classes would merge x and y: the quotient names a member that is
    not a loop."""
    g = corpus.pair_groupoid("xy")
    n = NormalSubgroupoid(g, g.arrows)
    assert n.violations() == []
    with pytest.raises(GroupoidError, match="not a subgroupoid of loops: member xy runs from x to y"):
        quotient(g, n)


def test_corpus_groupoid_laws():
    for g in (corpus.cyclic_groupoid(2), corpus.cyclic_groupoid(4),
              corpus.pair_groupoid("xy"), corpus.bundle_of_groups("xy", 2)):
        assert check_groupoid(g) == []
        for a in g.arrows:
            assert g.add(g.unit(g.src(a)), a) == a
            assert g.add(a, g.unit(g.tgt(a))) == a
        for a, b in g.composable_pairs():
            assert g.neg(g.add(a, b)) == g.add(g.neg(b), g.neg(a))


def test_topologized_groupoid_continuity():
    cm = corpus.with_topology(corpus.pairz2(), "sierpinski")
    assert check_groupoid(cm.G) == []
    disc = corpus.with_topology(corpus.z2z2(), "discrete")
    assert check_groupoid(disc.G) == []
    ind = corpus.with_topology(corpus.z4_interior(), "indiscrete")
    assert check_groupoid(ind.G) == []


def test_topologized_groupoid_bad_topology_reported():
    g = corpus.pair_groupoid("xy")
    # an asymmetric topology breaks negation continuity
    arr = FiniteTopSpace(
        g.arrows, {"xx": frozenset(["xx"]), "xy": frozenset(["xx", "xy"]),
                   "yx": frozenset(g.arrows), "yy": frozenset(g.arrows)})
    obj = FiniteTopSpace.from_opens("xy", [[], ["x"], ["x", "y"]])
    bad = check_groupoid(g.with_topology(arr, obj))
    assert any("continuity" in v for v in bad)


def pair_groupoid_missing(units, neg, arrow_space, object_space):
    """The pair groupoid on x, y with the given units and negation, under
    the given topologies."""
    g = corpus.pair_groupoid("xy")
    g = Groupoid(g.objects, g.arrows, g._src, g._tgt, g.tables()[1], neg, units)
    return g.with_topology(arrow_space, object_space)


def test_missing_unit_off_an_open_set_is_listed_not_raised():
    """The objects with units, {x}, are not open, since M(x) = {x, y}:
    the missing unit is listed, and the unit map is not tested."""
    g = corpus.pair_groupoid("xy")
    bad = pair_groupoid_missing({"x": "xx"}, g._neg, FiniteTopSpace.discrete(g.arrows),
                                FiniteTopSpace.from_opens("xy", [[], ["y"], ["x", "y"]]))
    assert check_groupoid(bad) == [
        "unit missing at object y", "left negative law fails at xy",
        "right negative law fails at yx", "right negative law fails at yy",
        "left negative law fails at yy"]


def test_missing_negation_off_an_open_set_is_listed_not_raised():
    """The arrows with negatives miss xx, which lies in M(xy): the missing
    negation is listed, and the negation is not tested for continuity."""
    g = corpus.pair_groupoid("xy")
    arr = FiniteTopSpace(g.arrows, {"xx": {"xx"}, "xy": {"xx", "xy"}, "yx": {"yx"}, "yy": {"yy"}})
    neg = {a: n for a, n in g._neg.items() if a != "xx"}
    bad = check_groupoid(pair_groupoid_missing(g._units, neg, arr, FiniteTopSpace.discrete("xy")))
    assert bad[0] == "negation missing for xx"
    assert "continuity: negation not continuous" not in bad


def test_morphism_checker_flags_breakage():
    g = corpus.cyclic_groupoid(2)
    m = GroupoidMorphism({"x": "x"}, {"0": "0", "1": "0"})
    assert check_groupoid_morphism(m, g, g) == []
    m2 = GroupoidMorphism({"x": "x"}, {"0": "1", "1": "0"})
    assert check_groupoid_morphism(m2, g, g)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.sampled_from(["0", "1", "2", "3"])))
def test_generated_subgroupoid_contains_seed_and_units(seed):
    g = corpus.cyclic_groupoid(4)
    out = generated_subgroupoid(g, seed)
    assert seed <= out and g.units() <= out


@pytest.mark.parametrize("search", ["gamma", "derivations", "linear-sections", "uniqueness"])
def test_table_searches_answer_at_one_recursion_limit(search):
    """Every table search runs on ``depth_first``'s explicit stack: the
    lowest recursion limit at which it answers on Z/n acting on itself
    is the same for n = 2, 3 and 4, although its depth grows with the
    arrows.  The universal property's uniqueness verdict, proved by
    generation with no search, answers at one limit too."""
    here = os.path.dirname(os.path.abspath(__file__))
    script = textwrap.dedent("""
        import bisect
        import sys
        from conftest import discrete_item, holonomy_of, zn_on_itself
        from holonomy2.dgpd import build_double_groupoid, crossed_module_of
        from holonomy2.holonomy import identity_vertical_morphism, universal_morphism
        from holonomy2.homotopy import enumerate_free_derivations, enumerate_linear_sections
        from holonomy2.xmod import find_xmod_isomorphism

        def search(kind, n):
            cm = zn_on_itself(n)
            if kind == "gamma":
                back = crossed_module_of(build_double_groupoid(cm))
                return lambda: find_xmod_isomorphism(back, cm) is not None
            if kind == "derivations":
                return lambda: len(enumerate_free_derivations(cm)) == n ** 2
            if kind == "linear-sections":
                dg = build_double_groupoid(cm)
                return lambda: len(enumerate_linear_sections(dg)) > 0
            cm, w = discrete_item(cm)
            hol = holonomy_of(cm, w)
            mu = identity_vertical_morphism(hol.dg)
            return lambda: universal_morphism(hol.wg, mu, hol)[1]["unique"]

        def answers(run, limit):
            try:
                sys.setrecursionlimit(limit)
                return run()
            except RecursionError:
                return False
            finally:
                sys.setrecursionlimit(1000)

        lowest = []
        for n in (2, 3, 4):
            run = search(sys.argv[1], n)
            # every call from the same frame depth
            limits = range(5, 200)
            lowest.append(limits[bisect.bisect(limits, False,
                                               key=lambda limit: answers(run, limit))])
        print(*lowest)
        """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(here, "..", "src"), here, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script, search], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lowest = done.stdout.split()
    assert len(lowest) == 3 and len(set(lowest)) == 1, lowest
