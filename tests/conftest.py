import functools

import pytest
from hypothesis import settings

from holonomy2 import corpus
from holonomy2.dgpd import build_double_groupoid
from holonomy2.fintop import FiniteTopSpace
from holonomy2.holonomy import (WStructure, build_wg, check_locally_lie_double,
                                full_wstructure, holonomy_groupoid)
from holonomy2.xmod import CrossedModule


# differential tests against slow oracles: no per-example deadline on a
# machine whose speed drifts, and a fixed example sequence per run
settings.register_profile("oracles", deadline=None, derandomize=True)


@pytest.fixture
def z2z2():
    return corpus.z2z2()


@pytest.fixture
def pair2():
    return corpus.pair2()


@pytest.fixture
def pairz2():
    return corpus.pairz2()


@pytest.fixture
def z4():
    return corpus.z4_interior()


@pytest.fixture
def all_cms():
    return corpus.corpus()


def zn_on_itself(n):
    """Z/n acting trivially on itself with identity boundary (n**4 squares)."""
    G, C = corpus.cyclic_groupoid(n), corpus.cyclic_groupoid(n, prefix="c")
    return CrossedModule(C, G, {"c%d" % i: str(i) for i in range(n)},
                         {(c, a): c for c in C.arrows for a in G.arrows})


@functools.cache
def corpus_groupoids():
    """The kernel and edge groupoids of every corpus crossed module and
    both square views of its double groupoid, by name."""
    out = {}
    for name, cm in corpus.corpus().items():
        dg = build_double_groupoid(cm)
        out.update({name + ".C": cm.C, name + ".G": cm.G,
                    name + ".vertical": dg.vertical_groupoid(),
                    name + ".horizontal": dg.horizontal_groupoid()})
    return out


def pair_bundle(points, n):
    """Pair groupoid on ``points`` with Z/n at every point and the transport
    action; ``pair_bundle("xy", 2)`` is ``corpus.pairz2()``."""
    G, C = corpus.pair_groupoid(points), corpus.bundle_of_groups(points, n)
    delta = {c: G.unit(C.src(c)) for c in C.arrows}
    action = {(c, a): c.split("@")[0] + "@" + G.tgt(a)
              for c in C.arrows for a in G.arrows if C.tgt(c) == G.src(a)}
    return CrossedModule(C, G, delta, action)


def discrete_item(cm):
    cm = corpus.with_topology(cm, "discrete")
    w = full_wstructure(cm, FiniteTopSpace.discrete(cm.C.arrows))
    return cm, w


def indiscrete_item(cm):
    cm = corpus.with_topology(cm, "indiscrete")
    w = full_wstructure(cm, FiniteTopSpace.indiscrete(cm.C.arrows))
    return cm, w


def sierpinski_pairz2_item():
    cm = corpus.with_topology(corpus.pairz2(), "sierpinski")
    w = WStructure(cm.C.arrows, corpus.sierpinski_bundle_topology(cm.C.arrows))
    return cm, w


def z4_coset_item():
    """Z/4 on itself with G's arrows and the full window topologized by
    the cosets of {0, 2}: 64 of its 256 squares have two through-sections."""
    cm = zn_on_itself(4)

    def cosets(fmt):
        return FiniteTopSpace.from_min_opens(
            [fmt % i for i in range(4)],
            {fmt % i: frozenset({fmt % (i % 2), fmt % (i % 2 + 2)}) for i in range(4)})

    G = cm.G.with_topology(cosets("%d"), FiniteTopSpace.discrete(cm.G.objects))
    cm = CrossedModule(cm.C, G, cm.delta, cm.action)
    return cm, WStructure(cm.C.arrows, cosets("c%d"))


def sierpinski_space():
    return FiniteTopSpace.from_opens("ab", [[], ["a"], ["a", "b"]])


def square_axioms(cm, w):
    """Double groupoid, window squares and their S1-S5 report, built once
    as the holonomy task builds them."""
    dg = build_double_groupoid(cm)
    wg = build_wg(dg, w)
    return dg, wg, check_locally_lie_double(dg, wg)


def holonomy_of(cm, w, require_axioms=True):
    return holonomy_groupoid(*square_axioms(cm, w), require_axioms=require_axioms)
