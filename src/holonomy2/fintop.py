"""Finite topological spaces, continuous partial maps, partial homeomorphisms.

A partial map is the dict from its domain, an open set of the source
space, to its values.

A finite topology is determined by its minimal open neighbourhoods: a set
is open exactly when it contains the minimal open of each of its points.
Every family of sets that contains the empty set and the whole space and
is closed under pairwise union and intersection is the family of *all*
such sets for the preorder it induces, so storing the minimal opens loses
nothing.  Continuity and openness checks then reduce to containments of
minimal opens, and derived spaces (products, pullbacks, subspaces) never
need their open-set lattice materialised.  A pullback point's minimal
open is the product of its coordinates' minimal opens cut down to the
admitted points, so it is assembled from per-coordinate buckets of
points rather than by comparing every pair of points.

Minimal opens are interned: a space holds one frozenset object for each
distinct minimal open, however many points share it, and every
constructor keeps that invariant.  Validation and the predicates
therefore do their set work once per distinct minimal open, not once
per point: on an indiscrete space of N points an openness test costs
O(N), not O(N^2).
"""

from __future__ import annotations

import itertools


DEFAULT_POINT_CAP = 64


class ModelError(ValueError):
    """A model that does not compose or does not satisfy its axioms: the
    base of every error the library raises on the data it is given."""


class TopologyError(ModelError):
    pass


class FiniteTopSpace:
    """A finite point set with an explicit topology.

    Canonical storage is the minimal-open table, with one frozenset
    object per distinct minimal open.  ``from_opens`` validates an
    extensional open family (empty set, whole set, pairwise closure) and
    reports the first violated pair; ``from_generators`` expands a
    subbase to its generated topology.
    """

    __slots__ = ("points", "_min")

    def __init__(self, points, min_opens):
        self.points = frozenset(points)
        self._min, distinct = {}, {}
        for p in self.points:
            m = frozenset(min_opens[p])
            self._min[p] = distinct.setdefault(m, m)
        # the first bad point in point order; containment in the point
        # set is tested once per distinct minimal open
        outside = {m for m in distinct if not m <= self.points}
        for p, m in self._min.items():
            if p not in m or m in outside:
                raise TopologyError("bad minimal open for %r" % (p,))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_opens(cls, points, opens, point_cap=DEFAULT_POINT_CAP):
        points = frozenset(points)
        if point_cap is not None and len(points) > point_cap:
            raise TopologyError(
                "space has %d points, cap is %d" % (len(points), point_cap))
        family = [frozenset(o) for o in opens]
        fam_set = set(family)
        for o in family:
            if not o <= points:
                raise TopologyError("open set %s not within point set" % (sorted(o),))
        if frozenset() not in fam_set:
            raise TopologyError("empty set missing from opens")
        if points not in fam_set:
            raise TopologyError("full point set missing from opens")
        ordered = sorted(fam_set, key=lambda o: (len(o), sorted(map(str, o))))
        for a, b in itertools.combinations(ordered, 2):
            if a | b not in fam_set:
                raise TopologyError(
                    "opens not closed under union: %s, %s" % (sorted(map(str, a)), sorted(map(str, b))))
            if a & b not in fam_set:
                raise TopologyError(
                    "opens not closed under intersection: %s, %s" % (sorted(map(str, a)), sorted(map(str, b))))
        mins = {}
        for p in points:
            m = points
            for o in fam_set:
                if p in o:
                    m = m & o
            mins[p] = m
        return cls(points, mins)

    @classmethod
    def from_generators(cls, points, generators, point_cap=DEFAULT_POINT_CAP):
        """Topology generated by an arbitrary subbase."""
        points = frozenset(points)
        if point_cap is not None and len(points) > point_cap:
            raise TopologyError(
                "space has %d points, cap is %d" % (len(points), point_cap))
        gens = [frozenset(g) & points for g in generators]
        mins = {}
        for p in points:
            m = points
            for g in gens:
                if p in g:
                    m = m & g
            mins[p] = m
        return cls(points, mins)

    @classmethod
    def discrete(cls, points):
        return cls(points, {p: frozenset([p]) for p in points})

    @classmethod
    def indiscrete(cls, points):
        pts = frozenset(points)
        return cls(pts, {p: pts for p in pts})

    # -- queries ------------------------------------------------------

    def minimal_open(self, p):
        if p not in self.points:
            raise TopologyError("unknown point %r" % (p,))
        return self._min[p]

    def is_open(self, subset):
        s = frozenset(subset)
        if not s <= self.points:
            raise TopologyError("subset %s not within point set" % (sorted(map(str, s)),))
        return all(m <= s for m in set(map(self._min.__getitem__, s)))

    def min_neighbourhood(self, subset):
        """Smallest open set containing ``subset``."""
        return frozenset().union(*{self.minimal_open(p) for p in subset})

    # -- derived spaces -----------------------------------------------

    def subspace(self, subset):
        s = frozenset(subset)
        if not s <= self.points:
            raise TopologyError("subspace points not within space")
        return FiniteTopSpace(s, {p: self._min[p] & s for p in s})

    def product(self, other):
        pts = frozenset(itertools.product(self.points, other.points))
        mins = {(p, q): frozenset(itertools.product(self._min[p], other._min[q]))
                for (p, q) in pts}
        return FiniteTopSpace(pts, mins)

    def __eq__(self, other):
        if not isinstance(other, FiniteTopSpace):
            return NotImplemented
        return self.points == other.points and self._min == other._min

    def __hash__(self):
        return hash((self.points, tuple(sorted(((str(k), tuple(sorted(map(str, v)))) for k, v in self._min.items())))))

    def __repr__(self):
        return "FiniteTopSpace(%d points)" % len(self.points)


def pullback_space(component_spaces, points, components):
    """Subspace of a product, without materialising the product.

    ``points`` are the admitted tuples-in-disguise, ``components(p)``
    returns the tuple of coordinates of ``p`` in the given spaces.  The
    minimal open of ``p`` is the intersection over coordinates of the
    points whose coordinate lies in that coordinate's minimal open;
    points with equal component minimal opens share one frozenset.
    """
    pts = frozenset(points)
    comp = {p: components(p) for p in pts}
    for p, c in comp.items():
        if len(c) != len(component_spaces):
            raise TopologyError("component arity mismatch for %r" % (p,))
    buckets = [{} for _ in component_spaces]
    for p, c in comp.items():
        for bucket, x in zip(buckets, c):
            bucket.setdefault(x, []).append(p)
    unions = [{} for _ in component_spaces]
    shared = {}
    mins = {}
    for p in pts:
        key = tuple(sp.minimal_open(x) for sp, x in zip(component_spaces, comp[p]))
        m = shared.get(key)
        if m is None:
            parts = []
            for bucket, cache, cmin in zip(buckets, unions, key):
                part = cache.get(cmin)
                if part is None:
                    part = cache[cmin] = frozenset(itertools.chain.from_iterable(
                        bucket.get(x, ()) for x in cmin))
                parts.append(part)
            parts.sort(key=len)
            m = shared[key] = parts[0].intersection(*parts[1:]) if parts else pts
        mins[p] = m
    return FiniteTopSpace(pts, mins)


def is_continuous(f, src, tgt):
    """Preimages of opens are open in the subspace topology of the domain.

    Over finite spaces this is equivalent to the pointwise condition
    f(min(p)) <= min(f(p)), which is what gets checked.  Minimal opens
    are interned, so each distinct minimal open is mapped once and each
    distinct (image, target minimal open) pair is compared once.
    """
    if not f.keys() <= src.points:
        raise TopologyError("domain not within source space")
    if not src.is_open(f):
        raise TopologyError("domain of partial map is not open")
    if not tgt.points.issuperset(f.values()):
        raise TopologyError("values leave the target space")
    smin, tmin = src._min, tgt._min
    images, compared = {}, set()
    for p, fp in f.items():
        m = smin[p]
        if len(m) == 1:
            # m == {p}, and f(p) lies in min(f(p))
            continue
        pair = (m, tmin[fp])
        if pair in compared:
            continue
        img = images.get(m)
        if img is None:
            # domain open, so min(p) stays inside it
            img = images[m] = frozenset(f[q] for q in m)
        if not img <= pair[1]:
            return False
        compared.add(pair)
    return True


def operation_continuity(spaces, triples, target):
    """Openness and continuity of a partial operation on pairs.

    ``triples`` yields (x, y, value) for every pair (x, y) of the
    operation's domain D, a subspace of the product of the two
    ``spaces``.  The pairs whose value lands in ``target`` form a set A,
    which must be open in D (first verdict), and the operation must be
    continuous from A into ``target`` (second verdict, None when A is not
    open).  The stream is read to its end before anything is decided, so
    an error raised while it yields is raised here.

    Lemma (pair form of the minimal opens).  Write M(p) for the minimal
    open of a point p; in a finite space a set is open exactly when it
    holds M(p) for each of its points p.  (1) In the product,
    M(x, y) = M(x) x M(y): the box is open, and every open holding (x, y)
    holds a box U x V of opens with x in U and y in V, so with M(x) <= U
    and M(y) <= V.  In D, M_D(x, y) = (M(x) x M(y)) & D.  (2) So A is open
    exactly when M_D(p) <= A for every p in A.  (3) Let A be open; then
    the operation f is continuous on A exactly when f(M_D(p)) <= M(f(p))
    for every p in A.  If f is continuous, f^-1(M(f(p))) is open in A,
    hence in D, and holds p, so it holds M_D(p).  Conversely, if U is
    open in the target and f(p) lies in U, then M(f(p)) <= U, so
    M_D(p) <= f^-1(U), which is thus a union of opens of D.

    Both verdicts are therefore read once per distinct (M(x), M(y)).
    Where both are singletons, M_D(p) = {p} and both conditions hold at
    p.  A pair lies in a larger M_D(q) only when its first point lies in
    a minimal open of more than one point, or its second point does;
    only those pairs' values are kept, so none are on discrete factors.
    """
    first, second = spaces
    tmin = target._min
    plain_first, plain_second = (
        space.points.difference(*(m for m in set(space._min.values()) if len(m) > 1))
        for space in spaces)
    below, values_at = {}, {}
    for x, y, value in triples:
        if x in plain_first and y in plain_second:
            continue
        mx = first._min.get(x) or first.minimal_open(x)
        my = second._min.get(y) or second.minimal_open(y)
        below.setdefault(x, {})[y] = value
        if len(mx) > 1 or len(my) > 1:
            values_at.setdefault((mx, my), set()).add(value)
    continuous = True
    for (mx, my), values in values_at.items():
        if not any(v in tmin for v in values):
            continue
        # the pairs' common minimal open must land whole in the target
        image = {v for x in mx for y, v in below.get(x, {}).items() if y in my}
        if not all(v in tmin for v in image):
            return False, None
        continuous = continuous and all(image <= tmin[v] for v in values)
    return True, continuous


def is_partial_homeomorphism(f, src, tgt):
    """Injective, open image, continuous both ways.  Returns (ok, reason)."""
    if not src.is_open(f):
        return False, "domain-not-open"
    image = frozenset(f.values())
    if not image <= tgt.points:
        return False, "values-outside-target"
    if len(image) != len(f):
        return False, "not-injective"
    if not tgt.is_open(image):
        return False, "image-not-open"
    if not is_continuous(f, src, tgt):
        return False, "not-continuous"
    if not is_continuous({v: k for k, v in f.items()}, tgt, src):
        return False, "inverse-not-continuous"
    return True, ""
