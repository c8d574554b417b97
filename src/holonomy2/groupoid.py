"""Finite groupoids in additive notation, morphisms, normal subgroupoids, quotients.

Composition is written left to right: ``a + b`` is defined exactly when
``tgt(a) == src(b)``.  A groupoid may carry a topology on its arrow and
object sets, in which case the structure maps are required continuous;
an untopologized groupoid behaves as discrete.
"""

from __future__ import annotations

import copy
from operator import itemgetter

from .fintop import FiniteTopSpace, ModelError, is_continuous, operation_continuity


class GroupoidError(ModelError):
    pass


def _skey(v):
    """Deterministic sort key, stable across hash randomisation."""
    if isinstance(v, frozenset):
        return "{" + ",".join(sorted(_skey(x) for x in v)) + "}"
    if isinstance(v, tuple):
        return "(" + ",".join(_skey(x) for x in v) + ")"
    return str(v)


class Groupoid:
    """Finite object/arrow tables with src, tgt, partial add, neg and units.

    The composition is given and stored as rows over the arrows in
    ``_skey`` order: ``rows[i][j]`` is the position of a_i + a_j, None
    where there is no entry.  The builders fill rows from the positions
    they find, and ``pair_rows`` turns a pair table into rows.  Entries
    on pairs that do not compose are kept, for ``check_groupoid`` to
    report.  ``tables()`` hands the rows to readers that work on
    positions and ``entries()`` lists them as arrow pairs.
    """

    def __init__(self, objects, arrows, src, tgt, rows, neg=None, units=None):
        self.objects = tuple(sorted(set(objects), key=_skey))
        self.arrows = tuple(sorted(set(arrows), key=_skey))
        oset = set(self.objects)
        self._src = dict(src)
        self._tgt = dict(tgt)
        for a in self.arrows:
            if a not in self._src or a not in self._tgt:
                raise GroupoidError("arrow %s missing src/tgt" % (a,))
            if self._src[a] not in oset or self._tgt[a] not in oset:
                raise GroupoidError("arrow %s has dangling endpoint" % (a,))
        self._pos = pos = {a: i for i, a in enumerate(self.arrows)}
        self._rows = list(rows)
        self._by_src = {}
        for i, a in enumerate(self.arrows):
            self._by_src.setdefault(self._src[a], []).append(i)
        self._units = dict(units) if units is not None else self._derive_units()
        self._neg = dict(neg) if neg is not None else self._derive_neg()
        for a, b in self._neg.items():
            if a not in pos or b not in pos:
                raise GroupoidError("negation entry %s -> %s has dangling identifiers" % (a, b))
        for x, e in self._units.items():
            if x not in oset or e not in pos:
                raise GroupoidError("unit entry %s -> %s has dangling identifiers" % (x, e))
        self._negs = [pos[self._neg[a]] if a in self._neg else None for a in self.arrows]
        self.topology = self._violations = None
        self._discrete_arrows = self._discrete_objects = None

    # -- derivation of missing structure (for lenient loading) ---------

    def _derive_units(self):
        units = {}
        arrows, rows = self.arrows, self._rows
        for x in self.objects:
            out_of = [j for j, a in enumerate(arrows) if self._src[a] == x]
            into = [j for j, a in enumerate(arrows) if self._tgt[a] == x]
            cands = [arrows[i] for i in out_of
                     if self._tgt[arrows[i]] == x and rows[i][i] == i
                     and all(rows[i][j] in (None, j) for j in out_of)
                     and all(rows[j][i] in (None, j) for j in into)]
            if len(cands) == 1:
                units[x] = cands[0]
        return units

    def _derive_neg(self):
        neg = {}
        arrows, rows = self.arrows, self._rows
        for i, a in enumerate(arrows):
            x, y = self._src[a], self._tgt[a]
            ex, ey = self._pos.get(self._units.get(x)), self._pos.get(self._units.get(y))
            cands = [b for j, b in enumerate(arrows)
                     if self._src[b] == y and self._tgt[b] == x
                     and ex is not None and rows[i][j] == ex
                     and ey is not None and rows[j][i] == ey]
            if len(cands) == 1:
                neg[a] = cands[0]
        return neg

    # -- accessors ------------------------------------------------------

    def src(self, a):
        return self._src[a]

    def tgt(self, a):
        return self._tgt[a]

    def composable(self, a, b):
        return self._tgt[a] == self._src[b]

    def add(self, a, b):
        try:
            k = self._rows[self._pos[a]][self._pos[b]]
        except KeyError:
            k = None
        if k is None:
            raise GroupoidError(
                "composition %s + %s undefined (tgt=%s, src=%s)"
                % (a, b, self._tgt.get(a), self._src.get(b)))
        return self.arrows[k]

    def neg(self, a):
        try:
            return self._neg[a]
        except KeyError:
            raise GroupoidError("negation of %s unknown" % (a,)) from None

    def unit(self, x):
        try:
            return self._units[x]
        except KeyError:
            raise GroupoidError("unit at object %s unknown" % (x,)) from None

    def is_unit(self, a):
        return self._units.get(self._src[a]) == a

    def units(self):
        return frozenset(self._units.values())

    def beta_fiber(self, x):
        """Arrows whose target is x."""
        return tuple(a for a in self.arrows if self._tgt[a] == x)

    def tables(self):
        """The groupoid's own tables, not copies: ``(pos, rows, neg,
        by_src)``.  ``pos`` maps each arrow to its position, ``neg[i]`` is
        the position of -a_i (None where ``neg`` raises) and ``by_src``
        maps an object to the positions of the arrows out of it."""
        return self._pos, self._rows, self._negs, self._by_src

    def entries(self):
        """Every entry of the table as ``((a, b), a + b)``, in arrow order
        of a, then of b; entries on pairs that do not compose included."""
        arrows = self.arrows
        return (((a, b), arrows[k]) for a, row in zip(arrows, self._rows)
                for b, k in zip(arrows, row) if k is not None)

    def violations(self):
        """``check_groupoid(self)``, run once: every reader of this
        groupoid shares one verdict."""
        if self._violations is None:
            self._violations = tuple(check_groupoid(self))
        return self._violations

    def arrow_space(self):
        if self.topology is not None:
            return self.topology[0]
        if self._discrete_arrows is None:
            self._discrete_arrows = FiniteTopSpace.discrete(self.arrows)
        return self._discrete_arrows

    def object_space(self):
        if self.topology is not None:
            return self.topology[1]
        if self._discrete_objects is None:
            self._discrete_objects = FiniteTopSpace.discrete(self.objects)
        return self._discrete_objects

    def with_topology(self, arrow_space, object_space):
        """This groupoid under the given topology, sharing its tables."""
        if arrow_space.points != set(self.arrows) or object_space.points != set(self.objects):
            raise GroupoidError("topology points do not match arrows/objects")
        g = copy.copy(self)
        g.topology, g._violations = (arrow_space, object_space), None
        return g

    def composable_pairs(self):
        """Every (a, b) with tgt(a) == src(b), in arrow order of a, then of b."""
        arrows, by_src = self.arrows, self._by_src
        for a in arrows:
            for j in by_src.get(self._tgt[a], ()):
                yield a, arrows[j]

    def __repr__(self):
        return "Groupoid(%d objects, %d arrows)" % (len(self.objects), len(self.arrows))


def pair_rows(arrows, table):
    """The rows of the pair table ``{(a, b): a + b}`` over ``arrows`` in
    ``_skey`` order, as the ``Groupoid`` constructor takes them.  They
    are made when the constructor reads them, after it has checked the
    arrows' ends, and the first entry in table order that names an
    unknown arrow is refused."""
    pos = {a: i for i, a in enumerate(sorted(set(arrows), key=_skey))}
    rows = [[None] * len(pos) for _ in pos]
    for (a, b), c in table.items():
        try:
            rows[pos[a]][pos[b]] = pos[c]
        except KeyError:
            raise GroupoidError("composition entry %s+%s=%s has dangling identifiers"
                                % (a, b, c)) from None
    yield from rows


def check_groupoid(g):
    """Every violated axiom instance; empty list means valid.

    Includes continuity results for the structure maps when the groupoid
    is topologized.
    """
    out = []
    arrows, src, tgt = g.arrows, g._src, g._tgt
    # one pass over the composable pairs, on the groupoid's rows: the
    # entries there, whether each composite runs from the start of its
    # first factor to the end of its second, and the composites missing
    # there
    pos, rows, neg, by_src = g.tables()
    starts, ends = [src[a] for a in arrows], [tgt[a] for a in arrows]
    ends_out_of = {x: [ends[j] for j in bucket] for x, bucket in by_src.items()}
    entries, endpoints_ok, missing = 0, True, []
    for i, a in enumerate(arrows):
        bucket = by_src.get(ends[i], ())
        composites = list(map(rows[i].__getitem__, bucket))
        want_ends = ends_out_of.get(ends[i], [])
        if None in composites:
            missing.extend("composition missing: %s+%s (tgt=src=%s)" % (a, arrows[j], ends[i])
                           for j, k in zip(bucket, composites) if k is None)
            want_ends = [ends[j] for j, k in zip(bucket, composites) if k is not None]
            composites = [k for k in composites if k is not None]
        entries += len(composites)
        endpoints_ok = (endpoints_ok
                        and list(map(ends.__getitem__, composites)) == want_ends
                        and list(map(starts.__getitem__, composites)).count(starts[i])
                        == len(composites))
    if entries != sum(len(row) - row.count(None) for row in rows) or not endpoints_ok:
        # entries off the composable pairs or with wrong endpoints, in
        # arrow order of the pair
        for (i, a), row in zip(enumerate(arrows), rows):
            for j, (b, k) in enumerate(zip(arrows, row)):
                if k is not None and ends[i] != starts[j]:
                    out.append("composition domain: %s+%s defined but tgt(%s)=%s != src(%s)=%s"
                               % (a, b, a, ends[i], b, starts[j]))
                elif k is not None and (starts[k] != starts[i] or ends[k] != ends[j]):
                    out.append("composition endpoints: %s+%s=%s has wrong src/tgt"
                               % (a, b, arrows[k]))
    out.extend(missing)
    for x in g.objects:
        if x not in g._units:
            out.append("unit missing at object %s" % (x,))
            continue
        e = g._units[x]
        if g.src(e) != x or g.tgt(e) != x:
            out.append("unit endpoints: unit(%s)=%s is not a loop at %s" % (x, e, x))
    unit_at = {x: pos[e] for x, e in g._units.items()}
    for i, a in enumerate(arrows):
        ex, ey = unit_at.get(starts[i]), unit_at.get(ends[i])
        if ex is not None and rows[ex][i] not in (None, i):
            out.append("left unit law fails at %s" % (a,))
        if ey is not None and rows[i][ey] not in (None, i):
            out.append("right unit law fails at %s" % (a,))
        n = neg[i]
        if n is None:
            out.append("negation missing for %s" % (a,))
        elif starts[n] != ends[i] or ends[n] != starts[i]:
            out.append("negation endpoints wrong for %s" % (a,))
        else:
            if rows[i][n] != ex:
                out.append("right negative law fails at %s" % (a,))
            if rows[n][i] != ey:
                out.append("left negative law fails at %s" % (a,))
    # associativity: proved on generators, or scanned for its witnesses
    if out or not _associative_on_generators(g):
        out.extend(_associativity_failures(g))
    if g.topology is not None:
        out.extend(_continuity_report(g))
    return out


def spanning_generators(objects, out, add, neg, unit):
    """Arrows of a finite groupoid of which every arrow is a composite, a
    word in them, as a list.

    ``objects`` lists the objects, ``out(x)`` the (arrow, target) pairs
    out of x, and ``add``, ``neg`` and ``unit`` are the groupoid's
    operations.  Each component is taken at its first object r; it
    gives the arrows e_y of a breadth-first spanning tree from r with
    their negatives, and greedy generators of the vertex group at r: a
    loop joins when it is not yet a word in the earlier ones, the words
    being closed by right multiplication.  A component that gives
    nothing else, one object with only its unit, gives its unit.

    Every arrow a: x -> y is then a word in the set.  Let t_x be the tree
    path from r to x, a word in the e's; -t_x is a word in the -e's.
    Then a = -t_x + g + t_y, where g = t_x + a - t_y is a loop at r and
    so a word in the vertex group's generators: the group is finite, so
    its words are closed under negation too, and hold the unit at r
    once there is a generator.  The unit at x is -t_x + t_x.
    """
    seen, gens = set(), []
    for r in objects:
        if r in seen:
            continue
        seen.add(r)
        first, e = len(gens), unit(r)
        queue, loops = [r], []
        for x in queue:
            for a, y in out(x):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
                    gens += (a, neg(a))
                elif x == r == y:
                    loops.append(a)
        group, vertex_gens = {e}, []
        for g in loops:
            if g in group:
                continue
            vertex_gens.append(g)
            words = list(group)
            for h in words:
                for s in vertex_gens:
                    p = add(h, s)
                    if p not in group:
                        group.add(p)
                        words.append(p)
        gens += vertex_gens
        if len(gens) == first:
            gens.append(e)
    return gens


def _associative_on_generators(g):
    """Light's associativity test (Clifford & Preston, *The Algebraic
    Theory of Semigroups* I, 1961, section 1.2), for a table in which
    every composite is present, with the right endpoints, and the unit
    and negation laws hold.

    Call b good when (a+b)+c = a+(b+c) for every a ending where b starts
    and every c starting where b ends.  Good arrows are closed under +:
    for good b, b' and any such a and c,

        (a+(b+b'))+c = ((a+b)+b')+c = (a+b)+(b'+c)
                     = a+(b+(b'+c)) = a+((b+b')+c),

    using b, b', b and b' in turn; the endpoint laws make every term
    defined.  Units are good by the unit laws, so they are not tested.
    Let every other arrow of ``spanning_generators`` be good; then every
    arrow is.  The table is not yet known to be associative, so this
    uses only the laws above.  Loops at a root r are sums of the vertex
    generators, and so good.  Let e: y' -> y be a tree edge.  Since -e
    is good, c = (c + -e) + e for every c ending at y: an arrow r -> y
    is good when the arrow r -> y' before it is, so by induction along
    the tree every arrow out of r is good.  Since e is good,
    c = -e + (e + c) for every c starting at y: an arrow out of y is
    good when the arrows out of y' are, so by induction every arrow is.
    False when a tested b is not good; the caller then scans for the
    failing triples.
    """
    arrows, src, tgt = g.arrows, g._src, g._tgt
    pos, rows, _, by_src = g.tables()
    ends = [tgt[a] for a in arrows]
    into = {}
    for i, a in enumerate(arrows):
        into.setdefault(tgt[a], []).append(i)
    units = {pos[e] for e in g._units.values()}
    for b in _arrow_generators(g):
        if b in units:
            continue
        # (a+b)+c against a+(b+c), for every c at once
        cs = by_src[ends[b]]
        at_c, at_bc = itemgetter(*cs), itemgetter(*map(rows[b].__getitem__, cs))
        for i in into[src[arrows[b]]]:
            a_row = rows[i]
            if at_c(rows[a_row[b]]) != at_bc(a_row):
                return False
    return True


def _arrow_generators(g):
    """``spanning_generators`` of a groupoid, as arrow positions."""
    pos, rows, neg, by_src = g.tables()
    ends = [g._tgt[a] for a in g.arrows]
    return spanning_generators(
        g.objects, lambda x: [(j, ends[j]) for j in by_src.get(x, ())],
        lambda i, j: rows[i][j], neg.__getitem__, lambda x: pos[g._units[x]])


def _associativity_failures(g):
    """Every composable triple where (a+b)+c and a+(b+c) differ, in arrow
    order, scanned over the position rows."""
    out = []
    arrows, tgt = g.arrows, g._tgt
    _, rows, _, by_src = g.tables()
    for i, a in enumerate(arrows):
        a_row = rows[i]
        for j in by_src.get(tgt[a], ()):
            ab = a_row[j]
            if ab is None:
                continue
            ab_row, b_row = rows[ab], rows[j]
            for k in by_src.get(tgt[arrows[j]], ()):
                bc = b_row[k]
                if bc is not None and ab_row[k] != a_row[bc]:
                    out.append("associativity fails at (%s,%s,%s)" % (a, arrows[j], arrows[k]))
    return out


def _continuity_report(g):
    """The continuity verdicts of a topologized groupoid's structure maps.
    A unit map or negation defined on a set that is not open is not
    tested: ``check_groupoid`` has listed its missing entries."""
    out = []
    arr, obj = g.topology
    if not is_continuous({a: g.src(a) for a in g.arrows}, arr, obj):
        out.append("continuity: source map not continuous")
    if not is_continuous({a: g.tgt(a) for a in g.arrows}, arr, obj):
        out.append("continuity: target map not continuous")
    eps = {x: g.unit(x) for x in g.objects if x in g._units}
    if obj.is_open(eps) and not is_continuous(eps, obj, arr):
        out.append("continuity: unit map not continuous")
    neg = {a: g._neg[a] for a in g.arrows if a in g._neg}
    if arr.is_open(neg) and not is_continuous(neg, arr, arr):
        out.append("continuity: negation not continuous")
    # difference map on the beta-fibred pairs, (a,b) |-> a - b, and the
    # composition, each on its pairs as a subspace of the square of the
    # arrow space; every value is an arrow, so only continuity can fail
    if all(a in g._neg for a in g.arrows) and any(g.entries()):
        try:
            if not operation_continuity([arr, arr], difference_triples(g, g.arrows), arr)[1]:
                out.append("continuity: difference map not continuous")
        except GroupoidError:
            out.append("continuity: difference map not totally defined")
        try:
            if not operation_continuity([arr, arr], composite_triples(g, g.arrows), arr)[1]:
                out.append("continuity: composition not continuous")
        except GroupoidError:
            out.append("continuity: composition not totally defined")
    return out


def difference_triples(g, keys):
    """(u, v, u - v) for every pair of ``keys`` with a common target, in
    order of u, then of v, as ``keys`` lists them.  The difference is
    read from ``g``'s rows; where the rows hold no -v or no u + (-v),
    ``g.neg`` or ``g.add`` runs, so every error is its own."""
    pos, rows, neg, _ = g.tables()
    arrows, tgt = g.arrows, g._tgt
    by_tgt = {}
    for v in keys:
        by_tgt.setdefault(tgt[v], []).append((v, neg[pos[v]]))
    for u in keys:
        row = rows[pos[u]]
        for v, n in by_tgt[tgt[u]]:
            k = None if n is None else row[n]
            yield u, v, g.add(u, g.neg(v)) if k is None else arrows[k]


def composite_triples(g, keys):
    """(u, v, u + v) for every composable pair of ``keys``, in order of u,
    then of v, as ``keys`` lists them.  The composite is read from
    ``g``'s rows; where they hold none, ``g.add`` runs, so every error is
    its own."""
    pos, rows = g.tables()[:2]
    arrows, src, tgt = g.arrows, g._src, g._tgt
    by_src = {}
    for v in keys:
        by_src.setdefault(src[v], []).append((v, pos[v]))
    for u in keys:
        row = rows[pos[u]]
        for v, j in by_src.get(tgt[u], ()):
            k = row[j]
            yield u, v, g.add(u, v) if k is None else arrows[k]


class GroupoidMorphism:
    """Object map plus arrow map."""

    def __init__(self, obj_map, arr_map):
        self.obj_map = dict(obj_map)
        self.arr_map = dict(arr_map)

    def __repr__(self):
        return "GroupoidMorphism(%d objects, %d arrows)" % (len(self.obj_map), len(self.arr_map))


def check_groupoid_morphism(m, src, tgt):
    """Violations of src/tgt/add/unit preservation.  Composites are read
    from both groupoids' rows; where either has no entry, ``add`` runs
    and its error is the witness."""
    out = []
    for x in src.objects:
        if x not in m.obj_map:
            out.append("object %s unmapped" % (x,))
    for a in src.arrows:
        if a not in m.arr_map:
            out.append("arrow %s unmapped" % (a,))
    if out:
        return out
    for a in src.arrows:
        fa = m.arr_map[a]
        if tgt.src(fa) != m.obj_map[src.src(a)]:
            out.append("source not preserved at %s" % (a,))
        if tgt.tgt(fa) != m.obj_map[src.tgt(a)]:
            out.append("target not preserved at %s" % (a,))
    # the image of every arrow is an arrow of tgt: its ends were read above
    (_, rows, _, by_src), (tpos, trows) = src.tables(), tgt.tables()[:2]
    image = [tpos[m.arr_map[a]] for a in src.arrows]
    for i, a in enumerate(src.arrows):
        for j in by_src.get(src.tgt(a), ()):
            b, k, fk = src.arrows[j], rows[i][j], trows[image[i]][image[j]]
            if k is None or fk is None:
                try:
                    src.add(a, b)
                    tgt.add(m.arr_map[a], m.arr_map[b])
                except GroupoidError as e:
                    out.append("composition not preserved at (%s,%s): %s" % (a, b, e))
            elif image[k] != fk:
                out.append("composition not preserved at (%s,%s)" % (a, b))
    for x in src.objects:
        if m.arr_map[src.unit(x)] != tgt.unit(m.obj_map[x]):
            out.append("unit not preserved at %s" % (x,))
    return out


def generated_subgroupoid(g, seed):
    """Least arrow subset containing the seed and all units, closed under + and -."""
    arrows, by_src = g.arrows, g.tables()[3]
    closure = set(g.units()) | set(seed)
    frontier = True
    while frontier:
        frontier = False
        for a in list(closure):
            n = g.neg(a)
            if n not in closure:
                closure.add(n)
                frontier = True
        for a in list(closure):
            for j in by_src.get(g.tgt(a), ()):
                b = arrows[j]
                if b in closure:
                    c = g.add(a, b)
                    if c not in closure:
                        closure.add(c)
                        frontier = True
    return frozenset(closure)


def triples_by_last(g, keys):
    """The composable triples (u, v, u + v) of ``g`` whose three members
    are all among ``keys``, as position triples into ``keys``, bucketed
    by their largest position: a table search filling ``keys`` in order
    checks bucket i when it places position i.  Each u walks the
    by-source bucket of its target, so a bucket lists its triples in
    order of u, then of v in arrow order."""
    pos = {k: i for i, k in enumerate(keys)}
    arrows, tgt, by_src = g.arrows, g._tgt, g.tables()[3]
    out = [[] for _ in keys]
    for i, u in enumerate(keys):
        for j in by_src.get(tgt[u], ()):
            v = arrows[j]
            if v in pos:
                k = pos.get(g.add(u, v))
                if k is not None:
                    out[max(i, pos[v], k)].append((i, pos[v], k))
    return out


def depth_first(n, options, fits):
    """Every table f of length ``n`` that the search reaches, as a tuple,
    in depth-first order.

    Position i takes the values of ``options(i, f)`` in turn, read when
    f[:i] is placed; the search goes deeper only where ``fits(i, f)``
    holds for the value just placed at f[i].  The stack holds one
    iterator per placed position, so no search depends on the
    recursion limit."""
    if not n:
        yield ()
        return
    f = [None] * n
    stack = [iter(options(0, f))]
    while stack:
        i = len(stack) - 1
        for value in stack[i]:
            f[i] = value
            if fits(i, f):
                if i + 1 == n:
                    yield tuple(f)
                else:
                    stack.append(iter(options(i + 1, f)))
                    break
        else:
            stack.pop()


class NormalSubgroupoid:
    """Wide subset of arrows, closed under +, - and conjugation."""

    def __init__(self, parent, arrows):
        self.parent = parent
        self.arrows = frozenset(arrows)
        if not self.arrows <= set(parent.arrows):
            raise GroupoidError("subgroupoid arrows not within parent")
        self._violations = None

    def violations(self):
        """The checks of ``_scan``, run once: every reader of this
        subgroupoid shares one verdict."""
        if self._violations is None:
            self._violations = self._scan()
        return self._violations

    def _scan(self):
        g = self.parent
        out = []
        for x in g.objects:
            if g.unit(x) not in self.arrows:
                out.append("not wide: unit at %s missing" % (x,))
        members = sorted(self.arrows, key=_skey)
        for n in members:
            if g.neg(n) not in self.arrows:
                out.append("not closed under negation at %s" % (n,))
        for n in members:
            for m in members:
                if g.composable(n, m) and g.add(n, m) not in self.arrows:
                    out.append("not closed under composition at (%s,%s)" % (n, m))
        for n in members:
            for a in g.arrows:
                # conjugate -a + n + a, defined when n is a loop at src(a)
                if g.src(a) == g.src(n) and g.src(n) == g.tgt(n):
                    conj = g.add(g.add(g.neg(a), n), a)
                    if conj not in self.arrows:
                        out.append("not conjugation-stable: -(%s)+%s+%s" % (a, n, a))
        return out

    def __repr__(self):
        return "NormalSubgroupoid(%d of %d arrows)" % (len(self.arrows), len(self.parent.arrows))


def quotient(g, n):
    """Quotient groupoid and its projection morphism, for a wide normal
    subgroupoid ``n`` of loops; raises on any other input, citing the
    failing instance or member.

    The quotient keeps ``g``'s objects, and the projection is the
    identity on them.  The class of a: x -> y is the coset N(x) + a,
    where N(x) is the vertex group of ``n`` at x.  Composition, negation
    and units are read on one representative per class.

    Coset lemma.  Conjugation stability gives -a + N(x) + a <= N(y), and,
    applied to -a, a + N(y) - a <= N(x); so N(x) + a = a + N(y).  The
    class of a under two-sided translation by members of ``n`` is then
    N(x) + a + N(y) = N(x) + N(x) + a = N(x) + a: its coset, all of whose
    members run from x to y.  For b: y -> z,

        (N(x) + a) + (N(y) + b) = N(x) + (a + N(y)) + b
                                = N(x) + (N(x) + a) + b = N(x) + (a + b),

    and -(N(x) + a) = -a + N(x) = N(y) + (-a), so the class of a + b,
    of -a and of the unit at x do not depend on the representatives,
    whose rows are read through positions.
    """
    bad = n.violations()
    if bad:
        raise GroupoidError("not a normal subgroupoid: %s" % bad[0])
    arrows, (pos, rows) = g.arrows, g.tables()[:2]
    vertex = {x: [] for x in g.objects}
    for m in sorted(n.arrows, key=_skey):
        if g.src(m) != g.tgt(m):
            raise GroupoidError("not a subgroupoid of loops: member %s runs from %s to %s"
                                % (m, g.src(m), g.tgt(m)))
        vertex[g.src(m)].append(pos[m])
    # each class once, with the position of its first arrow
    arrow_class, reps = {}, {}
    for i, a in enumerate(arrows):
        if a not in arrow_class:
            members = [rows[m][i] for m in vertex[g.src(a)]]
            if None in members:
                g.add(arrows[vertex[g.src(a)][members.index(None)]], a)
            if i not in members:
                raise GroupoidError("not a groupoid: the coset N(%s) + %s misses %s"
                                    % (g.src(a), a, a))
            cls = frozenset(map(arrows.__getitem__, members))
            reps[cls] = i
            arrow_class.update(dict.fromkeys(cls, cls))
    # the classes in _skey order, and the position of each arrow's class
    classes = sorted(reps, key=_skey)
    at = {cls: r for r, cls in enumerate(classes)}
    class_at = [at[arrow_class[a]] for a in arrows]
    out_of = {}
    for cls, i in reps.items():
        out_of.setdefault(g.src(arrows[i]), []).append((at[cls], i))
    qrows = [None] * len(classes)
    for cls, i in reps.items():
        qrow = qrows[at[cls]] = [None] * len(classes)
        for c, j in out_of[g.tgt(arrows[i])]:
            if rows[i][j] is None:
                g.add(arrows[i], arrows[j])
            qrow[c] = class_at[rows[i][j]]
    q = Groupoid(g.objects, classes,
                 {cls: g.src(arrows[i]) for cls, i in reps.items()},
                 {cls: g.tgt(arrows[i]) for cls, i in reps.items()}, qrows,
                 {cls: arrow_class[g.neg(arrows[i])] for cls, i in reps.items()},
                 {x: arrow_class[g.unit(x)] for x in g.objects})
    return q, GroupoidMorphism({x: x for x in g.objects}, arrow_class)
