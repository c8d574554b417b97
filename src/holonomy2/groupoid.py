"""Finite groupoids in additive notation, morphisms, normal subgroupoids, quotients.

Composition is written left to right: ``a + b`` is defined exactly when
``tgt(a) == src(b)``.  A groupoid may carry a topology on its arrow and
object sets, in which case the structure maps are required continuous;
an untopologized groupoid behaves as discrete.
"""

from __future__ import annotations

from operator import itemgetter

from .fintop import FiniteTopSpace, PartialMap, is_continuous, pullback_space


class GroupoidError(ValueError):
    pass


def _skey(v):
    """Deterministic sort key, stable across hash randomisation."""
    if isinstance(v, frozenset):
        return "{" + ",".join(sorted(_skey(x) for x in v)) + "}"
    if isinstance(v, tuple):
        return "(" + ",".join(_skey(x) for x in v) + ")"
    return str(v)


class Groupoid:
    """Finite object/arrow tables with src, tgt, partial add, neg and units."""

    def __init__(self, objects, arrows, src, tgt, table, neg=None, units=None,
                 topology=None):
        self.objects = tuple(sorted(set(objects), key=_skey))
        self.arrows = tuple(sorted(set(arrows), key=_skey))
        oset, aset = set(self.objects), set(self.arrows)
        self._src = dict(src)
        self._tgt = dict(tgt)
        for a in self.arrows:
            if a not in self._src or a not in self._tgt:
                raise GroupoidError("arrow %s missing src/tgt" % (a,))
            if self._src[a] not in oset or self._tgt[a] not in oset:
                raise GroupoidError("arrow %s has dangling endpoint" % (a,))
        self._table = dict(table)
        for (a, b), c in self._table.items():
            if a not in aset or b not in aset or c not in aset:
                raise GroupoidError("composition entry %s+%s=%s has dangling identifiers" % (a, b, c))
        self._units = dict(units) if units is not None else self._derive_units()
        self._neg = dict(neg) if neg is not None else self._derive_neg()
        for a, b in self._neg.items():
            if a not in aset or b not in aset:
                raise GroupoidError("negation entry %s -> %s has dangling identifiers" % (a, b))
        for x, e in self._units.items():
            if x not in oset or e not in aset:
                raise GroupoidError("unit entry %s -> %s has dangling identifiers" % (x, e))
        self.topology = topology
        if topology is not None:
            arr_space, obj_space = topology
            if arr_space.points != aset or obj_space.points != oset:
                raise GroupoidError("topology points do not match arrows/objects")
        self._fibers = self._index = self._tables = self._violations = None
        self._discrete_arrows = self._discrete_objects = None

    # -- derivation of missing structure (for lenient loading) ---------

    def _derive_units(self):
        units = {}
        for x in self.objects:
            cands = [e for e in self.arrows
                     if self._src[e] == x and self._tgt[e] == x
                     and self._table.get((e, e)) == e
                     and all(self._table.get((e, a), a) == a
                             for a in self.arrows if self._src[a] == x)
                     and all(self._table.get((a, e), a) == a
                             for a in self.arrows if self._tgt[a] == x)]
            if len(cands) == 1:
                units[x] = cands[0]
        return units

    def _derive_neg(self):
        neg = {}
        for a in self.arrows:
            x, y = self._src[a], self._tgt[a]
            ex, ey = self._units.get(x), self._units.get(y)
            cands = [b for b in self.arrows
                     if self._src[b] == y and self._tgt[b] == x
                     and ex is not None and self._table.get((a, b)) == ex
                     and ey is not None and self._table.get((b, a)) == ey]
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
            return self._table[(a, b)]
        except KeyError:
            raise GroupoidError(
                "composition %s + %s undefined (tgt=%s, src=%s)"
                % (a, b, self._tgt.get(a), self._src.get(b))) from None

    def add_all(self, *arrows):
        out = arrows[0]
        for a in arrows[1:]:
            out = self.add(out, a)
        return out

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
        if self._fibers is None:
            self._fibers = {}
            for a in self.arrows:
                self._fibers.setdefault(self._tgt[a], []).append(a)
        return tuple(self._fibers.get(x, ()))

    def _positions(self):
        """``(pos, by_src)`` of ``tables()``, compiled once without the
        rows, for readers that only walk the by-source buckets."""
        if self._index is None:
            pos = {a: i for i, a in enumerate(self.arrows)}
            by_src = {}
            for i, a in enumerate(self.arrows):
                by_src.setdefault(self._src[a], []).append(i)
            self._index = pos, by_src
        return self._index

    def tables(self):
        """The composition compiled to arrow positions (indices in arrow
        order), once: ``(pos, rows, neg, by_src)``.  ``pos`` maps each
        arrow to its position, ``rows[i][j]`` is the position of
        a_i + a_j (None exactly where ``add`` raises), ``neg[i]`` the
        position of -a_i (None where ``neg`` raises) and ``by_src`` maps
        an object to the positions of the arrows out of it, in arrow
        order."""
        if self._tables is None:
            pos, by_src = self._positions()
            rows = [[None] * len(pos) for _ in pos]
            for (a, b), c in self._table.items():
                rows[pos[a]][pos[b]] = pos[c]
            neg = [pos[self._neg[a]] if a in self._neg else None for a in self.arrows]
            self._tables = pos, rows, neg, by_src
        return self._tables

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
        return Groupoid(self.objects, self.arrows, self._src, self._tgt,
                        self._table, self._neg, self._units,
                        topology=(arrow_space, object_space))

    def composable_pairs(self):
        """Every (a, b) with tgt(a) == src(b), in arrow order of a, then of b."""
        arrows, by_src = self.arrows, self._positions()[1]
        for a in arrows:
            for j in by_src.get(self._tgt[a], ()):
                yield a, arrows[j]

    def __repr__(self):
        return "Groupoid(%d objects, %d arrows)" % (len(self.objects), len(self.arrows))


def check_groupoid(g):
    """Every violated axiom instance; empty list means valid.

    Includes continuity results for the structure maps when the groupoid
    is topologized.
    """
    out = []
    arrows, src, tgt = g.arrows, g._src, g._tgt
    # entries off the composable pairs or with wrong endpoints, in
    # _skey order of the pair; only those are sorted
    bad = [((a, b), c) for (a, b), c in g._table.items()
           if tgt[a] != src[b] or src[c] != src[a] or tgt[c] != tgt[b]]
    for (a, b), c in sorted(bad, key=lambda kv: (_skey(kv[0][0]), _skey(kv[0][1]))):
        if tgt[a] != src[b]:
            out.append("composition domain: %s+%s defined but tgt(%s)=%s != src(%s)=%s"
                       % (a, b, a, tgt[a], b, src[b]))
        else:
            out.append("composition endpoints: %s+%s=%s has wrong src/tgt" % (a, b, c))
    # the table as rows of positions, from the groupoid's own tables
    _, rows, _, by_src = g.tables()
    for i, a in enumerate(arrows):
        row, bucket = rows[i], by_src.get(tgt[a], ())
        if None in map(row.__getitem__, bucket):
            for j in bucket:
                if row[j] is None:
                    out.append("composition missing: %s+%s (tgt=src=%s)"
                               % (a, arrows[j], tgt[a]))
    for x in g.objects:
        if x not in g._units:
            out.append("unit missing at object %s" % (x,))
            continue
        e = g._units[x]
        if g.src(e) != x or g.tgt(e) != x:
            out.append("unit endpoints: unit(%s)=%s is not a loop at %s" % (x, e, x))
    for a in g.arrows:
        if g.src(a) in g._units and (g._units[g.src(a)], a) in g._table:
            if g._table[(g._units[g.src(a)], a)] != a:
                out.append("left unit law fails at %s" % (a,))
        if g.tgt(a) in g._units and (a, g._units[g.tgt(a)]) in g._table:
            if g._table[(a, g._units[g.tgt(a)])] != a:
                out.append("right unit law fails at %s" % (a,))
        if a not in g._neg:
            out.append("negation missing for %s" % (a,))
        else:
            n = g._neg[a]
            if g.src(n) != g.tgt(a) or g.tgt(n) != g.src(a):
                out.append("negation endpoints wrong for %s" % (a,))
            else:
                if g._table.get((a, n)) != g._units.get(g.src(a)):
                    out.append("right negative law fails at %s" % (a,))
                if g._table.get((n, a)) != g._units.get(g.tgt(a)):
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
    out = []
    arr, obj = g.topology
    alpha = PartialMap({a: g.src(a) for a in g.arrows})
    beta = PartialMap({a: g.tgt(a) for a in g.arrows})
    if not is_continuous(alpha, arr, obj):
        out.append("continuity: source map not continuous")
    if not is_continuous(beta, arr, obj):
        out.append("continuity: target map not continuous")
    eps = PartialMap({x: g.unit(x) for x in g.objects if x in g._units})
    if not is_continuous(eps, obj, arr):
        out.append("continuity: unit map not continuous")
    neg = PartialMap({a: g._neg[a] for a in g.arrows if a in g._neg})
    if not is_continuous(neg, arr, arr):
        out.append("continuity: negation not continuous")
    # difference map on the beta-fibred pairs, (a,b) |-> a - b
    pairs = [(a, b) for a in g.arrows for b in g.arrows if g.tgt(a) == g.tgt(b)]
    if all(a in g._neg for a in g.arrows) and g._table:
        pspace = pullback_space([arr, arr], pairs, lambda p: p)
        try:
            diff = PartialMap({(a, b): g.add(a, g.neg(b)) for a, b in pairs})
            if not is_continuous(diff, pspace, arr):
                out.append("continuity: difference map not continuous")
        except GroupoidError:
            out.append("continuity: difference map not totally defined")
        cpairs = list(g.composable_pairs())
        cspace = pullback_space([arr, arr], cpairs, lambda p: p)
        try:
            addm = PartialMap({(a, b): g.add(a, b) for a, b in cpairs})
            if not is_continuous(addm, cspace, arr):
                out.append("continuity: composition not continuous")
        except GroupoidError:
            out.append("continuity: composition not totally defined")
    return out


class GroupoidMorphism:
    """Object map plus arrow map."""

    def __init__(self, obj_map, arr_map):
        self.obj_map = dict(obj_map)
        self.arr_map = dict(arr_map)

    def __call__(self, a):
        return self.arr_map[a]

    def __repr__(self):
        return "GroupoidMorphism(%d objects, %d arrows)" % (len(self.obj_map), len(self.arr_map))


def check_groupoid_morphism(m, src, tgt):
    """Violations of src/tgt/add/unit preservation."""
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
    for a, b in src.composable_pairs():
        try:
            lhs = m.arr_map[src.add(a, b)]
            rhs = tgt.add(m.arr_map[a], m.arr_map[b])
        except GroupoidError as e:
            out.append("composition not preserved at (%s,%s): %s" % (a, b, e))
            continue
        if lhs != rhs:
            out.append("composition not preserved at (%s,%s)" % (a, b))
    for x in src.objects:
        if m.arr_map[src.unit(x)] != tgt.unit(m.obj_map[x]):
            out.append("unit not preserved at %s" % (x,))
    return out


def generated_subgroupoid(g, seed):
    """Least arrow subset containing the seed and all units, closed under + and -."""
    arrows, by_src = g.arrows, g._positions()[1]
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
    arrows, tgt, by_src = g.arrows, g._tgt, g._positions()[1]
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

    def violations(self):
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
    """Quotient groupoid and its projection morphism.

    Arrows are merged by a ~ b iff n1 + a + n2 = b for some n1, n2 in the
    subgroupoid; objects are merged along the non-loop members.  Raises
    on a non-normal input, citing the failing instance.
    """
    bad = n.violations()
    if bad:
        raise GroupoidError("not a normal subgroupoid: %s" % bad[0])

    # object classes
    oparent = {x: x for x in g.objects}

    def ofind(x):
        while oparent[x] != x:
            oparent[x] = oparent[oparent[x]]
            x = oparent[x]
        return x

    def ounion(x, y):
        rx, ry = ofind(x), ofind(y)
        if rx != ry:
            if _skey(ry) < _skey(rx):
                rx, ry = ry, rx
            oparent[ry] = rx

    for m in n.arrows:
        ounion(g.src(m), g.tgt(m))

    # arrow classes under two-sided translation by members of n
    aparent = {a: a for a in g.arrows}

    def afind(a):
        while aparent[a] != a:
            aparent[a] = aparent[aparent[a]]
            a = aparent[a]
        return a

    def aunion(a, b):
        ra, rb = afind(a), afind(b)
        if ra != rb:
            if _skey(rb) < _skey(ra):
                ra, rb = rb, ra
            aparent[rb] = ra

    for a in g.arrows:
        for m in n.arrows:
            if g.tgt(m) == g.src(a):
                aunion(a, g.add(m, a))
            if g.tgt(a) == g.src(m):
                aunion(a, g.add(a, m))

    classes = {}
    for a in g.arrows:
        classes.setdefault(afind(a), []).append(a)
    arrow_class = {a: frozenset(classes[afind(a)]) for a in g.arrows}
    obj_class = {x: frozenset(y for y in g.objects if ofind(y) == ofind(x))
                 for x in g.objects}

    qobjects = sorted(set(obj_class.values()), key=_skey)
    qarrows = sorted(set(arrow_class.values()), key=_skey)
    qsrc = {}
    qtgt = {}
    for cls in qarrows:
        reps = sorted(cls, key=_skey)
        srcs = {obj_class[g.src(a)] for a in reps}
        tgts = {obj_class[g.tgt(a)] for a in reps}
        if len(srcs) != 1 or len(tgts) != 1:
            raise GroupoidError("quotient ill-defined: class %s has mixed endpoints"
                                % (sorted(map(_skey, cls)),))
        qsrc[cls] = srcs.pop()
        qtgt[cls] = tgts.pop()

    qtable = {}
    for ca in qarrows:
        for cb in qarrows:
            if qtgt[ca] != qsrc[cb]:
                continue
            results = set()
            for a in ca:
                for b in cb:
                    if g.composable(a, b):
                        results.add(arrow_class[g.add(a, b)])
                    else:
                        # bridge through a connecting member of n
                        for m in n.arrows:
                            if g.src(m) == g.tgt(a) and g.tgt(m) == g.src(b):
                                results.add(arrow_class[g.add(g.add(a, m), b)])
                                break
            if len(results) != 1:
                raise GroupoidError("quotient composition ill-defined on (%s,%s)"
                                    % (sorted(map(_skey, ca)), sorted(map(_skey, cb))))
            qtable[(ca, cb)] = results.pop()

    qneg = {cls: arrow_class[g.neg(sorted(cls, key=_skey)[0])] for cls in qarrows}
    qunits = {obj_class[x]: arrow_class[g.unit(x)] for x in g.objects}
    q = Groupoid(qobjects, qarrows, qsrc, qtgt, qtable, qneg, qunits)
    proj = GroupoidMorphism({x: obj_class[x] for x in g.objects}, arrow_class)
    return q, proj

