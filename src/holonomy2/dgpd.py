"""Edge-symmetric double groupoids with connection.

Squares are quintuples (inner, top, left, right, bottom) with the inner
arrow in C and the four edges in G, subject to the boundary equation

    delta(inner) = -bottom - left + top + right.

The vertical structure composes squares top-to-bottom (source = top,
target = bottom); the horizontal structure composes left-to-right
(source = left, target = right).  Both are groupoids over the edge
groupoid, and a connection assigns to each edge a canonical corner
square satisfying the transport law.

Each view is built once per double groupoid and stores its composition
as position rows (``Groupoid.tables``); since both views list the
squares in square order, a square's position is the same in either.
``check_double`` and the vertical lookups ``vcomp``/``vneg`` read those
rows; nothing here builds a table of its own.
"""

from __future__ import annotations

from typing import NamedTuple

from .fintop import ModelError
from .groupoid import Groupoid, _skey, pair_rows, spanning_generators
from .xmod import CrossedModule, apply_action


class Square(NamedTuple):
    inner: object
    top: object
    left: object
    right: object
    bottom: object

    def __str__(self):
        return "[%s:%s|%s|%s|%s]" % (self.inner, self.top, self.left, self.right, self.bottom)


class DoubleGroupoidError(ModelError):
    pass


class DoubleGroupoid:
    """Square set of a crossed module with both compositions and connection."""

    def __init__(self, cm, squares, connection=None):
        self.cm = cm
        self.edge = cm.G
        self.squares = tuple(sorted(set(squares), key=_skey))
        self._square_set = frozenset(self.squares)
        self._by_bottom = {}
        for sq in self.squares:
            self._by_bottom.setdefault(sq.bottom, []).append(sq)
        self._vertical = self._horizontal = None
        # kept by holonomy: local section verdicts by section content
        # (section_violations) and base maps by their constraints
        # (section_from_squares)
        self._section_verdicts, self._s0_completions = {}, {}
        if connection is None:
            connection = {a: self._default_connection(a) for a in self.edge.arrows}
        self.connection = dict(connection)

    # -- square builders ------------------------------------------------

    def _default_connection(self, a):
        G = self.edge
        y = G.tgt(a)
        return Square(self.cm.C.unit(y), a, a, G.unit(y), G.unit(y))

    def eps1(self, a):
        """Degenerate square with top = bottom = a: the vertical identity."""
        G = self.edge
        return Square(self.cm.C.unit(G.tgt(a)), a,
                      G.unit(G.src(a)), G.unit(G.tgt(a)), a)

    def eps2(self, a):
        """Degenerate square with left = right = a: the horizontal identity."""
        G = self.edge
        return Square(self.cm.C.unit(G.tgt(a)),
                      G.unit(G.src(a)), a, a, G.unit(G.tgt(a)))

    # -- queries -----------------------------------------------------------

    def contains(self, sq):
        return sq in self._square_set

    def with_bottom(self, a):
        return tuple(self._by_bottom.get(a, ()))

    # -- compositions -----------------------------------------------------

    def comp1(self, u, v):
        """Vertical composition: bottom of u must equal top of v."""
        if u.bottom != v.top:
            raise DoubleGroupoidError(
                "vertical composition undefined: bottom %s != top %s" % (u.bottom, v.top))
        G, C = self.edge, self.cm.C
        inner = C.add(v.inner, apply_action(self.cm, u.inner, v.right))
        return Square(inner, u.top, G.add(u.left, v.left),
                      G.add(u.right, v.right), v.bottom)

    def comp2(self, u, v):
        """Horizontal composition: right of u must equal left of v."""
        if u.right != v.left:
            raise DoubleGroupoidError(
                "horizontal composition undefined: right %s != left %s" % (u.right, v.left))
        G, C = self.edge, self.cm.C
        inner = C.add(apply_action(self.cm, u.inner, v.bottom), v.inner)
        return Square(inner, G.add(u.top, v.top), u.left, v.right,
                      G.add(u.bottom, v.bottom))

    def neg1(self, u):
        G, C = self.edge, self.cm.C
        inner = apply_action(self.cm, C.neg(u.inner), G.neg(u.right))
        return Square(inner, u.bottom, G.neg(u.left), G.neg(u.right), u.top)

    def neg2(self, u):
        G, C = self.edge, self.cm.C
        inner = C.neg(apply_action(self.cm, u.inner, G.neg(u.bottom)))
        return Square(inner, G.neg(u.top), u.right, u.left, G.neg(u.bottom))

    # -- groupoid views -----------------------------------------------------

    def vertical_groupoid(self):
        """Squares under vertical composition, over the edge arrows."""
        if self._vertical is None:
            self._vertical = self._view(vertical=True)
        return self._vertical

    def horizontal_groupoid(self):
        """Squares under horizontal composition, over the edge arrows."""
        if self._horizontal is None:
            self._horizontal = self._view(vertical=False)
        return self._horizontal

    def _view(self, vertical):
        """The vertical view (the horizontal one when not ``vertical``):
        its rows hold ``comp1(u, v)`` for every pair with bottom u = top v
        (``comp2(u, v)`` where right u = left v), its negation is ``neg1``
        (``neg2``) and its units are ``eps1`` (``eps2``).

        A square's coordinates are the positions of its inner arrow in C
        and of its four edges in G (``Groupoid.tables``).  A composite's
        coordinates are read as comp1 and comp2 compute them: the inner
        arrow from C's row at the action value, the composed sides from
        G's rows.  The square with those coordinates is the composite;
        where a coordinate, an action entry or a row entry is missing,
        comp1 (comp2) itself runs, so every error is its own.  The errors
        come in this order: every composition error, then every negation
        error, then every unit error, then the first composite outside the
        square set, in square order of u, then of v, named by whether it
        breaks the boundary equation."""
        G, C, squares = self.edge, self.cm.C, self.squares
        gpos, grows = G.tables()[:2]
        cpos, crows = C.tables()[:2]
        act = {(cpos[c], gpos[a]): cpos[value] for (c, a), value in self.cm.action.items()
               if C.tgt(c) == G.src(a)}
        coords_of = [(cpos.get(sq.inner), gpos.get(sq.top), gpos.get(sq.left),
                      gpos.get(sq.right), gpos.get(sq.bottom)) for sq in squares]
        coords_of = [None if None in xy else xy for xy in coords_of]
        at = {xy: k for k, xy in enumerate(coords_of) if xy is not None}
        index = {sq: k for k, sq in enumerate(squares)}
        comp = self.comp1 if vertical else self.comp2
        by_source = {}
        for j, sq in enumerate(squares):
            by_source.setdefault(sq.top if vertical else sq.left, []).append(j)
        rows, outside = [], None
        for u, cu in zip(squares, coords_of):
            row = [None] * len(squares)
            for j in by_source.get(u.bottom if vertical else u.right, ()):
                k, cv = None, coords_of[j]
                if cu is not None and cv is not None:
                    ci, t, l, r, b = cu
                    ci2, t2, l2, r2, b2 = cv
                    if vertical:
                        a = act.get((ci, r2))
                        if a is not None:
                            k = at.get((crows[ci2][a], t, grows[l][l2], grows[r][r2], b2))
                    else:
                        a = act.get((ci, b2))
                        if a is not None:
                            k = at.get((crows[a][ci2], grows[t][t2], l, r2, grows[b][b2]))
                if k is None:
                    w = comp(u, squares[j])
                    k = index.get(w)
                    if k is None and outside is None:
                        outside = (u, squares[j], w)
                row[j] = k
            rows.append(row)
        neg, unit = (self.neg1, self.eps1) if vertical else (self.neg2, self.eps2)
        negs = {sq: neg(sq) for sq in squares}
        units = {a: unit(a) for a in G.arrows}
        if outside is not None:
            u, v, w = outside
            raise DoubleGroupoidError("%s composite %s+%s=%s %s" % (
                "vertical" if vertical else "horizontal", u, v, w,
                "is not in the square set" if square_boundary_ok(self.cm, w)
                else "breaks the boundary equation delta(inner) = -bottom - left + top + right"))
        return Groupoid(G.arrows, squares,
                        {sq: sq.top if vertical else sq.left for sq in squares},
                        {sq: sq.bottom if vertical else sq.right for sq in squares},
                        rows, negs, units)

    def vcomp(self, u, v):
        """``comp1(u, v)`` read from the vertical view's rows.  Where the
        rows hold no composite (the pair does not compose, or a square is
        not in the square set) ``comp1`` itself runs, so every error and
        message is comp1's."""
        pos, rows = (self._vertical or self.vertical_groupoid()).tables()[:2]
        i, j = pos.get(u), pos.get(v)
        k = None if i is None or j is None else rows[i][j]
        return self.comp1(u, v) if k is None else self.squares[k]

    def vneg(self, u):
        """``neg1(u)`` read from the vertical view's negation row;
        ``neg1`` itself for a square outside the square set."""
        pos, _, neg, _ = (self._vertical or self.vertical_groupoid()).tables()
        i = pos.get(u)
        return self.neg1(u) if i is None else self.squares[neg[i]]

    def __repr__(self):
        return "DoubleGroupoid(%d squares over %d edges)" % (len(self.squares), len(self.edge.arrows))


def square_boundary_ok(cm, sq):
    C, G = cm.C, cm.G
    if G.tgt(sq.left) != G.src(sq.bottom):
        return False
    if G.tgt(sq.bottom) != G.tgt(sq.right) or G.tgt(sq.bottom) != C.tgt(sq.inner):
        return False
    if G.src(sq.top) != G.src(sq.left) or G.tgt(sq.top) != G.src(sq.right):
        return False
    want = G.add(G.add(G.add(G.neg(sq.bottom), G.neg(sq.left)), sq.top), sq.right)
    return cm.delta[sq.inner] == want


def boundary_triples(cm):
    """Composable boundary triples (left, bottom, right)."""
    G = cm.G
    out = []
    for a in G.arrows:
        for b in G.arrows:
            if G.tgt(b) != G.src(a):
                continue
            for c in G.arrows:
                if G.tgt(c) != G.tgt(a):
                    continue
                out.append((b, a, c))
    return out


def build_double_groupoid(cm):
    """All squares over the crossed module, with compositions and connection."""
    G, C = cm.G, cm.C
    squares = []
    for (b, a, c) in boundary_triples(cm):
        for w in C.arrows:
            if C.tgt(w) != G.tgt(a):
                continue
            top = G.add(G.add(G.add(b, a), cm.delta[w]), G.neg(c))
            squares.append(Square(w, top, b, c, a))
    dg = DoubleGroupoid(cm, squares)
    return dg


def check_double(dg):
    """All violated double-groupoid and connection axioms.

    Each view's verdict is its cached ``Groupoid.violations``.  When
    both views pass, interchange is proved on generators
    (``_interchange_on_generators``); otherwise, or when that proof
    fails, the quadruples are scanned for witnesses.
    """
    out = []
    G = dg.edge
    for sq in dg.squares:
        if not square_boundary_ok(dg.cm, sq):
            out.append("boundary equation fails for %s" % (sq,))
    vert, horiz = dg.vertical_groupoid(), dg.horizontal_groupoid()
    vbad, hbad = vert.violations(), horiz.violations()
    for v in vbad:
        out.append("vertical: %s" % v)
    for v in hbad:
        out.append("horizontal: %s" % v)
    # Closure and the faces of composites are not reported: the Groupoid
    # constructor of each view rejects a composite outside the square
    # set, and comp1/comp2 set the faces by the morphism formula (the
    # interchange certificate still checks the side faces it uses).
    if vbad or hbad or not _interchange_on_generators(dg):
        out.extend(_interchange_failures(dg))
    # connection: boundary shape and transport law
    for a in G.arrows:
        con = dg.connection.get(a)
        if con is None:
            out.append("connection missing at %s" % (a,))
            continue
        y = G.tgt(a)
        if not (con.top == a and con.left == a
                and con.right == G.unit(y) and con.bottom == G.unit(y)):
            out.append("connection boundary wrong at %s" % (a,))
        if not dg.contains(con):
            out.append("connection square missing from square set at %s" % (a,))
    for a in G.arrows:
        for b in G.arrows:
            if not G.composable(a, b):
                continue
            con = dg.connection.get(G.add(a, b))
            if con is None or dg.connection.get(a) is None or dg.connection.get(b) is None:
                continue
            try:
                want = dg.comp2(dg.comp1(dg.connection[a], dg.eps2(b)), dg.connection[b])
            except DoubleGroupoidError as e:
                out.append("transport law fails at (%s,%s): %s" % (a, b, e))
                continue
            if con != want:
                out.append("transport law fails at (%s,%s)" % (a, b))
    for x in G.objects:
        e = G.unit(x)
        con = dg.connection.get(e)
        if con is not None and not (con == dg.eps1(e) == dg.eps2(e)):
            out.append("connection not degenerate at unit %s" % (x,))
    return out


def _interchange_on_generators(dg):
    """Interchange on every quadruple, proved on generators, for square
    views that both pass ``check_groupoid``: interchange as a morphism
    of groupoids (Brown & Spencer, *Double groupoids and crossed
    modules*, Cahiers 17, 1976).

    Let P be the pairs (u, v) with right(u) = left(v), composed
    vertically in each component, (u, v)(u2, v2) = (u +1 u2, v +1 v2),
    and let H(u, v) = u +2 v.  A quadruple is a composable pair s, a of
    P, and interchange there says H(sa) = H(s) +1 H(a).

    P is a subgroupoid of the square of the vertical view when the left
    and right faces of a vertical composite, and of a negative, are
    functions of the factors' faces, the same function on both sides:
    then right(u +1 u2) = left(v +1 v2) and right(-u) = left(-v).
    comp1 and neg1 set the faces through G; the functions are checked
    here all the same.  Call s good when H(sa) = H(s) +1 H(a) for every
    a out of the target of s.  For good s and s',

        H(ss'a) = H(s) +1 H(s'a) = H(s) +1 (H(s') +1 H(a))
                = (H(s) +1 H(s')) +1 H(a) = H(ss') +1 H(a)

    by associativity of the vertical view, so good arrows are closed
    under composition.  Every arrow of P is a word in the generating
    set of ``spanning_generators``; interchange holds everywhere once
    each generator s is good, which checks each s against the arrows
    out of its target only.  P's arrows are walked out of each object
    and composed through the two views' rows; its table is not built.
    False when a face function or a generator fails.
    """
    squares = dg.squares
    _, vt, vneg, by_top = dg.vertical_groupoid().tables()
    ht = dg.horizontal_groupoid().tables()[1]
    faces, neg_faces = {}, {}
    for i, u in enumerate(squares):
        row = vt[i]
        for j in by_top.get(u.bottom, ()):
            u2, w = squares[j], squares[row[j]]
            if (faces.setdefault((u.left, u2.left), w.left) != w.left
                    or faces.setdefault((u.right, u2.right), w.right) != w.right):
                return False
        n = squares[vneg[i]]
        if (neg_faces.setdefault(u.left, n.left) != n.left
                or neg_faces.setdefault(u.right, n.right) != n.right):
            return False
    objects, out = _pair_arrows(dg)
    for i, j in _pair_generators(dg, objects, out):
        hs_row, u_row, v_row = vt[ht[i][j]], vt[i], vt[j]
        for (i2, j2), _ in out((squares[i].bottom, squares[j].bottom)):
            if hs_row[ht[i2][j2]] != ht[u_row[i2]][v_row[j2]]:
                return False
    return True


def _pair_arrows(dg):
    """The groupoid P of ``_interchange_on_generators``, walked without
    being stored: ``(objects, out)``.  ``objects`` lists the pairs
    (top u, top v), in square order; ``out(x)`` yields the arrows (u, v)
    out of x, as pairs of square positions, each with its target
    (bottom u, bottom v)."""
    squares = dg.squares
    by_top = dg.vertical_groupoid().tables()[3]
    by_top_left, tops_by_left = {}, {}
    for j, sq in enumerate(squares):
        by_top_left.setdefault((sq.top, sq.left), []).append(j)
        tops_by_left.setdefault(sq.left, {})[sq.top] = None
    objects = {(u.top, b): None for u in squares for b in tops_by_left.get(u.right, ())}

    def out(x):
        a, b = x
        for i in by_top.get(a, ()):
            u = squares[i]
            for j in by_top_left.get((b, u.right), ()):
                yield (i, j), (u.bottom, squares[j].bottom)

    return list(objects), out


def _pair_generators(dg, objects, out):
    """``spanning_generators`` of P, composed and negated in the vertical
    view in each component."""
    vert = dg.vertical_groupoid()
    vpos, vt, vneg, _ = vert.tables()
    units = vert._units
    return spanning_generators(
        objects, out,
        lambda s, a: (vt[s[0]][a[0]], vt[s[1]][a[1]]),
        lambda s: (vneg[s[0]], vneg[s[1]]),
        lambda x: (vpos[units[x[0]]], vpos[units[x[1]]]))


def _interchange_failures(dg):
    """Every quadruple where interchange fails, in square order, scanned
    through the tables of the two square views: both list the squares
    in square order, the vertical source is the top edge and the
    horizontal source the left edge."""
    out = []
    squares = dg.squares
    _, vt, _, by_top = dg.vertical_groupoid().tables()
    _, ht, _, by_left = dg.horizontal_groupoid().tables()
    by_top_left = {}
    for j, sq in enumerate(squares):
        by_top_left.setdefault((sq.top, sq.left), []).append(j)
    for i, u in enumerate(squares):
        u2s, u_vrow, u_hrow = by_top.get(u.bottom, ()), vt[i], ht[i]
        for j in by_left.get(u.right, ()):
            v, uv_row, v_row = squares[j], vt[u_hrow[j]], vt[j]
            for i2 in u2s:
                uu2_row, u2_row = ht[u_vrow[i2]], ht[i2]
                for j2 in by_top_left.get((v.bottom, squares[i2].right), ()):
                    if uv_row[u2_row[j2]] != uu2_row[v_row[j2]]:
                        out.append("interchange fails at (%s,%s,%s,%s)"
                                   % (u, v, squares[i2], squares[j2]))
    return out


def crossed_module_of(dg):
    """The crossed module carried by the squares with unit sides and bottom.

    The boundary of such a square is its top edge; the edge groupoid acts
    by conjugation with degenerate squares.
    """
    G = dg.edge
    pi = [sq for sq in dg.squares
          if G.is_unit(sq.left) and G.is_unit(sq.right) and G.is_unit(sq.bottom)]
    src = {sq: G.src(sq.bottom) for sq in pi}
    table = {}
    for u in pi:
        for v in pi:
            if src[u] == src[v]:
                table[(u, v)] = dg.comp2(u, v)
    cgrp = Groupoid(G.objects, pi, src, src, pair_rows(pi, table),
                    {sq: dg.neg2(sq) for sq in pi},
                    {x: dg.eps2(G.unit(x)) for x in G.objects})
    delta = {sq: sq.top for sq in pi}
    action = {}
    for sq in pi:
        x = src[sq]
        for a in G.arrows:
            if G.src(a) != x:
                continue
            e = dg.eps1(a)
            action[(sq, a)] = dg.comp2(dg.comp2(dg.neg2(e), sq), e)
    return CrossedModule(cgrp, G, delta, action)
