"""Edge-symmetric double groupoids with connection.

Squares are quintuples (inner, top, left, right, bottom) with the inner
arrow in C and the four edges in G, subject to the boundary equation

    delta(inner) = -bottom - left + top + right.

The vertical structure composes squares top-to-bottom (source = top,
target = bottom); the horizontal structure composes left-to-right
(source = left, target = right).  Both are groupoids over the edge
groupoid, and a connection assigns to each edge a canonical corner
square satisfying the transport law.

Each view is built once per double groupoid and compiles its own
position tables once (``Groupoid.tables``); since both views list the
squares in square order, a square's position is the same in either.
``check_double`` and the vertical lookups ``vcomp``/``vneg`` read those
tables; nothing here compiles a table of its own.
"""

from __future__ import annotations

from typing import NamedTuple

from .groupoid import Groupoid, GroupoidError, _skey, check_groupoid
from .xmod import CrossedModule, XModError, apply_action


class Square(NamedTuple):
    inner: object
    top: object
    left: object
    right: object
    bottom: object

    def __str__(self):
        return "[%s:%s|%s|%s|%s]" % (self.inner, self.top, self.left, self.right, self.bottom)


class DoubleGroupoidError(ValueError):
    pass


# what comp1/comp2/neg1/neg2 raise on squares that do not compose
COMPOSITION_ERRORS = (DoubleGroupoidError, GroupoidError, XModError)


class DoubleGroupoid:
    """Square set of a crossed module with both compositions and connection."""

    def __init__(self, cm, squares, connection=None):
        self.cm = cm
        self.edge = cm.G
        self.squares = tuple(sorted(set(squares), key=_skey))
        self._square_set = frozenset(self.squares)
        self._by_bottom, self._by_top, self._by_left = {}, {}, {}
        for sq in self.squares:
            self._by_bottom.setdefault(sq.bottom, []).append(sq)
            self._by_top.setdefault(sq.top, []).append(sq)
            self._by_left.setdefault(sq.left, []).append(sq)
        self._vertical = self._horizontal = None
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

    def with_top(self, a):
        return tuple(self._by_top.get(a, ()))

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
            table = {}
            for u in self.squares:
                for v in self._by_top.get(u.bottom, ()):
                    table[(u, v)] = self.comp1(u, v)
            self._vertical = Groupoid(
                self.edge.arrows, self.squares,
                {sq: sq.top for sq in self.squares},
                {sq: sq.bottom for sq in self.squares},
                table,
                {sq: self.neg1(sq) for sq in self.squares},
                {a: self.eps1(a) for a in self.edge.arrows})
        return self._vertical

    def horizontal_groupoid(self):
        """Squares under horizontal composition, over the edge arrows."""
        if self._horizontal is None:
            table = {}
            for u in self.squares:
                for v in self._by_left.get(u.right, ()):
                    table[(u, v)] = self.comp2(u, v)
            self._horizontal = Groupoid(
                self.edge.arrows, self.squares,
                {sq: sq.left for sq in self.squares},
                {sq: sq.right for sq in self.squares},
                table,
                {sq: self.neg2(sq) for sq in self.squares},
                {a: self.eps2(a) for a in self.edge.arrows})
        return self._horizontal

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

    Interchange quadruples are enumerated, in square order, through the
    tables of the two square views: both list the squares in square
    order, the vertical source is the top edge and the horizontal source
    the left edge.
    """
    out = []
    G = dg.edge
    squares = dg.squares
    for sq in squares:
        if not square_boundary_ok(dg.cm, sq):
            out.append("boundary equation fails for %s" % (sq,))
    vert, horiz = dg.vertical_groupoid(), dg.horizontal_groupoid()
    for v in check_groupoid(vert):
        out.append("vertical: %s" % v)
    for v in check_groupoid(horiz):
        out.append("horizontal: %s" % v)
    # Closure and the faces of composites need no check: the Groupoid
    # constructor of each view rejects a composite outside the square
    # set, and comp1/comp2 set the faces by the morphism formula.
    _, vt, _, by_top = vert.tables()
    _, ht, _, by_left = horiz.tables()
    by_top_left = {}
    for j, sq in enumerate(squares):
        by_top_left.setdefault((sq.top, sq.left), []).append(j)
    # interchange on all valid quadruples
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
    cgrp = Groupoid(G.objects, pi, src, src, table,
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
