import pytest

import oracles
from conftest import corpus_groupoids, discrete_item, zn_on_itself
from holonomy2 import corpus
from holonomy2.dgpd import (DoubleGroupoid, DoubleGroupoidError, Square,
                            boundary_triples, build_double_groupoid,
                            check_double, crossed_module_of, square_boundary_ok)
from holonomy2.groupoid import Groupoid, GroupoidError, _skey, generated_subgroupoid, pair_rows
from holonomy2.holonomy import build_germ_groupoid, build_wg, full_wstructure
from holonomy2.xmod import (CrossedModule, check_crossed_module,
                            check_xmod_morphism, find_xmod_isomorphism)


def brute_force_square_count(cm):
    """Independent oracle: count quintuples satisfying the boundary equation."""
    G, C = cm.G, cm.C
    n = 0
    for w in C.arrows:
        for d in G.arrows:
            for b in G.arrows:
                for c in G.arrows:
                    for a in G.arrows:
                        sq = Square(w, d, b, c, a)
                        try:
                            ok = square_boundary_ok(cm, sq)
                        except Exception:
                            ok = False
                        n += 1 if ok else 0
    return n


def test_square_count_z2z2(z2z2):
    dg = build_double_groupoid(z2z2)
    assert len(dg.squares) == 16
    assert len(dg.squares) == brute_force_square_count(z2z2)


def test_square_count_formula(all_cms):
    # |squares| = sum over boundary triples of the kernel fibre size
    for name, cm in all_cms.items():
        dg = build_double_groupoid(cm)
        total = 0
        for (b, a, c) in boundary_triples(cm):
            total += sum(1 for w in cm.C.arrows if cm.C.tgt(w) == cm.G.tgt(a))
        assert len(dg.squares) == total == brute_force_square_count(cm), name


def test_trivial_kernel_gives_commuting_squares(pair2):
    dg = build_double_groupoid(pair2)
    G = pair2.G
    for sq in dg.squares:
        # interior an identity forces the boundary to commute
        assert G.add(sq.left, sq.bottom) == G.add(sq.top, sq.right)


def test_unit_squares(z2z2):
    dg = build_double_groupoid(z2z2)
    for u in dg.squares:
        assert dg.comp1(u, dg.eps1(u.bottom)) == u
        assert dg.comp1(dg.eps1(u.top), u) == u
        assert dg.comp2(u, dg.eps2(u.right)) == u
        assert dg.comp2(dg.eps2(u.left), u) == u


def test_compose_rejects_mismatch(z2z2):
    dg = build_double_groupoid(z2z2)
    u = next(sq for sq in dg.squares if sq.bottom == "1")
    v = next(sq for sq in dg.squares if sq.top == "0")
    with pytest.raises(DoubleGroupoidError, match="bottom.*top"):
        dg.comp1(u, v)


def test_interchange_exhaustive(z2z2):
    dg = build_double_groupoid(z2z2)
    quads = 0
    for u in dg.squares:
        for v in dg.squares:
            if u.right != v.left:
                continue
            for u2 in dg.squares:
                if u2.top != u.bottom:
                    continue
                for v2 in dg.squares:
                    if v2.top != v.bottom or u2.right != v2.left:
                        continue
                    lhs = dg.comp1(dg.comp2(u, v), dg.comp2(u2, v2))
                    rhs = dg.comp2(dg.comp1(u, u2), dg.comp1(v, v2))
                    assert lhs == rhs
                    quads += 1
    assert quads > 0


def test_transport_law_exhaustive(all_cms):
    for name, cm in all_cms.items():
        dg = build_double_groupoid(cm)
        G = cm.G
        for a, b in G.composable_pairs():
            lhs = dg.connection[G.add(a, b)]
            rhs = dg.comp2(dg.comp1(dg.connection[a], dg.eps2(b)), dg.connection[b])
            assert lhs == rhs, name


def test_connection_degenerate_at_units(all_cms):
    for cm in all_cms.values():
        dg = build_double_groupoid(cm)
        for x in cm.G.objects:
            e = cm.G.unit(x)
            assert dg.connection[e] == dg.eps1(e) == dg.eps2(e)


def test_check_double_empty_on_corpus(all_cms):
    for name, cm in all_cms.items():
        dg = build_double_groupoid(cm)
        assert check_double(dg) == [], name


def test_check_double_flags_broken_connection(z2z2):
    dg = build_double_groupoid(z2z2)
    broken = DoubleGroupoid(z2z2, dg.squares,
                            {a: dg.eps1(a) for a in z2z2.G.arrows})
    bad = check_double(broken)
    assert any("transport law" in v or "connection boundary" in v for v in bad)


def test_single_square_degenerate_double():
    cm = corpus.pair2()
    # restrict to the one-object corner: trivial kernel over a point
    C = corpus.bundle_of_groups("x", 1)
    G = corpus.pair_groupoid("x")
    trivial = CrossedModule(C, G, {c: G.unit("x") for c in C.arrows},
                            {(c, a): c for c in C.arrows for a in G.arrows})
    dg = build_double_groupoid(trivial)
    assert len(dg.squares) == 1
    assert check_double(dg) == []


def test_composite_outside_the_square_set_is_named(z2z2):
    """Without the vertical unit at the edge 1, the first vertical
    composite that is not a square is named.  It keeps the boundary
    equation, so the message says that it is not in the square set."""
    squares = build_double_groupoid(z2z2).squares
    dg = DoubleGroupoid(z2z2, [sq for sq in squares if str(sq) != "[c0:1|0|0|1]"])
    with pytest.raises(DoubleGroupoidError) as raised:
        dg.vertical_groupoid()
    assert str(raised.value) == ("vertical composite [c0:1|0|1|0]+[c0:0|0|1|1]=[c0:1|0|0|1] "
                                 "is not in the square set")


def test_gamma_round_trip(all_cms):
    for name, cm in all_cms.items():
        dg = build_double_groupoid(cm)
        back = crossed_module_of(dg)
        assert check_crossed_module(back) == [], name
        iso = find_xmod_isomorphism(back, cm)
        assert iso is not None, name
        bad, is_iso = check_xmod_morphism(iso, back, cm)
        assert bad == [] and is_iso, name


def test_gamma_of_trivial_kernel_is_trivial(pair2):
    dg = build_double_groupoid(pair2)
    back = crossed_module_of(dg)
    assert len(back.C.arrows) == len(pair2.G.objects)


def test_vertical_and_horizontal_groupoids_valid(z4):
    from holonomy2.groupoid import check_groupoid
    dg = build_double_groupoid(z4)
    assert check_groupoid(dg.vertical_groupoid()) == []
    assert check_groupoid(dg.horizontal_groupoid()) == []


LOOKUP_MODELS = {**corpus.corpus(), "z3": zn_on_itself(3)}


@pytest.mark.parametrize("name", sorted(LOOKUP_MODELS))
def test_position_order_is_skey_order(name):
    """Square positions follow _skey order, no two squares share a _skey,
    both square views give a square the same position, and a window
    lists its squares in the same order."""
    dg = build_double_groupoid(LOOKUP_MODELS[name])
    keys = [_skey(sq) for sq in dg.squares]
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys)
    vert, horiz = dg.vertical_groupoid(), dg.horizontal_groupoid()
    assert vert.arrows == horiz.arrows == dg.squares
    for view in (vert, horiz):
        pos = view.tables()[0]
        assert [pos[sq] for sq in dg.squares] == list(range(len(keys)))
    wg = build_wg(dg, full_wstructure(dg.cm))
    assert list(wg.ordered) == sorted(wg.squares, key=_skey)


def _tables_models():
    """Every corpus groupoid, both views of each corpus double groupoid,
    the germ groupoid J of Z/3 under the discrete topology, and the pair
    groupoid on two points with a composite and a negation dropped and an
    entry on a non-composable pair."""
    out = dict(corpus_groupoids())
    out["z3-discrete.J"] = build_germ_groupoid(
        build_double_groupoid(discrete_item(zn_on_itself(3))[0]))[0]
    pair = corpus.pair_groupoid("xy")
    table, neg = dict(pair.entries()), dict(pair._neg)
    del table[("xy", "yx")], neg["yx"]
    table[("xy", "xy")] = "xx"
    out["pair-broken"] = Groupoid(pair.objects, pair.arrows, pair._src, pair._tgt,
                                  pair_rows(pair.arrows, table), neg, pair._units)
    return out


def test_tables_agree_with_add_neg_and_src():
    """The rows are the groupoid's one table: they hold a position exactly
    where add is defined and None exactly where it raises, entries lists
    them again pair by pair, the negation row holds a position exactly
    where neg is defined, the buckets list the arrows out of each object
    in arrow order, and composable_pairs is the filter over all pairs."""
    models = _tables_models()
    for name, g in models.items():
        pos, rows, neg, by_src = g.tables()
        assert g.tables()[1] is rows, name
        assert list(pos.items()) == [(a, i) for i, a in enumerate(g.arrows)], name
        for i, a in enumerate(g.arrows):
            for j, b in enumerate(g.arrows):
                try:
                    want = pos[g.add(a, b)]
                except GroupoidError:
                    want = None
                assert rows[i][j] == want, (name, a, b)
            try:
                want = pos[g.neg(a)]
            except GroupoidError:
                want = None
            assert neg[i] == want, (name, a)
        assert list(g.entries()) == [((a, g.arrows[i]), g.arrows[k])
                                     for a, row in zip(g.arrows, rows)
                                     for i, k in enumerate(row) if k is not None], name
        buckets = {}
        for i, a in enumerate(g.arrows):
            buckets.setdefault(g.src(a), []).append(i)
        assert by_src == buckets, name
        assert list(g.composable_pairs()) == [
            (a, b) for a in g.arrows for b in g.arrows if g.composable(a, b)], name
    pos, rows, neg, _ = models["pair-broken"].tables()
    assert rows[pos["xy"]][pos["yx"]] is None and neg[pos["yx"]] is None
    assert rows[pos["xy"]][pos["xy"]] == pos["xx"]


def test_bucket_walks_match_the_scans():
    """composable_pairs and generated_subgroupoid walk the by-source
    buckets: they agree with the filter over all pairs and with the
    closure that tries every pair of its members."""
    models = [corpus.pair_groupoid("xyz"), corpus.bundle_of_groups("xy", 3),
              build_double_groupoid(zn_on_itself(3)).vertical_groupoid()]
    for g in models:
        pairs = list(g.composable_pairs())
        assert pairs == [(a, b) for a in g.arrows for b in g.arrows if g.composable(a, b)]
        closure = generated_subgroupoid(g, g.arrows[-1:])
        assert closure == oracles.generated_subgroupoid(g, g.arrows[-1:])
        assert closure >= g.units()
