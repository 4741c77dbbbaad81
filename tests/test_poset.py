from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from cobweb import FSequence, Vertex, build_poset, make_sequence

FIB3 = build_poset(make_sequence("fibonacci", 3), 3)

X, Y = Vertex(1, 0), Vertex(1, 3)


def small_sequences():
    return st.builds(
        lambda f0, tail: FSequence((f0, *tail)),
        st.sampled_from([0, 1]),
        st.lists(st.integers(1, 3), min_size=1, max_size=4),
    )


# -- construction ------------------------------------------------------------


def test_counts_fibonacci():
    assert len(FIB3.vertices) == 7
    assert len(FIB3.hasse_edges) == 1 * 1 + 1 * 2 + 2 * 3


def test_single_level():
    p = build_poset(FSequence((1,)), 0)
    assert p.vertices == (Vertex(1, 0),)
    assert p.hasse_edges == ()


def test_one_two_bipartite():
    p = build_poset(FSequence((1, 2)), 1)
    assert len(p.vertices) == 3
    assert len(p.hasse_edges) == 2


def test_max_level_beyond_sequence():
    with pytest.raises(ValueError):
        build_poset(FSequence((1, 2)), 5)


def test_max_level_guard_boundary():
    seq = FSequence((1, 2, 3))
    assert build_poset(seq, len(seq) - 1).max_level == 2
    with pytest.raises(ValueError, match=r"^max level 3 exceeds sequence length 3$"):
        build_poset(seq, len(seq))


def test_empty_root_level():
    p = build_poset(FSequence((0, 2, 3)), 2)
    assert p.levels[0] == ()
    assert len(p.vertices) == 5
    # no root edge is synthesized; edges start between levels 1 and 2
    assert all(u.s >= 1 for u, _ in p.hasse_edges)
    assert len(p.hasse_edges) == 6
    minimal = [v for v in p.vertices if not any(p.leq(u, v) for u in p.vertices if u != v)]
    assert len(minimal) == 2


# -- order relation ----------------------------------------------------------


def test_leq_examples():
    p = build_poset(make_sequence("constant:2", 4), 4)
    assert p.leq(Vertex(2, 1), Vertex(1, 3))  # lower level below any higher one
    assert not p.leq(Vertex(1, 2), Vertex(2, 2))  # same level, different position
    assert not p.leq(Vertex(1, 3), Vertex(1, 1))  # rank decreases
    assert p.leq(Vertex(2, 2), Vertex(2, 2))


def test_leq_membership():
    with pytest.raises(ValueError):
        FIB3.leq(Vertex(9, 9), X)


@given(small_sequences())
@settings(max_examples=40)
def test_order_axioms(seq):
    p = build_poset(seq, seq.max_index)
    vs = p.vertices
    assert all(p.leq(v, v) for v in vs)
    for a, b in product(vs, repeat=2):
        if p.leq(a, b) and p.leq(b, a):
            assert a == b
    for a, b, c in product(vs, repeat=3):
        if p.leq(a, b) and p.leq(b, c):
            assert p.leq(a, c)


def test_hasse_edges_are_covers():
    for p in (FIB3, build_poset(FSequence((0, 2, 1, 2)), 3)):
        derived = {
            (x, y)
            for x, y in p.comparable_pairs()
            if x != y and len(p.segment(x, y)) == 2
        }
        assert set(p.hasse_edges) == derived


# -- segments ----------------------------------------------------------------


def test_segment_examples():
    seg = FIB3.segment(X, Y)
    assert seg == (X, Vertex(1, 1), Vertex(1, 2), Vertex(2, 2), Y)
    assert FIB3.segment(X, X) == (X,)
    assert FIB3.segment(Vertex(1, 2), Vertex(2, 2)) == ()
    assert FIB3.segment(Y, X) == ()


@given(small_sequences())
@settings(max_examples=40)
def test_segment_size_formula(seq):
    p = build_poset(seq, seq.max_index)
    for x, y in p.comparable_pairs():
        if x == y:
            assert len(p.segment(x, y)) == 1
        else:
            want = sum(seq.value_at(i) for i in range(x.s + 1, y.s)) + 2
            assert len(p.segment(x, y)) == want


@given(small_sequences())
@settings(max_examples=40)
def test_segment_is_order_interval_and_uncached(seq):
    p = build_poset(seq, seq.max_index)
    for x, y in product(p.vertices, repeat=2):
        want = tuple(z for z in p.vertices if p.leq(x, z) and p.leq(z, y))
        assert p.segment(x, y) == want
    assert not hasattr(p, "_segments")


# -- chain counting oracles ---------------------------------------------------
# Naive re-derivations, independent of the DFS in the library: a strict chain
# between x and y is a set of interior vertices with pairwise distinct levels.


def naive_strict_chains(p, x, y, k):
    if not p.leq(x, y) or x == y:
        return 0
    interior = [z for z in p.segment(x, y) if z not in (x, y)]
    return sum(
        1
        for combo in combinations(interior, k - 1)
        if len({z.s for z in combo}) == k - 1
    )


def naive_maximal_chains(p, x, y, k):
    if not p.leq(x, y) or x == y or k != y.s - x.s:
        return 0
    interior = [z for z in p.segment(x, y) if z not in (x, y)]
    want_levels = list(range(x.s + 1, y.s))
    return sum(
        1
        for combo in combinations(interior, k - 1)
        if sorted(z.s for z in combo) == want_levels
    )


def naive_multichains(p, x, y, k):
    if not p.leq(x, y):
        return 0
    seg = p.segment(x, y)
    count = 0
    for tup in product(seg, repeat=k - 1):
        walk = (x, *tup, y)
        if all(p.leq(a, b) for a, b in zip(walk, walk[1:])):
            count += 1
    return count


def test_chain_count_examples():
    assert FIB3.count_chains(X, Y, 2) == 3
    assert FIB3.count_chains(X, Y, 1) == 1
    assert FIB3.count_chains(X, X, 1) == 0
    assert FIB3.count_all_chains(X, Y) == 6


def test_maximal_chain_examples():
    assert FIB3.count_maximal_chains(X, Y, 3) == 2
    assert FIB3.count_maximal_chains(X, Y, 2) == 0
    assert FIB3.count_all_maximal_chains(X, Y) == 2


def test_multichain_examples():
    assert FIB3.count_multichains(X, Y, 2) == 5
    assert FIB3.count_multichains(X, X, 2) == 1
    assert FIB3.count_multichains(X, Y, 1) == 1


def test_bad_length_rejected():
    with pytest.raises(ValueError):
        FIB3.count_chains(X, Y, 0)
    with pytest.raises(ValueError):
        FIB3.count_multichains(X, Y, 0)


def test_maximal_chain_length_zero_rejected():
    with pytest.raises(ValueError, match="chain length must be >= 1, got 0"):
        FIB3.count_maximal_chains(X, Y, 0)


def test_multichains_on_incomparable_pairs():
    a, b = FIB3.level(2)
    for k in (1, 2, 3):
        assert FIB3.count_multichains(a, b, k) == 0
        assert FIB3.count_multichains(Y, X, k) == 0


@given(small_sequences(), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_chain_counts_match_naive_enumeration(seq, k):
    p = build_poset(seq, seq.max_index)
    for x, y in p.comparable_pairs():
        assert p.count_chains(x, y, k) == naive_strict_chains(p, x, y, k)
        assert p.count_maximal_chains(x, y, k) == naive_maximal_chains(p, x, y, k)
        assert p.count_multichains(x, y, k) == naive_multichains(p, x, y, k)


def test_total_chain_count_is_sum_over_lengths():
    p = build_poset(make_sequence("naturals", 4), 4)
    for x, y in p.comparable_pairs():
        total = sum(p.count_chains(x, y, k) for k in range(1, p.max_level + 2))
        assert total == p.count_all_chains(x, y)
        # chains cannot be longer than the rank gap
        assert p.count_chains(x, y, y.s - x.s + 1) == 0


# -- Mobius recursion ----------------------------------------------------------


def test_mobius_examples():
    assert FIB3.mobius(X, X) == 1
    assert FIB3.mobius(X, Vertex(1, 1)) == -1
    assert FIB3.mobius(X, Y) == 0
    p = build_poset(make_sequence("constant:2", 4), 4)
    assert p.mobius(Vertex(1, 0), Vertex(1, 4)) == 1


def test_mobius_incomparable():
    with pytest.raises(ValueError):
        FIB3.mobius(Vertex(1, 2), Vertex(2, 2))


@given(small_sequences())
@settings(max_examples=30)
def test_mobius_inversion_identity(seq):
    # sum of mu over a segment collapses to the diagonal indicator
    p = build_poset(seq, seq.max_index)
    for x, y in p.comparable_pairs():
        total = sum(p.mobius(x, z) for z in p.segment(x, y))
        assert total == (1 if x == y else 0)


# -- DOT export ----------------------------------------------------------------


def test_dot_export():
    p = build_poset(FSequence((1, 2), name="custom:1,2"), 1)
    dot = p.to_dot()
    assert dot.startswith("digraph cobweb {")
    assert '"1,0" -> "2,1";' in dot
    assert dot.count("rank=same") == 2
    assert dot == p.to_dot()  # deterministic


def test_dot_export_skips_empty_root():
    dot = build_poset(FSequence((0, 2)), 1).to_dot()
    assert dot.count("rank=same") == 1
