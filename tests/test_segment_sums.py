"""The shared segment-sum kernel against the slow routes it replaced.

Full convolution is checked against an explicit sum over ``FinitePoset.segment``,
reduced convolution against a sum weighted by ``incidence_coefficient``, both
inverses against the identity and against the textbook ``Fraction`` recursion,
and powers against repeated convolution, over level shapes with an empty root,
with singleton levels only, with uneven levels, and with Fibonacci levels.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cobweb import (
    IncidenceFunction,
    ReducedFunction,
    build_poset,
    incidence_coefficient,
    make_sequence,
    rank_triangle,
    standard_full,
    standard_reduced,
)

SHAPES = (
    ("custom:0,2,3,1,2", 4),
    ("constant:1", 5),
    ("custom:1,3,1,4,2", 4),
    ("fibonacci", 5),
)
POSETS = {spec: build_poset(make_sequence(spec, n), n) for spec, n in SHAPES}

shapes = st.sampled_from(SHAPES)
seeds = st.integers(0, 2**32 - 1)


def rand_value(rng):
    if rng.random() < 0.5:
        return rng.randint(-4, 4)
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def rand_full(p, rng, diagonal=None):
    return IncidenceFunction(
        p,
        {
            (x, y): rng.choice(diagonal) if diagonal and x == y else rand_value(rng)
            for x, y in p.comparable_pairs()
        },
    )


def rand_reduced(seq, n, rng, diagonal=None):
    return ReducedFunction(
        seq,
        n,
        {
            (k, m): rng.choice(diagonal) if diagonal and k == m else rand_value(rng)
            for k, m in rank_triangle(seq, n)
        },
    )


def assert_exact(table):
    for v in table.values.values():
        assert type(v) is int or (type(v) is Fraction and v.denominator != 1), v


@given(shapes, seeds)
@settings(max_examples=40, deadline=None)
def test_full_convolve_matches_segment_sum(shape, seed):
    spec, _ = shape
    p = POSETS[spec]
    rng = random.Random(seed)
    f, g = rand_full(p, rng), rand_full(p, rng)
    got = f.convolve(g)
    assert list(got.values) == list(p.comparable_pairs())
    for x, y in p.comparable_pairs():
        assert got.values[(x, y)] == sum(f(x, z) * g(z, y) for z in p.segment(x, y))
    assert_exact(got)


@given(shapes, seeds)
@settings(max_examples=40, deadline=None)
def test_reduced_convolve_matches_coefficient_sum(shape, seed):
    spec, n = shape
    seq = make_sequence(spec, n)
    rng = random.Random(seed)
    f, g = rand_reduced(seq, n, rng), rand_reduced(seq, n, rng)
    got = f.convolve(g)
    assert list(got.values) == rank_triangle(seq, n)
    for k, m in rank_triangle(seq, n):
        want = sum(
            incidence_coefficient(seq, k, m, l) * f(k, l) * g(l, m) for l in range(k, m + 1)
        )
        assert got.values[(k, m)] == want
    assert_exact(got)


DIAGONAL = (1, -1, 2, -2, 3)


@given(shapes, seeds)
@settings(max_examples=40, deadline=None)
def test_inverses_are_exact_two_sided(shape, seed):
    spec, n = shape
    p, seq = POSETS[spec], make_sequence(spec, n)
    rng = random.Random(seed)
    f = rand_full(p, rng, DIAGONAL)
    r = rand_reduced(seq, n, rng, DIAGONAL)
    for table, delta in ((f, standard_full("delta", p)), (r, standard_reduced("delta", seq, n))):
        inv = table.invert()
        assert table * inv == delta
        assert inv * table == delta
        assert_exact(inv)


def test_results_keep_canonical_key_order():
    spec, n = "custom:1,3,1,4,2", 4
    p, seq = POSETS[spec], make_sequence(spec, n)
    rng = random.Random(7)
    f = rand_full(p, rng, DIAGONAL)
    r = rand_reduced(seq, n, rng, DIAGONAL)
    for got in (f.invert(), f.power(0), f.power(3), r.lift(p)):
        assert list(got.values) == list(p.comparable_pairs())
    for got in (r.invert(), r.power(0), r.power(3)):
        assert list(got.values) == rank_triangle(seq, n)


def oracle_full_inverse(f):
    """inv(a,a) = 1/f(a,a), inv(a,b) = -(1/f(b,b)) * sum of inv(a,c) f(c,b) over
    the explicit segment a <= c < b, in Fraction arithmetic throughout."""
    p, inv = f.poset, {}
    for a, b in p.comparable_pairs():  # every (a, c) with c < b comes before (a, b)
        if a == b:
            inv[(a, b)] = 1 / Fraction(f(a, a))
        else:
            total = sum(inv[(a, c)] * f(c, b) for c in p.segment(a, b)[:-1])
            inv[(a, b)] = -total / f(b, b)
    return inv


def oracle_reduced_inverse(r):
    """The same recursion over ranks, each rank l weighted by incidence_coefficient."""
    seq, inv = r.seq, {}
    for k, m in r.triangle():
        if k == m:
            inv[(k, m)] = 1 / Fraction(r(k, k))
        else:
            total = sum(
                incidence_coefficient(seq, k, m, l) * inv[(k, l)] * r(l, m) for l in range(k, m)
            )
            inv[(k, m)] = -total / r(m, m)
    return inv


def assert_matches_oracle(got, want):
    assert list(got.values) == list(want)
    for key, v in want.items():
        assert got.values[key] == v, key
        assert type(got.values[key]) is (int if v.denominator == 1 else Fraction), key


DIAGONALS = (
    (1, -1),
    (1, -1, 2, -2, 3, -3),
    (Fraction(1, 2), Fraction(-3, 4)),
    (2, -3, Fraction(1, 2), Fraction(-3, 4)),
    # off-diagonal denominators divide 6, so the table scales by 6 to a unit diagonal
    (Fraction(1, 6), Fraction(-1, 6)),
)


@given(shapes, st.sampled_from(DIAGONALS), seeds)
@settings(max_examples=60, deadline=None)
def test_inverses_match_fraction_oracle(shape, diagonal, seed):
    spec, n = shape
    p, seq = POSETS[spec], make_sequence(spec, n)
    rng = random.Random(seed)
    f = rand_full(p, rng, diagonal)
    r = rand_reduced(seq, n, rng, diagonal)
    assert_matches_oracle(f.invert(), oracle_full_inverse(f))
    assert_matches_oracle(r.invert(), oracle_reduced_inverse(r))


# left-to-right repeated squaring: one squaring per bit below the leading one,
# plus one product with the base per further set bit
CONVOLUTIONS = {0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 4}


@pytest.mark.parametrize("spec,n", SHAPES)
def test_power_is_repeated_convolution(spec, n, monkeypatch):
    p, seq = POSETS[spec], make_sequence(spec, n)
    rng = random.Random(n)
    for table, delta in (
        (rand_full(p, rng), standard_full("delta", p)),
        (rand_reduced(seq, n, rng), standard_reduced("delta", seq, n)),
    ):
        folded = [delta]
        for _ in range(7):
            folded.append(folded[-1].convolve(table))
        calls = []
        convolve = type(table).convolve

        def counted(f, g):
            calls.append(1)
            return convolve(f, g)

        monkeypatch.setattr(type(table), "convolve", counted)
        for k, want in enumerate(folded):
            calls.clear()
            got = table.power(k)
            assert got == want, k
            assert list(got.values) == list(want.values), k
            assert len(calls) == CONVOLUTIONS[k], k
        monkeypatch.undo()
