"""The shared segment-sum kernel against the slow routes it replaced.

Full convolution is checked against an explicit sum over ``FinitePoset.segment``,
reduced convolution against a sum weighted by ``incidence_coefficient``, both
inverses against the identity and against the textbook ``Fraction`` recursion,
and powers against repeated convolution, over level shapes with an empty root,
with singleton levels only, with uneven levels, and with Fibonacci levels.
Products, powers and inverses of tables with values up to 10^30, with large
denominators, and with every value at the same extreme (the slot bounds of the
packed kernel) are checked against the explicit sums and the recursion too.
"""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

import cobweb.incidence as incidence
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


def segment_product(p, f, g):
    """Explicit segment sums over plain dicts of full-algebra values."""
    return {
        (x, y): sum(f[(x, z)] * g[(z, y)] for z in p.segment(x, y))
        for x, y in p.comparable_pairs()
    }


def coefficient_product(seq, n, f, g):
    """Sums over ranks weighted by incidence_coefficient, over plain dicts."""
    return {
        (k, m): sum(
            incidence_coefficient(seq, k, m, l) * f[(k, l)] * g[(l, m)] for l in range(k, m + 1)
        )
        for k, m in rank_triangle(seq, n)
    }


def big_tables(spec, n, rng, magnitude, kind, diagonal=None):
    """A full and a reduced table on one shape: values up to ``magnitude`` with
    mixed signs, or Fractions with denominators up to ``magnitude``, or every
    value equal to ``magnitude``, which may be negative (a product of two such
    tables then comes close to the slot bound).  With ``diagonal``, each
    diagonal value is drawn from it instead."""

    def value(pair):
        if diagonal and pair[0] == pair[1]:
            return rng.choice(diagonal)
        if kind == "extreme":
            return magnitude
        v = rng.randint(-magnitude, magnitude)
        return Fraction(v, rng.randint(1, magnitude)) if kind == "fraction" else v

    p, seq = POSETS[spec], make_sequence(spec, n)
    full = IncidenceFunction(p, {pair: value(pair) for pair in p.comparable_pairs()})
    red = ReducedFunction(seq, n, {t: value(t) for t in rank_triangle(seq, n)})
    return full, red


def oracle_products(spec, n):
    p, seq = POSETS[spec], make_sequence(spec, n)
    return (
        lambda f, g: segment_product(p, f, g),
        lambda f, g: coefficient_product(seq, n, f, g),
    )


kinds = st.sampled_from(("mixed", "fraction", "extreme"))
magnitudes = st.integers(1, 10**30)


@given(shapes, kinds, magnitudes, seeds)
@settings(max_examples=60, deadline=None)
def test_big_value_products_match_explicit_sums(shape, kind, magnitude, seed):
    spec, n = shape
    rng = random.Random(seed)
    f1, r1 = big_tables(spec, n, rng, magnitude, kind)
    f2, r2 = big_tables(spec, n, rng, magnitude, "mixed" if kind == "extreme" else kind)
    for (a, b), product in zip(((f1, f2), (r1, r2)), oracle_products(spec, n)):
        assert_matches_oracle(a.convolve(b), product(a.values, b.values))
        assert_matches_oracle(b.convolve(a), product(b.values, a.values))


@given(shapes, kinds, magnitudes, seeds)
@settings(max_examples=15, deadline=None)
def test_big_value_powers_match_explicit_sums(shape, kind, magnitude, seed):
    spec, n = shape
    f, r = big_tables(spec, n, random.Random(seed), magnitude, kind)
    for table, product in zip((f, r), oracle_products(spec, n)):
        want = {key: int(key[0] == key[1]) for key in table.values}
        for k in range(8):
            assert_matches_oracle(table.power(k), want)
            want = product(want, table.values)


# magnitudes from 1 to about 10^30 whose squares step by one bit, so the slot
# bound max|f| max|g| (sum of weights) meets every bit length modulo 8
EXTREMES = [isqrt(1 << j) for j in (*range(16), *range(184, 200))]


@pytest.mark.parametrize("spec,n", SHAPES)
def test_products_at_the_slot_bound(spec, n):
    for magnitude in EXTREMES:
        pos = big_tables(spec, n, None, magnitude, "extreme")
        neg = big_tables(spec, n, None, -magnitude, "extreme")
        zero = big_tables(spec, n, None, 0, "extreme")  # the slots must still hold g
        for f, g, z, product in zip(pos, neg, zero, oracle_products(spec, n)):
            assert_matches_oracle(f.convolve(f), product(f.values, f.values))
            assert_matches_oracle(g.convolve(f), product(g.values, f.values))
            assert_matches_oracle(z.convolve(f), product(z.values, f.values))


@given(shapes, st.sampled_from(DIAGONALS), kinds, magnitudes, seeds)
@settings(max_examples=40, deadline=None)
def test_big_value_inverses_match_fraction_oracle(shape, diagonal, kind, magnitude, seed):
    spec, n = shape
    # "extreme" makes every strict value -magnitude: under a positive diagonal
    # the inverse then counts weighted chains, its entries all of one sign
    sign = -1 if kind == "extreme" else 1
    f, r = big_tables(spec, n, random.Random(seed), sign * magnitude, kind, diagonal)
    assert_matches_oracle(f.invert(), oracle_full_inverse(f))
    assert_matches_oracle(r.invert(), oracle_reduced_inverse(r))


# diagonals of one sign or of both, unit or not, under strict values all -M: the
# inverses come as close to the slot bound (the product over the ranks above a
# row of 1 + M F_r) as tables do; M grows by a quarter bit at a time, so the
# bound's bit length meets every slot-width boundary several times
BOUND_DIAGONALS = ((1,), (-1,), (2,), (-3,), (1, -1), (2, -3))
BOUND_MAGNITUDES = sorted({round(2 ** (j / 4)) for j in range(4 * 32)})


@pytest.mark.parametrize("spec,n", SHAPES)
def test_inverses_near_the_slot_bound(spec, n):
    p, seq = POSETS[spec], make_sequence(spec, n)
    deltas = (standard_full("delta", p), standard_reduced("delta", seq, n))
    rng = random.Random(n)
    for diagonal in BOUND_DIAGONALS:
        for magnitude in BOUND_MAGNITUDES:
            tables = big_tables(spec, n, rng, -magnitude, "extreme", diagonal)
            for table, delta in zip(tables, deltas):
                inv = table.invert()
                assert list(inv.values) == list(table.values)
                assert table * inv == delta, (diagonal, magnitude)
                assert_exact(inv)


def test_inexact_row_division_raises(monkeypatch):
    """With the per-rank lcm made 1, a row denominator no longer clears its row:
    the first inexact numerator, in canonical pair order, is named."""
    p = POSETS["fibonacci"]
    rng = random.Random(3)
    f = IncidenceFunction(p, {
        (x, y): rng.choice((2, -3)) if x == y else rng.randint(-4, 4) for x, y in p.comparable_pairs()
    })

    def first_inexact():
        for a in p.vertices:
            row = {a: 1}
            for b in (b for b in p.vertices if b.s > a.s):
                num = -sum(row[c] * f(c, b) for c in p.segment(a, b)[:-1])
                if num % f(b, b):
                    return f"inexact row numerator: {num} mod {f(b, b)} is {num % f(b, b)}"
                row[b] = num // f(b, b)

    want = first_inexact()
    assert want is not None
    monkeypatch.setattr(incidence, "lcm", lambda *args: 1)
    with pytest.raises(ArithmeticError) as exc:
        f.invert()
    assert str(exc.value) == want
