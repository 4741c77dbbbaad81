import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cobweb import (
    IncidenceFunction,
    Vertex,
    build_poset,
    make_sequence,
    mobius_closed_form,
    standard_full,
)

FIB3 = build_poset(make_sequence("fibonacci", 3), 3)
X, Y = Vertex(1, 0), Vertex(1, 3)

rng_seeds = st.integers(0, 2**32 - 1)


def rand_fn(p, seed, lo=-4, hi=4):
    rng = random.Random(seed)
    return IncidenceFunction(p, {pair: rng.randint(lo, hi) for pair in p.comparable_pairs()})


# -- constructors --------------------------------------------------------------


def test_standard_values():
    zeta = standard_full("zeta", FIB3)
    assert zeta.value(Vertex(1, 2), Vertex(2, 2)) == 0  # same level, not comparable
    assert zeta.value(X, Y) == 1
    c = standard_full("C", FIB3)
    assert c.value(X, X) == 1
    assert c.value(X, Y) == -1
    chi = standard_full("chi", FIB3)
    assert chi.value(X, Vertex(1, 2)) == 0  # level gap 2
    assert chi.value(X, Vertex(1, 1)) == 1
    m = standard_full("M", FIB3)
    assert m.value(X, Vertex(1, 1)) == -1
    assert m.value(X, Y) == 0
    eta = standard_full("eta", FIB3)
    assert eta.value(X, X) == 0
    assert eta.value(X, Y) == 1


def test_unknown_name():
    with pytest.raises(ValueError):
        standard_full("nu", FIB3)


def test_values_only_on_comparable_pairs():
    with pytest.raises(ValueError):
        IncidenceFunction(FIB3, {(Vertex(1, 2), Vertex(2, 2)): 1})


def test_constructor_order_exactness_and_errors():
    pairs = FIB3.comparable_pairs()
    vals = {pair: Fraction(4, 2) if pair == (X, Y) else i for i, pair in enumerate(pairs)}
    for given in (vals, dict(reversed(vals.items()))):  # canonical order, and not
        f = IncidenceFunction(FIB3, given)
        assert list(f.values) == list(pairs)
        assert f.values == vals and type(f.values[(X, Y)]) is int
    with pytest.raises(ValueError, match=r"vertex <1,9> not in poset \(levels 0\.\.3\)"):
        IncidenceFunction(FIB3, {(X, Vertex(1, 9)): 1})
    with pytest.raises(ValueError, match=r"non-comparable pair \(<1,3>, <1,0>\)"):
        IncidenceFunction(FIB3, {(Y, X): 1})


def test_partial_table_fills_zero():
    f = IncidenceFunction(FIB3, {(X, Y): 7})
    assert f.value(X, Y) == 7
    assert f.value(X, Vertex(1, 1)) == 0


# -- convolution ----------------------------------------------------------------


def test_convolution_examples():
    zeta = standard_full("zeta", FIB3)
    eta = standard_full("eta", FIB3)
    assert zeta.convolve(zeta).value(X, Y) == 5  # segment cardinality
    assert (eta * eta).value(X, Y) == 3  # strict chains with two edges


def test_delta_is_identity():
    delta = standard_full("delta", FIB3)
    for name in ("zeta", "eta", "chi", "C", "M"):
        f = standard_full(name, FIB3)
        assert delta * f == f
        assert f * delta == f


def test_poset_mismatch():
    other = build_poset(make_sequence("constant:2", 3), 3)
    with pytest.raises(ValueError):
        standard_full("zeta", FIB3).convolve(standard_full("zeta", other))


def test_powers():
    chi = standard_full("chi", FIB3)
    assert chi.power(2).value(X, Vertex(1, 2)) == 1  # F_1
    assert chi.power(3).value(X, Y) == 2  # F_1 * F_2
    zeta = standard_full("zeta", FIB3)
    assert zeta.power(1) == zeta
    assert zeta.power(0) == standard_full("delta", FIB3)
    with pytest.raises(ValueError):
        zeta.power(-1)


@given(rng_seeds, rng_seeds, rng_seeds)
@settings(max_examples=30, deadline=None)
def test_convolution_associative(s1, s2, s3):
    f, g, h = (rand_fn(FIB3, s) for s in (s1, s2, s3))
    assert (f * g) * h == f * (g * h)


# -- inversion --------------------------------------------------------------------


def test_invert_examples():
    zeta = standard_full("zeta", FIB3)
    assert zeta.invert().value(X, Y) == 0  # Mobius value
    delta = standard_full("delta", FIB3)
    assert delta.invert() == delta
    assert standard_full("C", FIB3).invert().value(X, Y) == 6  # 1 + 3 + 2 strict chains
    assert standard_full("M", FIB3).invert().value(X, Y) == 2


def test_invert_is_two_sided():
    delta = standard_full("delta", FIB3)
    for seed in (7, 8):
        f = rand_fn(FIB3, seed)
        # force an invertible diagonal
        vals = dict(f.values)
        for v in FIB3.vertices:
            vals[(v, v)] = random.Random(seed + v.j + v.s).choice([1, -1, 2, 3])
        f = IncidenceFunction(FIB3, vals)
        inv = f.invert()
        assert f * inv == delta
        assert inv * f == delta


def test_invert_nonunit_diagonal_gives_fractions():
    vals = {(v, v): 2 for v in FIB3.vertices}
    f = IncidenceFunction(FIB3, vals)
    inv = f.invert()
    assert inv.value(X, X) == Fraction(1, 2)
    assert f * inv == standard_full("delta", FIB3)


def test_invert_zero_diagonal_names_vertex():
    vals = {pair: 1 for pair in FIB3.comparable_pairs()}
    vals[(Vertex(2, 2), Vertex(2, 2))] = 0
    with pytest.raises(ValueError, match=r"<2,2>"):
        IncidenceFunction(FIB3, vals).invert()


# -- Mobius closed form -------------------------------------------------------------


def test_mobius_closed_form_matches_inversion_and_recursion():
    for spec, n in (("fibonacci", 4), ("constant:2", 4), ("custom:1,3,1,4", 3)):
        p = build_poset(make_sequence(spec, n), n)
        closed = mobius_closed_form(p)
        inverted = standard_full("zeta", p).invert()
        assert closed == inverted
        for x, y in p.comparable_pairs():
            assert closed.value(x, y) == p.mobius(x, y)


def test_mobius_closed_form_structure():
    mu = mobius_closed_form(FIB3)
    assert mu.value(X, X) == 1
    assert mu.value(X, Vertex(1, 1)) == -1
    p = build_poset(make_sequence("constant:2", 4), 4)
    assert mobius_closed_form(p).value(Vertex(1, 0), Vertex(1, 4)) == 1


# -- rank dependence of the named family ----------------------------------------------


def test_named_functions_depend_on_ranks_only():
    p = build_poset(make_sequence("custom:1,3,1,4,2", 4), 4)
    named = [standard_full(n, p) for n in ("delta", "zeta", "eta", "chi", "C", "M")]
    named += [mobius_closed_form(p), standard_full("C", p).invert(), standard_full("M", p).invert()]
    for f in named:
        seen = {}
        for (x, y), v in f.values.items():
            t = (x.s, y.s)
            assert seen.setdefault(t, v) == v


# -- serialization -----------------------------------------------------------------------


def test_csv_layout():
    csv_text = standard_full("zeta", FIB3).to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "x_j,x_s,y_j,y_s,value"
    assert lines[1] == "1,0,1,0,1"
    assert len(lines) == 1 + len(FIB3.comparable_pairs())


def test_csv_fraction_rendering():
    f = IncidenceFunction(FIB3, {(v, v): 2 for v in FIB3.vertices}).invert()
    assert ",1/2" in f.to_csv()


def test_json_rows():
    rows = json.loads(standard_full("delta", FIB3).to_json())
    assert rows[0] == [1, 0, 1, 0, 1]
    assert len(rows) == len(FIB3.comparable_pairs())
    inv = IncidenceFunction(FIB3, {(v, v): 2 for v in FIB3.vertices}).invert()
    assert json.loads(inv.to_json())[0] == [1, 0, 1, 0, "1/2"]


def test_json_bytes():
    p = build_poset(make_sequence("custom:1,2", 1), 1)
    x, y, z = p.vertices
    f = IncidenceFunction(p, {(x, x): 1, (x, y): Fraction(-1, 2), (z, z): 3})
    want = (
        '[\n'
        '  [\n    1,\n    0,\n    1,\n    0,\n    1\n  ],\n'
        '  [\n    1,\n    0,\n    1,\n    1,\n    "-1/2"\n  ],\n'
        '  [\n    1,\n    0,\n    2,\n    1,\n    0\n  ],\n'
        '  [\n    1,\n    1,\n    1,\n    1,\n    0\n  ],\n'
        '  [\n    2,\n    1,\n    2,\n    1,\n    3\n  ]\n]\n'
    )
    assert f.to_json() == want
