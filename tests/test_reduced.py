import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cobweb import (
    RankDependenceError,
    ReducedFunction,
    Vertex,
    build_poset,
    incidence_coefficient,
    make_sequence,
    project,
    rank_triangle,
    standard_full,
    standard_reduced,
)

FIB = make_sequence("fibonacci", 3)
FIB_POSET = build_poset(FIB, 3)

SPECS = (("fibonacci", 3), ("naturals", 4), ("constant:2", 4), ("custom:1,3,1,4", 3))


def rand_table(seq, n, seed, lo=-4, hi=4):
    rng = random.Random(seed)
    return ReducedFunction(seq, n, {t: rng.randint(lo, hi) for t in rank_triangle(seq, n)})


# -- incidence coefficients -----------------------------------------------------


def test_coefficient_examples():
    assert incidence_coefficient(FIB, 0, 3, 2) == 2  # F_2 strictly inside
    assert incidence_coefficient(FIB, 0, 3, 0) == 1  # only the lower endpoint
    assert incidence_coefficient(FIB, 0, 3, 3) == 1
    assert incidence_coefficient(FIB, 2, 1, 1) == 0  # empty type, k > n
    assert incidence_coefficient(FIB, 0, 3, 5) == 0
    assert incidence_coefficient(FIB, 1, 1, 1) == 1


def test_coefficient_matches_segment_counts():
    for spec, n in SPECS:
        seq = make_sequence(spec, n)
        p = build_poset(seq, n)
        for x, y in p.comparable_pairs():
            seg = p.segment(x, y)
            for l in range(0, n + 1):
                assert incidence_coefficient(seq, x.s, y.s, l) == sum(
                    1 for z in seg if z.s == l
                )


# -- triangle bookkeeping ----------------------------------------------------------


def test_triangle_shape():
    assert rank_triangle(FIB, 1) == [(0, 0), (0, 1), (1, 1)]
    seq0 = make_sequence("custom:0,2,3", 2)
    assert rank_triangle(seq0, 2) == [(1, 1), (1, 2), (2, 2)]


def test_value_lookup():
    zr = standard_reduced("zeta", FIB, 3)
    assert zr.value(0, 3) == 1
    assert zr(2, 1) == 0  # implicit zero below the diagonal
    with pytest.raises(KeyError):
        zr.value(0, 9)


def test_table_rejects_out_of_triangle_keys():
    with pytest.raises(ValueError):
        ReducedFunction(FIB, 3, {(3, 1): 5})


# -- convolution ----------------------------------------------------------------------


def test_reduced_convolution_examples():
    zr = standard_reduced("zeta", FIB, 3)
    assert (zr * zr).value(0, 3) == 5  # 1 + F_1 + F_2 + 1
    er = standard_reduced("eta", FIB, 3)
    assert (er * er).value(0, 3) == 3
    dr = standard_reduced("delta", FIB, 3)
    f = rand_table(FIB, 3, seed=11)
    assert dr * f == f
    assert f * dr == f


def test_shape_mismatch():
    with pytest.raises(ValueError):
        standard_reduced("zeta", FIB, 3).convolve(
            standard_reduced("zeta", make_sequence("constant:2", 3), 3)
        )


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_reduced_convolution_associative(s1, s2, s3):
    f, g, h = (rand_table(FIB, 3, s) for s in (s1, s2, s3))
    assert (f * g) * h == f * (g * h)


# -- closed forms -------------------------------------------------------------------------


def test_standard_reduced_examples():
    mu = standard_reduced("mobius", FIB, 3)
    assert mu.value(0, 3) == 0
    assert all(mu.value(k, k) == 1 for k in range(4))
    chi3 = standard_reduced("chi_pow", FIB, 3, power=3)
    assert chi3.value(0, 3) == 2  # F_1 * F_2


def test_standard_reduced_errors():
    with pytest.raises(ValueError):
        standard_reduced("nu", FIB, 3)
    with pytest.raises(ValueError):
        standard_reduced("eta_pow", FIB, 3)  # missing power
    with pytest.raises(ValueError):
        standard_reduced("chi_pow", FIB, 3, power=0)
    with pytest.raises(ValueError):
        standard_reduced("zeta", FIB, 3, power=2)


def test_closed_forms_match_reduced_powers():
    for spec, n in SPECS:
        seq = make_sequence(spec, n)
        zr = standard_reduced("zeta", seq, n)
        er = standard_reduced("eta", seq, n)
        cr = standard_reduced("chi", seq, n)
        assert standard_reduced("zeta2", seq, n) == zr * zr
        for s in range(1, 5):
            assert standard_reduced("eta_pow", seq, n, power=s) == er.power(s)
            assert standard_reduced("chi_pow", seq, n, power=s) == cr.power(s)


def test_zeta2_diagonal_is_one():
    # card[x,x] = 1; the two-endpoint formula applies only to distinct ranks
    z2 = standard_reduced("zeta2", FIB, 3)
    assert all(z2.value(k, k) == 1 for k in range(4))
    assert z2.value(0, 3) == 5


# -- inversion ------------------------------------------------------------------------------


def test_reduced_inversion():
    for spec, n in SPECS:
        seq = make_sequence(spec, n)
        zr = standard_reduced("zeta", seq, n)
        assert zr.invert() == standard_reduced("mobius", seq, n)
    cr_inv = standard_reduced("C", FIB, 3).invert()
    assert cr_inv.value(0, 3) == 6
    assert cr_inv.value(0, 0) == 1
    mr_inv = standard_reduced("M", FIB, 3).invert()
    assert mr_inv.value(0, 3) == 2


def test_reduced_inverse_is_two_sided():
    f = rand_table(FIB, 3, seed=5)
    vals = dict(f.values)
    for k in range(4):
        vals[(k, k)] = 3
    f = ReducedFunction(FIB, 3, vals)
    inv = f.invert()
    delta = standard_reduced("delta", FIB, 3)
    assert f * inv == delta
    assert inv * f == delta
    assert inv.value(0, 0) == Fraction(1, 3)


def test_reduced_invert_zero_diagonal():
    f = ReducedFunction(FIB, 3, {(k, n): 1 for k, n in rank_triangle(FIB, 3) if (k, n) != (2, 2)})
    with pytest.raises(ValueError, match="rank 2"):
        f.invert()


# -- lift and project -----------------------------------------------------------------------


def test_lift_matches_full_functions():
    for name in ("delta", "zeta", "eta", "chi", "C", "M"):
        assert standard_reduced(name, FIB, 3).lift(FIB_POSET) == standard_full(name, FIB_POSET)


def test_lift_shape_mismatch():
    other = build_poset(make_sequence("constant:2", 3), 3)
    with pytest.raises(ValueError):
        standard_reduced("zeta", FIB, 3).lift(other)


def test_lift_rejects_poset_differing_at_top_level():
    table = standard_reduced("zeta", make_sequence("custom:1,1,2,3", 3), 3)
    other = build_poset(make_sequence("custom:1,1,2,4", 3), 3)
    with pytest.raises(ValueError, match="shape mismatch"):
        table.lift(other)


def test_lift_project_roundtrip():
    for seed in range(5):
        table = rand_table(FIB, 3, seed)
        assert project(table.lift(FIB_POSET)) == table


def test_project_standard_functions():
    for name in ("delta", "zeta", "eta", "chi", "C", "M"):
        assert project(standard_full(name, FIB_POSET)) == standard_reduced(name, FIB, 3)


def test_project_convolution_compatibility():
    zeta = standard_full("zeta", FIB_POSET)
    zr = standard_reduced("zeta", FIB, 3)
    assert project(zeta * zeta) == zr * zr
    for seed in range(10):
        f = rand_table(FIB, 3, 2 * seed).lift(FIB_POSET)
        g = rand_table(FIB, 3, 2 * seed + 1).lift(FIB_POSET)
        assert project(f * g) == project(f) * project(g)


def test_project_rejects_rank_dependent_violation():
    vals = dict(standard_full("zeta", FIB_POSET).values)
    vals[(Vertex(1, 2), Vertex(1, 3))] = 7  # break constancy on type (2, 3)
    broken = standard_full("zeta", FIB_POSET).__class__(FIB_POSET, vals)
    with pytest.raises(RankDependenceError) as exc:
        project(broken)
    err = exc.value
    assert err.rank_type == (2, 3)
    assert {err.witness_values[0], err.witness_values[1]} == {1, 7}
    assert "(2, 3)" in str(err)


def test_rank_dependence_message_names_both_witnesses():
    vals = dict(standard_full("zeta", FIB_POSET).values)
    # the first pair of type (2, 3) that differs from (<1,2>, <1,3>) in both vertices
    vals[(Vertex(2, 2), Vertex(2, 3))] = 7
    with pytest.raises(RankDependenceError) as exc:
        project(standard_full("zeta", FIB_POSET).__class__(FIB_POSET, vals))
    assert exc.value.witness_pairs == ((Vertex(1, 2), Vertex(1, 3)), (Vertex(2, 2), Vertex(2, 3)))
    assert exc.value.witness_values == (1, 7)
    assert str(exc.value) == (
        "not constant on rank type (2, 3): segment [<1,2>,<1,3>] has value 1 "
        "but [<2,2>,<2,3>] has value 7"
    )


def test_rank_triangle_guard_boundary():
    seq = make_sequence("custom:1,2,3", 2)
    assert rank_triangle(seq, len(seq) - 1)[-1] == (2, 2)
    with pytest.raises(IndexError, match=r"^max rank 3 exceeds sequence length 3$"):
        rank_triangle(seq, len(seq))


# -- exceptional empty root ---------------------------------------------------------------------


def test_empty_root_tables():
    seq = make_sequence("custom:0,2,3,1", 3)
    p = build_poset(seq, 3)
    for name in ("delta", "zeta", "eta", "chi", "C", "M"):
        table = standard_reduced(name, seq, 3)
        assert table.min_rank == 1
        assert table.lift(p) == standard_full(name, p)
    zr = standard_reduced("zeta", seq, 3)
    assert zr.invert() == standard_reduced("mobius", seq, 3)
    assert project(standard_full("zeta", p)) == zr


# -- serialization --------------------------------------------------------------------------------


def test_reduced_csv():
    text = standard_reduced("mobius", FIB, 3).to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "k,n,value"
    assert lines[1] == "0,0,1"
    assert "0,3,0" in lines


def test_reduced_json():
    obj = json.loads(standard_reduced("mobius", FIB, 3).to_json())
    assert obj["0,0"] == 1
    assert obj["0,3"] == 0
    f = ReducedFunction(FIB, 3, {(k, k): 2 for k in range(4)}).invert()
    assert json.loads(f.to_json())["0,0"] == "1/2"


def test_json_bytes():
    seq = make_sequence("custom:1,2", 1)
    f = ReducedFunction(seq, 1, {(0, 0): 1, (0, 1): Fraction(-1, 2), (1, 1): 3})
    assert f.to_json() == '{\n  "0,0": 1,\n  "0,1": "-1/2",\n  "1,1": 3\n}\n'
