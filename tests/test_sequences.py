import pytest
from hypothesis import given, strategies as st

from cobweb import FSequence, make_sequence


def classic_fibonacci(count):
    # independent recurrence: 1, 1, 2, 3, 5, 8, ...
    vals = []
    a, b = 1, 1
    while len(vals) < count:
        vals.append(a)
        a, b = b, a + b
    return vals


def test_fibonacci_matches_recurrence():
    assert make_sequence("fibonacci", 4).values == (1, 1, 2, 3, 5)
    got = make_sequence("fibonacci", 9)
    assert list(got.values) == classic_fibonacci(10)


def test_generators():
    assert make_sequence("constant:2", 3).values == (1, 2, 2, 2)
    assert make_sequence("constant:7", 0).values == (1,)
    assert make_sequence("naturals", 5).values == (1, 1, 2, 3, 4, 5)
    assert make_sequence("naturals", 0).values == (1,)
    assert make_sequence("custom:1,3,1,4,2", 4).values == (1, 3, 1, 4, 2)
    # longer custom lists are truncated to the requested max level
    assert make_sequence("custom:1,3,1,4,2", 2).values == (1, 3, 1)


def test_exceptional_empty_root():
    seq = make_sequence("custom:0,2,3", 2)
    assert seq.values == (0, 2, 3)
    assert seq.min_rank == 1
    assert make_sequence("fibonacci", 3).min_rank == 0


@pytest.mark.parametrize(
    "spec",
    [
        "custom:1,0,3",  # zero level above the root
        "custom:2,1",  # F_0 must be 0 or 1
        "custom:1,-1",
        "custom:1,x",
        "custom:",
        "constant:0",
        "constant:x",
        "wat",
        "fibonacci:3",
    ],
)
def test_malformed_specs(spec):
    with pytest.raises(ValueError):
        make_sequence(spec, 2)


def test_custom_too_short():
    with pytest.raises(ValueError):
        make_sequence("custom:1,2", 3)


def test_negative_max_level():
    with pytest.raises(ValueError):
        make_sequence("fibonacci", -1)


@pytest.mark.parametrize("spec", ["fibonacci", "naturals", "constant:2", "custom:1,2"])
def test_max_level_guard_boundary(spec):
    assert make_sequence(spec, 0).values == (1,)
    with pytest.raises(ValueError, match=r"^max level must be >= 0, got -1$"):
        make_sequence(spec, -1)


def test_value_at_and_range():
    seq = make_sequence("fibonacci", 4)
    assert seq.value_at(3) == 3
    assert make_sequence("constant:2", 2).value_at(0) == 1
    with pytest.raises(IndexError):
        seq.value_at(99)
    with pytest.raises(IndexError):
        seq.value_at(-1)


def test_direct_construction_validates():
    with pytest.raises(ValueError):
        FSequence(())
    with pytest.raises(ValueError):
        FSequence((1, 0, 2))
    with pytest.raises(ValueError):
        FSequence((3,))
    assert FSequence((0, 1)).min_rank == 1


@given(st.sampled_from(["fibonacci", "naturals", "constant:2", "constant:5"]), st.integers(0, 12))
def test_generated_sequences_satisfy_invariants(spec, n):
    seq = make_sequence(spec, n)
    assert len(seq) == n + 1
    assert seq.value_at(0) == 1
    assert all(seq.value_at(i) >= 1 for i in range(1, n + 1))
    # deterministic: building twice gives the identical tuple
    assert seq.values == make_sequence(spec, n).values


@given(st.lists(st.integers(1, 9), min_size=0, max_size=8), st.sampled_from([0, 1]))
def test_custom_roundtrip(tail, f0):
    spec = "custom:" + ",".join(str(v) for v in [f0, *tail])
    seq = make_sequence(spec, len(tail))
    assert seq.values == (f0, *tail)
