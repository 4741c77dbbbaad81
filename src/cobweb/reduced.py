"""Functions on rank pairs: the reduced algebra of a cobweb poset.

Because any two segments with the same endpoint ranks look identical, every
named algebra element depends on (rank(x), rank(y)) only.  This module works
with those rank-pair tables directly.  Convolution weights each intermediate
rank by how many segment elements realize it: exactly one at each endpoint
(the endpoints themselves), the full level size strictly inside.  That
endpoint behavior is forced by direct segment enumeration and is exercised
by the verification suite.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import Callable, Mapping, Sequence

from .incidence import IncidenceFunction, Value, _exact, _SegmentAlgebra
from .poset import FinitePoset
from .sequences import FSequence

RankPair = tuple[int, int]

REDUCED_NAMES = (
    "delta",
    "zeta",
    "zeta2",
    "eta",
    "eta_pow",
    "C",
    "chi",
    "chi_pow",
    "M",
    "mobius",
)

POWERED_NAMES = ("eta_pow", "chi_pow")


class RankDependenceError(ValueError):
    """A function took two different values on segments of the same rank type."""

    def __init__(self, rank_type, pair_a, value_a, pair_b, value_b):
        self.rank_type = rank_type
        self.witness_pairs = (pair_a, pair_b)
        self.witness_values = (value_a, value_b)
        super().__init__(
            f"not constant on rank type {rank_type}: "
            f"segment [{pair_a[0]},{pair_a[1]}] has value {value_a} "
            f"but [{pair_b[0]},{pair_b[1]}] has value {value_b}"
        )


def rank_triangle(seq: FSequence, max_rank: int) -> list[RankPair]:
    """All rank pairs (k, n) with k <= n over nonempty levels, ascending."""
    if max_rank + 1 > len(seq):
        raise IndexError(f"max rank {max_rank} exceeds sequence length {len(seq)}")
    lo = seq.min_rank
    return [(k, n) for k in range(lo, max_rank + 1) for n in range(k, max_rank + 1)]


def incidence_coefficient(seq: FSequence, k: int, n: int, l: int) -> int:
    """Number of elements at rank l inside any segment with endpoint ranks (k, n).

    The endpoints contribute exactly one element each regardless of their
    level size; every rank strictly between contributes its whole level.
    Out-of-range l (or k > n) gives 0.  Meaningful only for rank pairs whose
    levels are nonempty.
    """
    if k > n or l < k or l > n:
        return 0
    if l == k or l == n:
        return 1
    return seq.value_at(l)


class ReducedFunction(_SegmentAlgebra):
    """Exact-valued triangular table over rank pairs (k, n), k <= n <= max_rank.

    Missing input entries are filled with 0; pairs with k > n are implicitly 0.
    When the level-0 size is 0 the triangle starts at rank 1.
    """

    _MISMATCH = "shape mismatch: operands have different sequences or max ranks"
    _ZERO_DIAGONAL = "not invertible: zero diagonal at rank {0}"

    def __init__(self, seq: FSequence, max_rank: int, values: Mapping[RankPair, Value]):
        triangle = rank_triangle(seq, max_rank)
        allowed = set(triangle)
        for t in values:
            if t not in allowed:
                raise ValueError(f"rank pair {t} outside the triangle for max rank {max_rank}")
        self.seq = seq
        self.max_rank = max_rank
        self.values: dict[RankPair, Value] = {
            t: _exact(values.get(t, 0)) for t in triangle
        }

    @classmethod
    def from_callable(
        cls, seq: FSequence, max_rank: int, fn: Callable[[int, int], Value]
    ) -> "ReducedFunction":
        return cls(seq, max_rank, {(k, n): fn(k, n) for k, n in rank_triangle(seq, max_rank)})

    @property
    def min_rank(self) -> int:
        return self.seq.min_rank

    def triangle(self) -> tuple[RankPair, ...]:
        return tuple(self.values)

    def value(self, k: int, n: int) -> Value:
        """f(k, n); 0 for k > n, KeyError outside the stored triangle."""
        if k > n:
            return 0
        got = self.values.get((k, n))
        if got is None:
            raise KeyError(
                f"rank pair ({k},{n}) outside table over ranks "
                f"{self.min_rank}..{self.max_rank}"
            )
        return got

    __call__ = value

    def _points(self) -> tuple[Sequence, Sequence[int], list[int]]:
        ranks = range(self.min_rank, self.max_rank + 1)
        return ranks, ranks, [self.seq.value_at(l) for l in ranks]

    def convolve(self, other: "ReducedFunction") -> "ReducedFunction":
        """Rank-pair convolution with the level-size incidence coefficients."""
        return self._convolve(other)

    def power(self, s: int) -> "ReducedFunction":
        """s-fold convolution; s = 0 gives the identity table."""
        return self._power(s)

    def invert(self) -> "ReducedFunction":
        """Two-sided inverse under the reduced convolution; exact values."""
        return self._invert()

    def lift(self, poset: FinitePoset) -> IncidenceFunction:
        """The rank-dependent incidence function with value f(rank(x), rank(y)).

        Distinct same-level vertices are incomparable, so they carry no entry
        (implicitly 0); the diagonal maps to f(k, k).
        """
        if poset.seq.prefix(poset.max_level) != self.seq.prefix(self.max_rank):
            raise ValueError("shape mismatch: poset does not match this table")
        vals = self.values
        return IncidenceFunction.from_callable(poset, lambda x, y: vals[(x.s, y.s)])

    # -- serialization ------------------------------------------------------

    def to_csv(self) -> str:
        """CSV rows ``k,n,value`` ascending by (k, n)."""
        lines = ["k,n,value"]
        for (k, n), v in self.values.items():
            lines.append(f"{k},{n},{v}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """JSON object keyed "k,n", ascending; fractions rendered "p/q"."""
        obj = {
            f"{k},{n}": (v if isinstance(v, int) else str(v))
            for (k, n), v in self.values.items()
        }
        return json.dumps(obj, indent=2) + "\n"


def standard_reduced(
    name: str, seq: FSequence, max_rank: int, power: int | None = None
) -> ReducedFunction:
    """Closed-form rank table for one of the named algebra elements.

    Names: delta, zeta, zeta2, eta, eta_pow, C, chi, chi_pow, M, mobius.
    ``power`` is required (and must be >= 1) exactly for eta_pow and chi_pow:
    eta_pow(s) counts strict chains with s edges, chi_pow(s) saturated ones.
    Each table equals the matching convolution power and the projection of
    the full-algebra function it names.
    """
    key = name.strip()
    if key.lower() in ("c", "m"):
        key = key.upper()
    if key not in REDUCED_NAMES:
        raise ValueError(f"unknown function name {name!r}; expected one of {REDUCED_NAMES}")
    if key in POWERED_NAMES:
        if power is None:
            raise ValueError(f"{key} needs power >= 1")
        if power < 1:
            raise ValueError(f"power must be >= 1, got {power}")
    elif power is not None:
        raise ValueError(f"{key} takes no power argument")
    F = seq.value_at

    if key == "delta":
        fn = lambda k, n: 1 if k == n else 0
    elif key == "zeta":
        fn = lambda k, n: 1
    elif key == "zeta2":
        # segment cardinality: the two endpoints plus the full levels between
        fn = lambda k, n: 1 if k == n else sum(F(i) for i in range(k + 1, n)) + 2
    elif key == "eta":
        fn = lambda k, n: 1 if k < n else 0
    elif key == "eta_pow":
        fn = lambda k, n: _eta_power(seq, k, n, power)
    elif key == "C":
        fn = lambda k, n: 1 if k == n else -1
    elif key == "chi":
        fn = lambda k, n: 1 if n == k + 1 else 0
    elif key == "chi_pow":
        fn = lambda k, n: _prod_levels(seq, k, n) if n == k + power else 0
    elif key == "M":
        fn = lambda k, n: 1 if k == n else (-1 if n == k + 1 else 0)
    else:  # mobius
        def fn(k, n):
            if k == n:
                return 1
            prod = 1
            for i in range(k + 1, n):
                prod *= F(i) - 1
            return prod if (n - k) % 2 == 0 else -prod

    return ReducedFunction.from_callable(seq, max_rank, fn)


def _prod_levels(seq: FSequence, k: int, n: int) -> int:
    prod = 1
    for i in range(k + 1, n):
        prod *= seq.value_at(i)
    return prod


def _eta_power(seq: FSequence, k: int, n: int, s: int) -> int:
    """Strict chains with s edges between ranks k and n.

    Sum over strictly increasing (s-1)-tuples of intermediate ranks of the
    product of their level sizes; for s = 1 the empty tuple counts iff k < n.
    """
    if s == 1:
        return 1 if k < n else 0
    total = 0
    for combo in combinations(range(k + 1, n), s - 1):
        prod = 1
        for i in combo:
            prod *= seq.value_at(i)
        total += prod
    return total


def project(f: IncidenceFunction) -> ReducedFunction:
    """Collapse a rank-dependent incidence function to its rank-pair table.

    Raises RankDependenceError, naming the rank type and two witness
    segments, when f takes two different values on the same type; this is
    the executable membership test for the reduced algebra.
    """
    p = f.poset
    table: dict[RankPair, Value] = {}
    witness: dict[RankPair, tuple] = {}
    for x, y in p.comparable_pairs():
        t = (x.s, y.s)
        v = f.values[(x, y)]
        if t not in table:
            table[t] = v
            witness[t] = (x, y)
        elif table[t] != v:
            raise RankDependenceError(t, witness[t], table[t], (x, y), v)
    return ReducedFunction(p.seq, p.max_level, table)
