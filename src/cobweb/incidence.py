"""The incidence algebra over an explicit finite cobweb poset.

Functions live on comparable pairs, take exact integer or Fraction values,
and multiply by convolution over segments:

    (f * g)(x, y) = sum of f(x, z) * g(z, y) over all z with x <= z <= y.

Inverses come from the triangular recursion, so every value stays exact.
Counting conventions used throughout: a chain of length k has k edges and
k+1 elements; at x == y the inverses of the chain generators count the
empty chain, so their diagonal is 1.
"""

from __future__ import annotations

import copy
import json
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import mul
from typing import Callable, Mapping, Sequence, Union

from .poset import FinitePoset, Pair, Vertex

Value = Union[int, Fraction]

FULL_NAMES = ("delta", "zeta", "eta", "chi", "C", "M")


def _exact(v: Value) -> Value:
    """Collapse denominator-1 fractions to plain int."""
    if type(v) is not int and isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


def _split(ranks: Sequence[int], flat: list) -> tuple[list[int], list, list[list], list[list]]:
    """Per point of a table: the index of the first point of a higher rank,
    the diagonal value, the values at the points from that index on (its row),
    and the values at the points of a lower rank (its column)."""
    bases = [bisect_right(ranks, r) for r in ranks]
    diag, rows, cols, i = [], [], [[] for _ in ranks], 0
    for base in bases:
        diag.append(flat[i])
        rows.append(flat[i + 1 : i + 1 + len(ranks) - base])
        i += 1 + len(ranks) - base
    for r in dict.fromkeys(ranks):  # the rows of one rank span the same points
        start, base = bisect_left(ranks, r), bisect_right(ranks, r)
        for col, part in zip(cols[base:], zip(*rows[start:base])):
            col.extend(part)
    return bases, diag, rows, cols


class _SegmentAlgebra:
    """Arithmetic shared by the full and the reduced algebra, on one kernel.

    A table lives on points of ascending rank (vertices, or ranks), and its
    ``values`` stay total and in canonical order: row by row, the diagonal
    and then every point of a higher rank.  All points of a lower rank lie
    below all points of a higher one, so the points strictly inside a segment
    are one contiguous run.  Subclasses give ``_points`` (the points, their
    ranks and weights; equal exactly when the level sizes are) and the
    ``_MISMATCH`` and ``_ZERO_DIAGONAL`` messages.
    """

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._points() == other._points() and self.values == other.values

    def __mul__(self, other: object):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.convolve(other)

    def _with_values(self, flat: list):
        out = copy.copy(self)
        out.values = dict(zip(self.values, map(_exact, flat)))
        return out

    def _convolve(self, other):
        """(f*g)(a,b) = f(a,a)g(a,b) + f(a,b)g(b,b) + the sum of w_c f(a,c) g(c,b)
        over the points c strictly inside [a, b]."""
        points = self._points()
        if not isinstance(other, type(self)) or other._points() != points:
            raise ValueError(self._MISMATCH)
        _, ranks, weights = points
        bases, fd, fr, _ = _split(ranks, list(self.values.values()))
        _, gd, gr, gc = _split(ranks, list(other.values.values()))
        out = []
        for fa, frow, ga, grow, base in zip(fd, fr, gd, gr, bases):
            wrow = list(map(mul, weights[base:], frow))
            out.append(fa * ga)
            out += [
                fa * gab + fab * gbb + sum(map(mul, wrow, col[base:]))
                for fab, gab, gbb, col in zip(frow, grow, gd[base:], gc[base:])
            ]
        return self._with_values(out)

    def _power(self, k: int):
        if k < 0:
            raise ValueError(f"power must be >= 0, got {k}")
        if k == 0:
            return self._with_values([int(a == b) for a, b in self.values])
        out = self
        for _ in range(k - 1):
            out = out.convolve(self)
        return out

    def _invert(self):
        """inv(a,a) = 1/f(a,a) and inv(a,b) = -(inv(a,a)f(a,b) + the sum of
        w_c inv(a,c) f(c,b) over c strictly inside [a, b]) / f(b,b), row by row.
        The reciprocal of a unit is an int, so unit diagonals keep ints exact."""
        points, ranks, weights = self._points()
        bases, fd, fr, fc = _split(ranks, list(self.values.values()))
        if 0 in fd:
            raise ValueError(self._ZERO_DIAGONAL.format(points[fd.index(0)]))
        recip = [_exact(Fraction(1, d)) for d in fd]
        out = []
        for ia, frow, base in zip(recip, fr, bases):
            out.append(ia)
            wrow = []
            for fab, rb, w, col in zip(frow, recip[base:], weights[base:], fc[base:]):
                v = -(ia * fab + sum(map(mul, wrow, col[base:]))) * rb
                out.append(v)
                wrow.append(w * v)
        return self._with_values(out)


class IncidenceFunction(_SegmentAlgebra):
    """Exact-valued function on the comparable pairs of one poset.

    The table is total: every comparable pair has an entry (missing input
    entries are filled with 0), and pairs that are not comparable are
    implicitly 0 and cannot hold a value.
    """

    _MISMATCH = "poset mismatch: operands live on different posets"
    _ZERO_DIAGONAL = "not invertible: value at ({0}, {0}) is zero"

    def __init__(self, poset: FinitePoset, values: Mapping[Pair, Value]):
        for x, y in values:
            if not poset.leq(x, y):
                raise ValueError(
                    f"value on non-comparable pair ({x}, {y}); "
                    "incidence functions vanish off the order relation"
                )
        self.poset = poset
        self.values: dict[Pair, Value] = {
            pair: _exact(values.get(pair, 0)) for pair in poset.comparable_pairs()
        }

    @classmethod
    def _raw(cls, poset: FinitePoset, table: dict[Pair, Value]) -> "IncidenceFunction":
        # internal fast path: table already total, exact and in canonical order
        f = cls.__new__(cls)
        f.poset = poset
        f.values = table
        return f

    @classmethod
    def from_callable(
        cls, poset: FinitePoset, fn: Callable[[Vertex, Vertex], Value]
    ) -> "IncidenceFunction":
        return cls._raw(
            poset, {(x, y): _exact(fn(x, y)) for x, y in poset.comparable_pairs()}
        )

    def _points(self) -> tuple[Sequence, list[int], list[int]]:
        vs = self.poset.vertices
        return vs, [v.s for v in vs], [1] * len(vs)

    def value(self, x: Vertex, y: Vertex) -> Value:
        """f(x, y); 0 whenever x <= y fails."""
        self.poset._require(x)
        self.poset._require(y)
        return self.values.get((x, y), 0)

    __call__ = value

    def convolve(self, other: "IncidenceFunction") -> "IncidenceFunction":
        """Segment convolution; associative, with the diagonal function as identity."""
        return self._convolve(other)

    def power(self, k: int) -> "IncidenceFunction":
        """k-fold convolution; k = 0 gives the identity (diagonal) function."""
        return self._power(k)

    def invert(self) -> "IncidenceFunction":
        """Two-sided convolution inverse.

        Requires a nonzero value at every (x, x); computed bottom-up from
        inv(x,x) = 1/f(x,x) and
        inv(x,y) = -(1/f(y,y)) * sum of inv(x,z) f(z,y) over x <= z < y.
        """
        return self._invert()

    # -- serialization ------------------------------------------------------

    def to_csv(self) -> str:
        """CSV rows ``x_j,x_s,y_j,y_s,value`` ascending by (x.s, x.j, y.s, y.j)."""
        lines = ["x_j,x_s,y_j,y_s,value"]
        for x, y in self.poset.comparable_pairs():
            lines.append(f"{x.j},{x.s},{y.j},{y.s},{self.values[(x, y)]}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """JSON array of [x_j, x_s, y_j, y_s, value] rows; fractions as "p/q" strings."""
        rows = []
        for x, y in self.poset.comparable_pairs():
            v = self.values[(x, y)]
            rows.append([x.j, x.s, y.j, y.s, v if isinstance(v, int) else str(v)])
        return json.dumps(rows, indent=2) + "\n"


def standard_full(name: str, poset: FinitePoset) -> IncidenceFunction:
    """One of the named algebra elements on ``poset``.

    delta  identity: 1 exactly on the diagonal.
    zeta   characteristic function of the order; zeta^k counts multichains.
    eta    zeta - delta; eta^k counts strict chains with k edges.
    chi    1 exactly on covering pairs; chi^k counts saturated chains.
    C      delta - eta; its inverse counts all strict chains (diagonal 1,
           the empty chain).
    M      delta - chi; its inverse counts all saturated chains (diagonal 1).
    """
    key = name.strip()
    if key.lower() in ("c", "m"):
        key = key.upper()
    if key == "delta":
        fn = lambda x, y: 1 if x == y else 0
    elif key == "zeta":
        fn = lambda x, y: 1
    elif key == "eta":
        fn = lambda x, y: 0 if x == y else 1
    elif key == "chi":
        fn = lambda x, y: 1 if y.s == x.s + 1 else 0
    elif key == "C":
        fn = lambda x, y: 1 if x == y else -1
    elif key == "M":
        fn = lambda x, y: 1 if x == y else (-1 if y.s == x.s + 1 else 0)
    else:
        raise ValueError(f"unknown function name {name!r}; expected one of {FULL_NAMES}")
    return IncidenceFunction.from_callable(poset, fn)


def mobius_closed_form(poset: FinitePoset) -> IncidenceFunction:
    """Mobius function built directly from the rank product formula.

    Value 1 on the diagonal, -1 on covering pairs, and otherwise
    (-1)^(gap) times the product of (F_i - 1) over the levels strictly
    between the endpoints.  Must agree pointwise with
    ``standard_full("zeta", p).invert()`` and with the deletion recursion.
    """
    seq = poset.seq

    def mu(x: Vertex, y: Vertex) -> int:
        gap = y.s - x.s
        if gap == 0:
            return 1
        prod = 1
        for i in range(x.s + 1, y.s):
            prod *= seq.value_at(i) - 1
        return prod if gap % 2 == 0 else -prod

    return IncidenceFunction.from_callable(poset, mu)
