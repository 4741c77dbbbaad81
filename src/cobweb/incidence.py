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
from bisect import bisect_right
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import add, mul, sub
from typing import Callable, Mapping, Sequence, Union

from .poset import FinitePoset, Pair, Vertex

Value = Union[int, Fraction]

FULL_NAMES = ("delta", "zeta", "eta", "chi", "C", "M")


def _exact(v: Value) -> Value:
    """Collapse denominator-1 fractions to plain int."""
    if type(v) is not int and isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


def _split(ranks: Sequence[int], flat: list) -> tuple[list[int], list, list[list]]:
    """Per point of a table: the index of the first point of a higher rank,
    the diagonal value, and the values at the points from that index on (its row)."""
    bases = [bisect_right(ranks, r) for r in ranks]
    diag, rows, i = [], [], 0
    for base in bases:
        diag.append(flat[i])
        rows.append(flat[i + 1 : i + 1 + len(ranks) - base])
        i += 1 + len(ranks) - base
    return bases, diag, rows


def _integral(flat: list) -> tuple[int, list[int]]:
    """The lcm s of the denominators of a table's values, and s times each value."""
    scale = lcm(*(v.denominator for v in flat if type(v) is not int))
    if scale != 1:
        flat = [v.numerator * (scale // v.denominator) for v in flat]
    return scale, flat


def _pack(flat: list[int], bases: list[int], bound: int) -> tuple[list[int], int, int, int]:
    """Each point's strict row (its values at the points from its base on) as one
    int, the value at point b in the signed slot at place N-1-b of the N points.
    A slot has the whole bytes that hold ``bound``, with one bit to spare; the
    slot width, half a slot's range and that half in each of N+1 slots (the
    bias that makes slot sums within ``bound`` read back unsigned) come too."""
    n = len(bases)
    width = (bound.bit_length() + 8) // 8
    half = 1 << (8 * width - 1)
    bias = int.from_bytes(half.to_bytes(width, "big") * (n + 1), "big")
    biased = b"".join(map(int.to_bytes, map(add, flat, repeat(half)), repeat(width), repeat("big")))
    packed, end = [], 0
    for base in bases:  # the row at c fills the bytes up to end, its diagonal first
        start, end = end + width, end + width * (1 + n - base)
        packed.append(int.from_bytes(biased[start:end], "big") - (bias >> 8 * width * (base + 1)))
    return packed, width, half, bias


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
        out.values = dict(zip(self.values, flat))
        return out

    def _convolve(self, other):
        """(f*g)(a,b) = f(a,a)g(a,b) + f(a,b)g(b,b) + the sum of w_c f(a,c) g(c,b)
        over the points c strictly inside [a, b], one multiply-add of ints per row.

        Fraction tables are first scaled to ints: f*g = (s f)*(t g) / (s t), with
        s, t the lcm of their denominators.  The row of g at c, over the points
        of a higher rank, is packed into one int P_c, g(c,b) in the slot at
        place N-1-b of the N points; row a of f*g, but for f(a,b)g(b,b), is
        then f(a,a) P_a + the sum of w_c f(a,c) P_c over c of a higher rank.
        A slot's sum is at most max|f| max|g| (the sum of all weights) in
        absolute value, the bound that sizes the slots (and holds g's values).
        """
        points = self._points()
        if not isinstance(other, type(self)) or other._points() != points:
            raise ValueError(self._MISMATCH)
        _, ranks, weights = points
        s, ff = _integral(list(self.values.values()))
        t, gf = _integral(list(other.values.values()))
        bases, fd, fr = _split(ranks, ff)
        _, gd, _ = _split(ranks, gf)
        n = len(ranks)
        mf, mg = (max(map(abs, flat), default=0) for flat in (ff, gf))
        packed, width, half, bias = _pack(gf, bases, max(mf, 1) * mg * sum(weights))
        from_bytes = int.from_bytes
        slots = [slice(i, i + width) for i in range(0, width * (n + 1), width)]
        out, gcol = [], []  # gcol: g(b,b) for the pair (a,b) at the same place in out
        for fa, frow, ga, pa, base in zip(fd, fr, gd, packed, bases):
            row = sum(map(mul, map(mul, weights[base:], frow), packed[base:]), fa * pa)
            # one slot more than the row, for the pair (a,a): it reads back as 0
            data = (row + (bias >> 8 * width * base)).to_bytes(width * (1 + len(frow)), "big")
            out += map(from_bytes, map(data.__getitem__, slots[: 1 + len(frow)]), repeat("big"))
            gcol.append(ga)
            gcol += gd[base:]
        out = list(map(sub, map(add, out, map(mul, ff, gcol)), repeat(half)))
        if s * t != 1:
            out = [_exact(Fraction(v, s * t)) for v in out]
        return self._with_values(out)

    def _power(self, k: int):
        if k < 0:
            raise ValueError(f"power must be >= 0, got {k}")
        if k == 0:
            return self._with_values([int(a == b) for a, b in self.values])
        out = self
        for bit in bin(k)[3:]:  # repeated squaring over the bits below the leading one
            out = out.convolve(out)
            if bit == "1":
                out = out.convolve(self)
        return out

    def _invert(self):
        """Exact inverse in integers, after Bareiss's fraction-free elimination,
        with one big-integer multiply-add per point of a row.

        A table with Fraction entries is first scaled to ints by the lcm s of
        its denominators: inv(f) = s inv(s f).  Row a gets one denominator
        D_a = f(a,a) N(a,a), with N(a,a) the product, over the ranks above a,
        of the lcm of |f(c,c)| over the points c of that rank.  A chain from a
        meets each rank at most once, so the numerators N(a,b) = D_a inv(a,b)
        are integers: N(a,b) f(b,b) = -S(a,b), where S(a,b) = N(a,a) f(a,b) +
        the sum of w_c N(a,c) f(c,b) over the points c strictly inside [a, b].
        Each entry is s N(a,b) / D_a: an int when D_a divides it (always when
        D_a is 1 or -1), otherwise one Fraction.

        Row a is one accumulator over the strict rows P_c of f, packed into
        ints by ``_pack``; it starts at N(a,a) P_a.  Points of one rank are
        incomparable, so when the points b above a are taken in ascending
        rank, b's slot holds S(a,b) at b's turn (a rank level reads the same
        point by point as at once).  It is read with one shift and mask and
        divided by -f(b,b); then N(a,b) times (w_b P_b + f(b,b) in b's slot)
        is added, which also zeroes b's slot if the division was exact.  A
        remainder leaves the accumulator nonzero and raises ArithmeticError.

        Slot bound.  With M = max(1, max|f|) and F_r the total weight of rank
        r, every partial sum in a slot of row a is at most N(a,a) times the
        product of (1 + M F_r) over the ranks r above a, so at most |D_a|
        times it.  By induction over those ranks, with B_r = M N(a,a) times
        the product of (1 + M F_q) over the ranks q strictly between a and r:
        if |N(a,c)| <= B_q for every c of a rank q < r, every partial sum in a
        slot of rank r or above is at most M (N(a,a) + the sum of F_q B_q) =
        B_r, and so is |N(a,b)| <= |S(a,b)| for b of rank r (f(b,b) is a
        nonzero integer; a floored quotient obeys this too); B_r (1 + M F_r)
        is B at the next rank.  Each B_r, and each packed value (at most M),
        is within the product, as M <= 1 + M F_r.  The bound falls with the
        rank of a, so the lowest rank's sizes the slots.
        """
        points, ranks, weights = self._points()
        scale, flat = _integral(list(self.values.values()))
        bases, fd, _ = _split(ranks, flat)
        if 0 in fd:
            raise ValueError(self._ZERO_DIAGONAL.format(points[fd.index(0)]))
        m = max(map(abs, flat), default=1)
        lcms, totals = {}, {}  # per rank: the lcm of |f(c,c)| over its points, their weight
        for r, d, w in zip(ranks, fd, weights):
            lcms[r] = lcm(lcms.get(r, 1), d)
            totals[r] = totals.get(r, 0) + w
        above, prod, grow, bound = {}, 1, 1, 1  # above: N(a,a) for the rows of each rank
        for r in reversed(lcms):  # the bound set last is the lowest rank's
            above[r], bound = prod, prod * grow
            prod *= lcms[r]
            grow *= 1 + m * totals[r]
        packed, width, half, bias = _pack(flat, bases, bound)
        step = 8 * width
        mask = (1 << step) - 1
        shifts = range(step * (len(ranks) - 1), -1, -step)  # point b's slot is at place N-1-b
        # per point b: its slot's shift, -f(b,b), and w_b P_b + f(b,b) in the slot of b
        cols = [(sh, -d, w * p + (d << sh)) for sh, w, p, d in zip(shifts, weights, packed, fd)]
        out = []
        for r, da, pa, base in zip(ranks, fd, packed, bases):
            na, low = above[r], bias >> step * (base + 1)  # low: half in each slot of the row
            x, row = na * pa + low, [na]
            for sh, nd, wp in cols[base:]:
                q = ((x >> sh & mask) - half) // nd
                x += q * wp
                row.append(q)
            if x != low:  # the slot of the first inexact division kept its remainder
                num, db = next((q * -nd + half - (x >> sh & mask), -nd) for q, (sh, nd, _)
                               in zip(row[1:], cols[base:]) if x >> sh & mask != half)
                raise ArithmeticError(f"inexact row numerator: {num} mod {db} is {num % db}")
            den = da * na
            if den == 1 or den == -1:
                out += map(mul, row, repeat(scale * den))
            else:
                row = map(mul, row, repeat(scale))
                out += [v // den if v % den == 0 else Fraction(v, den) for v in row]
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
        pairs = poset.comparable_pairs()
        if list(values) != list(pairs):  # else the keys are every comparable pair, in order
            vs = poset._vertex_set
            for x, y in values:
                # poset.leq inlined, and called only to raise its error for a foreign vertex
                if not (x in vs and y in vs and (x.s < y.s or x == y)) and not poset.leq(x, y):
                    raise ValueError(
                        f"value on non-comparable pair ({x}, {y}); "
                        "incidence functions vanish off the order relation"
                    )
            values = dict(zip(pairs, map(values.get, pairs, repeat(0))))
        self.poset = poset
        self.values: dict[Pair, Value] = (
            dict(values) if set(map(type, values.values())) <= {int}
            else dict(zip(pairs, map(_exact, values.values())))
        )

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
