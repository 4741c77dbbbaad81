"""Finite cobweb posets materialized level by level, with enumeration oracles.

A cobweb poset is layered: level s holds pairwise-incomparable vertices
<1,s>..<F_s,s>, and every vertex of a lower level lies below every vertex of
every higher level.  Everything in this module answers questions by walking
that explicit order relation (segments built on demand, depth-first
enumeration memoized per vertex pair), never by closed-form shortcuts; the
algebra modules are validated against these counts.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .sequences import FSequence


class Vertex(NamedTuple):
    """Poset element <j,s>: position j (1-based) within level s."""

    j: int
    s: int

    def __str__(self) -> str:
        return f"<{self.j},{self.s}>"


Pair = tuple[Vertex, Vertex]


class FinitePoset:
    """The cobweb poset truncated at ``max_level``, with all structure explicit.

    Immutable after construction.  Segments are not cached: each call slices
    the level-ordered vertex list.  The DFS oracles memoize their counts per
    vertex pair (and length), pure query results only, so instances are safe
    to share across concurrent readers.
    """

    def __init__(self, seq: FSequence, max_level: int):
        if max_level < 0:
            raise ValueError(f"max level must be >= 0, got {max_level}")
        if max_level + 1 > len(seq):
            raise ValueError(
                f"max level {max_level} exceeds sequence length {len(seq)}"
            )
        self.seq = seq
        self.max_level = max_level
        self.levels: tuple[tuple[Vertex, ...], ...] = tuple(
            tuple(Vertex(j, s) for j in range(1, seq.value_at(s) + 1))
            for s in range(max_level + 1)
        )
        self.vertices: tuple[Vertex, ...] = tuple(
            v for level in self.levels for v in level
        )
        self._vertex_set = frozenset(self.vertices)
        # complete bipartite edges between consecutive levels, pointing upward
        self.hasse_edges: tuple[Pair, ...] = tuple(
            (u, w)
            for p in range(max_level)
            for u in self.levels[p]
            for w in self.levels[p + 1]
        )
        self._up: dict[Vertex, tuple[Vertex, ...]] = {
            v: self.levels[v.s + 1] if v.s < max_level else ()
            for v in self.vertices
        }
        # index in ``vertices`` of the first vertex of each level, and one past the last
        self._starts = [0, *accumulate(map(len, self.levels))]
        self._pairs: tuple[Pair, ...] | None = None
        self._memo_chains: dict[tuple[Vertex, Vertex, int], int] = {}
        self._memo_multi: dict[tuple[Vertex, Vertex, int], int] = {}
        self._memo_maximal: dict[tuple[Vertex, Vertex, int], int] = {}
        self._memo_mobius: dict[Pair, int] = {}

    # -- basic structure ----------------------------------------------------

    def __contains__(self, v: object) -> bool:
        return v in self._vertex_set

    def __repr__(self) -> str:
        return f"FinitePoset({self.seq.name!r}, n={self.max_level}, {len(self.vertices)} vertices)"

    def _require(self, v: Vertex) -> None:
        if v not in self._vertex_set:
            raise ValueError(f"vertex {v} not in poset (levels 0..{self.max_level})")

    def level(self, s: int) -> tuple[Vertex, ...]:
        return self.levels[s]

    def rank(self, x: Vertex) -> int:
        self._require(x)
        return x.s

    def leq(self, x: Vertex, y: Vertex) -> bool:
        """Order relation: x <= y iff rank(x) < rank(y), or x == y."""
        self._require(x)
        self._require(y)
        return self._leq(x, y)

    def _leq(self, x: Vertex, y: Vertex) -> bool:
        """``leq`` without the membership checks, for vertices of this poset."""
        return x.s < y.s or x == y

    def segment(self, x: Vertex, y: Vertex) -> tuple[Vertex, ...]:
        """All z with x <= z <= y, ascending by (level, position); empty if x !<= y."""
        self._require(x)
        self._require(y)
        if x == y:
            return (x,)
        if x.s < y.s:
            return (x, *self.vertices[self._starts[x.s + 1] : self._starts[y.s]], y)
        return ()

    def comparable_pairs(self) -> tuple[Pair, ...]:
        """Every ordered pair x <= y, ascending by (x.s, x.j, y.s, y.j)."""
        if self._pairs is None:
            pairs = []
            for x in self.vertices:
                pairs.append((x, x))
                for lvl in range(x.s + 1, self.max_level + 1):
                    for y in self.levels[lvl]:
                        pairs.append((x, y))
            self._pairs = tuple(pairs)
        return self._pairs

    # -- enumeration oracles ------------------------------------------------

    def count_chains(self, x: Vertex, y: Vertex, k: int) -> int:
        """Strict chains x < z_1 < ... < z_{k-1} < y with k edges, by DFS."""
        self._require(x)
        self._require(y)
        if k < 1:
            raise ValueError(f"chain length must be >= 1, got {k}")
        return self._chains(x, y, k)

    def _chains(self, c: Vertex, y: Vertex, m: int) -> int:
        key = (c, y, m)
        got = self._memo_chains.get(key)
        if got is None:
            if m == 1:
                got = 1 if c.s < y.s else 0
            else:
                got = 0
                for lvl in range(c.s + 1, y.s):
                    for w in self.levels[lvl]:
                        got += self._chains(w, y, m - 1)
            self._memo_chains[key] = got
        return got

    def count_all_chains(self, x: Vertex, y: Vertex) -> int:
        """Total strict chains from x to y over every length."""
        self._require(x)
        self._require(y)
        return sum(self._chains(x, y, k) for k in range(1, y.s - x.s + 1))

    def count_maximal_chains(self, x: Vertex, y: Vertex, k: int) -> int:
        """Saturated chains x covered-by ... covered-by y with k edges.

        Walks the explicit Hasse adjacency; nonzero only when k equals the
        rank gap.
        """
        self._require(x)
        self._require(y)
        if k < 1:
            raise ValueError(f"chain length must be >= 1, got {k}")
        return self._maximal(x, y, k)

    def _maximal(self, c: Vertex, y: Vertex, m: int) -> int:
        if m == 0:
            return 1 if c == y else 0
        key = (c, y, m)
        got = self._memo_maximal.get(key)
        if got is None:
            got = 0
            for w in self._up[c]:
                if w.s < y.s or w == y:
                    got += self._maximal(w, y, m - 1)
            self._memo_maximal[key] = got
        return got

    def count_all_maximal_chains(self, x: Vertex, y: Vertex) -> int:
        """Total saturated chains from x to y, summed over every length."""
        self._require(x)
        self._require(y)
        return sum(self._maximal(x, y, k) for k in range(1, y.s - x.s + 1))

    def count_multichains(self, x: Vertex, y: Vertex, k: int) -> int:
        """Weakly increasing sequences x <= z_1 <= ... <= z_{k-1} <= y, by DFS."""
        self._require(x)
        self._require(y)
        if k < 1:
            raise ValueError(f"multichain length must be >= 1, got {k}")
        if not self.leq(x, y):
            return 0
        return self._multi(x, y, k)

    def _multi(self, c: Vertex, y: Vertex, m: int) -> int:
        if m == 1:
            return 1
        key = (c, y, m)
        got = self._memo_multi.get(key)
        if got is None:
            got = 0
            for w in self.segment(c, y):
                got += self._multi(w, y, m - 1)
            self._memo_multi[key] = got
        return got

    def mobius(self, x: Vertex, y: Vertex) -> int:
        """Mobius value by the deletion recursion, independent of any closed form.

        mu(x,x) = 1 and mu(x,y) = -sum of mu(x,z) over x <= z < y.
        """
        self._require(x)
        self._require(y)
        if not self.leq(x, y):
            raise ValueError(f"mobius undefined: {x} and {y} are not comparable")
        return self._mobius(x, y)

    def _mobius(self, x: Vertex, z: Vertex) -> int:
        if x == z:
            return 1
        key = (x, z)
        got = self._memo_mobius.get(key)
        if got is None:
            got = -sum(self._mobius(x, w) for w in self.segment(x, z) if w != z)
            self._memo_mobius[key] = got
        return got

    # -- export ---------------------------------------------------------------

    def to_dot(self) -> str:
        """Hasse diagram in DOT: one node per vertex labeled "j,s", levels as rank groups."""
        lines = [
            "digraph cobweb {",
            "  rankdir=BT;",
            f'  label="{self.seq.name} n={self.max_level}";',
            "  node [shape=ellipse];",
        ]
        for level in self.levels:
            if not level:
                continue
            members = " ".join(f'"{v.j},{v.s}";' for v in level)
            lines.append("  { rank=same; " + members + " }")
        for u, w in self.hasse_edges:
            lines.append(f'  "{u.j},{u.s}" -> "{w.j},{w.s}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_poset(seq: FSequence, max_level: int) -> FinitePoset:
    """Materialize the finite cobweb poset for levels 0..max_level of ``seq``."""
    return FinitePoset(seq, max_level)
