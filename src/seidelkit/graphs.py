"""Immutable bitmask graphs and vertex subsets.

Vertices are integers 0..n-1.  A graph stores one adjacency bitmask per
vertex, so a single machine word covers a whole row for every order this
package supports (n <= 62, the graph6 short-form range).  All values are
immutable; operations return fresh objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_ORDER = 62

# A permutation of {0..n-1}: image[v] is where v goes.
Permutation = tuple[int, ...]


def _check_order(n: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be an integer in 1..{MAX_ORDER}, got {n!r}")


def _check_bound(n: int, bound: int) -> None:
    if n > bound:
        raise ValueError(f"order {n} above supported bound {bound}")


@dataclass(frozen=True)
class VertexSet:
    """A subset of {0..n-1} stored as a bitmask with ambient order n."""

    n: int
    mask: int = 0

    def __post_init__(self) -> None:
        _check_order(self.n)
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError(f"mask {self.mask:#x} has bits outside 0..{self.n - 1}")

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "VertexSet":
        mask = 0
        for v in indices:
            if not 0 <= v < n:
                raise IndexError(f"vertex {v} out of range for order {n}")
            mask |= 1 << v
        return cls(n, mask)

    @classmethod
    def singleton(cls, n: int, v: int) -> "VertexSet":
        return cls.from_indices(n, (v,))

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        _check_order(n)
        return cls(n, (1 << n) - 1)

    def indices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if (self.mask >> v) & 1)

    def complement(self) -> "VertexSet":
        return VertexSet(self.n, self.mask ^ ((1 << self.n) - 1))

    def _combine(self, other: "VertexSet", op: str) -> "VertexSet":
        if not isinstance(other, VertexSet):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("vertex sets have different ambient orders")
        if op == "^":
            return VertexSet(self.n, self.mask ^ other.mask)
        if op == "&":
            return VertexSet(self.n, self.mask & other.mask)
        return VertexSet(self.n, self.mask | other.mask)

    def __xor__(self, other: "VertexSet") -> "VertexSet":
        return self._combine(other, "^")

    def __and__(self, other: "VertexSet") -> "VertexSet":
        return self._combine(other, "&")

    def __or__(self, other: "VertexSet") -> "VertexSet":
        return self._combine(other, "|")

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices())

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool((self.mask >> v) & 1)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; bit j of adj[i] is set iff {i, j} is an edge."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_order(self.n)
        if not isinstance(self.adj, tuple):
            object.__setattr__(self, "adj", tuple(self.adj))
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count differs from order")
        for i, row in enumerate(self.adj):
            if row < 0 or row >> self.n:
                raise ValueError(f"row {i} has bits outside 0..{self.n - 1}")
            if (row >> i) & 1:
                raise ValueError(f"loop at vertex {i}")
        for i in range(self.n):
            ri = self.adj[i]
            for j in range(i + 1, self.n):
                if (ri >> j) & 1 != (self.adj[j] >> i) & 1:
                    raise ValueError(f"asymmetric adjacency at {{{i}, {j}}}")

    @classmethod
    def _of(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """Wrap a tuple of rows that the package derived from a valid graph
        or a checked code.

        Skips the O(n^2) checks of __post_init__, which such rows pass by
        construction; input from outside goes through Graph(...) instead.
        """
        g = object.__new__(cls)
        # attribute by attribute, as the dataclass __init__ does: reading
        # g.__dict__ here would give every graph a dict of its own
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range for order {self.n}")

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def neighborhood(self, v: int) -> VertexSet:
        self._check_vertex(v)
        return VertexSet(self.n, self.adj[v])

    def has_edge(self, i: int, j: int) -> bool:
        self._check_vertex(i)
        self._check_vertex(j)
        return bool((self.adj[i] >> j) & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i in range(self.n):
            row = self.adj[i] >> (i + 1)
            j = i + 1
            while row:
                if row & 1:
                    out.append((i, j))
                row >>= 1
                j += 1
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


def _check_ambient(g: Graph, s: VertexSet) -> None:
    if s.n != g.n:
        raise ValueError("vertex set order differs from graph order")


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges coalesce."""
    _check_order(n)
    rows = [0] * n
    for e in edges:
        i, j = e
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"edge {e!r} out of range for order {n}")
        if i == j:
            raise ValueError(f"loop edge at vertex {i}")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    rows = tuple((row ^ full) & ~(1 << i) for i, row in enumerate(g.adj))
    return Graph._of(g.n, rows)


def induced_subgraph(g: Graph, s: VertexSet) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on s, plus the order-preserving map old index -> new index."""
    _check_ambient(g, s)
    kept = s.indices()
    if not kept:
        raise ValueError("induced subgraph needs a non-empty vertex set")
    remap = {old: new for new, old in enumerate(kept)}
    rows = []
    for old in kept:
        row = 0
        src = g.adj[old]
        for oldj, newj in remap.items():
            if (src >> oldj) & 1:
                row |= 1 << newj
        rows.append(row)
    return Graph._of(len(kept), tuple(rows)), remap


def relabel(g: Graph, perm: Permutation) -> Graph:
    """Image of g under a permutation: vertex v becomes perm[v]."""
    if len(perm) != g.n or sorted(perm) != list(range(g.n)):
        raise ValueError(f"not a permutation of 0..{g.n - 1}: {perm!r}")
    rows = [0] * g.n
    for i in range(g.n):
        src = g.adj[i]
        row = 0
        j = 0
        while src:
            if src & 1:
                row |= 1 << perm[j]
            src >>= 1
            j += 1
        rows[perm[i]] = row
    return Graph._of(g.n, tuple(rows))


def _upper_bits(rows, lab) -> int:
    """The upper-triangle bit string of rows relabeled by lab, as one int.

    lab maps new label -> old vertex.  Pairs run column-major, (0,1)
    (0,2) (1,2) (0,3) ..., and the first pair is the highest bit, so
    integer order is string order; graph6 and CanonicalForm carry this
    string, padded on the right.
    """
    code = 0
    for j in range(1, len(lab)):
        # one column at a time, so the inner loop shifts a small int
        row = rows[lab[j]]
        col = 0
        for v in lab[:j]:
            col = col << 1 | (row >> v) & 1
        code = code << j | col
    return code


def _upper_rows(n: int, code: int) -> list[int]:
    """Adjacency rows of order n from the bit string _upper_bits encodes."""
    rows = [0] * n
    t = n * (n - 1) // 2
    for j in range(1, n):
        for i in range(j):
            t -= 1
            if (code >> t) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def _switch_rows(rows, mask: int) -> list[int]:
    """rows switched by the vertex subset mask.

    Row i is XORed with the mask of the opposite side, so exactly the
    pairs crossing between the subset and its complement toggle.
    """
    opp = mask ^ ((1 << len(rows)) - 1)
    return [row ^ (opp if (mask >> i) & 1 else mask) for i, row in enumerate(rows)]


def _reversed_bits(code: int, width: int) -> int:
    # bit t of the LSB-first code is bit width-1-t of the upper-triangle string
    return int(format(code, f"0{width}b")[::-1], 2)


def graph_to_code(g: Graph) -> int:
    """Pack the upper triangle into an integer, column-major: bit t(i,j) = C(j,2)+i."""
    return _reversed_bits(_upper_bits(g.adj, range(g.n)), g.n * (g.n - 1) // 2)


def graph_from_code(n: int, code: int) -> Graph:
    """Inverse of graph_to_code for a given order."""
    _check_order(n)
    npairs = n * (n - 1) // 2
    if code < 0 or code >> npairs:
        raise ValueError(f"code {code} out of range for order {n}")
    return Graph._of(n, tuple(_upper_rows(n, _reversed_bits(code, npairs))))
