"""Identity Seidel switches.

A subset S is an identity switch of G when switching by S lands back in
the isomorphism class of G.  The empty set and the full vertex set
always qualify, and S works exactly when its complement does, so scans
only need the even-looking half of the subset lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, VertexSet, induced_subgraph
from .iso import _switch_orbit_codes, automorphisms, canonical_form
from .switching import switch_set

ISS_FAMILY_MAX_ORDER = 10


def is_iss(g: Graph, s: VertexSet) -> bool:
    """Is switching by s an identity switch of g?"""
    if s.n != g.n:
        raise ValueError("vertex set order differs from graph order")
    return canonical_form(switch_set(g, s)) == canonical_form(g)


@dataclass(frozen=True)
class IssFamily:
    """All identity switches of one graph.

    closed_under_delta reports whether the member set is closed under
    symmetric difference; when it is not, witness holds the first
    violating triple (a, b, a ^ b) in sorted mask order.
    """

    graph: Graph
    members: tuple[VertexSet, ...]
    closed_under_delta: bool
    witness: Optional[tuple[VertexSet, VertexSet, VertexSet]]

    @property
    def size(self) -> int:
        return len(self.members)


def iss_family(g: Graph) -> IssFamily:
    """Every identity switch of g, with the symmetric-difference verdict.

    The switch-orbit scan covers the subsets avoiding vertex 0 and the
    complement map fills in the rest, so the cost is at most 2^(n-1)
    canonical forms, one per automorphism orbit of those subsets;
    switching_class on the same graph reuses the scan.
    """
    n = g.n
    if n > ISS_FAMILY_MAX_ORDER:
        raise ValueError(f"order {n} above supported bound {ISS_FAMILY_MAX_ORDER}")
    codes = _switch_orbit_codes(g)
    full = (1 << n) - 1
    # slot k holds the even mask 2k, whose complement switches the same way
    evens = [2 * k for k, c in enumerate(codes) if c == codes[0]]
    masks = sorted(evens + [s ^ full for s in evens])
    member_set = set(masks)
    witness = next(
        ((VertexSet(n, a), VertexSet(n, b), VertexSet(n, a ^ b))
         for i, a in enumerate(masks) for b in masks[i + 1 :] if a ^ b not in member_set),
        None,
    )
    members = tuple(VertexSet(n, m) for m in masks)
    return IssFamily(g, members, witness is None, witness)


def vertex_iss_set(g: Graph) -> VertexSet:
    """Vertices whose singleton switch is an identity switch."""
    mask = 0
    for v in range(g.n):
        if is_iss(g, VertexSet.singleton(g.n, v)):
            mask |= 1 << v
    return VertexSet(g.n, mask)


def all_vertices_iss(g: Graph) -> bool:
    return vertex_iss_set(g).mask == (1 << g.n) - 1


def degree_extremes_adjacent(g: Graph) -> Optional[bool]:
    """When every singleton is an identity switch, are the degree extremes joined?

    Returns None when some vertex fails the premise.  Otherwise True
    exactly when every minimum-degree vertex is adjacent to every
    maximum-degree vertex (distinct pairs only).
    """
    if not all_vertices_iss(g):
        return None
    degs = [g.degree(v) for v in range(g.n)]
    lo, hi = min(degs), max(degs)
    for u in range(g.n):
        if degs[u] != lo:
            continue
        for w in range(g.n):
            if w == u or degs[w] != hi:
                continue
            if not g.has_edge(u, w):
                return False
    return True


def edge_iss_direct(g: Graph, x: int, y: int) -> bool:
    """Is switching by the edge pair {x, y} an identity switch?"""
    if not g.has_edge(x, y):
        raise ValueError(f"({x}, {y}) is not an edge")
    return is_iss(g, VertexSet.from_indices(g.n, (x, y)))


def _core(g: Graph, x: int, y: int):
    rest = VertexSet(g.n, ((1 << g.n) - 1) & ~(1 << x) & ~(1 << y))
    return induced_subgraph(g, rest)


@dataclass(frozen=True)
class EdgeIssReport:
    """Direct verdict next to the two-part degree/automorphism criterion."""

    x: int
    y: int
    direct: bool
    condition_i: bool
    condition_ii: bool

    @property
    def by_conditions(self) -> bool:
        return self.condition_i and self.condition_ii

    @property
    def agree(self) -> bool:
        return self.direct == self.by_conditions


def edge_iss_conditions(g: Graph, x: int, y: int) -> EdgeIssReport:
    """Evaluate the edge identity-switch criterion for an edge xy.

    condition_i: deg(x) + deg(y) equals the order of g.
    condition_ii: some automorphism of the core (g with x and y removed)
    maps the core neighbors of x onto the core non-neighbors of y.  For
    order 2 the core is empty and the condition holds vacuously.
    """
    if not g.has_edge(x, y):
        raise ValueError(f"({x}, {y}) is not an edge")
    n = g.n
    direct = edge_iss_direct(g, x, y)
    condition_i = g.degree(x) + g.degree(y) == n
    if n == 2:
        condition_ii = True
    else:
        core, remap = _core(g, x, y)
        a_mask = 0
        target = (1 << core.n) - 1
        for old, new in remap.items():
            if g.has_edge(x, old):
                a_mask |= 1 << new
            if g.has_edge(y, old):
                target &= ~(1 << new)
        # breadth-first search of the orbit of a_mask under the
        # generators of Aut(core): at most C(n - 2, |a_mask|) masks
        orbit = {a_mask}
        if a_mask.bit_count() == target.bit_count():
            gens = automorphisms(core).generators
            todo = [a_mask]
            for m in todo:
                for sigma in gens:
                    img = sum(1 << sigma[v] for v in range(core.n) if m >> v & 1)
                    if img not in orbit:
                        orbit.add(img)
                        todo.append(img)
        condition_ii = target in orbit
    return EdgeIssReport(x, y, direct, condition_i, condition_ii)


def core_neighborhoods_partition(g: Graph, x: int, y: int) -> bool:
    """Do the core neighbors of x and of y split the core with no overlap?"""
    if not g.has_edge(x, y):
        raise ValueError(f"({x}, {y}) is not an edge")
    rest = ((1 << g.n) - 1) & ~(1 << x) & ~(1 << y)
    a = g.adj[x] & rest
    b = g.adj[y] & rest
    return (a & b) == 0 and (a | b) == rest


def edge_removed_agreement(g: Graph, x: int, y: int) -> bool:
    """Does deleting the edge xy leave the pair's identity-switch verdict alone?

    Compares the verdict for {x, y} on g with the verdict for the same
    pair on g minus the edge.  Agreement is measured, not assumed.
    """
    if not g.has_edge(x, y):
        raise ValueError(f"({x}, {y}) is not an edge")
    rows = list(g.adj)
    rows[x] &= ~(1 << y)
    rows[y] &= ~(1 << x)
    h = Graph(g.n, tuple(rows))
    pair = VertexSet.from_indices(g.n, (x, y))
    return edge_iss_direct(g, x, y) == is_iss(h, pair)


def complemented_core_agreement(g: Graph, x: int, y: int) -> bool:
    """Complementing the core must not change whether xy is an edge identity switch.

    Builds g with all adjacencies away from x and y flipped (the two
    stars stay put, the edge xy stays put) and compares verdicts.
    """
    if not g.has_edge(x, y):
        raise ValueError(f"({x}, {y}) is not an edge")
    n = g.n
    rest = ((1 << n) - 1) & ~(1 << x) & ~(1 << y)
    rows = list(g.adj)
    for i in range(n):
        if (rest >> i) & 1:
            rows[i] = (rows[i] ^ rest) & ~(1 << i)
    h = Graph(n, tuple(rows))
    return edge_iss_direct(h, x, y) == edge_iss_direct(g, x, y)
