"""Identity Seidel switches.

A subset S is an identity switch of G when switching by S lands back in
the isomorphism class of G.  The empty set and the full vertex set
always qualify, and S works exactly when its complement does, so scans
only need the even-looking half of the subset lattice.

A single switch is decided by is_isomorphic, where a switched graph
whose sorted degree sequence differs from G's is "not isomorphic"
before any canonical search; edge_iss_conditions likewise settles
condition_ii when the two sets are equal, or differ in their core
degrees, before it searches Aut(core).

verify's edge sweep decides the three switches of every edge of a whole
order at once in _edge_reports: the same degree guard, then one batched
search for the codes (iso._isomorphic_pairs).  condition_ii there is
edge_iss_conditions' own code, which searches Aut(core) one core at a
time.  Every public function here keeps its one-graph route, and so
does the iss suite's spot check and singleton verdicts, which run the
single search.  iss_family reads its family off the switch-orbit scan
of its switching class, which the process scans once (iso._class_scan),
so the iss suite scans one graph per class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import _kernels
from .graphs import Graph, VertexSet, _switch_rows, induced_subgraph
from .iso import _class_scan, _isomorphic_pairs, automorphisms, is_isomorphic
from .switching import switch_set


def is_iss(g: Graph, s: VertexSet) -> bool:
    """Is switching by s an identity switch of g?"""
    return is_isomorphic(switch_set(g, s), g)


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

    If h is f switched by S, the identity switches of h are S ^ U over
    the switches U of f that land in h's isomorphism class (Seidel &
    Taylor, "Two-graphs, a second survey", 1981).  So one switch-orbit
    scan of the first graph f met in g's switching class, at most
    2^(n-1) canonical forms, answers every member.  g takes h, f switched
    by the first even mask S whose code is g's, and the isomorphism that
    the canonical labelings of h and g give carries h's identity switches
    onto g; switching_class reads the same scan.
    """
    n = g.n
    code, f, scan, _ = _class_scan(g)
    # slot k holds the even mask 2k, whose complement switches the same way
    s = 2 * scan.index(code)
    # h's vertex at each position of its labeling goes to g's
    lab = _kernels.run_canon(g.adj, n)[1]
    phi = dict(zip(_kernels.run_canon(tuple(_switch_rows(f.adj, s)), n)[1], lab))
    return _family(g, [sum(1 << phi[v] for v in range(n) if (s ^ 2 * k) >> v & 1)
                       for k, c in enumerate(scan) if c == code])


def _family(g: Graph, half: list[int]) -> IssFamily:
    # the family of g from one member of each complementary pair
    n = g.n
    full = (1 << n) - 1
    masks = sorted(half + [s ^ full for s in half])
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


def _core(g: Graph, x: int, y: int) -> int:
    # the mask of the core, every vertex but x and y; a non-edge is refused
    if not g.has_edge(x, y):
        raise ValueError(f"({x}, {y}) is not an edge")
    return ((1 << g.n) - 1) & ~(1 << x) & ~(1 << y)


def edge_iss_direct(g: Graph, x: int, y: int) -> bool:
    """Is switching by the edge pair {x, y} an identity switch?"""
    return is_iss(g, VertexSet(g.n, _core(g, x, y)).complement())


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
    direct = edge_iss_direct(g, x, y)  # raises ValueError for a non-edge
    return EdgeIssReport(x, y, direct, *_conditions(g, x, y))


def _conditions(g: Graph, x: int, y: int) -> tuple[bool, bool]:
    # condition_i and condition_ii of edge_iss_conditions for the edge xy
    n = g.n
    condition_i = g.degree(x) + g.degree(y) == n
    rest = _core(g, x, y)
    a_mask = g.adj[x] & rest
    b_mask = rest & ~g.adj[y]

    def core_degrees(mask):
        return sorted((g.adj[v] & rest).bit_count() for v in range(n) if mask >> v & 1)

    # the identity maps a set onto itself, and automorphisms keep core
    # degrees, so both tests, read off g's rows, settle condition_ii
    # before the core is built or searched
    if a_mask == b_mask:
        condition_ii = True
    elif core_degrees(a_mask) != core_degrees(b_mask):
        condition_ii = False
    else:
        core, remap = induced_subgraph(g, VertexSet(n, rest))
        start = sum(1 << remap[v] for v in remap if a_mask >> v & 1)
        target = sum(1 << remap[v] for v in remap if b_mask >> v & 1)
        # breadth-first search of the orbit of start under the
        # generators of Aut(core): at most C(n - 2, |start|) masks
        gens = automorphisms(core).generators
        orbit = {start}
        todo = [start]
        for m in todo:
            for sigma in gens:
                img = sum(1 << sigma[v] for v in range(core.n) if m >> v & 1)
                if img not in orbit:
                    orbit.add(img)
                    todo.append(img)
        condition_ii = target in orbit
    return condition_i, condition_ii


def core_neighborhoods_partition(g: Graph, x: int, y: int) -> bool:
    """Do the core neighbors of x and of y split the core with no overlap?"""
    rest = _core(g, x, y)
    a = g.adj[x] & rest
    b = g.adj[y] & rest
    return (a & b) == 0 and (a | b) == rest


def _derived_rows(g: Graph, x: int, y: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # the rows of g minus xy and of g with its core flipped; the second graph
    # is the first complemented and switched by {x, y}, so their verdicts agree
    rest = _core(g, x, y)
    removed = list(g.adj)
    removed[x] &= ~(1 << y)
    removed[y] &= ~(1 << x)
    flipped = [(row ^ rest) & ~(1 << i) if rest >> i & 1 else row for i, row in enumerate(g.adj)]
    return tuple(removed), tuple(flipped)


def _derived_verdicts(g: Graph, x: int, y: int) -> tuple[bool, bool]:
    # the verdicts for {x, y} on g minus xy and on g with its core flipped
    removed, flipped = _derived_rows(g, x, y)
    s = VertexSet.from_indices(g.n, (x, y))
    return is_iss(Graph._of(g.n, removed), s), is_iss(Graph._of(g.n, flipped), s)


def _edge_reports(graphs) -> list[list[tuple[EdgeIssReport, bool, bool]]]:
    """For each graph, all of one order, and each of its edges in g.edges() order:
    edge_iss_conditions(g, x, y) followed by _derived_verdicts(g, x, y).

    The direct, g - xy and flipped-core switches of every edge are
    decided together, in one _isomorphic_pairs call.
    """
    if not graphs:
        return []
    pairs = []
    for g in graphs:
        for x, y in g.edges():
            s = 1 << x | 1 << y
            pairs += [(rows, tuple(_switch_rows(rows, s))) for rows in (g.adj, *_derived_rows(g, x, y))]
    verdicts = iter(_isomorphic_pairs(pairs, graphs[0].n))
    return [[(EdgeIssReport(x, y, next(verdicts), *_conditions(g, x, y)), next(verdicts), next(verdicts))
             for x, y in g.edges()] for g in graphs]


def edge_removed_agreement(g: Graph, x: int, y: int) -> bool:
    """Does deleting the edge xy leave the pair's identity-switch verdict alone?

    Compares the verdict for {x, y} on g with the verdict for the same
    pair on g minus the edge.  They first differ at order 8 (GyWYdO).
    """
    return _derived_verdicts(g, x, y)[0] == edge_iss_direct(g, x, y)


def complemented_core_agreement(g: Graph, x: int, y: int) -> bool:
    """Does complementing the core leave the verdict for the edge xy alone?

    Flips every adjacency away from x and y, keeping the two stars and
    the edge xy; the answer is always edge_removed_agreement's.
    """
    return _derived_verdicts(g, x, y)[1] == edge_iss_direct(g, x, y)
