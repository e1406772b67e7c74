"""Canonical search and exhaustive sweeps over int bitmask rows.

A graph of order n is a sequence of n Python ints in the layout of
Graph.adj: bit j of rows[i] is set when {i, j} is an edge.  The search
and the sweeps are plain Python over those ints; the two-graph kernels
are numpy over a batch of graphs.  Helpers carry a leading underscore,
so the unprefixed functions are the only entry points.

Canonical labeling: iterative refinement of an ordered partition by
neighbor counts, then depth-first backtracking over all discrete
refinements.  A leaf is a labeling; its code is the relabeled
upper-triangle bit string as one int (graphs._upper_bits), in which
integer order equals string order.  The canonical form is the minimum
leaf code.  Leaves that tie the minimum are exactly the automorphisms,
which the search counts, optionally keeps, and folds into a vertex
orbit union-find.
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np

from .graphs import _upper_bits, graph_from_code


def _find(parent, x):
    # union-find root with path halving; unions always hang the larger
    # root under the smaller, so every root is its component's minimum
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent, a, b):
    a, b = _find(parent, a), _find(parent, b)
    if a != b:
        parent[max(a, b)] = min(a, b)


def _refine(rows, cells):
    # Split every cell by neighbor counts against a snapshot of the
    # current cells, subcells in stable signature order, until stable.
    n = len(rows)
    while len(cells) < n:
        masks = [sum(1 << v for v in cell) for cell in cells]
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            sig = {v: tuple((rows[v] & m).bit_count() for m in masks) for v in cell}
            cell = sorted(cell, key=sig.__getitem__)
            start = 0
            for p in range(1, len(cell)):
                if sig[cell[p]] != sig[cell[p - 1]]:
                    out.append(cell[start:p])
                    start = p
            out.append(cell[start:])
        if len(out) == len(cells):
            return out
        cells = out
    return cells


def _canon(rows, n, keep):
    """One canonical search: (code, bestlab, count, orbit, automorphisms).

    code is the minimum leaf code.  The automorphisms, identity first,
    are collected only when keep is set.
    """
    best = -1
    count = 0
    bestlab = ()
    auts = []
    parent = list(range(n))
    stack = [[list(range(n))]]
    while stack:
        cells = _refine(rows, stack.pop())
        for ci, cell in enumerate(cells):
            if len(cell) > 1:
                break
        else:
            lab = tuple(cell[0] for cell in cells)
            code = _upper_bits(rows, lab)
            if best < 0 or code < best:
                best, count, bestlab = code, 1, lab
                parent[:] = range(n)
                auts[:] = [tuple(range(n))] if keep else []
            elif code == best:
                count += 1
                if keep:
                    image = dict(zip(bestlab, lab))
                    auts.append(tuple(image[v] for v in range(n)))
                for p in range(n):
                    _union(parent, bestlab[p], lab[p])
            continue
        # individualize each vertex of the first non-singleton cell in
        # turn; pushed in reverse so that the search takes them in order
        for k in reversed(range(len(cell))):
            split = cell.copy()
            split[0], split[k] = split[k], split[0]
            stack.append(cells[:ci] + [split[:1], split[1:]] + cells[ci + 1 :])
    orbit = tuple(_find(parent, v) for v in range(n))
    return best, bestlab, count, orbit, tuple(auts)


def _switch(rows, smask, full):
    opp = full ^ smask
    return [row ^ (opp if (smask >> i) & 1 else smask) for i, row in enumerate(rows)]


def _complement(rows, full):
    return [(row ^ full) & ~(1 << i) for i, row in enumerate(rows)]


def _switch_vertex(rows, v, full):
    bit = 1 << v
    out = [row ^ bit for row in rows]
    out[v] = rows[v] ^ (full & ~bit)
    return out


def switch_orbit_scan(rows, n):
    """Canonical code of the switch of rows by every even-mask subset, as a tuple.

    Index k holds the code for subset mask 2k; odd masks are covered by
    complement equivalence.  Index 0 is the graph's own canonical code.
    """
    full = (1 << n) - 1
    return tuple(_canon(_switch(rows, k << 1, full), n, False)[0] for k in range(1 << (n - 1)))


def _triples(n):
    # the 3-subsets of range(n), in combinations order: triple t is bit t
    return np.array(list(combinations(range(n), 3)), dtype=np.int64).reshape(-1, 3)


def two_graphs(graphs, n):
    """The two-graph of each graph, as an int64 bitmask of its odd triples.

    graphs holds adjacency-row sequences of order n <= 8.  Bit t of
    entry k is set when the t-th 3-subset of range(n) spans an odd
    number of edges of graph k.
    """
    if n > 8:
        raise ValueError("two-graph bitmasks stop at order 8")
    tri = _triples(n)
    rows = np.array(graphs, dtype=np.int64).reshape(-1, n)
    a, b, c = tri.T
    odd = ((rows[:, a] >> b) ^ (rows[:, a] >> c) ^ (rows[:, b] >> c)) & 1
    return (odd << np.arange(len(tri), dtype=np.int64)).sum(axis=1)


def two_graph_orbits(graphs, n):
    """Each graph's two-graph under all n! relabelings: (minimum image, orbit size).

    Two graphs get the same minimum image exactly when their two-graphs
    are isomorphic; the orbit size counts the labeled two-graphs
    isomorphic to theirs.  Both come back as int64 arrays.
    """
    tri = _triples(n)
    odd = ((two_graphs(graphs, n)[:, None] >> np.arange(len(tri))) & 1).astype(bool)
    # bit[p, t]: the bit that triple t lands on under relabeling p
    slot = np.zeros((n, n, n), dtype=np.int64)
    slot[tri[:, 0], tri[:, 1], tri[:, 2]] = np.arange(len(tri))
    moved = np.sort(np.array(list(permutations(range(n))))[:, tri], axis=2)
    bit = np.int64(1) << slot[moved[..., 0], moved[..., 1], moved[..., 2]]
    keys = np.empty(len(odd), dtype=np.int64)
    sizes = np.empty(len(odd), dtype=np.int64)
    for i, row in enumerate(odd):
        images = bit[:, row].sum(axis=1)
        keys[i], sizes[i] = images.min(), len(np.unique(images))
    return keys, sizes


def algebra_sweep(n):
    """Exhaustive switching-identity sweep over every labeled graph of order n.

    Asserted identities, all bit-exact on adjacency rows:
      kind 0/1  subset switch equals the fold of its single-vertex
                switches, ascending and descending order
      kind 2    empty-set and full-set switches are the identity
      kind 3    a subset and its complement switch identically
      kind 4    graph complement commutes with switching
      kind 5    switching by t then s equals switching by s xor t

    Returns seven ints: graphs, checks, violations, then the first
    witness as (code, s, t, kind), each -1 when unused.
    """
    ncodes = 1 << (n * (n - 1) // 2)
    full = (1 << n) - 1
    nsub = 1 << n
    checks = 0
    bad = 0
    witness = (-1, -1, -1, -1)
    for code in range(ncodes):
        g = list(graph_from_code(n, code).adj)
        gc = _complement(g, full)
        sw = [_switch(g, s, full) for s in range(nsub)]
        for s in range(nsub):
            a = sw[s]
            asc = desc = g
            for v in range(n):
                if (s >> v) & 1:
                    asc = _switch_vertex(asc, v, full)
            for v in range(n - 1, -1, -1):
                if (s >> v) & 1:
                    desc = _switch_vertex(desc, v, full)
            tests = [(0, a == asc), (1, a == desc)]
            if s == 0 or s == full:
                tests.append((2, a == g))
            tests += [(3, a == sw[full ^ s]), (4, _complement(a, full) == _switch(gc, s, full))]
            for kind, ok in tests:
                checks += 1
                if not ok:
                    bad += 1
                    if witness[0] < 0:
                        witness = (code, s, -1, kind)
        for s in range(nsub):
            for t in range(nsub):
                checks += 1
                if _switch(sw[t], s, full) != sw[s ^ t]:
                    bad += 1
                    if witness[0] < 0:
                        witness = (code, s, t, 5)
    return (ncodes, checks, bad) + witness


def run_canon(rows, n, automorphisms=False):
    """Run the canonical search once on an int sequence of adjacency rows.

    Returns (code, bestlab, aut_count, orbit, auts).  code is the
    canonical upper-triangle bit string as one int; bestlab maps new
    label -> old vertex; orbit holds the automorphism orbit root of each
    vertex; auts is the tuple of automorphisms (identity first, each as
    image[v]) when automorphisms is set, else empty.
    """
    return _canon(rows, n, automorphisms)
