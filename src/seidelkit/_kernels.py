"""Canonical search and exhaustive sweeps over int bitmask rows.

A graph of order n is a sequence of n Python ints in the layout of
Graph.adj: bit j of rows[i] is set when {i, j} is an edge.  The search
and the sweeps are plain Python over those ints; the two-graph kernels
are numpy over a batch of graphs.  Helpers carry a leading underscore,
so the unprefixed functions are the only entry points.

Canonical labeling: iterative refinement of an ordered partition by
neighbor counts, then depth-first backtracking over the discrete
refinements.  A leaf is a labeling; its code is the relabeled
upper-triangle bit string as one int (graphs._upper_bits), in which
integer order equals string order.  The canonical form is the minimum
leaf code.  The search does not visit every leaf that ties it: a leaf
matching the first or the best leaf yields an automorphism, and the
automorphisms found so far prune the rest of the tree (McKay & Piperno,
"Practical graph isomorphism, II", 2014).  The group order follows by
orbit-stabilizer along the first path, and the vertex orbits by
uniting the generators.
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


def _fixing(gens, prefix):
    # the generators that fix every vertex of prefix
    return [g for g in gens if all(g[v] == v for v in prefix)]


def _orbit_parent(n, gens):
    parent = list(range(n))
    for g in gens:
        for v in range(n):
            if g[v] != v:
                _union(parent, v, g[v])
    return parent


def _canon(rows, n):
    """One canonical search: (code, bestlab, count, orbit, generators).

    code is the minimum leaf code and bestlab the first leaf, in search
    order, that reaches it.  Each leaf whose code equals the first or
    the best leaf's gives an automorphism; the search then returns to
    the node where the two leaf paths part, and it skips every child
    that a generator fixing the node's path maps onto a child already
    explored.  A skipped subtree is the automorphic image of one
    explored earlier, so neither the minimum code nor its first leaf
    can hide there.
    """
    first = best = None  # (code, lab, path) of a leaf
    gens = []

    def leaf(cells, path):
        nonlocal first, best
        lab = tuple(cell[0] for cell in cells)
        code = _upper_bits(rows, lab)
        if first is None:
            first = best = (code, lab, path)
            return None
        for ref_code, ref_lab, ref_path in (first, best):
            if code == ref_code:
                gen = [0] * n
                for p in range(n):
                    gen[ref_lab[p]] = lab[p]
                gens.append(tuple(gen))
                depth = 0
                while path[depth] == ref_path[depth]:
                    depth += 1
                return depth
        if code < best[0]:
            best = (code, lab, path)
        return None

    def visit(cells, path):
        # returns None, or the depth of the node the search goes back to
        cells = _refine(rows, cells)
        for ci, cell in enumerate(cells):
            if len(cell) > 1:
                break
        else:
            return leaf(cells, path)
        depth = len(path)
        explored = []
        known = 0  # the number of generators parent was built from
        for k, v in enumerate(cell):
            if explored and gens:
                if known < len(gens):
                    known = len(gens)
                    parent = _orbit_parent(n, _fixing(gens, path))
                root = _find(parent, v)
                if any(_find(parent, u) == root for u in explored):
                    continue
            explored.append(v)
            # individualize v: it goes first in its own cell, the rest stays in order
            split = cell.copy()
            split[0], split[k] = v, split[0]
            back = visit(cells[:ci] + [split[:1], split[1:]] + cells[ci + 1 :], path + [v])
            if back is not None and back < depth:
                return back
        return None

    visit([list(range(n))], [])
    # orbit-stabilizer along the first path: |Aut| is the product of the
    # orbit sizes of each individualized vertex under the generators
    # that fix the vertices individualized before it
    count = 1
    path = first[2]
    for k, v in enumerate(path):
        fixing = _fixing(gens, path[:k])
        reach = [v]
        for u in reach:
            for g in fixing:
                if g[u] not in reach:
                    reach.append(g[u])
        count *= len(reach)
    parent = _orbit_parent(n, gens)
    orbit = tuple(_find(parent, v) for v in range(n))
    return best[0], best[1], count, orbit, tuple(gens)


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
    An automorphism s of the graph maps the switch by S onto the switch
    by s(S), so only the least slot of each class under the generators
    is searched and the rest copy its code.
    """
    full = (1 << n) - 1
    half = 1 << (n - 1)
    code, _, _, _, gens = _canon(rows, n)
    parent = list(range(half))
    for g in gens:
        image = [0] * half  # image[k]: the mask g(2k)
        for k in range(1, half):
            low = k & -k
            image[k] = m = image[k ^ low] | 1 << g[low.bit_length()]
            _union(parent, k, (m ^ full if m & 1 else m) >> 1)
    codes = [code]
    for k in range(1, half):
        root = _find(parent, k)
        codes.append(codes[root] if root < k else _canon(_switch(rows, k << 1, full), n)[0])
    return tuple(codes)


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


def run_canon(rows, n):
    """Run the canonical search once on an int sequence of adjacency rows.

    Returns (code, bestlab, aut_count, orbit, generators).  code is the
    canonical upper-triangle bit string as one int; bestlab maps new
    label -> old vertex; aut_count is the automorphism group order;
    orbit holds the automorphism orbit root (least member) of each
    vertex; generators is a tuple of automorphisms, each as image[v],
    that generate the group (empty when it is trivial).
    """
    return _canon(rows, n)
