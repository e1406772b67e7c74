"""Canonical search and exhaustive sweeps over int bitmask rows.

A graph of order n is a sequence of n Python ints in the layout of
Graph.adj: bit j of rows[i] is set when {i, j} is an edge.  The search
is plain Python over those ints; the two-graph kernels are numpy over a
batch of graphs, and the algebra sweep is numpy over one int64 word per
graph, its rows packed side by side (row i at bits n*i to n*i + n - 1).
Helpers carry a leading underscore.  Other modules of the package call
a few of them too: iso the batch search (_search_codes and _codes),
verify the switch table _switch_pattern, and iso and invariants the
bounds _CODES_MAX_ORDER and _SWEEP_BLOCK.

The same search also runs on a whole stack of graphs of one order at
once (_canon_codes), for the callers that need many forms and nothing
else: switch_orbit_scan, for the switches of one graph,
iso.nonisomorphic_graphs, for each order's children, and _codes, for
the code-only verdicts of verify's sweeps (iso._isomorphic_pairs).
Each of them hands its stack to _search_codes, which runs one batch
from _SCAN_BATCH_MIN graphs up and one single search per graph below
that, so a scan with few slots and generation's children of orders 2
and 3 go one search at a time.  The batch refines every node of
every tree together and expands target cells of up to _CELL_MAX = 4
vertices, with no pruning, so it needs no automorphisms.  A graph whose
search meets a cell of five or more vertices gets -1 and goes back to
the pruned single search: an empty or complete graph would otherwise
expand n! leaves.  Through order _CODES_MAX_ORDER a code fits in an
int64; past it the batch refuses, and its callers stay within it
(iso.GENERATION_MAX_ORDER, iso.SWITCH_SCAN_MAX_ORDER and
verify.SWEEP_CAP).  Each single search goes through run_canon, a memo
keyed by the rows, so a graph that a scan, a reader and a suite all
meet is searched once; batch codes never enter it.  clear_caches()
empties it and the other answer caches, iso._CLASS_SCANS and
iss._EDGE_VERDICTS, each registered in _CACHE_CLEARS where it is defined.

A stack of graphs is a (graphs, n) int64 array of rows, as the
two-graph kernels take it; switching it by subset s XORs in row s of
_switch_pattern.  Only inside _canon_codes does the stack axis come
last: a batch of search nodes holds its adjacency as (n, n, nodes)
int64 and its ordered partitions as (n, nodes) colours, so every numpy
loop of a round runs over the nodes, not over the n <= 11 vertices.  A
leaf puts vertex v at position colour[v], so its code is one gather:
each edge {u, v} adds the entry of an (n, n) table of pair bits at
(colour[u], colour[v]).  A node whose partition stops moving is
equitable, and once fewer than a quarter of a batch's nodes still move,
the stable ones retire from the rest of its refinement rounds.

Canonical labeling: iterative refinement of an ordered partition by
neighbor counts, then depth-first backtracking over the discrete
refinements.  Each round counts neighbors only in the splitter cells:
the cells the round before created, less the last part of each split
(McKay, "Practical graph isomorphism", 1981).  The root's one splitter
is the whole vertex set, so its first round splits by degree; a child
that individualizes v starts from the splitter {v}.  Counts in the
other cells are constant on every cell or follow from the splitter
counts, so the ordered partition is the one that counting in every cell
would give.  A leaf is a labeling; its code is the relabeled
upper-triangle bit string as one int (graphs._upper_bits), in which
integer order equals string order.  The canonical form is the minimum
leaf code.  The search does not visit every leaf that ties it: a leaf
matching the first or the best leaf yields an automorphism, and the
automorphisms found so far prune the rest of the tree (McKay & Piperno,
"Practical graph isomorphism, II", 2014).  Orbits live in union-finds
that only grow: a search frame unites each new generator that fixes
its path once, and after the search one union-find walks the first
path from its deepest level up, uniting the generators that fix each
level's prefix.  It gives each level's orbit for the orbit-stabilizer
product that is the group order, and ends holding the vertex orbits.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .graphs import _check_bound, _check_order, _switch_rows, _upper_bits


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


def _unite(parent, g):
    # merge the orbits of the permutation g into the union-find parent
    for v, w in enumerate(g):
        if v != w:
            _union(parent, v, w)


def _refine(rows, cells, fresh):
    # Split every cell by its neighbor counts in the splitter masks fresh,
    # subcells in stable key order, until no cell splits.  fresh holds the
    # cells the last round created, less the last part of each split, in
    # partition order.  That gives the partition that counting in a
    # snapshot of all current cells gives: each cell is equitable against
    # the cells of the round before, so its count in an unsplit cell is
    # constant, and its count in a split's last part is its count in the
    # whole old cell less its counts in the other parts, which come
    # earlier.  A coordinate that is constant, or fixed by earlier ones,
    # never decides a comparison, so the order and the ties stay.  A key
    # packs the counts into one int, width bits each, the first mask
    # highest, so int order is tuple order.
    n = len(rows)
    width = n.bit_length()
    while fresh and len(cells) < n:
        out = []
        split = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            buckets = {}
            for v in cell:
                row = rows[v]
                key = 0
                for m in fresh:
                    key = key << width | (row & m).bit_count()
                if key in buckets:
                    buckets[key].append(v)
                else:
                    buckets[key] = [v]
            if len(buckets) == 1:
                out.append(cell)
                continue
            parts = [buckets[key] for key in sorted(buckets)]
            out += parts
            for part in parts[:-1]:
                split.append(sum(1 << v for v in part))
        cells, fresh = out, split
    return cells


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

    def visit(cells, path, fresh):
        # returns None, or the depth of the node the search goes back to
        cells = _refine(rows, cells, fresh)
        for ci, cell in enumerate(cells):
            if len(cell) > 1:
                break
        else:
            return leaf(cells, path)
        depth = len(path)
        explored = []
        # orbits of the generators gens[:known] that fix path; only grows
        parent, known = list(range(n)), 0
        for k, v in enumerate(cell):
            if explored and gens:
                for g in gens[known:]:
                    if all(g[u] == u for u in path):
                        _unite(parent, g)
                known = len(gens)
                root = _find(parent, v)
                if any(_find(parent, u) == root for u in explored):
                    continue
            explored.append(v)
            # individualize v: it goes first in a cell of its own, and the
            # cell's old first vertex takes v's place among the rest, out of
            # order once k >= 2.  That order reaches the generators the
            # search finds, which automorphisms(g) returns, so it stays.
            split = cell.copy()
            split[0], split[k] = v, split[0]
            back = visit(cells[:ci] + [split[:1], split[1:]] + cells[ci + 1 :], path + [v], [1 << v])
            if back is not None and back < depth:
                return back
        return None

    visit([list(range(n))], [], [(1 << n) - 1])
    if not gens:  # a trivial group: no orbit-stabilizer walk
        return best[0], best[1], 1, tuple(range(n)), ()
    # orbit-stabilizer along the first path: |Aut| is the product of the
    # orbit sizes of each individualized vertex under the generators
    # that fix the vertices individualized before it.  A generator fixes
    # path[:k] when the first path vertex it moves sits at level k or
    # deeper (an automorphism fixing the whole path fixes its leaf, so
    # every generator moves one), so one union-find walked deepest level
    # first holds each level's orbits in turn, and all of them at the end.
    path = first[2]
    levels = [[] for _ in path]
    for g in gens:
        levels[min(k for k, v in enumerate(path) if g[v] != v)].append(g)
    count = 1
    parent = list(range(n))
    for k in reversed(range(len(path))):
        for g in levels[k]:
            _unite(parent, g)
        root = _find(parent, path[k])
        count *= sum(_find(parent, u) == root for u in range(n))
    orbit = tuple(_find(parent, v) for v in range(n))
    return best[0], best[1], count, orbit, tuple(gens)


# Entries of the search memo.  verify --max-order 6 runs 1263 searches of
# 1263 distinct rows in one process, and on two CPUs 663 to 924 in
# either one, as the suites fall, so it evicts nothing; the codes of
# _search_codes's batches never enter it.
_CANON_MEMO = 1 << 11


@lru_cache(maxsize=_CANON_MEMO)
def run_canon(rows, n):
    """The canonical search of a tuple of adjacency rows, memoized.

    Returns (code, bestlab, aut_count, orbit, generators).  code is the
    canonical upper-triangle bit string as one int; bestlab maps new
    label -> old vertex; aut_count is the automorphism group order;
    orbit holds the automorphism orbit root (least member) of each
    vertex; generators is a tuple of automorphisms, each as image[v],
    that generate the group (empty when it is trivial).  Every single
    search of the package comes through here, so a graph met again by
    another reader, scan or suite is searched once.
    """
    return _canon(rows, n)


# The clear of each answer cache, appended where the cache is defined; the
# static tables _order_tables, _switch_pattern and iso._generated stay.
_CACHE_CLEARS = [run_canon.cache_clear]


def clear_caches():
    """Empty every answer cache registered in _CACHE_CLEARS, so the next call starts cold."""
    for clear in _CACHE_CLEARS:
        clear()


# the largest target cell that the batched search expands: an unpruned
# k-cell multiplies the tree by k at each level where it meets one
_CELL_MAX = 4

# The batched search keeps each leaf code, C(n, 2) bits, in one int64,
# and each refinement key: a colour above n neighbor counts, each
# n.bit_length() bits wide.
_CODES_MAX_ORDER = max(n for n in range(1, 64) if n * (n - 1) // 2 <= 63 and (n + 1) * n.bit_length() <= 63)

# entries of the (graphs, s, t) word stack that one block of the sweep
# holds, and of the adjacency stack that one batch of search nodes holds;
# and the multiply-adds of one block's matrix product in the Seidel
# polynomial recursion (invariants._char_polys)
_SWEEP_BLOCK = 1 << 16


@lru_cache(maxsize=None)
def _order_tables(n):
    # The read-only constants of _canon_codes and _equitable at order n,
    # built once per order: the pairs p < q as two index arrays, in leaf
    # code order; the n * n pair bits, where entries p * n + q and
    # q * n + p hold the code bit of label positions p and q; and the
    # weight of each cell's neighbor count in a refinement key, the
    # first cell highest.
    p, q = np.array([(p, q) for q in range(n) for p in range(q)], dtype=np.int64).reshape(-1, 2).T
    pair = np.zeros(n * n, dtype=np.int64)
    pair[p * n + q] = pair[q * n + p] = np.int64(1) << np.arange(len(p) - 1, -1, -1)
    weight = np.int64(1) << n.bit_length() * np.arange(n - 1, -1, -1)
    for table in (p, q, pair, weight):
        table.flags.writeable = False
    return p, q, pair, weight


def _equitable(adj, colors):
    # The snapshot refinement of each node's ordered partition, for an
    # (n, n, nodes) int64 adjacency stack and (n, nodes) int64 colours,
    # each vertex coloured by the start index of its cell.  A vertex's key
    # is its colour above its neighbor counts in the cells, the first cell
    # highest, and its new colour is the number of vertices with a smaller
    # key: those of earlier cells, which is its colour, plus the cellmates
    # with smaller counts.  That is the start of its subcell when its cell
    # is sorted by counts, so the partition is the one _refine reaches.
    # A node whose colours did not move is equitable and stays so; once
    # fewer than a quarter of the nodes still move, the others retire.
    n = len(adj)
    width = n.bit_length()
    weight = _order_tables(n)[3]
    out = None  # once nodes retire: every node's colours, live holds the rest's columns
    while True:
        key = colors << n * width | np.einsum("vub,ub->vb", adj, weight[colors])
        new = (key < key[:, None]).sum(axis=1, dtype=np.uint8).astype(np.int64)
        moved = (new != colors).any(axis=0)
        colors = new
        still = np.count_nonzero(moved)
        if not still:
            break
        if 4 * still < len(moved):
            if out is None:
                out, live = np.empty_like(colors), np.arange(len(moved))
            out[:, live[~moved]] = colors[:, ~moved]
            live, adj, colors = live[moved], adj[:, :, moved], colors[:, moved]
    if out is None:
        return colors
    out[:, live] = colors
    return out


def _canon_codes(rows, n):
    """The minimum leaf code of each graph of a (graphs, n) int64 row stack.

    Equal to _canon(rows, n)[0] for each graph whose search meets only
    target cells of up to _CELL_MAX vertices; a graph whose search meets
    a larger cell gets -1.  The tree is walked without pruning, which a
    large cell could blow up, so those graphs go back to the pruned
    _canon.  Search nodes go through in batches of at most _SWEEP_BLOCK
    adjacency entries, depth first, so memory stays bounded.
    """
    if n > _CODES_MAX_ORDER:
        raise ValueError(f"batched codes stop at order {_CODES_MAX_ORDER}")
    block = max(1, _SWEEP_BLOCK // (n * n))
    p, q, pair, _ = _order_tables(n)
    count = len(rows)
    best = np.full(count, np.iinfo(np.int64).max)
    wide = np.zeros(count, dtype=bool)
    for lo in range(0, count, block):
        # a[i, j, g]: bit j of row i of graph g, C-contiguous for _equitable
        r = rows[lo : lo + block]
        a = np.right_shift(r.T[:, None, :], np.arange(n)[:, None], out=np.empty((n, n, len(r)), dtype=np.int64))
        a &= 1
        # batches of search nodes as (graph index, adjacency, colours), the last one first
        todo = [(np.arange(lo, lo + a.shape[2]), a, np.zeros((n, a.shape[2]), dtype=np.int64))]
        while todo:
            graph, a, colors = todo.pop()
            keep = ~wide[graph]
            if not keep.all():
                graph, a, colors = graph[keep], a[:, :, keep], colors[:, keep]
            colors = _equitable(a, colors)
            # cells[i, c]: the size of the cell that starts at c in node i
            cells = np.bincount((colors + n * np.arange(len(graph))).ravel(),
                                minlength=n * len(graph)).reshape(-1, n)
            leaf = cells.max(axis=1) < 2
            # a leaf puts vertex v at position colour[v]; each edge {p, q}
            # adds the bit of its ends' positions
            c = colors[:, leaf]
            np.minimum.at(best, graph[leaf], (a[p, q][:, leaf] * pair[c[p] * n + c[q]]).sum(axis=0))
            target = (cells > 1).argmax(axis=1)
            size = cells[np.arange(len(graph)), target]
            wide[graph[size > _CELL_MAX]] = True
            keep = ~leaf & ~wide[graph]
            graph, a, colors, target, size = graph[keep], a[:, :, keep], colors[:, keep], target[keep], size[keep]
            if len(graph):
                # child j individualizes the vertex of rank j in the target
                # cell, which keeps the cell's start; the others move up one
                # place.  Every node has children 0 and 1, and a node with a
                # k-cell has k: more[j - 2] holds the nodes with a child j.
                # All the children go into one batch, since many small
                # batches cost more than their nodes; np.tile copies the
                # adjacency of a batch of 2-cells a few percent faster than
                # np.concatenate does.
                cell = colors == target
                rank = cell.cumsum(axis=0) - 1
                more = [np.flatnonzero(size > j) for j in range(2, size.max())]
                kids = [colors + (cell & (rank != j)) for j in range(size.max())]
                graph = np.concatenate([graph, graph, *(graph[h] for h in more)])
                colors = np.hstack([kids[0], kids[1], *(kids[j][:, h] for j, h in enumerate(more, 2))])
                a = np.concatenate([a, a, *(a[:, :, h] for h in more)], axis=2) if more else np.tile(a, 2)
                todo += [(graph[i : i + block], a[:, :, i : i + block], colors[:, i : i + block])
                         for i in range(0, len(graph), block)]
    return np.where(wide, -1, best)


# the fewest graphs that _search_codes searches as one batch: below it,
# one search per graph is cheaper (the crossover in
# benchmarks/BENCH_canon.json)
_SCAN_BATCH_MIN = 12


def _search_codes(rows, n):
    # the canonical code of each graph of a (graphs, n) int64 row stack, as
    # a list of ints: one batch from _SCAN_BATCH_MIN graphs up, and
    # run_canon for the graphs below it and for the batch's hand-backs
    if len(rows) < _SCAN_BATCH_MIN:
        codes = [-1] * len(rows)
    else:
        codes = _canon_codes(rows, n).tolist()
    for i, code in enumerate(codes):
        if code < 0:
            codes[i] = run_canon(tuple(rows[i].tolist()), n)[0]
    return codes


def _codes(graphs, n):
    # the canonical code of each row tuple of order n, in input order, each
    # distinct tuple searched once
    distinct = list(dict.fromkeys(graphs))
    code = dict(zip(distinct, _search_codes(np.array(distinct, dtype=np.int64), n)))
    return [code[rows] for rows in graphs]


def switch_orbit_scan(rows, n, code, gens):
    """Canonical code of the switch of rows by every even-mask subset, as a tuple.

    code and gens are the graph's own canonical code and automorphism
    generators, as run_canon returns them.  Index k holds the code for
    subset mask 2k; odd masks are covered by complement equivalence.
    Index 0 is code.  An automorphism s of the graph maps the switch by
    S onto the switch by s(S), so only the least slot of each class
    under the generators is searched and the rest copy its code; with
    no generators every slot is searched.  The roots go to one
    _search_codes call, so n stops at _CODES_MAX_ORDER.
    """
    full = (1 << n) - 1
    half = 1 << (n - 1)
    # the union-find parent of each slot.  _union hangs the larger root
    # under the smaller, so a parent is a slot of the same class that is
    # never larger, and equal only at the class's least slot.
    parent = list(range(half))
    for g in gens:
        image = [0] * half  # image[k]: the mask g(2k)
        for k in range(1, half):
            low = k & -k
            image[k] = m = image[k ^ low] | 1 << g[low.bit_length()]
            _union(parent, k, (m ^ full if m & 1 else m) >> 1)
    # the roots' switches through the switch table, and their codes in slot
    # order; every other slot copies its parent's code.  An order-1 graph
    # has no slots, and the empty index needs an int dtype.
    roots = np.array([k for k in range(1, half) if parent[k] == k], dtype=np.int64)
    searched = iter(_search_codes(np.array(rows, dtype=np.int64) ^ _switch_pattern(n)[roots << 1], n))
    scan = [code]
    for k in range(1, half):
        scan.append(next(searched) if parent[k] == k else scan[parent[k]])
    return tuple(scan)


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
    are isomorphic.  The orbit size, the number of labeled two-graphs
    isomorphic to theirs, is n! over the stabilizer: the relabelings whose
    image equals the first, the identity's.  Both come back as int64 arrays.
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
        keys[i], sizes[i] = images.min(), len(images) // np.count_nonzero(images == images[0])
    return keys, sizes


@lru_cache(maxsize=None)
def _switch_pattern(n):
    # pattern[s, i]: the mask that switching by subset s XORs into row i,
    # which is row i of the empty graph switched by s; shared, so read-only
    pattern = np.array([_switch_rows([0] * n, s) for s in range(1 << n)], dtype=np.int64)
    pattern.flags.writeable = False
    return pattern


def _words(rows, n):
    # each (..., n) stack of row masks as one int64 word, row i at bits n*i to n*i + n - 1
    return (np.asarray(rows, dtype=np.int64) << n * np.arange(n)).sum(axis=-1)


def _graph_words(n, lo, hi):
    # the word of each labeled graph of order n with code in range(lo, hi):
    # code bit C(j, 2) + i is the pair {i, j}, which sets bits n*i + j and n*j + i
    i, j = _order_tables(n)[:2]
    pair = (np.int64(1) << n * i + j) | (np.int64(1) << n * j + i)
    codes = np.arange(lo, hi, dtype=np.int64)
    return (((codes[:, None] >> np.arange(len(pair))) & 1) * pair).sum(axis=1)


def algebra_sweep(n):
    """Exhaustive switching-identity sweep over every labeled graph of order n.

    Asserted identities, all bit-exact on adjacency rows:
      kind 0/1  subset switch equals the fold of its single-vertex
                switches, ascending and descending order
      kind 2    empty-set and full-set switches are the identity
      kind 3    a subset and its complement switch identically
      kind 4    graph complement commutes with switching
      kind 5    switching by t then s equals switching by s xor t

    Each graph is one int64 word, row i at bits n*i to n*i + n - 1 (25
    bits at order 5), and so are the subset switches of _switch_pattern,
    the single-vertex steps and the complement masks, so each identity
    is one == on words.  Labeled graphs are taken in blocks of codes,
    each block against every subset (and every pair of subsets) at once.

    Returns seven ints: graphs, checks, violations, then the first
    witness as (code, s, t, kind), each -1 when unused.  The first
    witness is the first failure in the order code, then s with kinds
    0-4, then the (s, t) pairs of kind 5.
    """
    _check_order(n)
    _check_bound(n, 7)  # n * n bits fit an int64 word
    ncodes = 1 << (n * (n - 1) // 2)
    full = (1 << n) - 1
    nsub = 1 << n
    subsets = np.arange(nsub)
    bit = np.int64(1) << np.arange(n)
    pattern = _words(_switch_pattern(n), n)  # pattern[s]: the word that switching by s XORs in
    # the switch at v alone: v's bit toggles in every other row, row v toggles all others
    vertex = _words(np.where(np.identity(n, dtype=bool), full ^ bit[:, None], bit[:, None]), n)
    steps = [np.where((subsets >> v) & 1, vertex[v], 0) for v in range(n)]
    # the complement flips every bit but the diagonal
    ones, diag = _words(np.full(n, full), n), _words(bit, n)
    # kind 2 applies to the empty and the full subset only
    applies = np.ones((nsub, 5), dtype=bool)
    applies[:, 2] = (subsets == 0) | (subsets == full)
    per_graph = int(applies.sum()) + nsub * nsub

    def comp(x):
        return (x ^ ones) & ~diag

    block = max(1, _SWEEP_BLOCK // (nsub * nsub))
    checks = bad = 0
    witness = (-1, -1, -1, -1)
    for lo in range(0, ncodes, block):
        g = _graph_words(n, lo, min(lo + block, ncodes))[:, None]
        sw = g ^ pattern  # sw[:, s]: each graph switched by s
        asc = desc = g
        for step in steps:
            asc = asc ^ step
        for step in reversed(steps):
            desc = desc ^ step
        fails = np.stack([
            sw != asc,
            sw != desc,
            sw != g,
            sw != sw[:, full ^ subsets],
            comp(sw) != comp(g) ^ pattern,
        ], axis=-1) & applies
        # fails5[:, s, t]: sw[:, t] switched by s differs from sw[:, s ^ t]
        fails5 = sw[:, None] ^ pattern[:, None] != sw[:, subsets[:, None] ^ subsets]
        checks += len(g) * per_graph
        bad += int(fails.sum()) + int(fails5.sum())
        if bad and witness[0] < 0:
            i = int((fails.any(axis=(1, 2)) | fails5.any(axis=(1, 2))).argmax())
            if fails[i].any():
                s, kind = np.unravel_index(fails[i].argmax(), fails[i].shape)
                witness = (lo + i, int(s), -1, int(kind))
            else:
                s, t = np.unravel_index(fails5[i].argmax(), fails5[i].shape)
                witness = (lo + i, int(s), int(t), 5)
    return (ncodes, checks, bad) + witness
