"""Exercises the kernels directly against the object layer."""

import hashlib
import importlib
import itertools
import pkgutil
import random

import numpy as np
import pytest

import oracles
import seidelkit
from seidelkit import VertexSet, make_graph, nonisomorphic_graphs, relabel, switch_set, to_graph6
from seidelkit import _kernels, iso, verify
from seidelkit._kernels import algebra_sweep, run_canon, switch_orbit_scan, two_graphs
from seidelkit.generators import complete, complete_bipartite, cube_q3, cycle, empty, prism_c3p2
from seidelkit.graphs import Graph, graph_from_code, graph_to_code
from seidelkit.iso import (
    _child,
    _child_codes,
    _form,
    _generated,
    automorphisms,
    canonical_form,
)


def _random_graph(rng, n):
    return make_graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5])


def _scan_graphs():
    rng = random.Random(31)
    graphs = [_random_graph(rng, rng.randint(2, 7)) for _ in range(10)]
    graphs += [_random_graph(rng, n) for n in (8, 9, 10)]
    # symmetric graphs, whose scans copy codes along automorphism orbits
    return graphs + [empty(7), complete(7), complete_bipartite(3, 4), cube_q3(), cycle(8), prism_c3p2(), cycle(10)]


def test_switch_orbit_scan_matches_switch_set(monkeypatch):
    graphs = _scan_graphs()
    # scans on both sides of the slot threshold: batched and one search per slot
    batched = []
    canon_codes = _kernels._canon_codes
    monkeypatch.setattr(_kernels, "_canon_codes", lambda rows, n: batched.append(n) or canon_codes(rows, n))
    for g in graphs:
        n = g.n
        code, _, _, _, gens = run_canon(g.adj, n)
        codes = switch_orbit_scan(g.adj, n, code, gens)
        assert len(codes) == 1 << (n - 1)
        assert _form(n, codes[0]) == canonical_form(g)
        # slot k covers the even mask 2k; odd masks repeat by complement
        for k in range(1 << (n - 1)):
            h = switch_set(g, VertexSet(n, 2 * k))
            assert _form(n, codes[k]) == canonical_form(h)
    assert 0 < len(batched) < len(graphs)
    assert {8, 9, 10} <= set(batched)
    # K1 has no slots: its scan is its own code
    code = run_canon((0,), 1)[0]
    assert switch_orbit_scan((0,), 1, code, ()) == (code,)


def _switches(g):
    return [switch_set(g, VertexSet(g.n, 2 * k)).adj for k in range(1 << (g.n - 1))]


def _stack(graphs):
    # the (graphs, n) int64 row stack that the batched search takes
    return np.array(graphs, dtype=np.int64)


def _nodes(graphs, n):
    # the (n, n, graphs) int64 node adjacency that _canon_codes expands a
    # row stack into, and that _equitable refines
    return np.ascontiguousarray((_stack(graphs).T[:, None, :] >> np.arange(n)[:, None]) & 1)


def _two_cell_witness():
    # The complement of C8 on vertices 2-9, with 0 joined to 2, 3, 4, 7 and
    # 1 to 5, 6, 8, 9.  The root partition is {0, 1} before the other
    # eight, and no automorphism maps 0 to 1: 0 sees a run of three
    # consecutive cycle vertices, 1 two runs of two.  So the two children
    # of the root, and their leaves, differ.
    ring = [(i + 2, j + 2) for j in range(8) for i in range(j) if (j - i) % 8 not in (1, 7)]
    return make_graph(10, ring + [(0, v) for v in (2, 3, 4, 7)] + [(1, v) for v in (5, 6, 8, 9)])


def _cell_witnesses():
    # Order 9: C6 on vertices 3-8, with 0 joined to 4 and 8, 1 to 5 and 7,
    # and 2 to the opposite vertices 3 and 6.  Order 10: C6 on vertices
    # 4-9, with 0, 1 and 3 joined to the runs 4-5-6, 8-9-4 and 6-7-8, and 2 to
    # the alternate vertices 5, 7 and 9.  In each, the root partition is
    # the k-cell {0, ..., k - 1} before the cycle, and 2 is alone in its
    # orbit: a reflection swaps 0 and 1 in the first, a rotation permutes
    # 0, 1 and 3 in the second.  The minimum leaf lies under the child of 2.
    ring9 = [(3 + i, 3 + (i + 1) % 6) for i in range(6)]
    ring10 = [(4 + i, 4 + (i + 1) % 6) for i in range(6)]
    three = make_graph(9, ring9 + [(0, 4), (0, 8), (1, 5), (1, 7), (2, 3), (2, 6)])
    joins = [(0, 1, 2), (4, 5, 0), (1, 3, 5), (2, 3, 4)]
    four = make_graph(10, ring10 + [(a, 4 + v) for a, ring in enumerate(joins) for v in ring])
    return {3: three, 4: four}


def _rotations(g, k):
    # g with its vertices 0..k-1 rotated, each rotation once: the minimum
    # leaf's child takes every place in the cell
    return [relabel(g, [(v + r) % k for v in range(k)] + list(range(k, g.n))) for r in range(k)]


def _batch_inputs():
    # every labeled graph of orders 1-6, a sample at order 7, all the
    # switches of random and of symmetric graphs at orders 8-10, the
    # two-cell witness with its pair in either order, and the three- and
    # four-cell witnesses in every rotation of their cell
    for n in range(1, 7):
        yield n, [graph_from_code(n, c).adj for c in range(1 << (n * (n - 1) // 2))]
    rng = random.Random(606)
    yield 7, [graph_from_code(7, rng.randrange(1 << 21)).adj for _ in range(1000)]
    for n in (8, 9, 10):
        yield n, [rows for _ in range(2) for rows in _switches(_random_graph(rng, n))]
    for g in [empty(10), complete(10), complete_bipartite(5, 5), cycle(10)]:
        yield 10, _switches(g)
    for g in [cube_q3(), prism_c3p2()]:
        yield g.n, _switches(g)
    g = _two_cell_witness()
    yield 10, [g.adj, relabel(g, [1, 0, *range(2, 10)]).adj]
    for k, g in _cell_witnesses().items():
        yield g.n, [h.adj for h in _rotations(g, k)]


def test_batched_codes_match_the_single_search():
    resolved = handed_back = 0
    for n, graphs in _batch_inputs():
        codes = _kernels._canon_codes(_stack(graphs), n)
        assert codes.dtype == np.int64 and len(codes) == len(graphs)
        for rows, code in zip(graphs, codes.tolist()):
            if code == -1:
                handed_back += 1
            else:
                resolved += 1
                assert code == _kernels._canon(rows, n)[0]
    # both ways run: graphs whose search meets only cells of up to four
    # vertices, and the rest, which meet a larger one
    assert resolved > 0 and handed_back > 0


def test_codes_match_the_single_search(monkeypatch):
    # below _SCAN_BATCH_MIN distinct row tuples, one search each through
    # the memo; from it up, one batch, whose hand-backs (empty(8) and
    # K_{4,4} meet a cell of eight) alone enter the memo.  Repeats are
    # searched once and answered in place.
    rng = random.Random(808)
    wide = [empty(8).adj, complete_bipartite(4, 4).adj]
    assert _kernels._canon_codes(_stack(wide), 8).tolist() == [-1, -1]
    batched = []
    canon_codes = _kernels._canon_codes
    monkeypatch.setattr(_kernels, "_canon_codes", lambda rows, n: batched.append(len(rows)) or canon_codes(rows, n))
    for distinct in (_kernels._SCAN_BATCH_MIN - 1, _kernels._SCAN_BATCH_MIN, 40):
        graphs = wide + [_random_graph(rng, 8).adj for _ in range(distinct - 2)]
        graphs += graphs[::3]
        _kernels.clear_caches()
        assert _kernels._codes(graphs, 8) == [_kernels._canon(rows, 8)[0] for rows in graphs]
        assert run_canon.cache_info().currsize == (2 if distinct >= _kernels._SCAN_BATCH_MIN else distinct)
    # an empty input, as a list or as a stack, runs no batch
    assert _kernels._codes([], 8) == []
    assert _kernels._search_codes(np.zeros((0, 8), dtype=np.int64), 8) == []
    assert batched == [_kernels._SCAN_BATCH_MIN, 40]


# the tables that clear_caches() keeps: fixed per order, not answers
STATIC_TABLES = {"_kernels._order_tables", "_kernels._switch_pattern", "iso._generated"}


def _containers():
    # name -> (use, size) of every module-level dict, list and set of the
    # package (its size twice) and of every lru_cache it defines (its calls
    # and its size)
    out = {}
    for info in pkgutil.iter_modules(seidelkit.__path__):
        module = importlib.import_module(f"seidelkit.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, (dict, list, set)) and not name.startswith("__"):
                out[f"{info.name}.{name}"] = (len(obj), len(obj))
            elif hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                hits, misses, _, size = obj.cache_info()
                out[f"{info.name}.{name}"] = (hits + misses, size)
    return out


def test_clear_caches_empties_every_cache_a_workload_fills():
    # every container of the package that the query-mix calls, census(5)
    # and the iss suite use is an answer cache, which clear_caches() empties,
    # or one of the static tables; so a new cache cannot miss the registry
    before = _containers()
    rng = random.Random(36)
    for n in range(6, 11):
        g = _random_graph(rng, n)
        for query in (seidelkit.canonical_form, seidelkit.automorphism_count, seidelkit.seidel_char_poly,
                      seidelkit.iss_family, seidelkit.switching_class):
            query(g)
        for x, y in g.edges():
            seidelkit.edge_iss_conditions(g, x, y)
    seidelkit.census(5)
    verify.run_suite("iss", 5)
    used = {name for name, (use, _) in _containers().items() if use != before.get(name, (None,))[0]}
    assert {"_kernels.run_canon", "iso._CLASS_SCANS", "iss._EDGE_VERDICTS"} <= used
    _kernels.clear_caches()
    after = _containers()
    assert {name: after[name][1] for name in used - STATIC_TABLES if after[name][1]} == {}


def test_two_cell_witness_needs_both_children():
    # The minimum leaf lies under one child of the root's target cell
    # {0, 1}, the child of vertex 1, so a batched search that expanded only
    # the first, or only the second, vertex of each 2-cell would miss it in
    # one of the two labelings that _batch_inputs holds.
    g = _two_cell_witness()
    root = _kernels._equitable(_nodes([g.adj], 10), np.zeros((10, 1), dtype=np.int64))
    assert root[:, 0].tolist() == [0, 0] + [2] * 8
    _, lab, _, orbit, _ = _kernels._canon(g.adj, 10)
    assert orbit[0] != orbit[1] and lab[0] == 1
    assert _kernels._canon_codes(_stack([g.adj]), 10).tolist() != [-1]


def test_cell_witnesses_need_every_child():
    # The minimum leaf lies under the child of 2 alone, and the rotations
    # move that child through every place in the cell, so a batched search
    # that skipped any child of a 3- or 4-cell would miss it in one of the
    # labelings that _batch_inputs holds.
    for k, g in _cell_witnesses().items():
        n = g.n
        root = _kernels._equitable(_nodes([g.adj], n), np.zeros((n, 1), dtype=np.int64))
        assert root[:, 0].tolist() == [0] * k + [k] * (n - k)
        _, lab, _, orbit, _ = _kernels._canon(g.adj, n)
        assert lab[0] == 2 and [orbit[v] == orbit[2] for v in range(k)].count(True) == 1
        assert len({orbit[v] for v in range(k)}) >= 2
        assert {_kernels._canon(h.adj, n)[1][0] for h in _rotations(g, k)} == set(range(k))
        assert _kernels._canon_codes(_stack([g.adj]), n).tolist() == [_kernels._canon(g.adj, n)[0]]


def _round_widths(monkeypatch):
    # per call of _equitable, the number of search nodes in each of its
    # rounds, each of which runs one einsum
    calls = []
    equitable, einsum = _kernels._equitable, np.einsum
    monkeypatch.setattr(_kernels, "_equitable", lambda adj, colors: calls.append([]) or equitable(adj, colors))
    monkeypatch.setattr(np, "einsum", lambda spec, adj, w: calls[-1].append(adj.shape[2]) or einsum(spec, adj, w))
    return calls


def test_batched_codes_on_scan_stacks(monkeypatch):
    # the switch stacks of orders 8-11, with the default batches (a whole
    # order-10 stack is one), one search node per batch, and batches of 100
    # graphs that split each stack
    rng = random.Random(808)
    for n in (8, 9, 10, 11):
        stack = _switches(_random_graph(rng, n))
        batch = _stack(stack)
        want = _kernels._canon_codes(batch, n)
        assert (want >= 0).any()
        for rows, code in zip(stack, want.tolist()):
            assert code == -1 or code == _kernels._canon(rows, n)[0]
        default = _kernels._SWEEP_BLOCK
        if n <= 10:
            assert default // (n * n) >= len(stack)
        for size in (1, 100 * n * n):
            monkeypatch.setattr(_kernels, "_SWEEP_BLOCK", size)
            assert (_kernels._canon_codes(batch, n) == want).all()
        monkeypatch.setattr(_kernels, "_SWEEP_BLOCK", default)


def test_batched_codes_with_both_children_in_one_batch(monkeypatch):
    # the order-7 children of some order-6 graphs, as iso._child_codes
    # stacks them, and the two-cell witness pair.  With the default
    # batches the two children of a node land in one batch, which then
    # holds two nodes of one graph; one node per batch gives the same codes.
    witness = _two_cell_witness()
    stacks = [(7, [_child(g, m).adj for g in nonisomorphic_graphs(6)[::13] for m in range(64)]),
              (10, [witness.adj, relabel(witness, [1, 0, *range(2, 10)]).adj])]
    equitable = _kernels._equitable
    for n, stack in stacks:
        assert len(set(stack)) == len(stack)
        batch = _stack(stack)
        shared = []

        def spy(a, colors):
            shared.append(len({a[:, :, i].tobytes() for i in range(a.shape[2])}) < a.shape[2])
            return equitable(a, colors)

        monkeypatch.setattr(_kernels, "_equitable", spy)
        want = _kernels._canon_codes(batch, n)
        assert any(shared) and (want >= 0).any()
        for rows, code in zip(stack, want.tolist()):
            assert code == -1 or code == _kernels._canon(rows, n)[0]
        monkeypatch.setattr(_kernels, "_SWEEP_BLOCK", 1)
        assert (_kernels._canon_codes(batch, n) == want).all()
        monkeypatch.undo()


def test_retired_nodes_keep_their_partitions(monkeypatch):
    # P10 refines over several rounds, nine stars K_{1,9} over one: once
    # they retire, every node still holds the partition it reaches alone,
    # which is the one _refine reaches, as cell start indices
    calls = _round_widths(monkeypatch)
    p10 = make_graph(10, [(i, i + 1) for i in range(9)])
    stars = [make_graph(10, [(c, v) for v in range(10) if v != c]) for c in range(1, 10)]
    graphs = [p10.adj] + [g.adj for g in stars]
    adj = _nodes(graphs, 10)
    colors = _kernels._equitable(adj, np.zeros((10, 10), dtype=np.int64))
    # every node moves in the first round, only P10 in the second, so the
    # stars retire after it
    widths = calls[0]
    assert widths[:2] == [10, 10] and widths[2:] and set(widths[2:]) == {1}
    for i, rows in enumerate(graphs):
        alone = _kernels._equitable(adj[:, :, i : i + 1], np.zeros((10, 1), dtype=np.int64))
        assert (colors[:, i : i + 1] == alone).all()
        cells = _kernels._refine(list(rows), [list(range(10))], [(1 << 10) - 1])
        assert colors[:, i].tolist() == [next(sum(map(len, cells[:k])) for k, cell in enumerate(cells) if v in cell)
                                         for v in range(10)]


def test_batched_codes_where_nodes_retire(monkeypatch):
    # scan stacks at orders 8-10: some rounds of the refinement run on
    # fewer nodes than the batch holds, and the codes still match _canon
    rng = random.Random(909)
    for n in (8, 9, 10):
        stack = _switches(_random_graph(rng, n))
        calls = _round_widths(monkeypatch)
        codes = _kernels._canon_codes(_stack(stack), n)
        monkeypatch.undo()
        assert any(widths[-1] < widths[0] for widths in calls)
        for rows, code in zip(stack, codes.tolist()):
            assert code == -1 or code == _kernels._canon(rows, n)[0]


def test_batched_codes_run_in_blocks(monkeypatch):
    # one search node per batch gives the codes of the default batches
    rows = _stack([graph_from_code(6, c).adj for c in range(0, 1 << 15, 37)])
    want = _kernels._canon_codes(rows, 6)
    monkeypatch.setattr(_kernels, "_SWEEP_BLOCK", 1)
    assert (_kernels._canon_codes(rows, 6) == want).all()


def test_batched_codes_refuse_orders_past_int64():
    # C(12, 2) = 66 code bits do not fit
    assert _kernels._CODES_MAX_ORDER == 11
    with pytest.raises(ValueError):
        _kernels._canon_codes(np.zeros((1, 12), dtype=np.int64), 12)


# sha256 of the graph6 lines of nonisomorphic_graphs(7), in order
SEVEN_SHA256 = "ac31047432c34f574caacd5f1e482c15eff10004186157046867e4ec29545e80"


@pytest.mark.parametrize("batch_max_order", [11, 5])
def test_nonisomorphic_graphs_seven_pinned(batch_max_order):
    # the exact representatives, in order: the published witnesses are drawn
    # from them.  The oracle grows order 7 again, searching the children of
    # orders past batch_max_order one at a time instead of in batches, and
    # must reach the same digest.
    _generated.cache_clear()  # the static generation table, which clear_caches() keeps
    text = "\n".join(to_graph6(g) for g in nonisomorphic_graphs(7))
    assert hashlib.sha256(text.encode()).hexdigest() == SEVEN_SHA256
    reps = [Graph(1, (0,))]
    for k in range(2, 8):
        kids = [_child(g, m) for g in reps for m in range(1 << (k - 1))]
        if k <= batch_max_order:
            codes = _child_codes(reps, k)
        else:
            codes = [run_canon(child.adj, k)[0] for child in kids]
        first = {}
        for code, child in zip(codes, kids):
            first.setdefault(code, child)
        reps = list(first.values())
    text = "\n".join(to_graph6(first[code]) for code in sorted(first))
    assert hashlib.sha256(text.encode()).hexdigest() == SEVEN_SHA256


def test_generation_grows_each_order_once(monkeypatch):
    # from a cleared cache, orders 1-5 and then 6 and 7 are each grown
    # once, from the order below in first-found order: 11,290 children in
    # all, none when orders 1-7 are asked for again, and the pinned order-7
    # representatives
    real = iso._child_codes
    grown = []

    def counting(graphs, k):
        grown.append((k, len(graphs) << (k - 1)))
        return real(graphs, k)

    monkeypatch.setattr(iso, "_child_codes", counting)
    _generated.cache_clear()  # the static generation table, which clear_caches() keeps
    nonisomorphic_graphs(5)
    text = "\n".join(to_graph6(g) for g in nonisomorphic_graphs(7))
    assert hashlib.sha256(text.encode()).hexdigest() == SEVEN_SHA256
    for n in range(1, 8):
        nonisomorphic_graphs(n)
    assert [k for k, _ in grown] == list(range(2, 8))
    assert sum(children for _, children in grown) == 11290


def _labeled_two_graphs(n):
    return two_graphs([graph_from_code(n, c).adj for c in range(1 << (n * (n - 1) // 2))], n)


def test_labeled_components_have_uniform_size():
    # each labeled two-graph is shared by exactly 2^(n-1) labeled graphs
    for n in range(1, 6):
        _, counts = np.unique(_labeled_two_graphs(n), return_counts=True)
        assert set(counts.tolist()) == {1 << (n - 1)}
        assert len(counts) == 1 << (n * (n - 1) // 2 - n + 1)


def test_labeled_component_membership_is_switch_reachability():
    n = 4
    tg = _labeled_two_graphs(n)
    g = graph_from_code(n, 13)
    reach = {graph_to_code(switch_set(g, VertexSet(n, m))) for m in range(1 << n)}
    same_two_graph = {c for c in range(64) if tg[c] == tg[13]}
    assert reach == same_two_graph


def test_two_graph_bits_are_odd_triples():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(3, 8)
        edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5]
        g = make_graph(n, edges)
        want = 0
        for t, tri in enumerate(itertools.combinations(range(n), 3)):
            if sum(g.has_edge(a, b) for a, b in itertools.combinations(tri, 2)) % 2:
                want |= 1 << t
        assert int(two_graphs([g.adj], n)[0]) == want


def test_two_graph_orbit_sizes_count_the_distinct_relabeled_two_graphs():
    # every representative of orders 1-6 and 16 seeded ones of order 7
    rng = random.Random(25)
    for n in range(1, 8):
        reps = nonisomorphic_graphs(n)
        if n == 7:
            reps = rng.sample(reps, 16)
        sizes = _kernels.two_graph_orbits([g.adj for g in reps], n)[1]
        perms = list(itertools.permutations(range(n)))
        for g, size in zip(reps, sizes.tolist()):
            images = two_graphs([relabel(g, p).adj for p in perms], n)
            assert size == len(set(images.tolist())), (to_graph6(g), size)


def _loop_algebra_sweep(n, pattern):
    # the sweep as one loop per graph and subset, in witness order: a
    # subset switch XORs rows with pattern; the single-vertex switch and
    # the complement are written out on their own
    full = (1 << n) - 1
    pat = [[int(x) for x in row] for row in pattern]

    def switch(rows, s):
        return [row ^ pat[s][i] for i, row in enumerate(rows)]

    def switch_vertex(rows, v):
        out = [row ^ (1 << v) for row in rows]
        out[v] = rows[v] ^ (full & ~(1 << v))
        return out

    def comp(rows):
        return [(row ^ full) & ~(1 << i) for i, row in enumerate(rows)]

    ncodes = 1 << (n * (n - 1) // 2)
    checks = bad = 0
    witness = (-1, -1, -1, -1)
    for code in range(ncodes):
        g = list(graph_from_code(n, code).adj)
        sw = [switch(g, s) for s in range(1 << n)]
        for s, a in enumerate(sw):
            asc = desc = g
            for v in range(n):
                if (s >> v) & 1:
                    asc = switch_vertex(asc, v)
            for v in reversed(range(n)):
                if (s >> v) & 1:
                    desc = switch_vertex(desc, v)
            tests = [(0, a == asc), (1, a == desc)]
            if s in (0, full):
                tests.append((2, a == g))
            tests += [(3, a == sw[full ^ s]), (4, comp(a) == switch(comp(g), s))]
            for kind, ok in tests:
                checks += 1
                if not ok:
                    bad += 1
                    if witness[0] < 0:
                        witness = (code, s, -1, kind)
        for s in range(1 << n):
            for t in range(1 << n):
                checks += 1
                if switch(sw[t], s) != sw[s ^ t]:
                    bad += 1
                    if witness[0] < 0:
                        witness = (code, s, t, 5)
    return (ncodes, checks, bad) + witness


def test_algebra_sweep_finds_no_violations():
    # the check counts are pinned, and through order 4 the loop agrees
    pinned = {1: 14, 2: 68, 3: 784, 4: 20_608, 5: 1_181_696}
    for n in range(1, 6):
        out = algebra_sweep(n)
        assert all(type(x) is int for x in out)
        assert out == (1 << (n * (n - 1) // 2), pinned[n], 0, -1, -1, -1, -1)
        if n <= 4:
            assert _loop_algebra_sweep(n, _kernels._switch_pattern(n)) == out


def test_switch_pattern_matches_switch_set():
    # every labeled graph through order 4, and the empty graph of orders
    # 5-10, the orders the switch-orbit scan switches through the table
    for n in range(1, 5):
        pattern = _kernels._switch_pattern(n)
        for code in range(1 << (n * (n - 1) // 2)):
            g = graph_from_code(n, code)
            for s in range(1 << n):
                rows = tuple(int(r ^ p) for r, p in zip(g.adj, pattern[s]))
                assert rows == switch_set(g, VertexSet(n, s)).adj
    for n in range(5, 11):
        pattern = _kernels._switch_pattern(n)
        assert pattern.dtype == np.int64
        assert list(map(tuple, pattern.tolist())) == [switch_set(empty(n), VertexSet(n, s)).adj for s in range(1 << n)]
    # the cached table is shared, so it refuses writes
    assert _kernels._switch_pattern(10) is pattern
    with pytest.raises(ValueError):
        pattern[1, 0] ^= 1


def test_sweep_words_pack_graph_from_code():
    # the code numbering of the words is the one the reported witness uses
    for n in range(1, 6):
        ncodes = 1 << (n * (n - 1) // 2)
        words = _kernels._graph_words(n, 0, ncodes)
        assert words.dtype == np.int64
        assert words.tolist() == [sum(row << n * i for i, row in enumerate(graph_from_code(n, c).adj))
                                  for c in range(ncodes)]


def test_algebra_sweep_refuses_orders_past_its_words():
    # 8 * 8 bits do not fit an int64 word
    for n in (0, 8):
        with pytest.raises(ValueError):
            algebra_sweep(n)


def test_algebra_sweep_reports_planted_faults_in_loop_order(monkeypatch):
    rng = random.Random(2718)
    planted = []
    for n in range(1, 5):
        full = (1 << n) - 1
        for s in [0, full, 1, *(rng.randrange(1 << n) for _ in range(4))]:
            pattern = _kernels._switch_pattern(n).copy()
            pattern[s, rng.randrange(n)] ^= 1 << rng.randrange(n)
            planted.append((n, pattern))
    # one fault in the top row of an order-5 word, bits 20-24
    pattern = _kernels._switch_pattern(5).copy()
    pattern[rng.randrange(32), 4] ^= 1 << rng.randrange(5)
    planted.append((5, pattern))
    kinds = set()
    default = _kernels._SWEEP_BLOCK
    for n, pattern in planted:
        monkeypatch.setattr(_kernels, "_switch_pattern", lambda _n, p=pattern: p)
        want = _loop_algebra_sweep(n, pattern)
        assert want[2] > 0
        # one graph per block, then the default blocks
        for size in (1, default):
            monkeypatch.setattr(_kernels, "_SWEEP_BLOCK", size)
            assert algebra_sweep(n) == want
        kinds.add(want[6])
    # a fault shows first as a fold mismatch at its own subset, or as a
    # complement mismatch at the smaller subset of its pair
    assert kinds == {0, 3}


def _snapshot_refine(rows, cells):
    # the reference refinement: split every cell by neighbor counts
    # against a snapshot of all current cells, subcells in stable
    # signature order, until stable
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


def _refinement_inputs():
    for n in range(1, 7):
        for code in range(1 << (n * (n - 1) // 2)):
            yield graph_from_code(n, code).adj
    rng = random.Random(4242)
    for n in range(7, 13):
        for _ in range(60):
            p = rng.random()
            yield make_graph(n, [(a, b) for b in range(n) for a in range(b) if rng.random() < p]).adj


def test_splitter_refinement_matches_snapshot_refinement():
    # from the unit partition, and after each individualization of each
    # non-singleton cell of the equitable partition it reaches, the
    # splitter rule gives the reference's ordered partition
    for rows in _refinement_inputs():
        n = len(rows)
        cells = _kernels._refine(rows, [list(range(n))], [(1 << n) - 1])
        assert cells == _snapshot_refine(rows, [list(range(n))])
        for ci, cell in enumerate(cells):
            for k, v in enumerate(cell if len(cell) > 1 else ()):
                split = cell.copy()
                split[0], split[k] = v, split[0]
                start = cells[:ci] + [split[:1], split[1:]] + cells[ci + 1 :]
                assert _kernels._refine(rows, start, [1 << v]) == _snapshot_refine(rows, start)


def test_search_matches_search_on_snapshot_refinement(monkeypatch):
    rng = random.Random(99)
    graphs = []
    for g in [complete(12), empty(12), complete_bipartite(6, 6), cube_q3(), prism_c3p2()]:
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            switched = switch_set(g, VertexSet(g.n, rng.randrange(1 << g.n)))
            graphs += [relabel(g, tuple(perm)), relabel(switched, tuple(perm))]
    # the search itself, not run_canon: the memo would answer the second
    # pass with the first pass's results
    got = [_kernels._canon(g.adj, g.n) for g in graphs]
    monkeypatch.setattr(_kernels, "_refine", lambda rows, cells, fresh: _snapshot_refine(rows, cells))
    assert got == [_kernels._canon(g.adj, g.n) for g in graphs]


def test_run_canon_codes_of_every_order_four_graph_match_canonical_form():
    n = 4
    for code in range(1 << (n * (n - 1) // 2)):
        g = graph_from_code(n, code)
        canon, _, _, _, _ = run_canon(g.adj, n)
        assert canon >> (n * (n - 1) // 2) == 0
        assert canonical_form(g) == _form(n, canon)


def test_run_canon_agrees_with_canonical_form():
    rng = random.Random(77)
    graphs = []
    for _ in range(30):
        n = rng.randint(1, 8)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        graphs.append(make_graph(n, edges))
    for g in graphs:
        n = g.n
        code, bestlab, count, orbit, gens = run_canon(g.adj, n)
        assert code >> (n * (n - 1) // 2) == 0  # one bit per vertex pair
        assert all(relabel(g, p) == g for p in gens)
        assert _form(n, code) == canonical_form(g)
        assert count >= 1
        assert sorted(int(x) for x in bestlab) == list(range(n))


def _pinned_inputs():
    rng = random.Random(20261018)
    graphs = []
    for i in range(200):
        n = 1 + i % 10
        # mid-range densities: near-empty order-10 graphs tie up to 10! leaves
        p = 0.25 + 0.5 * rng.random()
        edges = [(a, b) for b in range(n) for a in range(b) if rng.random() < p]
        graphs.append(make_graph(n, edges))
    return graphs + [empty(8), complete(7), complete_bipartite(3, 4), cube_q3()]


def test_search_outputs_are_pinned():
    # codes, group order, labeling, orbit roots and the automorphism set,
    # not just the forms, must survive any rewrite of the search; the
    # digest hashes each code as the two 63-bit words of its 126-bit left
    # shift, and the automorphisms sorted, so no search order is pinned
    h = hashlib.sha256()
    for g in _pinned_inputs():
        code, bestlab, count, orbit, _ = run_canon(g.adj, g.n)
        wide = code << (126 - g.n * (g.n - 1) // 2)
        w0, w1 = wide >> 63, wide & ((1 << 63) - 1)
        rec = (w0, w1, count, tuple(bestlab), tuple(orbit), oracles.group_elements(automorphisms(g)))
        h.update(repr(rec).encode())
    assert h.hexdigest() == "d4c12b1ea0f463a14610998682bd7fb9de2f75f9b82606f2ab847a499f2e1a01"
