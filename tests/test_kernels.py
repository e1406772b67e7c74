"""Exercises the kernels directly against the object layer."""

import hashlib
import itertools
import random

import numpy as np

import oracles
from seidelkit import VertexSet, switch_set, make_graph, relabel
from seidelkit._kernels import algebra_sweep, run_canon, switch_orbit_scan, two_graphs
from seidelkit.generators import complete, complete_bipartite, cube_q3, cycle, empty, prism_c3p2
from seidelkit.graphs import graph_from_code, graph_to_code
from seidelkit.iso import _form, automorphisms, canonical_form


def test_switch_orbit_scan_matches_switch_set():
    rng = random.Random(31)
    graphs = []
    for _ in range(10):
        n = rng.randint(2, 7)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        graphs.append(make_graph(n, edges))
    # symmetric graphs, whose scans copy codes along automorphism orbits
    graphs += [empty(7), complete(7), complete_bipartite(3, 4), cube_q3(), cycle(8), prism_c3p2()]
    for g in graphs:
        n = g.n
        codes = switch_orbit_scan(g.adj, n)
        assert len(codes) == 1 << (n - 1)
        assert _form(n, codes[0]) == canonical_form(g)
        # slot k covers the even mask 2k; odd masks repeat by complement
        for k in range(1 << (n - 1)):
            h = switch_set(g, VertexSet(n, 2 * k))
            assert _form(n, codes[k]) == canonical_form(h)


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


def test_algebra_sweep_finds_no_violations():
    for n in range(1, 5):
        out = algebra_sweep(n)
        assert out[0] == 1 << (n * (n - 1) // 2)
        assert out[1] > 0
        assert out[2] == 0


def test_census_scan_words_match_object_layer():
    # the census reads codes for every labeled order-4 graph off run_canon
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
