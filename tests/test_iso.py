import collections
import hashlib
import itertools
import math
import random
import time

import pytest

import oracles
from seidelkit import _kernels, make_graph, relabel
from seidelkit.generators import (
    complete,
    complete_bipartite,
    cube_q3,
    cycle,
    empty,
    path,
    paw,
    prism_c3p2,
)
from seidelkit.graphs import graph_from_code
from seidelkit.iso import (
    CANONICAL_MAX_ORDER,
    GENERATION_MAX_ORDER,
    all_graphs,
    automorphism_count,
    automorphisms,
    canonical_form,
    canonical_graph,
    canonical_labeling,
    find_isomorphism,
    is_isomorphic,
    nonisomorphic_graphs,
    similarity_orbits,
)

ISO_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def test_automorphism_counts_on_fixtures():
    assert automorphism_count(complete(4)) == 24
    assert automorphism_count(empty(4)) == 24
    assert automorphism_count(path(3)) == 2
    assert automorphism_count(cycle(4)) == 8
    assert automorphism_count(cycle(5)) == 10
    assert automorphism_count(cube_q3()) == 48
    assert automorphism_count(prism_c3p2()) == 12
    assert automorphism_count(complete_bipartite(2, 3)) == 2 * 6
    assert automorphism_count(paw()) == 2


def test_automorphism_counts_brute_force():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 6)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = make_graph(n, edges)
        assert automorphism_count(g) == oracles.brute_automorphism_count(g)


def test_automorphism_elements_are_genuine_and_distinct():
    for g in (cycle(5), paw(), complete_bipartite(2, 3), prism_c3p2()):
        group = automorphisms(g)
        elems = oracles.group_elements(group)
        assert len(elems) == group.order
        assert len(set(elems)) == group.order
        for p in elems:
            assert relabel(g, p) == g
        assert tuple(range(g.n)) in set(elems)


def test_canonical_form_equality_matches_brute_force_classes():
    # every labeled graph on up to 4 vertices
    for n in range(1, 5):
        by_form = {}
        by_brute = {}
        for code in range(1 << (n * (n - 1) // 2)):
            g = graph_from_code(n, code)
            by_form.setdefault(canonical_form(g), set()).add(code)
            by_brute.setdefault(oracles.brute_canonical_code(g), set()).add(code)
        assert sorted(map(sorted, by_form.values())) == sorted(
            map(sorted, by_brute.values())
        )


def test_canonical_form_equality_order_five_sample():
    rng = random.Random(55)
    codes = rng.sample(range(1 << 10), 120)
    graphs = [graph_from_code(5, c) for c in codes]
    for a, b in itertools.combinations(graphs, 2):
        same_form = canonical_form(a) == canonical_form(b)
        same_brute = oracles.brute_canonical_code(a) == oracles.brute_canonical_code(b)
        assert same_form == same_brute


def test_canonical_graph_is_a_class_representative():
    g = paw()
    cf = canonical_form(g)
    rep = canonical_graph(cf)
    assert is_isomorphic(rep, g)
    assert canonical_form(rep) == cf
    # lab lists old vertices in canonical position order; invert for relabel
    lab = canonical_labeling(g)
    image = [0] * g.n
    for pos, old in enumerate(lab):
        image[old] = pos
    assert relabel(g, tuple(image)) == rep


def test_canonical_forms_pinned_at_orders_11_and_12():
    # codes of 55 and 66 bits; no other test canonicalizes orders 11-12
    nx = pytest.importorskip("networkx")
    rng = random.Random(20261112)
    graphs = []
    for i in range(16):
        n = 11 + i % 2
        p = 0.25 + 0.5 * rng.random()
        graphs.append(make_graph(n, [(a, b) for b in range(n) for a in range(b) if rng.random() < p]))
    h = hashlib.sha256()
    for g in graphs:
        cf = canonical_form(g)
        h.update(cf.bits)
        for _ in range(2):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, tuple(perm))) == cf
        rep = canonical_graph(cf)
        assert canonical_form(rep) == cf
        a, b = nx.empty_graph(g.n), nx.empty_graph(rep.n)
        a.add_edges_from(g.edges())
        b.add_edges_from(rep.edges())
        assert nx.is_isomorphic(a, b)
    # sha256 of the bits, pinned from the earlier two-word implementation of the search
    assert h.hexdigest() == "e7efb1fe840965ff565b2798960516600197565d3fa257daa38d5ceb36f3028d"


def test_most_symmetric_order_twelve_graphs_finish_quickly():
    # the documented canonical bound, on inputs with the largest groups
    f6 = math.factorial(6)
    cases = ((complete(12), math.factorial(12)), (empty(12), math.factorial(12)),
             (complete_bipartite(6, 6), 2 * f6 * f6))
    for g, order in cases:
        t = time.perf_counter()
        canonical_form(g)
        assert time.perf_counter() - t < 1.0
        t = time.perf_counter()
        assert automorphism_count(g) == order
        assert time.perf_counter() - t < 1.0


def test_automorphisms_and_forms_against_networkx():
    nx = pytest.importorskip("networkx")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    graphs = st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])),
            st.permutations(range(n)),
        )
    )

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(graphs)
    def check(case):
        n, edges, perm = case
        g = make_graph(n, sorted(edges))
        a = nx.empty_graph(n)
        a.add_edges_from(edges)
        isos = sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(a, a).isomorphisms_iter())
        assert automorphism_count(g) == isos
        assert canonical_form(relabel(g, tuple(perm))) == canonical_form(g)

    check()


def test_find_isomorphism_roundtrips():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 8)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = make_graph(n, edges)
        p = list(range(n))
        rng.shuffle(p)
        h = relabel(g, tuple(p))
        phi = find_isomorphism(g, h)
        assert phi is not None
        assert relabel(g, phi) == h


def test_find_isomorphism_none_for_nonisomorphic():
    assert find_isomorphism(path(4), cycle(4)) is None
    assert not is_isomorphic(path(4), cycle(4))
    assert find_isomorphism(path(3), path(4)) is None


def test_similarity_orbits_fixtures():
    assert similarity_orbits(path(3)) == ((0, 2), (1,))
    assert similarity_orbits(cycle(4)) == ((0, 1, 2, 3),)
    assert similarity_orbits(complete(5)) == ((0, 1, 2, 3, 4),)
    # paw: pendant, its neighbor, and the far triangle pair
    assert similarity_orbits(paw()) == ((0, 1), (2,), (3,))
    k23 = complete_bipartite(2, 3)
    assert sorted(len(b) for b in similarity_orbits(k23)) == [2, 3]


def test_orbits_partition_and_respect_automorphisms():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(2, 7)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = make_graph(n, edges)
        blocks = similarity_orbits(g)
        flat = sorted(v for b in blocks for v in b)
        assert flat == list(range(n))
        index = {}
        for b in blocks:
            for v in b:
                index[v] = b
        for p in oracles.group_elements(automorphisms(g)):
            for v in range(n):
                assert index[p[v]] is index[v]


def test_nonisomorphic_counts():
    for n, want in ISO_COUNTS.items():
        if n >= 6:
            continue
        reps = nonisomorphic_graphs(n)
        assert len(reps) == want
        assert len({canonical_form(g) for g in reps}) == want


def test_representatives_match_the_networkx_atlas():
    # the atlas lists every graph through order 7 once, by an independent route
    nx = pytest.importorskip("networkx")
    atlas = {n: set() for n in range(1, 8)}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n:
            atlas[n].add(canonical_form(make_graph(n, list(h.edges()))))
    for n in range(1, 8):
        reps = nonisomorphic_graphs(n)
        assert len(atlas[n]) == len(reps) == ISO_COUNTS[n]
        assert {canonical_form(g) for g in reps} == atlas[n]


def test_canonical_forms_of_all_labeled_graphs_count_the_classes():
    for n in range(1, 7):
        assert len({canonical_form(g) for g in all_graphs(n)}) == ISO_COUNTS[n]


def test_orbit_counting_identity():
    # sum over iso classes of n!/|Aut| counts all labeled graphs
    for n in range(1, 6):
        total = sum(
            math.factorial(n) // automorphism_count(g)
            for g in nonisomorphic_graphs(n)
        )
        assert total == 1 << (n * (n - 1) // 2)


def test_order_bounds_enforced():
    big = empty(CANONICAL_MAX_ORDER + 1)
    with pytest.raises(ValueError):
        canonical_form(big)
    with pytest.raises(ValueError):
        automorphisms(big)
    with pytest.raises(ValueError):
        similarity_orbits(big)
    # every reader accepts the search's own bound, even on the largest groups
    _kernels.clear_caches()
    for g in (empty(CANONICAL_MAX_ORDER), complete(CANONICAL_MAX_ORDER)):
        t = time.perf_counter()
        assert automorphisms(g).order == math.factorial(CANONICAL_MAX_ORDER)
        assert similarity_orbits(g) == (tuple(range(CANONICAL_MAX_ORDER)),)
        assert time.perf_counter() - t < 1.0


def test_generation_refuses_orders_below_one():
    for n in (0, -3):
        with pytest.raises(ValueError, match="positive"):
            nonisomorphic_graphs(n)


def test_generation_refuses_orders_past_its_bound():
    # order 9 would take about 35 s and 300 MB; the refusal comes before any work
    assert GENERATION_MAX_ORDER == 8
    t = time.perf_counter()
    for n in (GENERATION_MAX_ORDER + 1, CANONICAL_MAX_ORDER):
        with pytest.raises(ValueError, match="bound 8"):
            nonisomorphic_graphs(n)
    assert time.perf_counter() - t < 0.1


def test_one_search_answers_every_reader(monkeypatch):
    calls = []
    search = _kernels._canon

    def counted(rows, n):
        calls.append(n)
        return search(rows, n)

    monkeypatch.setattr(_kernels, "_canon", counted)
    _kernels.clear_caches()
    g = prism_c3p2()
    canonical_form(g)
    canonical_labeling(g)
    automorphism_count(g)
    similarity_orbits(g)
    automorphisms(g)
    assert calls == [g.n]


def test_is_isomorphic_rejects_mixed_orders():
    assert not is_isomorphic(empty(3), empty(4))
    # orders differ before any bound applies
    assert not is_isomorphic(path(CANONICAL_MAX_ORDER + 1), path(CANONICAL_MAX_ORDER))


def test_is_isomorphic_matches_brute_force_past_the_degree_guard():
    # equal degree sequences leave the verdict to the canonical search
    def degrees(g):
        return sorted(g.degree(v) for v in range(g.n))

    two_triangles = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    for g, h in ((cycle(6), two_triangles), (complete_bipartite(3, 3), prism_c3p2())):
        assert degrees(g) == degrees(h)
        assert not is_isomorphic(g, h) and not oracles.brute_is_isomorphic(g, h)
        assert find_isomorphism(g, h) is None
    # seeded pairs: a relabeled copy, that copy after a degree-keeping
    # edge swap ab, cd -> ac, bd, and an unrelated graph with as many edges
    rng = random.Random(67)
    seen = collections.Counter()
    for n in range(4, 8):
        for _ in range(6):
            pairs = [(i, j) for j in range(n) for i in range(j)]
            g = make_graph(n, [e for e in pairs if rng.random() < 0.5])
            perm = list(range(n))
            rng.shuffle(perm)
            h = relabel(g, tuple(perm))
            edges = h.edges()
            rng.shuffle(edges)
            swapped = h
            for (a, b), (c, d) in itertools.combinations(edges, 2):
                if len({a, b, c, d}) == 4 and not h.has_edge(a, c) and not h.has_edge(b, d):
                    swapped = make_graph(n, [e for e in edges if e not in ((a, b), (c, d))]
                                         + [(a, c), (b, d)])
                    break
            other = make_graph(n, rng.sample(pairs, len(edges)))
            for k in (h, swapped, other):
                want = oracles.brute_is_isomorphic(g, k)
                assert is_isomorphic(g, k) == want
                seen[degrees(g) == degrees(k), want] += 1
    # every branch of the guard is taken: different degrees, and equal
    # degrees both with and without an isomorphism
    assert seen[False, False] and seen[True, False] and seen[True, True]
