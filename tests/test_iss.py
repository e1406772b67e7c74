import itertools
import random
import time

import pytest

from seidelkit import VertexSet, from_graph6, make_graph, relabel, switch_set, switch_vertex
from seidelkit.generators import (
    complete,
    complete_bipartite,
    cube_q3,
    cycle,
    empty,
    path,
    path_with_isolated,
    paw,
    prism_c3p2,
    tadpole,
)
from seidelkit.iso import is_isomorphic, nonisomorphic_graphs, similarity_orbits
from seidelkit.iss import (
    ISS_FAMILY_MAX_ORDER,
    all_vertices_iss,
    complemented_core_agreement,
    core_neighborhoods_partition,
    degree_extremes_adjacent,
    edge_iss_conditions,
    edge_iss_direct,
    edge_removed_agreement,
    is_iss,
    iss_family,
    vertex_iss_set,
)


def test_trivial_sets_are_always_identity_switches():
    rng = random.Random(61)
    for _ in range(20):
        n = rng.randint(1, 7)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = make_graph(n, edges)
        assert is_iss(g, VertexSet(n, 0))
        assert is_iss(g, VertexSet.full(n))


def test_membership_closed_under_complement():
    rng = random.Random(62)
    for _ in range(20):
        n = rng.randint(2, 7)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = make_graph(n, edges)
        s = VertexSet(n, rng.randrange(1 << n))
        assert is_iss(g, s) == is_iss(g, s.complement())


def test_is_iss_definition_spot_checks():
    g = paw()
    for mask in range(16):
        s = VertexSet(4, mask)
        assert is_iss(g, s) == is_isomorphic(switch_set(g, s), g)


def test_family_on_three_path():
    fam = iss_family(path(3))
    assert [s.mask for s in fam.members] == [0, 1, 3, 4, 6, 7]
    assert fam.size == 6
    assert not fam.closed_under_delta
    a, b, d = fam.witness
    assert (a.mask, b.mask, d.mask) == (1, 3, 2)
    assert (a ^ b).mask == d.mask
    assert is_iss(path(3), a) and is_iss(path(3), b) and not is_iss(path(3), d)


def test_family_on_single_vertex_is_closed():
    fam = iss_family(empty(1))
    assert [s.mask for s in fam.members] == [0, 1]
    assert fam.closed_under_delta
    assert fam.witness is None


def test_family_members_are_exactly_the_identity_switches():
    for g in (paw(), cycle(4), complete_bipartite(2, 3)):
        fam = iss_family(g)
        got = {s.mask for s in fam.members}
        want = {
            m
            for m in range(1 << g.n)
            if is_isomorphic(switch_set(g, VertexSet(g.n, m)), g)
        }
        assert got == want


def test_vertex_iss_sets():
    assert list(vertex_iss_set(complete_bipartite(2, 3))) == [2, 3, 4]
    # balanced-plus-one bipartite: only the larger side works
    for k in (1, 2, 3):
        g = complete_bipartite(k, k + 1)
        assert list(vertex_iss_set(g)) == list(range(k, 2 * k + 1))
    assert list(vertex_iss_set(cycle(5))) == []
    assert list(vertex_iss_set(empty(1))) == [0]


def test_unique_vertex_iss_fixtures():
    # two graphs built around a single distinguished vertex
    assert list(vertex_iss_set(path(5))) == [2]
    assert list(vertex_iss_set(path_with_isolated(3, 2))) == [1]


def test_singleton_verdict_constant_on_orbits():
    for g in nonisomorphic_graphs(5):
        viss = vertex_iss_set(g)
        for block in similarity_orbits(g):
            verdicts = {v in viss for v in block}
            assert len(verdicts) == 1


def test_tadpole_switches_agree_across_orbits():
    t = tadpole(3, 4)
    orbits = similarity_orbits(t)
    blocks = {v: b for b in orbits for v in b}
    assert blocks[1] is not blocks[3]
    h1 = switch_vertex(t, 1)
    h3 = switch_vertex(t, 3)
    assert is_isomorphic(h1, h3)
    assert not is_isomorphic(h1, t)
    assert not is_isomorphic(h3, t)


def test_all_vertices_iss_premise_is_rare():
    # degree (n-1)/2 at every vertex is forced, which kills even orders
    hits = [
        g
        for n in range(1, 6)
        for g in nonisomorphic_graphs(n)
        if all_vertices_iss(g)
    ]
    assert len(hits) == 1 and hits[0].n == 1


def test_degree_extremes_adjacent_contract():
    assert degree_extremes_adjacent(empty(1)) is True
    # premise fails: report None rather than a vacuous verdict
    assert degree_extremes_adjacent(path(3)) is None
    assert degree_extremes_adjacent(complete(4)) is None


def test_edge_iss_direct_examples():
    q = cube_q3()
    assert not any(edge_iss_direct(q, u, v) for (u, v) in q.edges())
    p = prism_c3p2()
    verdicts = {(u, v): edge_iss_direct(p, u, v) for (u, v) in p.edges()}
    assert verdicts == {
        (0, 1): False,
        (0, 2): False,
        (1, 2): False,
        (3, 4): False,
        (3, 5): False,
        (4, 5): False,
        (0, 3): True,
        (1, 4): True,
        (2, 5): True,
    }


def test_complete_bipartite_edges_all_qualify():
    for m, n in ((1, 1), (2, 2), (2, 3), (3, 3), (1, 4)):
        g = complete_bipartite(m, n)
        for (u, v) in g.edges():
            assert edge_iss_direct(g, u, v)
            r = edge_iss_conditions(g, u, v)
            assert r.direct and r.condition_i


def test_conditions_require_an_edge():
    g = path(3)
    with pytest.raises(ValueError):
        edge_iss_conditions(g, 0, 2)
    with pytest.raises(ValueError):
        edge_iss_conditions(g, 0, 0)
    with pytest.raises(ValueError):
        edge_iss_direct(g, 0, 2)


def test_conditions_sufficient_on_all_small_graphs():
    # conditions true must imply a genuine identity switch
    for n in range(2, 6):
        for g in nonisomorphic_graphs(n):
            for (u, v) in g.edges():
                r = edge_iss_conditions(g, u, v)
                if r.by_conditions:
                    assert r.direct


def test_conditions_not_necessary_pinned_counterexample():
    g = from_graph6("EEzO")
    assert g.edges() == [
        (0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 4), (3, 5),
    ]
    r = edge_iss_conditions(g, 0, 3)
    assert r.direct  # the pair really is an identity switch
    assert is_isomorphic(switch_set(g, VertexSet.from_indices(6, (0, 3))), g)
    assert r.condition_i
    assert not r.condition_ii
    assert not r.by_conditions
    assert not r.agree


def test_condition_ii_matches_permutation_scan():
    # the orbit search against every automorphism of the core, by brute force
    for n in range(3, 7):
        for g in nonisomorphic_graphs(n):
            for x, y in g.edges():
                rest = [v for v in range(n) if v not in (x, y)]
                core = make_graph(n - 2, [(i, j) for j, v in enumerate(rest) for i, u in enumerate(rest[:j])
                                          if g.has_edge(u, v)])
                a = {i for i, v in enumerate(rest) if g.has_edge(x, v)}
                t = {i for i, v in enumerate(rest) if not g.has_edge(y, v)}
                want = any(relabel(core, p) == core and {p[i] for i in a} == t
                           for p in itertools.permutations(range(n - 2)))
                assert edge_iss_conditions(g, x, y).condition_ii == want


def test_most_symmetric_order_ten_graph_finishes_quickly():
    # the documented family bound, on the complete graph: the largest group
    g = complete(10)
    t = time.perf_counter()
    fam = iss_family(g)
    assert time.perf_counter() - t < 5.0
    assert [s.mask for s in fam.members] == [0, (1 << 10) - 1]
    t = time.perf_counter()
    reports = [edge_iss_conditions(g, x, y) for x, y in g.edges()]
    assert time.perf_counter() - t < 5.0
    assert len(reports) == 45 and all(r.agree for r in reports)


def test_core_partition_fails_even_when_conditions_hold():
    g = from_graph6("CT")  # triangle plus isolated vertex
    assert g.edges() == [(0, 2), (0, 3), (2, 3)]
    r = edge_iss_conditions(g, 0, 2)
    assert r.direct and r.by_conditions
    assert not core_neighborhoods_partition(g, 0, 2)


def test_core_partition_holds_sometimes():
    g = complete_bipartite(2, 2)
    assert core_neighborhoods_partition(g, 0, 2)


def test_edge_removed_agreement_on_small_graphs():
    for n in range(2, 6):
        for g in nonisomorphic_graphs(n):
            for (u, v) in g.edges():
                assert edge_removed_agreement(g, u, v)


def test_complemented_core_agreement_on_small_graphs():
    for n in range(2, 6):
        for g in nonisomorphic_graphs(n):
            for (u, v) in g.edges():
                assert complemented_core_agreement(g, u, v)


def test_family_order_bound():
    with pytest.raises(ValueError):
        iss_family(empty(ISS_FAMILY_MAX_ORDER + 1))
