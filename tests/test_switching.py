import itertools
import random

import pytest

from seidelkit import (
    VertexSet,
    complement,
    induced_subgraph,
    is_iss,
    make_graph,
    switch_sequence,
    switch_set,
    switch_vertex,
)
from seidelkit.generators import complete, complete_bipartite, paw
from seidelkit.iso import is_isomorphic


def test_paw_switch_at_pendant_neighbor():
    g = paw()
    h = switch_vertex(g, 0)
    assert h.edges() == [(0, 3), (1, 2), (2, 3)]


def test_switch_is_involution():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 9)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = make_graph(n, edges)
        s = VertexSet(n, rng.randrange(1 << n))
        assert switch_set(switch_set(g, s), s) == g


def test_trivial_sets_do_nothing():
    g = make_graph(4, [(0, 1), (2, 3)])
    assert switch_set(g, VertexSet(4, 0)) == g
    assert switch_set(g, VertexSet.full(4)) == g


def test_set_and_complement_agree():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(2, 8)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        g = make_graph(n, edges)
        s = VertexSet(n, rng.randrange(1 << n))
        assert switch_set(g, s) == switch_set(g, s.complement())


def test_sequential_switches_fold_to_symmetric_difference():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(2, 8)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = make_graph(n, edges)
        s = VertexSet(n, rng.randrange(1 << n))
        t = VertexSet(n, rng.randrange(1 << n))
        assert switch_set(switch_set(g, s), t) == switch_set(g, s ^ t)


def test_switch_sequence_folds():
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    vs = [0, 2, 0, 3, 2, 2]
    acc = g
    for v in vs:
        acc = switch_vertex(acc, v)
    assert switch_sequence(g, vs) == acc
    # odd-multiplicity vertices: 3 appears once, 2 three times
    folded = VertexSet.from_indices(5, (2, 3))
    assert switch_sequence(g, vs) == switch_set(g, folded)
    assert switch_sequence(g, []) == g


def test_complement_commutes_with_switching():
    rng = random.Random(10)
    for _ in range(40):
        n = rng.randint(2, 8)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = make_graph(n, edges)
        s = VertexSet(n, rng.randrange(1 << n))
        assert complement(switch_set(g, s)) == switch_set(complement(g), s)


def test_bipartite_switch_by_part_empties():
    g = complete_bipartite(3, 3)
    part = VertexSet.from_indices(6, (0, 1, 2))
    assert switch_set(g, part).edge_count() == 0


def test_complete_switch_by_triple_gives_two_triangles():
    g = complete(6)
    h = switch_set(g, VertexSet.from_indices(6, (0, 1, 2)))
    two_triangles = make_graph(
        6, list(itertools.combinations((0, 1, 2), 2)) + list(itertools.combinations((3, 4, 5), 2))
    )
    assert h == two_triangles
    assert is_isomorphic(h, two_triangles)


def test_switch_vertex_matches_singleton_set():
    g = paw()
    for v in range(4):
        assert switch_vertex(g, v) == switch_set(g, VertexSet.singleton(4, v))
    with pytest.raises(IndexError):
        switch_vertex(g, 4)


def test_vertex_set_of_another_order_is_refused():
    g = paw()
    for s in (VertexSet(3, 0b101), VertexSet.full(5)):
        for fn in (switch_set, is_iss, induced_subgraph):
            with pytest.raises(ValueError, match="vertex set order differs from graph order"):
                fn(g, s)
