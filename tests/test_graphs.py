import random
import sys

import pytest

from seidelkit import (
    Graph,
    VertexSet,
    canonical_form,
    canonical_graph,
    complement,
    from_graph6,
    graph_from_code,
    graph_to_code,
    induced_subgraph,
    make_graph,
    relabel,
    switch_set,
    to_graph6,
)
from seidelkit.iso import _child, all_graphs
from seidelkit.iss import complemented_core_agreement, edge_removed_agreement


def test_make_graph_basic():
    g = make_graph(4, [(0, 1), (2, 3), (1, 0)])
    assert g.n == 4
    assert g.edge_count() == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert g.has_edge(2, 3)
    assert not g.has_edge(0, 2)
    assert g.edges() == [(0, 1), (2, 3)]


def test_make_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        make_graph(3, [(0, 0)])
    with pytest.raises(IndexError):
        make_graph(3, [(0, 3)])
    with pytest.raises(IndexError):
        make_graph(3, [(-1, 1)])
    with pytest.raises(ValueError):
        make_graph(0, [])
    with pytest.raises(ValueError):
        make_graph(63, [])


def test_graph_validates_rows():
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, (1, 2))  # loop at 0? bit 0 of row 0
    with pytest.raises(ValueError):
        Graph(2, (2,))  # row count
    with pytest.raises(ValueError):
        Graph(2, (4, 0))  # bit outside range


def test_degree_and_neighborhood():
    g = make_graph(5, [(0, 1), (0, 2), (0, 3)])
    assert g.degree(0) == 3
    assert g.degree(4) == 0
    nb = g.neighborhood(0)
    assert sorted(nb.indices()) == [1, 2, 3]
    assert 0 not in nb
    with pytest.raises(IndexError):
        g.degree(5)


def test_vertex_set_ops():
    s = VertexSet.from_indices(5, (0, 2))
    t = VertexSet.from_indices(5, (2, 4))
    assert sorted((s ^ t).indices()) == [0, 4]
    assert sorted((s | t).indices()) == [0, 2, 4]
    assert sorted((s & t).indices()) == [2]
    assert sorted(s.complement().indices()) == [1, 3, 4]
    assert len(s) == 2
    assert list(iter(s)) == [0, 2]
    assert 2 in s and 1 not in s
    with pytest.raises(ValueError):
        s ^ VertexSet.from_indices(4, (0,))
    with pytest.raises(IndexError):
        VertexSet.from_indices(3, (3,))
    with pytest.raises(ValueError):
        VertexSet(3, 1 << 3)


def test_vertex_set_trivials():
    assert VertexSet.full(4).mask == 0b1111
    assert VertexSet.singleton(4, 2).mask == 0b0100
    assert len(VertexSet(4, 0)) == 0


def test_complement_involution():
    g = make_graph(5, [(0, 1), (1, 2), (3, 4)])
    assert complement(complement(g)) == g
    h = complement(g)
    for i in range(5):
        for j in range(i + 1, 5):
            assert h.has_edge(i, j) != g.has_edge(i, j)


def test_induced_subgraph():
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    sub, remap = induced_subgraph(g, VertexSet.from_indices(5, (1, 2, 3)))
    assert sub.n == 3
    assert remap == {1: 0, 2: 1, 3: 2}
    assert sub.edges() == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        induced_subgraph(g, VertexSet(5, 0))
    with pytest.raises(ValueError):
        induced_subgraph(g, VertexSet.from_indices(4, (0,)))


def test_relabel_roundtrip():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    p = (2, 0, 3, 1)
    h = relabel(g, p)
    for (u, v) in g.edges():
        assert h.has_edge(p[u], p[v])
    assert h.edge_count() == g.edge_count()
    inv = tuple(p.index(i) for i in range(4))
    assert relabel(h, inv) == g
    with pytest.raises(ValueError):
        relabel(g, (0, 0, 1, 2))
    with pytest.raises(ValueError):
        relabel(g, (0, 1, 2))


def test_code_roundtrip_exhaustive_order_4():
    for code in range(64):
        g = graph_from_code(4, code)
        assert graph_to_code(g) == code


def test_graph_is_hashable_value_type():
    a = make_graph(3, [(0, 1)])
    b = make_graph(3, [(1, 0)])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_derived_graphs_pass_the_checks_they_skip(monkeypatch):
    # every graph the package builds with Graph._of, which skips the row
    # checks, must equal the graph Graph(...) builds from its rows with them;
    # both edge remarks build theirs in iss._derived_verdicts, and every edge
    # verdict its switched graph in iss._direct
    wrap = Graph._of
    built = {}

    def spy(cls, n, adj):
        h = wrap(n, adj)
        built.setdefault(sys._getframe(1).f_code.co_name, []).append(h)
        return h

    monkeypatch.setattr(Graph, "_of", classmethod(spy))
    rng = random.Random(15)
    graphs = [g for n in range(1, 6) for g in all_graphs(n)]
    for n in range(6, 13):
        for _ in range(12):
            graphs.append(make_graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5]))
    for g in graphs:
        n = g.n
        complement(g)
        switch_set(g, VertexSet(n, rng.randrange(1 << n)))
        perm = list(range(n))
        rng.shuffle(perm)
        relabel(g, tuple(perm))
        induced_subgraph(g, VertexSet(n, rng.randrange(1, 1 << n)))
        graph_from_code(n, graph_to_code(g))
        from_graph6(to_graph6(g))
        canonical_graph(canonical_form(g))
        if n < 12:
            _child(g, rng.randrange(1 << n))
        if g.edge_count():
            x, y = rng.choice(g.edges())
            edge_removed_agreement(g, x, y)
            complemented_core_agreement(g, x, y)
    assert set(built) == {
        "complement", "switch_set", "relabel", "induced_subgraph", "graph_from_code",
        "canonical_graph", "_child", "_derived_verdicts", "from_graph6", "_direct",
    }
    for hs in built.values():
        for h in hs:
            assert Graph(h.n, h.adj) == h
