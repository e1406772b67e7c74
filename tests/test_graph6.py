import random

import pytest

from seidelkit import Graph6Error, from_graph6, to_graph6, make_graph, relabel
from seidelkit.graphs import graph_from_code
from seidelkit.iso import nonisomorphic_graphs


def test_known_encodings():
    assert to_graph6(make_graph(1, [])) == "@"
    assert to_graph6(make_graph(2, [(0, 1)])) == "A_"
    assert to_graph6(make_graph(2, [])) == "A?"
    # triangle and path on 3 vertices
    assert to_graph6(make_graph(3, [(0, 1), (0, 2), (1, 2)])) == "Bw"
    assert from_graph6("Bw").edge_count() == 3


def test_roundtrip_exhaustive_small():
    for n in range(1, 6):
        for code in range(1 << (n * (n - 1) // 2)):
            g = graph_from_code(n, code)
            assert from_graph6(to_graph6(g)) == g


def test_roundtrip_representatives():
    for n in (6, 7):
        for g in nonisomorphic_graphs(n):
            assert from_graph6(to_graph6(g)) == g


def test_roundtrip_random_relabelings():
    rng = random.Random(991)
    for _ in range(200):
        n = rng.randint(2, 10)
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
        assert from_graph6(to_graph6(h)) == h


def test_matches_networkx():
    # networkx's graph6 writer and reader as an independent codec
    nx = pytest.importorskip("networkx")
    graphs = [graph_from_code(n, code) for n in range(1, 6) for code in range(1 << (n * (n - 1) // 2))]
    rng = random.Random(6262)
    for n in range(6, 63):
        p = rng.random()
        graphs.append(make_graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p]))
    for g in graphs:
        h = nx.empty_graph(g.n)
        h.add_edges_from(g.edges())
        text = to_graph6(g)
        assert nx.to_graph6_bytes(h, header=False) == text.encode() + b"\n"
        back = nx.from_graph6_bytes(text.encode())
        assert sorted(back.nodes) == list(range(g.n))
        assert sorted(tuple(sorted(e)) for e in back.edges) == g.edges()


def test_rejects_malformed():
    with pytest.raises(Graph6Error):
        from_graph6("")
    with pytest.raises(Graph6Error):
        from_graph6("?")  # order 0
    with pytest.raises(Graph6Error):
        from_graph6("~??")  # long form not supported here
    with pytest.raises(Graph6Error):
        from_graph6("C")  # truncated payload
    with pytest.raises(Graph6Error):
        from_graph6("Bw?")  # trailing garbage
    with pytest.raises(Graph6Error):
        from_graph6("B\x7f")  # out of printable range
    with pytest.raises(Graph6Error):
        from_graph6("A" + chr(30))


def test_rejects_nonzero_padding():
    # K2's payload uses 1 of 6 bits; set a padding bit
    bad = "A" + chr(63 + 0b010001)
    with pytest.raises(Graph6Error):
        from_graph6(bad)


def test_fuzz_rejects_or_roundtrips():
    # any text either fails with Graph6Error or decodes to a graph that
    # encodes back to the same text
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    graph6_chars = st.characters(min_codepoint=63, max_codepoint=126)
    # a size character followed by the data length its order needs, so that
    # the padding and the bits are exercised and not only the length checks
    sized = st.integers(1, 62).flatmap(
        lambda n: st.text(graph6_chars, min_size=(n * (n - 1) // 2 + 5) // 6,
                          max_size=(n * (n - 1) // 2 + 5) // 6).map(lambda body: chr(63 + n) + body)
    )

    @hypothesis.settings(max_examples=500, deadline=None, database=None)
    @hypothesis.given(st.text() | st.text(graph6_chars, max_size=80) | sized)
    def check(text):
        try:
            g = from_graph6(text)
        except Graph6Error:
            return
        assert to_graph6(g) == text

    check()
