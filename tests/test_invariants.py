import random
import time

import numpy as np
import pytest

import oracles
from seidelkit import VertexSet, _kernels, make_graph, relabel, switch_set
from seidelkit.generators import complete, cycle, empty, path
from seidelkit.invariants import (
    CHAR_POLY_MAX_ORDER,
    _char_polys,
    INT64_MAX_ORDER,
    class_signature,
    seidel_char_poly,
    seidel_char_polys,
    seidel_matrix,
)
from seidelkit.iso import nonisomorphic_graphs


def test_seidel_matrix_entries():
    g = path(3)
    m = seidel_matrix(g)
    assert m == [[0, -1, 1], [-1, 0, -1], [1, -1, 0]]


def test_pinned_polynomials():
    # coefficients ascend: constant term first, leading 1 last
    assert seidel_char_poly(make_graph(1, [])) == (0, 1)
    assert seidel_char_poly(make_graph(2, [(0, 1)])) == (-1, 0, 1)
    assert seidel_char_poly(make_graph(2, [])) == (-1, 0, 1)
    assert seidel_char_poly(complete(3)) == (2, -3, 0, 1)


def test_matches_symbolic_oracle_on_representatives():
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            assert seidel_char_poly(g) == oracles.sympy_seidel_poly(g)


def test_matches_symbolic_oracle_on_random_larger():
    rng = random.Random(303)
    for _ in range(12):
        n = rng.randint(7, 9)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = make_graph(n, edges)
        assert seidel_char_poly(g) == oracles.sympy_seidel_poly(g)


def test_matches_symbolic_oracle_at_the_order_bound():
    rng = random.Random(1616)
    n = CHAR_POLY_MAX_ORDER
    g = make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])
    poly = seidel_char_poly(g)
    assert all(type(c) is int for c in poly)
    assert poly == oracles.sympy_seidel_poly(g)


def test_invariant_under_switching_and_relabeling():
    rng = random.Random(404)
    for _ in range(30):
        n = rng.randint(2, 8)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = make_graph(n, edges)
        poly = seidel_char_poly(g)
        s = VertexSet(n, rng.randrange(1 << n))
        assert seidel_char_poly(switch_set(g, s)) == poly
        p = list(range(n))
        rng.shuffle(p)
        assert seidel_char_poly(relabel(g, tuple(p))) == poly


def test_poly_shape():
    rng = random.Random(505)
    for _ in range(20):
        n = rng.randint(1, 9)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = make_graph(n, edges)
        poly = seidel_char_poly(g)
        assert len(poly) == n + 1
        assert poly[-1] == 1  # monic
        assert poly[-2] == 0  # trace of the matrix is zero


def test_distinguishes_some_switching_classes():
    assert seidel_char_poly(path(4)) != seidel_char_poly(cycle(4))
    assert class_signature(path(4)) != class_signature(cycle(4))
    assert class_signature(cycle(4)) == class_signature(empty(4))


def test_class_signature_carries_order():
    assert class_signature(empty(2))[0] == 2
    assert class_signature(empty(2)) != class_signature(empty(3))


def test_order_bound():
    with pytest.raises(ValueError):
        seidel_char_poly(empty(CHAR_POLY_MAX_ORDER + 1))
    with pytest.raises(ValueError):
        seidel_char_polys([empty(CHAR_POLY_MAX_ORDER + 1)])


def test_int64_cut_off_follows_the_entry_bound():
    # n * 2^n * (n-1)^n < 2^63 holds at the cut-off and fails one past it
    n = INT64_MAX_ORDER
    assert n == 12
    assert n * 2**n * (n - 1) ** n < 2**63 <= (n + 1) * 2 ** (n + 1) * n ** (n + 1)


@pytest.mark.parametrize("n", [INT64_MAX_ORDER, INT64_MAX_ORDER + 1])
def test_batch_matches_symbolic_oracle_at_the_int64_cut_off(n):
    # complete and empty graphs reach the spectral radius n - 1
    rng = random.Random(1200 + n)
    graphs = [complete(n), empty(n)]
    for p in (0.2, 0.5, 0.8):
        graphs.append(make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]))
    polys = seidel_char_polys(graphs)
    assert len(polys) == len(graphs)
    for g, poly in zip(graphs, polys):
        assert all(type(c) is int for c in poly)
        assert poly == oracles.sympy_seidel_poly(g) == seidel_char_poly(g)


def test_batch_refuses_a_graph_of_another_order():
    with pytest.raises(ValueError):
        seidel_char_polys([empty(4), empty(5)])
    with pytest.raises(ValueError):
        seidel_char_polys([complete(5), complete(5), empty(4)])
    assert seidel_char_polys([]) == []


def test_order_sixteen_finishes_quickly():
    rng = random.Random(16)
    n = CHAR_POLY_MAX_ORDER
    graphs = [complete(n), empty(n), make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])]
    for g in graphs:
        t = time.perf_counter()
        poly = seidel_char_poly(g)
        assert time.perf_counter() - t < 1.0
        assert len(poly) == n + 1 and poly[-1] == 1


@pytest.mark.parametrize("n, sweep_block", [(6, _kernels._SWEEP_BLOCK), (13, 2 * 13**3)])
def test_blocked_polynomials_match_one_graph_at_a_time(monkeypatch, n, sweep_block):
    # two whole blocks and part of a third, at an int64 order and an
    # object order; each graph alone is one block of one graph
    monkeypatch.setattr(_kernels, "_SWEEP_BLOCK", sweep_block)
    block = sweep_block // n**3
    rng = random.Random(n)
    graphs = [make_graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5])
              for _ in range(2 * block + 1)]
    rows = np.array([g.adj for g in graphs], dtype=np.int64)
    assert [tuple(c) for c in _char_polys(rows).tolist()] == [seidel_char_polys([g])[0] for g in graphs]
