import random

import pytest

import oracles
from seidelkit import VertexSet, make_graph, relabel, switch_set
from seidelkit.generators import complete, cycle, empty, path
from seidelkit.invariants import (
    CHAR_POLY_MAX_ORDER,
    class_signature,
    seidel_char_poly,
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
