"""Exact spectral invariants of the Seidel matrix."""

from __future__ import annotations

import numpy as np

from .graphs import Graph, _check_bound

CHAR_POLY_MAX_ORDER = 16


def seidel_matrix(g: Graph) -> list[list[int]]:
    """0 on the diagonal, -1 between adjacent pairs, +1 otherwise."""
    n = g.n
    return [
        [0 if i == j else (-1 if (g.adj[i] >> j) & 1 else 1) for j in range(n)]
        for i in range(n)
    ]


def seidel_char_poly(g: Graph) -> tuple[int, ...]:
    """Characteristic polynomial of the Seidel matrix, exactly.

    Coefficients ascending (constant term first), leading coefficient 1.
    Faddeev-LeVerrier recursion, with numpy's matrix product over
    Python integers (object arrays), so no entry can overflow; every
    division in it is exact, which the remainder check enforces.
    Invariant under both relabeling and switching, hence constant on a
    switching class.
    """
    n = g.n
    _check_bound(n, CHAR_POLY_MAX_ORDER)
    s = np.array(seidel_matrix(g), dtype=object)
    eye = np.identity(n, dtype=object)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = eye
    for k in range(1, n + 1):
        am = s @ m
        q, r = divmod(am.trace(), k)
        if r != 0:
            raise AssertionError("inexact trace division in char poly recursion")
        coeffs[n - k] = -q
        m = am - q * eye
    return tuple(coeffs)


def class_signature(g: Graph) -> tuple[int, tuple[int, ...]]:
    """(order, Seidel characteristic polynomial).

    Equal signatures are necessary but not sufficient for two graphs to
    share a switching class; use as a cheap prefilter only.
    """
    return (g.n, seidel_char_poly(g))
