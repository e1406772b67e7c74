"""Exact spectral invariants of the Seidel matrix."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import _kernels
from .graphs import Graph, _check_bound

CHAR_POLY_MAX_ORDER = 16


def _int64_max_order() -> int:
    # The eigenvalues of S lie in [-(n-1), n-1], so the k-th coefficient
    # is at most C(n,k) (n-1)^k and the recursion's k-th matrix, a
    # polynomial in S, has entries at most 2^n (n-1)^k.  Every entry,
    # partial sum of a product and partial trace then stays below
    # n * 2^n * (n-1)^n; int64 holds that through the order returned.
    n = 1
    while (n + 1) * 2 ** (n + 1) * n ** (n + 1) < 1 << 63:
        n += 1
    return n


INT64_MAX_ORDER = _int64_max_order()


def seidel_matrix(g: Graph) -> list[list[int]]:
    """0 on the diagonal, -1 between adjacent pairs, +1 otherwise."""
    n = g.n
    return [
        [0 if i == j else (-1 if (g.adj[i] >> j) & 1 else 1) for j in range(n)]
        for i in range(n)
    ]


def seidel_char_polys(graphs: Sequence[Graph]) -> list[tuple[int, ...]]:
    """Characteristic polynomial of the Seidel matrix of each graph, exactly.

    Every graph must have the order of the first; an empty batch gives
    [].  Coefficients ascend (constant term first, leading coefficient 1)
    and are Python ints.  One Faddeev-LeVerrier recursion runs on the
    B x n x n stack S = J - I - 2A with numpy's matrix product, in
    blocks of at most _kernels._SWEEP_BLOCK // n**3 graphs: in int64
    through order INT64_MAX_ORDER, where no entry can overflow, and over
    Python ints (object arrays) above it.  Every division in it
    is exact, which the remainder check enforces.  The polynomial is
    invariant under both relabeling and switching, hence constant on a
    switching class.
    """
    if not graphs:
        return []
    n = graphs[0].n
    _check_bound(n, CHAR_POLY_MAX_ORDER)
    if any(g.n != n for g in graphs):
        raise ValueError(f"every graph must have order {n}")
    rows = np.array([g.adj for g in graphs], dtype=np.int64).reshape(-1, n)
    return [tuple(c) for c in _char_polys(rows).tolist()]  # tolist gives Python ints


def _char_polys(rows: np.ndarray) -> np.ndarray:
    # the coefficients of seidel_char_polys as one (graphs, n + 1) array, for
    # a (graphs, n) int64 array of adjacency rows
    count, n = rows.shape
    dtype = np.int64 if n <= INT64_MAX_ORDER else object
    eye = np.identity(n, dtype=np.int64)
    coeffs = np.zeros((count, n + 1), dtype=dtype)
    coeffs[:, n] = 1
    # a block's matrix product runs at most _SWEEP_BLOCK multiply-adds
    block = max(1, _kernels._SWEEP_BLOCK // n**3)
    for lo in range(0, count, block):
        adj = (rows[lo : lo + block, :, None] >> np.arange(n)) & 1
        s = (1 - eye - 2 * adj).astype(dtype)
        m = eye.astype(dtype)  # matmul broadcasts it over the stack
        for k in range(1, n + 1):
            m = s @ m
            diag = m.reshape(len(m), n * n)[:, :: n + 1]  # a view: writes reach m
            trace = diag.sum(axis=1)
            if (trace % k).any():
                raise AssertionError("inexact trace division in char poly recursion")
            q = trace // k
            coeffs[lo : lo + block, n - k] = -q
            diag -= q[:, None]
    return coeffs


def seidel_char_poly(g: Graph) -> tuple[int, ...]:
    """Characteristic polynomial of the Seidel matrix, exactly.

    A batch of one for seidel_char_polys; see there.
    """
    return seidel_char_polys([g])[0]


def class_signature(g: Graph) -> tuple[int, tuple[int, ...]]:
    """(order, Seidel characteristic polynomial).

    Equal signatures are necessary but not sufficient for two graphs to
    share a switching class; use as a cheap prefilter only.
    """
    return (g.n, seidel_char_poly(g))
