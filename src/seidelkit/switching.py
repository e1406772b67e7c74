"""Seidel switching on bitmask graphs.

Switching by a subset S toggles every adjacency between S and its
complement and leaves both sides internally untouched.  The subset form
is the primitive; single-vertex and sequence switching delegate to it.
The row rule itself is graphs._switch_rows.  It builds the table
_kernels._switch_pattern, through which the switch-orbit scan, the
algebra sweep and verify's invariants suite switch, so the sweep's
textbook identities (symmetric difference, complement of the set,
complement of the graph), checked on every labeled graph through order
5, hold for the rule that switch_set and the scan share.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import Graph, VertexSet, _check_ambient, _switch_rows


def switch_set(g: Graph, s: VertexSet) -> Graph:
    """Switch g by the subset s.

    Exactly the pairs crossing between s and its complement toggle, so
    switching by the empty set or the full set is the identity.
    """
    _check_ambient(g, s)
    return Graph._of(g.n, tuple(_switch_rows(g.adj, s.mask)))


def switch_vertex(g: Graph, v: int) -> Graph:
    """Switch g at a single vertex."""
    return switch_set(g, VertexSet.singleton(g.n, v))


def switch_sequence(g: Graph, vs: Iterable[int]) -> Graph:
    """Apply single-vertex switches left to right.

    Equals switching by the set of odd-multiplicity vertices, since
    vertex switches commute and are involutions.
    """
    h = g
    for v in vs:
        h = switch_vertex(h, v)
    return h
