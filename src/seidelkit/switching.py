"""Seidel switching on bitmask graphs.

Switching by a subset S toggles every adjacency between S and its
complement and leaves both sides internally untouched.  The subset form
is the primitive; single-vertex and sequence switching delegate to it.
The row rule itself is graphs._switch_rows, which the switch-orbit scan
in _kernels shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graphs import Graph, VertexSet, _switch_rows, complement


def _check_ambient(g: Graph, s: VertexSet) -> None:
    if s.n != g.n:
        raise ValueError("vertex set order differs from graph order")


def switch_set(g: Graph, s: VertexSet) -> Graph:
    """Switch g by the subset s.

    Exactly the pairs crossing between s and its complement toggle, so
    switching by the empty set or the full set is the identity.
    """
    _check_ambient(g, s)
    return Graph(g.n, tuple(_switch_rows(g.adj, s.mask)))


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


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an identity check; carries the two differing graphs on failure."""

    ok: bool
    left: Optional[Graph] = None
    right: Optional[Graph] = None

    def __bool__(self) -> bool:
        return self.ok


def _compare(left: Graph, right: Graph) -> CheckResult:
    if left == right:
        return CheckResult(True)
    return CheckResult(False, left, right)


def check_symmetric_difference(g: Graph, s: VertexSet, t: VertexSet) -> CheckResult:
    """Switching by t then by s equals one switch by the symmetric difference."""
    return _compare(switch_set(switch_set(g, t), s), switch_set(g, s ^ t))


def check_complement_switch(g: Graph, s: VertexSet) -> CheckResult:
    """Switching by s and by its complement give the same labeled graph."""
    return _compare(switch_set(g, s), switch_set(g, s.complement()))


def check_complement_commutes(g: Graph, s: VertexSet) -> CheckResult:
    """Graph complement commutes with switching."""
    return _compare(complement(switch_set(g, s)), switch_set(complement(g), s))
