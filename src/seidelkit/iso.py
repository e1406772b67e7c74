"""Canonical forms, isomorphism, automorphisms, and graph enumeration.

The canonical form of a graph is the minimal relabeled upper-triangle
bit string found by the refinement-and-backtracking search in _kernels,
which returns it as one int; _form packs that int into CanonicalForm
bytes.  Equal forms characterize isomorphic graphs, and (n, bits)
tuples give a total order used for class representatives throughout
the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional

from . import _kernels
from .graphs import Graph, Permutation, _upper_rows, graph_from_code, relabel

CANONICAL_MAX_ORDER = 12
AUTOMORPHISM_MAX_ORDER = 10


class CanonicalForm(NamedTuple):
    n: int
    bits: bytes


def _check_bound(n: int, bound: int) -> None:
    if n > bound:
        raise ValueError(f"order {n} above supported bound {bound}")


def _form(n: int, code: int) -> CanonicalForm:
    # the code's bit string, first pair in the top bit, zero-padded to whole bytes
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 7) // 8
    return CanonicalForm(n, (code << (8 * nbytes - npairs)).to_bytes(nbytes, "big"))


# Repeats come close together (within one query or one sweep step), so a
# small cache keeps nearly every hit while its memory stays bounded.
@lru_cache(maxsize=1 << 10)
def _canon_record(g: Graph) -> tuple[CanonicalForm, Permutation]:
    _check_bound(g.n, CANONICAL_MAX_ORDER)
    code, lab = _kernels.run_canon(g.adj, g.n)[:2]
    return _form(g.n, code), lab


# iss_family and switching_class scan the same graph in turn, so a few
# entries catch the repeat.
@lru_cache(maxsize=16)
def _switch_orbit_codes(g: Graph) -> tuple[int, ...]:
    return _kernels.switch_orbit_scan(g.adj, g.n)


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical form of g; equal forms mean isomorphic graphs."""
    return _canon_record(g)[0]


def canonical_labeling(g: Graph) -> Permutation:
    """The labeling behind canonical_form: position p holds old vertex lab[p]."""
    return _canon_record(g)[1]


def canonical_graph(cf: CanonicalForm) -> Graph:
    """The representative graph encoded by a canonical form."""
    code = int.from_bytes(cf.bits, "big") >> (8 * len(cf.bits) - cf.n * (cf.n - 1) // 2)
    return Graph(cf.n, tuple(_upper_rows(cf.n, code)))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n:
        return False
    return canonical_form(g) == canonical_form(h)


def find_isomorphism(g: Graph, h: Graph) -> Optional[Permutation]:
    """A vertex bijection carrying E(g) onto E(h), or None."""
    if g.n != h.n or canonical_form(g) != canonical_form(h):
        return None
    labg = canonical_labeling(g)
    labh = canonical_labeling(h)
    phi = [0] * g.n
    for p in range(g.n):
        phi[labg[p]] = labh[p]
    phi_t = tuple(phi)
    if relabel(g, phi_t) != h:
        raise AssertionError("canonical labelings produced a non-isomorphism")
    return phi_t


@dataclass(frozen=True)
class AutomorphismGroup:
    """A graph's automorphism group as generators and order.

    Each permutation is a tuple image[v].  The elements are enumerated
    only when asked for, by closing the generators under composition.
    """

    n: int
    generators: tuple[Permutation, ...]
    order: int

    @property
    def elements(self) -> tuple[Permutation, ...]:
        """Every element, sorted, so the identity comes first."""
        found = {tuple(range(self.n))}
        todo = list(found)
        for p in todo:
            for gen in self.generators:
                q = tuple(gen[v] for v in p)
                if q not in found:
                    found.add(q)
                    todo.append(q)
        return tuple(sorted(found))

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)


def automorphisms(g: Graph) -> AutomorphismGroup:
    """The automorphism group of g: generators and order from one search."""
    _check_bound(g.n, AUTOMORPHISM_MAX_ORDER)
    _, _, order, _, gens = _kernels.run_canon(g.adj, g.n)
    return AutomorphismGroup(g.n, gens, order)


def automorphism_count(g: Graph) -> int:
    """Group order alone, without storing elements."""
    _check_bound(g.n, CANONICAL_MAX_ORDER)
    return _kernels.run_canon(g.adj, g.n)[2]


def similarity_orbits(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Vertex orbits under the automorphism group, sorted by smallest member."""
    _check_bound(g.n, AUTOMORPHISM_MAX_ORDER)
    orbit = _kernels.run_canon(g.adj, g.n)[3]
    blocks: dict[int, list[int]] = {}
    for v in range(g.n):
        blocks.setdefault(orbit[v], []).append(v)
    return tuple(tuple(blocks[r]) for r in sorted(blocks))


def all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph of order n, in upper-triangle code order."""
    npairs = n * (n - 1) // 2
    for code in range(1 << npairs):
        yield graph_from_code(n, code)


@lru_cache(maxsize=16)
def nonisomorphic_graphs(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class, sorted by canonical form.

    Grown by vertex augmentation from order 1, which stays cheap well
    past the range where scanning all labeled graphs is an option.
    """
    _check_bound(n, CANONICAL_MAX_ORDER)
    k1 = Graph(1, (0,))
    reps: dict[CanonicalForm, Graph] = {canonical_form(k1): k1}
    for k in range(2, n + 1):
        nxt: dict[CanonicalForm, Graph] = {}
        for g in reps.values():
            for mask in range(1 << (k - 1)):
                rows = [row | (((mask >> i) & 1) << (k - 1)) for i, row in enumerate(g.adj)]
                rows.append(mask)
                h = Graph(k, tuple(rows))
                cf = canonical_form(h)
                if cf not in nxt:
                    nxt[cf] = h
        reps = nxt
    return tuple(reps[cf] for cf in sorted(reps))
