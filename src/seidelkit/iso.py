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

import numpy as np

from . import _kernels
from .graphs import Graph, Permutation, _check_bound, _upper_rows, graph_from_code, relabel

CANONICAL_MAX_ORDER = 12
# one switch-orbit scan searches up to 2^(n-1) switches of its graph
SWITCH_SCAN_MAX_ORDER = 10
# order 8 holds 12,346 isomorphism classes and generates in about 4 s
# (benchmarks/BENCH_sweeps.json); order 9 holds 274,668 and took 35 s and 297 MB
GENERATION_MAX_ORDER = 8
# every order that generation reaches is searched as numpy batches
assert GENERATION_MAX_ORDER <= _kernels._CODES_MAX_ORDER


class CanonicalForm(NamedTuple):
    n: int
    bits: bytes


def _forms(n: int, codes) -> list[CanonicalForm]:
    # each code's bit string, first pair in the top bit, zero-padded to whole bytes
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 7) // 8
    pad = 8 * nbytes - npairs
    return [CanonicalForm(n, (code << pad).to_bytes(nbytes, "big")) for code in codes]


def _form(n: int, code: int) -> CanonicalForm:
    return _forms(n, (code,))[0]


def _code(cf: CanonicalForm) -> int:
    # the int that _form packed
    return int.from_bytes(cf.bits, "big") >> (8 * len(cf.bits) - cf.n * (cf.n - 1) // 2)


# Every reader below takes its answer from this record; the search
# behind it is _kernels.run_canon's memo, shared with the switch-orbit
# scan and generation, so a graph is searched once whichever meets it.
def _canon_record(g: Graph) -> tuple:
    """(form, labeling, |Aut|, orbit roots, generators) from one search."""
    _check_bound(g.n, CANONICAL_MAX_ORDER)
    code, *rest = _kernels.run_canon(g.adj, g.n)
    return (_form(g.n, code), *rest)


# iss_family and switching_class scan the same graph in turn, so a few
# entries catch the repeat.  Every scan of the package comes through here,
# so this is where its order bound is checked.  The scan starts from the
# graph's own search, which canonical_form has usually run already.
@lru_cache(maxsize=16)
def _switch_orbit_codes(g: Graph) -> tuple[int, ...]:
    _check_bound(g.n, SWITCH_SCAN_MAX_ORDER)
    code, _, _, _, gens = _kernels.run_canon(g.adj, g.n)
    return _kernels.switch_orbit_scan(g.adj, g.n, code, gens)


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical form of g; equal forms mean isomorphic graphs."""
    return _canon_record(g)[0]


def canonical_labeling(g: Graph) -> Permutation:
    """The labeling behind canonical_form: position p holds old vertex lab[p]."""
    return _canon_record(g)[1]


def canonical_graph(cf: CanonicalForm) -> Graph:
    """The representative graph encoded by a canonical form."""
    return Graph._of(cf.n, tuple(_upper_rows(cf.n, _code(cf))))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Equal canonical forms.  Once the order bound is checked, unequal
    sorted degree sequences answer no before any search."""
    if g.n != h.n:
        return False
    _check_bound(g.n, CANONICAL_MAX_ORDER)
    if sorted(map(int.bit_count, g.adj)) != sorted(map(int.bit_count, h.adj)):
        return False
    return canonical_form(g) == canonical_form(h)


def find_isomorphism(g: Graph, h: Graph) -> Optional[Permutation]:
    """A vertex bijection carrying E(g) onto E(h), or None."""
    if not is_isomorphic(g, h):
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

    Each generator is a tuple image[v]; together they generate the
    group, and order is its size.  The elements are not enumerated.
    """

    n: int
    generators: tuple[Permutation, ...]
    order: int


def automorphisms(g: Graph) -> AutomorphismGroup:
    """The automorphism group of g: generators and order from one search."""
    rec = _canon_record(g)
    return AutomorphismGroup(g.n, rec[4], rec[2])


def automorphism_count(g: Graph) -> int:
    """The automorphism group order, by orbit-stabilizer in the search."""
    return _canon_record(g)[2]


def similarity_orbits(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Vertex orbits under the automorphism group, sorted by smallest member."""
    orbit = _canon_record(g)[3]
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
    past the range where scanning all labeled graphs is an option.  Each
    order's children are searched as numpy batches, and the first child
    of each form, in parent then mask order, represents it.
    """
    if n < 1:
        raise ValueError("order must be positive")
    _check_bound(n, GENERATION_MAX_ORDER)
    reps = {0: Graph(1, (0,))}
    for k in range(2, n + 1):
        graphs = list(reps.values())
        nmask = 1 << (k - 1)
        first = {}
        for i, code in enumerate(_child_codes(graphs, k)):
            first.setdefault(code, i)
        reps = {code: _child(graphs[i >> (k - 1)], i & (nmask - 1)) for code, i in first.items()}
    return tuple(reps[code] for code in sorted(reps))


def _child_codes(graphs: list[Graph], k: int) -> list[int]:
    # the canonical code of each child of each graph of order k - 1, in
    # parent then mask order, searched as numpy batches
    nmask = 1 << (k - 1)
    # bits[i, m]: whether mask m joins the new vertex k - 1 to i
    bits = ((np.arange(nmask) >> np.arange(k - 1)[:, None]) & 1).astype(bool)
    chunk = max(1, _kernels._SWEEP_BLOCK // (nmask * k * k))
    codes = []
    for lo in range(0, len(graphs), chunk):
        parents = _kernels._adjacency([g.adj for g in graphs[lo : lo + chunk]], k - 1)
        kids = np.zeros((k, k, parents.shape[2], nmask), dtype=bool)
        kids[: k - 1, : k - 1] = parents[:, :, :, None]
        kids[k - 1, : k - 1] = bits[:, None]
        kids[: k - 1, k - 1] = bits[:, None]
        codes += _kernels._search_codes(kids.reshape(k, k, -1), k)
    return codes


def _child(g: Graph, mask: int) -> Graph:
    # g with a new last vertex joined to the vertices of mask
    rows = [row | ((mask >> i) & 1) << g.n for i, row in enumerate(g.adj)]
    return Graph._of(g.n + 1, (*rows, mask))
