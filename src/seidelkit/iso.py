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
# order 8 holds 12,346 isomorphism classes and generates in 1.4-2.0 s
# cold (benchmarks/BENCH_sweeps.json); order 9 holds 274,668 and took 35 s
# and 297 MB
GENERATION_MAX_ORDER = 8
# generation searches each order's children, and a scan its root switches,
# through _kernels._search_codes, whose batches stop at _CODES_MAX_ORDER
assert GENERATION_MAX_ORDER <= _kernels._CODES_MAX_ORDER
assert SWITCH_SCAN_MAX_ORDER <= _kernels._CODES_MAX_ORDER


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


# The class scans: order -> canonical code -> (f, f's scan, the class's
# sorted codes), every code of one scan naming the same entry.  One scan
# answers every member of f's switching class, however labeled or
# switched, so a class is scanned once per process until the codes held
# would pass _CLASS_SCAN_MAX_CODES, when the cache is emptied first.  Int
# keys in one dict per order take about half the memory of (n, code) keys.
_CLASS_SCANS: dict[int, dict[int, tuple]] = {}
_CLASS_SCAN_MAX_CODES = 1 << 16
# a class of order n holds at most 2^(n-1) codes, so any one class fits
assert 1 << (SWITCH_SCAN_MAX_ORDER - 1) <= _CLASS_SCAN_MAX_CODES


def _class_scan(g: Graph) -> tuple:
    """(g's code, f, f's scan, sorted class codes) for g's switching class.

    Every scan of the package comes through here, so this checks its
    order bound: iss_family, switching_class and the census.  The scan
    starts from the search of the first member f met, which
    canonical_form has usually run already.
    """
    _check_bound(g.n, SWITCH_SCAN_MAX_ORDER)
    code, _, _, _, gens = _kernels.run_canon(g.adj, g.n)
    if code not in _CLASS_SCANS.get(g.n, ()):
        scan = _kernels.switch_orbit_scan(g.adj, g.n, code, gens)
        codes = tuple(sorted(set(scan)))
        if sum(map(len, _CLASS_SCANS.values())) + len(codes) > _CLASS_SCAN_MAX_CODES:
            _CLASS_SCANS.clear()
        _CLASS_SCANS.setdefault(g.n, {}).update(dict.fromkeys(codes, (g, scan, codes)))
    return (code, *_CLASS_SCANS[g.n][code])


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical form of g; equal forms mean isomorphic graphs."""
    return _canon_record(g)[0]


def canonical_labeling(g: Graph) -> Permutation:
    """The labeling behind canonical_form: position p holds old vertex lab[p]."""
    return _canon_record(g)[1]


def canonical_graph(cf: CanonicalForm) -> Graph:
    """The representative graph encoded by a canonical form."""
    return Graph._of(cf.n, tuple(_upper_rows(cf.n, _code(cf))))


def _same_degrees(a, b) -> bool:
    # whether two row tuples have the same sorted degree sequence
    return sorted(map(int.bit_count, a)) == sorted(map(int.bit_count, b))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Equal canonical forms.  Once the order bound is checked, unequal
    sorted degree sequences answer no before any search."""
    if g.n != h.n:
        return False
    _check_bound(g.n, CANONICAL_MAX_ORDER)
    return _same_degrees(g.adj, h.adj) and canonical_form(g) == canonical_form(h)


def _isomorphic_pairs(pairs, n: int) -> list[bool]:
    """is_isomorphic of each pair of row tuples of order n, decided together.

    The degree guard is is_isomorphic's; the pairs that pass it take
    their codes from one _kernels._codes call, so a sweep decides a
    whole order's pairs in one batched search, which stops at order
    _kernels._CODES_MAX_ORDER.
    """
    _check_bound(n, _kernels._CODES_MAX_ORDER)
    same = [_same_degrees(a, b) for a, b in pairs]
    codes = iter(_kernels._codes([rows for pair, s in zip(pairs, same) if s for rows in pair], n))
    # each pair that passed the guard takes the next two codes
    return [s and next(codes) == next(codes) for s in same]


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


def nonisomorphic_graphs(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class, sorted by canonical form.

    Grown by vertex augmentation from order 1, which stays cheap well
    past the range where scanning all labeled graphs is an option.  Each
    order's children are searched together, as numpy batches from order
    4 up, and the first child of each form, in parent then mask order,
    represents it.  Each order is grown once per process, from the
    order below it in the order its forms were first found.
    """
    if n < 1:
        raise ValueError("order must be positive")
    _check_bound(n, GENERATION_MAX_ORDER)
    reps = _generated(n)
    return tuple(reps[code] for code in sorted(reps))


# the only generation cache, one entry per order; callers check the order and never mutate the dict
@lru_cache(maxsize=GENERATION_MAX_ORDER)
def _generated(n: int) -> dict[int, Graph]:
    """Canonical code -> representative of order n, in the order each code was first found."""
    if n == 1:
        return {0: Graph(1, (0,))}
    graphs = list(_generated(n - 1).values())
    first = {}
    for i, code in enumerate(_child_codes(graphs, n)):
        first.setdefault(code, i)
    return {code: _child(graphs[i >> (n - 1)], i % (1 << (n - 1))) for code, i in first.items()}


def _child_codes(graphs: list[Graph], k: int) -> list[int]:
    # the canonical code of each child of each graph of order k - 1, in
    # parent then mask order, searched together by _kernels._search_codes
    nmask = 1 << (k - 1)
    # joins[m]: the rows that mask m adds, the new vertex k - 1 in row i for
    # each i of m, and m as the new last row
    masks = np.arange(nmask, dtype=np.int64)
    joins = np.hstack([((masks[:, None] >> np.arange(k - 1)) & 1) << (k - 1), masks[:, None]])
    chunk = max(1, _kernels._SWEEP_BLOCK // (nmask * k * k))
    codes = []
    for lo in range(0, len(graphs), chunk):
        # each parent's rows with an empty new last row, ORed with every mask's
        parents = np.array([(*g.adj, 0) for g in graphs[lo : lo + chunk]], dtype=np.int64)
        codes += _kernels._search_codes((parents[:, None] | joins).reshape(-1, k), k)
    return codes


def _child(g: Graph, mask: int) -> Graph:
    # g with a new last vertex joined to the vertices of mask
    rows = [row | ((mask >> i) & 1) << g.n for i, row in enumerate(g.adj)]
    return Graph._of(g.n + 1, (*rows, mask))
