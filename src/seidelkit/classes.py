"""Switching classes and the small-order census.

Two labeled graphs are switching-equivalent when some subset switch
carries one to the other; folding in isomorphism gives the classes
counted here.  The census runs two independent routes over the same
ground set, so the numbers cross-check each other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .graph6 import to_graph6
from .graphs import Graph, complement
from .invariants import seidel_char_poly
from .iso import CanonicalForm, canonical_graph, form_from_word

SWITCHING_CLASS_MAX_ORDER = 10
CENSUS_MAX_ORDER = 7
COMPLEMENT_CLASS_MAX_ORDER = 8


@dataclass(frozen=True)
class SwitchingClass:
    """Isomorphism classes reachable from one graph by switching."""

    representative: CanonicalForm
    members: frozenset[CanonicalForm]

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, cf: CanonicalForm) -> bool:
        return cf in self.members


def switching_class(g: Graph) -> SwitchingClass:
    """The switching class of g, as a set of canonical forms.

    The representative is the minimum member, so equal classes compare
    equal no matter which member seeded the scan.
    """
    if g.n > SWITCHING_CLASS_MAX_ORDER:
        raise ValueError(f"order {g.n} above supported bound {SWITCHING_CLASS_MAX_ORDER}")
    words = sorted({int(w) for w in _kernels.switch_orbit_scan(g.adj, g.n)})
    members = frozenset(form_from_word(g.n, w) for w in words)
    return SwitchingClass(form_from_word(g.n, words[0]), members)


def check_complement_class(g: Graph) -> bool:
    """A graph and its complement must span switching classes of equal size."""
    if g.n > COMPLEMENT_CLASS_MAX_ORDER:
        raise ValueError(f"order {g.n} above supported bound {COMPLEMENT_CLASS_MAX_ORDER}")
    return switching_class(g).size == switching_class(complement(g)).size


@dataclass(frozen=True)
class CensusRecord:
    order: int
    class_id: int
    rep_g6: str
    iso_class_count: int
    labeled_count: int
    seidel_poly: tuple[int, ...]
    iss_min: int
    iss_max: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "order": self.order,
                "class_id": self.class_id,
                "rep_g6": self.rep_g6,
                "iso_class_count": self.iso_class_count,
                "labeled_count": self.labeled_count,
                "seidel_poly": list(self.seidel_poly),
                "iss_min": self.iss_min,
                "iss_max": self.iss_max,
            }
        )


def census(n: int) -> list[CensusRecord]:
    """All switching classes of order n.

    Route: scan every labeled graph for its canonical form (the kernel
    hands back one word per labeled code), dedup to isomorphism classes
    with labeled multiplicities, then union classes joined by a switch.
    Records come back sorted by representative form; class_id is the
    index in that order.  The Seidel polynomial is asserted constant
    across each class while it is collected.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n > CENSUS_MAX_ORDER:
        raise ValueError(f"order {n} above supported bound {CENSUS_MAX_ORDER}")
    words = _kernels.census_scan(n)
    uniq, counts = np.unique(words, return_counts=True)
    k = len(uniq)
    index = {int(w): i for i, w in enumerate(uniq)}
    reps = [canonical_graph(form_from_word(n, int(w))) for w in uniq]
    orbit_words = [_kernels.switch_orbit_scan(r.adj, n) for r in reps]
    for i in range(k):
        if int(orbit_words[i][0]) != int(uniq[i]):
            raise AssertionError("canonical representative failed to re-canonicalize")

    parent = list(range(k))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(k):
        for w in {int(v) for v in orbit_words[i]}:
            ra, rb = find(i), find(index[w])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    groups: dict[int, list[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)

    records = []
    ordered = sorted(groups.values(), key=lambda idxs: min(int(uniq[i]) for i in idxs))
    for cid, idxs in enumerate(ordered):
        rep_word = min(int(uniq[i]) for i in idxs)
        rep_graph = canonical_graph(form_from_word(n, rep_word))
        poly = seidel_char_poly(rep_graph)
        fam_sizes = []
        for i in idxs:
            if seidel_char_poly(reps[i]) != poly:
                raise AssertionError("Seidel polynomial differs inside a switching class")
            # identity switches: the masks 2k whose switch keeps the form, and their complements
            fam_sizes.append(2 * int(np.count_nonzero(orbit_words[i] == orbit_words[i][0])))
        labeled = int(sum(counts[i] for i in idxs))
        records.append(
            CensusRecord(
                order=n,
                class_id=cid,
                rep_g6=to_graph6(rep_graph),
                iso_class_count=len(idxs),
                labeled_count=labeled,
                seidel_poly=poly,
                iss_min=min(fam_sizes),
                iss_max=max(fam_sizes),
            )
        )
    return records


def census_labeled_components(n: int) -> dict[CanonicalForm, int]:
    """Labeled census by a second, independent route.

    Every labeled graph is a node and every single-vertex switch an
    edge; union-find gives the labeled switching classes directly.
    Each component must hold exactly 2^(n-1) labeled graphs (switches
    by S and by its complement coincide), which is enforced here.
    Returns labeled counts keyed by the class's minimum canonical form.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n > CENSUS_MAX_ORDER:
        raise ValueError(f"order {n} above supported bound {CENSUS_MAX_ORDER}")
    if n == 1:
        return {form_from_word(1, 0): 1}
    roots = _kernels.labeled_switch_components(n)
    words = _kernels.census_scan(n)
    comp_min: dict[int, int] = {}
    comp_size: dict[int, int] = {}
    for code in range(len(roots)):
        r = int(roots[code])
        w = int(words[code])
        comp_size[r] = comp_size.get(r, 0) + 1
        prev = comp_min.get(r)
        if prev is None or w < prev:
            comp_min[r] = w
    half = 1 << (n - 1)
    for r, size in comp_size.items():
        if size != half:
            raise AssertionError(f"labeled switch component of size {size}, expected {half}")
    out: dict[CanonicalForm, int] = {}
    for r, w in comp_min.items():
        key = form_from_word(n, w)
        out[key] = out.get(key, 0) + half
    return out
