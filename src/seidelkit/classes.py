"""Switching classes and the small-order census.

Two labeled graphs are switching-equivalent when some subset switch
carries one to the other; folding in isomorphism gives the classes
counted here.  switching_class reads one graph's class off the
switch-orbit scan of its class, which iss_family shares.  The census
walks the canonical codes that generation found, with one such scan per
class, which also gives the class's labeled count.  Verify's classes
suite checks those counts by the two-graph stabilizers of the class
representatives, and compares the class sizes of a graph and its
complement by their two-graph keys, all with no canonical search.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cached_property

from .graph6 import to_graph6
from .graphs import Graph, _check_bound
from .invariants import seidel_char_polys
from .iso import (
    GENERATION_MAX_ORDER,
    CanonicalForm,
    _class_scan,
    _code,
    _form,
    _forms,
    _generated,
    automorphism_count,
    canonical_graph,
)

CENSUS_MAX_ORDER = 7
# the census reads generation's cache directly, past nonisomorphic_graphs' order check
assert CENSUS_MAX_ORDER <= GENERATION_MAX_ORDER


@dataclass(frozen=True)
class SwitchingClass:
    """Isomorphism classes reachable from one graph by switching.

    codes holds the members' canonical codes, ascending and distinct, so
    equal classes compare and hash equal no matter which member seeded
    the scan.  The member forms are built only when members is read.
    """

    n: int
    codes: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.codes)

    @property
    def representative(self) -> CanonicalForm:
        """The minimum member."""
        return _form(self.n, self.codes[0])

    @cached_property
    def members(self) -> frozenset[CanonicalForm]:
        return frozenset(_forms(self.n, self.codes))

    def __contains__(self, cf: CanonicalForm) -> bool:
        # a code alone does not say its order
        return cf.n == self.n and _code(cf) in self.codes


def switching_class(g: Graph) -> SwitchingClass:
    """The switching class of g, as the canonical codes of its members."""
    return SwitchingClass(g.n, _class_scan(g)[3])


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
        # field order is the JSONL key order; the polynomial tuple becomes a list
        return json.dumps(asdict(self))


def _check_census_order(n: int) -> None:
    if n < 1:
        raise ValueError("order must be positive")
    _check_bound(n, CENSUS_MAX_ORDER)


def census(n: int) -> list[CensusRecord]:
    """All switching classes of order n.

    Route: walk the canonical codes that generation found for order n,
    in ascending order.  The first one no class covers yet is the
    minimum of a new class; the class's one switch-orbit scan, of its
    canonical graph or of the member first met (iso._class_scan), lists
    the class's members, one code per even-mask switch.  A member whose
    code appears c times in any member's scan has an identity-switch
    family of 2c subsets (each even mask stands for itself and its
    complement).  So the class's two-graph T has |Aut(T)| = c |Aut(rep)|
    for the representative's c, and the class holds 2^(n-1) n!/|Aut(T)|
    labeled graphs.  Records come back sorted by representative form;
    class_id is the index in that order.  The representative is asserted
    to re-canonicalize, and the Seidel polynomial to be constant across
    each class.
    """
    _check_census_order(n)
    fact = math.factorial(n)
    covered: set[int] = set()
    records = []
    for code in sorted(_generated(n)):
        if code in covered:
            continue
        rep = canonical_graph(_form(n, code))
        got, _, scan, codes = _class_scan(rep)
        if got != code or codes[0] != code:
            raise AssertionError("class representative failed to re-canonicalize as its minimum")
        counts = Counter(scan)
        covered.update(codes)
        poly, *polys = seidel_char_polys([canonical_graph(m) for m in _forms(n, codes)])
        if any(p != poly for p in polys):
            raise AssertionError("Seidel polynomial differs inside a switching class")
        records.append(
            CensusRecord(
                order=n,
                class_id=len(records),
                rep_g6=to_graph6(rep),
                iso_class_count=len(counts),
                labeled_count=(fact << (n - 1)) // (automorphism_count(rep) * counts[code]),
                seidel_poly=poly,
                iss_min=2 * min(counts.values()),
                iss_max=2 * max(counts.values()),
            )
        )
    return records
