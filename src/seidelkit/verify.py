"""Verification suites: asserted identities and measured sweeps.

Two different strengths of claim run here.  Asserted properties (the
switching algebra, invariance of the Seidel polynomial, the sufficiency
direction of the edge criterion, class sizes under complement, the
complemented-core verdict as a second route to the edge-removal one)
fail the run on any violation.  Swept claims (symmetric-difference
closure of identity-switch families, the core partition, the
edge-removal remark, the necessity direction) only emit findings; a
counterexample there is a result, not a bug.

The sweeps decide by order.  A verdict that needs only canonical codes
takes them from one batched search per order (_kernels._codes, after
is_isomorphic's degree guard where two graphs are compared): the edge
suite's direct, g - xy and flipped-core verdicts (iss._edge_reports),
the iso suite's same-orbit switch pairs and the classes suite's
self-complement test.  The invariants suite evaluates each order's
switches and relabelings in one blocked polynomial recursion, and the
classes suite names each graph's class by its two-graph key
(_kernels.two_graph_orbits), with no search.  The oracles that check
the batch stay on the single search: the iso suite's relabelings, the
iss suite's spot check and singleton verdicts (its families come from
one switch-orbit scan per switching class, iso._class_scan),
automorphism counts, orbits and generators, the search of Aut(core) in
condition_ii and the constructions.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .classes import census
from .generators import (
    complete,
    complete_bipartite,
    cube_q3,
    cycle,
    empty,
    half_join,
    path,
    path_plus_clique,
    path_with_isolated,
    paw,
    prism_c3p2,
    star,
    tadpole,
)
from .graph6 import from_graph6, to_graph6
from .graphs import VertexSet, _switch_rows, complement, relabel
from .invariants import _char_polys, seidel_char_poly
from .iso import (
    _isomorphic_pairs,
    automorphism_count,
    canonical_form,
    is_isomorphic,
    nonisomorphic_graphs,
    similarity_orbits,
)
from .iss import (
    _edge_reports,
    core_neighborhoods_partition,
    degree_extremes_adjacent,
    edge_iss_direct,
    is_iss,
    iss_family,
    vertex_iss_set,
)
from .switching import switch_sequence, switch_set, switch_vertex

SUITES = ("algebra", "iso", "invariants", "iss", "edge-iss", "classes", "constructions")

# exhaustive sweeps stay at or below this order, and the census at
# CENSUS_MAX_ORDER, no matter what the caller asks for; fixture checks
# are gated by max_order alone
SWEEP_CAP = 7
SEED = 20260819


@dataclass(frozen=True)
class Finding:
    claim_id: str
    graph6: str
    witness_masks: tuple[int, ...]
    detail: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "claim-id": self.claim_id,
                "graph6": self.graph6,
                "witness-masks": list(self.witness_masks),
                "detail": self.detail,
            }
        )

    def sort_key(self):
        return (self.claim_id, self.graph6, self.witness_masks)


@dataclass
class SuiteResult:
    suite: str
    checks: int = 0
    violations: list[str] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def check(self, ok: bool, msg: str) -> bool:
        """Count one pass/fail check; a failure records msg as a violation."""
        self.checks += 1
        if not ok:
            self.violations.append(msg)
        return ok

    def finish(self) -> "SuiteResult":
        self.findings.sort(key=Finding.sort_key)
        return self


def _reps_upto(max_order: int):
    for n in range(1, min(max_order, SWEEP_CAP) + 1):
        yield n, nonisomorphic_graphs(n)


def _note_cap(res: SuiteResult, max_order: int) -> None:
    # a suite whose exhaustive sweep stopped short of max_order says so
    if max_order > SWEEP_CAP:
        res.lines.append(f"exhaustive sweep capped at order {SWEEP_CAP}")


def suite_algebra(max_order: int) -> SuiteResult:
    res = SuiteResult("algebra")
    for n in range(1, min(max_order, 5) + 1):
        stats = _kernels.algebra_sweep(n)
        graphs, checks, bad = int(stats[0]), int(stats[1]), int(stats[2])
        res.checks += checks
        res.lines.append(f"order {n}: {graphs} labeled graphs, {checks} identity checks")
        if bad:
            kind = {0: "fold asc", 1: "fold desc", 2: "trivial subsets", 3: "complement subset",
                    4: "complement commutes", 5: "symmetric difference"}[int(stats[6])]
            res.violations.append(
                f"algebra identity failed: order {n} code {int(stats[3])} "
                f"s={int(stats[4])} t={int(stats[5])} ({kind})"
            )
    # sequence folding at the python level, seeded but fixed
    rng = random.Random(SEED)
    for n in range(2, min(max_order, 5) + 1):
        for g in nonisomorphic_graphs(n):
            g6 = to_graph6(g)
            for _ in range(4):
                seq = [rng.randrange(n) for _ in range(rng.randrange(1, 7))]
                parity = 0
                for v in seq:
                    parity ^= 1 << v
                res.check(switch_sequence(g, seq) == switch_set(g, VertexSet(n, parity)),
                          f"sequence fold failed: {g6} seq {seq}")
    res.lines.append("vertex-sequence folds agree with one-shot subset switches")
    return res.finish()


def suite_iso(max_order: int) -> SuiteResult:
    res = SuiteResult("iso")
    rng = random.Random(SEED)
    for n, reps in _reps_upto(max_order):
        relabels = labeled = 0
        fact = math.factorial(n)
        for g in reps:
            g6 = to_graph6(g)
            cf = canonical_form(g)
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                relabels += 1
                res.check(canonical_form(relabel(g, tuple(perm))) == cf,
                          f"canonical form not relabeling-invariant: {g6}")
            # orbit-stabilizer: group order divides n!, orbit sizes divide group order
            order = automorphism_count(g)
            res.check(fact % order == 0, f"automorphism count {order} does not divide {n}!: {g6}")
            for orb in similarity_orbits(g):
                res.check(order % len(orb) == 0, f"orbit size {len(orb)} does not divide group order: {g6}")
            labeled += fact // order
        res.lines.append(f"order {n}: {len(reps)} classes, {relabels} relabelings checked")
        # counting identity: sum over classes of n!/|Aut| = number of labeled graphs
        res.check(labeled == 1 << (n * (n - 1) // 2),
                  f"labeled count identity failed at order {n}: {labeled}")
    # same-orbit vertices always switch to isomorphic graphs; each order's
    # pairs are decided together
    pairs = 0
    for n, reps in _reps_upto(min(max_order, 6)):
        where, switched = [], []
        for g in reps:
            g6 = to_graph6(g)
            for orb in similarity_orbits(g):
                gu = tuple(_switch_rows(g.adj, 1 << orb[0]))
                for v in orb[1:]:
                    where.append((g6, orb[0], v))
                    switched.append((gu, tuple(_switch_rows(g.adj, 1 << v))))
        for (g6, u, v), same in zip(where, _isomorphic_pairs(switched, n)):
            pairs += 1
            res.check(same, f"same-orbit switches differ: {g6} vertices {u},{v}")
    res.lines.append(f"same-orbit switch agreement: {pairs} vertex pairs")
    if max_order >= 6:
        t = tadpole(3, 4)
        h1, h3 = switch_vertex(t, 1), switch_vertex(t, 3)
        orbs = similarity_orbits(t)
        o1 = next(o for o in orbs if 1 in o)
        if res.check(is_isomorphic(h1, h3) and 3 not in o1, "tadpole converse-failure fixture broke"):
            res.lines.append(
                "tadpole(3,4): vertices 1 and 3 switch to isomorphic graphs from distinct orbits"
            )
    if max_order >= 5:
        res.check(is_isomorphic(cycle(5), complement(cycle(5))), "5-cycle should be self-complementary")
    _note_cap(res, max_order)
    return res.finish()


def suite_invariants(max_order: int) -> SuiteResult:
    res = SuiteResult("invariants")
    fixtures = [
        (complete(2), (-1, 0, 1)),
        (empty(2), (-1, 0, 1)),
        (complete(3), (2, -3, 0, 1)),
    ]
    for g, want in fixtures:
        res.check(seidel_char_poly(g) == want, f"pinned polynomial wrong for {to_graph6(g)}")
    for n, reps in _reps_upto(min(max_order, 6)):
        relabelings = []
        for idx, g in enumerate(reps):
            # seeded per graph, so each relabeling is fixed by (n, idx) alone
            rng = random.Random(f"{SEED}:{n}:{idx}")
            perm = list(range(n))
            rng.shuffle(perm)
            relabelings.append(relabel(g, tuple(perm)).adj)
        # one batch per order: the width rows of each graph are g, its
        # even-mask switches in mask order and its relabeling
        rows = np.array([g.adj for g in reps], dtype=np.int64)[:, None]
        stack = np.concatenate([rows, rows ^ _kernels._switch_pattern(n)[::2],
                                np.array(relabelings, dtype=np.int64)[:, None]], axis=1)
        coeffs = _char_polys(stack.reshape(-1, n)).reshape(len(reps), stack.shape[1], n + 1)
        poly = coeffs[:, 0]
        bad = (poly[:, n] != 1) | (poly[:, n - 1] != 0)
        moved = (coeffs[:, 1:-1] != poly[:, None]).any(axis=2)
        relabel_moved = (coeffs[:, -1] != poly).any(axis=1)
        polys = 0
        for idx, g in enumerate(reps):
            if bad[idx]:
                res.violations.append(f"leading/trace coefficient wrong: {to_graph6(g)}")
            # the evaluations count the switches up to the first that moves, or all
            half = int(moved[idx].argmax()) if moved[idx].any() else len(moved[idx]) - 1
            polys += half + 3
            if moved[idx, half]:
                res.violations.append(f"polynomial moved under switch: {to_graph6(g)} mask {half << 1}")
            if relabel_moved[idx]:
                res.violations.append(f"polynomial moved under relabeling: {to_graph6(g)}")
        res.checks += polys
        res.lines.append(
            f"order {n}: {len(reps)} classes, every subset switch checked ({polys} evaluations)"
        )
    return res.finish()


def suite_iss(max_order: int) -> SuiteResult:
    res = SuiteResult("iss")
    rng = random.Random(SEED)
    premise = 0
    closure_fails = 0
    for n, reps in _reps_upto(max_order):
        for g in reps:
            fam = iss_family(g)
            g6 = to_graph6(g)
            masks = {m.mask for m in fam.members}
            full = (1 << n) - 1
            res.check(0 in masks and full in masks, f"trivial switches missing from family: {g6}")
            res.check(all((m ^ full) in masks for m in masks), f"family not complement-closed: {g6}")
            # spot-check the scan against the direct predicate on both sides
            sample = rng.sample(sorted(masks), min(3, len(masks)))
            non = [m for m in range(1 << n) if m not in masks]
            sample += rng.sample(non, min(3, len(non)))
            for m in sample:
                res.check(is_iss(g, VertexSet(n, m)) == (m in masks),
                          f"family scan disagrees with direct check: {g6} mask {m}")
            if not fam.closed_under_delta:
                closure_fails += 1
                a, b, c = fam.witness
                res.findings.append(Finding(
                    "iss-family-delta-closure",
                    g6,
                    (a.mask, b.mask, c.mask),
                    f"members {a.mask} and {b.mask} have symmetric difference {c.mask} outside the family",
                ))
            # singleton verdicts constant on automorphism orbits
            vset = vertex_iss_set(g).mask
            for orb in similarity_orbits(g):
                hits = [v for v in orb if (vset >> v) & 1]
                res.check(not hits or len(hits) == len(orb),
                          f"orbit with mixed singleton verdicts: {g6} orbit {orb}")
            if vset == full:
                premise += 1
                res.check(degree_extremes_adjacent(g) is True,
                          f"degree extremes not adjacent despite all-singleton premise: {g6}")
        res.lines.append(f"order {n}: {len(reps)} families enumerated")
    res.lines.append(
        f"symmetric-difference closure fails for {closure_fails} graphs (findings); "
        f"degree-extremes premise held {premise} times"
    )
    _note_cap(res, max_order)
    return res.finish()


def suite_edge_iss(max_order: int) -> SuiteResult:
    res = SuiteResult("edge-iss")
    for n, reps in _reps_upto(max_order):
        edges = direct = conds = agree = 0
        for g, reports in zip(reps, _edge_reports(reps)):
            g6 = to_graph6(g)
            for r, removed, flipped in reports:
                x, y = r.x, r.y
                edges += 1
                if r.direct:
                    direct += 1
                if r.by_conditions:
                    conds += 1
                if r.agree:
                    agree += 1
                res.check(r.direct or not r.by_conditions,
                          f"conditions held but switch not isomorphic: {g6} edge ({x},{y})")
                if r.direct and not r.by_conditions:
                    res.findings.append(Finding(
                        "edge-iss-conditions-necessity",
                        g6,
                        ((1 << x) | (1 << y),),
                        f"edge ({x},{y}) is an identity switch but condition_i={r.condition_i} "
                        f"condition_ii={r.condition_ii}",
                    ))
                if r.direct:
                    res.checks += 1
                    if not core_neighborhoods_partition(g, x, y):
                        res.findings.append(Finding(
                            "core-partition",
                            g6,
                            ((1 << x) | (1 << y),),
                            f"edge ({x},{y}) is an identity switch but the core neighborhoods overlap or miss vertices",
                        ))
                res.checks += 1
                if removed != r.direct:
                    res.findings.append(Finding(
                        "edge-removed-equivalence",
                        g6,
                        ((1 << x) | (1 << y),),
                        f"verdict for ({x},{y}) changes when the edge is deleted",
                    ))
                res.check(flipped == removed,
                          f"core-complemented and edge-removed verdicts differ: {g6} edge ({x},{y})")
        rate = 100.0 * agree / edges if edges else 100.0
        res.lines.append(
            f"order {n}: {edges} edges, {direct} identity switches, "
            f"{conds} by conditions, agreement {agree}/{edges} ({rate:.1f}%)"
        )
    _note_cap(res, max_order)
    return res.finish()


def suite_classes(max_order: int) -> SuiteResult:
    res = SuiteResult("classes")
    # order -> {two-graph key: census record}; two graphs share a class
    # exactly when their two-graphs are isomorphic, that is, share a key
    by_order = {}
    for n, reps in _reps_upto(max_order):
        recs = census(n)
        iso_total = sum(r.iso_class_count for r in recs)
        res.check(iso_total == len(reps), f"census does not cover the isomorphism classes at order {n}")
        res.check(sum(r.labeled_count for r in recs) == 1 << (n * (n - 1) // 2),
                  f"census labeled counts wrong at order {n}")
        # distinct classes, each count from its orbit, every two-graph covered
        keys, sizes = _kernels.two_graph_orbits([from_graph6(r.rep_g6).adj for r in recs], n)
        by_order[n] = dict(zip(keys.tolist(), recs))
        res.check(len(by_order[n]) == len(recs)
                  and [r.labeled_count for r in recs] == [s << (n - 1) for s in sizes.tolist()]
                  and sum(sizes.tolist()) == 1 << (n * (n - 1) // 2 - n + 1),
                  f"dual census routes disagree at order {n}")
        res.lines.append(
            f"order {n}: {len(recs)} switching classes over {iso_total} isomorphism classes; "
            f"labeled counts cross-checked by vertex-switch components"
        )
    # complement classes have equal size: each order's graphs and complements
    # are named by their keys from one call, and a key with no record fails
    pairs = 0
    for n, reps in _reps_upto(min(max_order, 6)):
        keys, _ = _kernels.two_graph_orbits([rows for g in reps for rows in (g.adj, complement(g).adj)], n)
        for g, key, co in zip(reps, keys[::2].tolist(), keys[1::2].tolist()):
            pairs += 1
            rec, rec_co = by_order[n].get(key), by_order[n].get(co)
            res.check(rec is not None and rec_co is not None and rec.iso_class_count == rec_co.iso_class_count,
                      f"complement class size differs: {to_graph6(g)}")
    res.lines.append(f"complement-class sizes agree for {pairs} graphs")
    # no self-complementary graph when the pair count is odd
    for n in (2, 3, 6, 7):
        if n > min(max_order, SWEEP_CAP):
            continue
        res.check(not any(_isomorphic_pairs([(g.adj, complement(g).adj) for g in nonisomorphic_graphs(n)], n)),
                  f"unexpected self-complementary graph at order {n}")
        res.lines.append(f"order {n}: no self-complementary graph, classes pair up under complement")
    if max_order >= 4:
        keys, _ = _kernels.two_graph_orbits([g.adj for g in (path(4), cycle(4), complete(4))], 4)
        if res.check(len(by_order[4]) == 3 and set(keys.tolist()) == set(by_order[4]),
                     "order-4 classes are not the three expected ones"):
            res.lines.append("order 4: the three classes carry the path, the 4-cycle, and the complete graph")
    _note_cap(res, max_order)
    return res.finish()


def suite_constructions(max_order: int) -> SuiteResult:
    res = SuiteResult("constructions")
    if max_order >= 4:
        g = paw()
        res.check(sorted(switch_vertex(g, 0).edges()) == [(0, 3), (1, 2), (2, 3)],
                  "paw switched at 0 gave the wrong edges")
        res.lines.append("paw switched at vertex 0 reproduces the pinned edge set")
    if max_order >= 5:
        res.check(switch_vertex(star(5), 0) == empty(5), "star center switch should empty the graph")
        for g, where in ((path(5), 2), (path_with_isolated(3, 2), 1)):
            res.check(list(vertex_iss_set(g).indices()) == [where],
                      f"unique singleton identity switch wrong for {to_graph6(g)}")
        res.lines.append("order-5 fixtures: unique singleton identity switches sit at the centers")
        res.check(not is_iss(cycle(5), VertexSet.singleton(5, 0)),
                  "5-cycle singleton should not be an identity switch")
    if max_order >= 5:
        g = complete_bipartite(2, 3)
        res.check(sorted(vertex_iss_set(g).indices()) == [2, 3, 4],
                  "complete bipartite 2+3: singleton identity switches should be the larger part")
    for n in range(1, 4):
        if 2 * n + 1 > max_order:
            break
        g = complete_bipartite(n, n + 1)
        res.check(sorted(vertex_iss_set(g).indices()) == list(range(n, 2 * n + 1)),
                  f"complete bipartite {n}+{n+1}: wrong singleton set")
    if max_order >= 6:
        g = complete(6)
        h = switch_set(g, VertexSet.from_indices(6, (0, 1, 2)))
        res.check(sorted(h.edges()) == [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)],
                  "complete graph switched by a triple should leave two triangles")
        p = prism_c3p2()
        for (x, y) in p.edges():
            in_triangle = any(p.has_edge(x, z) and p.has_edge(y, z) for z in range(6))
            res.check(edge_iss_direct(p, x, y) == (not in_triangle),
                      f"prism edge ({x},{y}) identity-switch verdict wrong")
        res.lines.append("prism: cross edges are identity switches, triangle edges are not")
    if max_order >= 8:
        q = cube_q3()
        res.check(all(not edge_iss_direct(q, x, y) for (x, y) in q.edges()),
                  "cube should have no edge identity switch")
        res.lines.append("cube: no edge identity switches (degree sums fall short)")
    kmn = 0
    for m in range(1, 5):
        for n2 in range(m, 5):
            if m + n2 > max_order:
                continue
            g = complete_bipartite(m, n2)
            for (x, y) in g.edges():
                kmn += 1
                res.check(edge_iss_direct(g, x, y),
                          f"complete bipartite {m}+{n2} edge ({x},{y}) should be an identity switch")
    if kmn:
        res.lines.append(f"complete bipartite blocks: all {kmn} edges are identity switches")
    hj = 0
    for m in range(2, 5):
        for n2 in range(2, 5):
            if (m * n2) % 2 or m + n2 > max_order:
                continue
            for ac in (True, False):
                for bc in (True, False):
                    g = half_join(m, n2, ac, bc)
                    amask = VertexSet(m + n2, (1 << m) - 1)
                    hj += 1
                    cross = sum(1 for (u, v) in g.edges() if (u < m) != (v < m))
                    res.check(cross == m * n2 // 2, f"half join {m},{n2} cross edge count off")
                    res.check(is_iss(g, amask) and is_iss(g, amask.complement()),
                              f"half join {m},{n2} a_complete={ac} b_complete={bc}: blocks must be identity switches")
    if hj:
        res.lines.append(f"half-join: both blocks verified as identity switches in {hj} variants")
    if max_order >= 4:
        res.check(is_isomorphic(half_join(2, 2, True, True), cycle(4)),
                  "half join of two complete pairs should be the 4-cycle")
    ppc = 0
    for p in range(1, 5):
        if p + 2 > max_order:
            continue
        for k in range(p + 1):
            g = path_plus_clique(p, k)
            ppc += 1
            res.check(edge_iss_direct(g, 0, 1),
                      f"clique-attached edge should be an identity switch (p={p}, split {k})")
            block = VertexSet(p + 2, ((1 << (p + 2)) - 1) ^ 0b11)
            res.check(is_iss(g, block),
                      f"clique block should be an identity switch (p={p}, split {k})")
    if ppc:
        res.lines.append(f"edge-plus-clique: edge and block verified in {ppc} splits")
    return res.finish()


_SUITE_FNS = {
    "algebra": suite_algebra,
    "iso": suite_iso,
    "invariants": suite_invariants,
    "iss": suite_iss,
    "edge-iss": suite_edge_iss,
    "classes": suite_classes,
    "constructions": suite_constructions,
}


def run_suite(name: str, max_order: int) -> SuiteResult:
    if name not in _SUITE_FNS:
        raise ValueError(f"unknown suite {name!r} (choose from {', '.join(SUITES)} or all)")
    return _SUITE_FNS[name](max_order)


def run_suites(name: str, max_order: int) -> list[SuiteResult]:
    """Run one suite, or all of them in SUITES order.

    The suites share no state, so "all" runs them in up to one process
    per available CPU: the parent forks the others, and every process,
    the parent included, takes the next suite from one shared counter.
    Each child sends its {index: SuiteResult} back, or the exception a
    suite raised.  The results come back in SUITES order, or one such
    exception is raised again, once every child has been joined.  With
    one CPU, or where fork is unavailable, the same loop runs alone.
    """
    if name != "all":
        return [run_suite(name, max_order)]
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    workers = min(len(SUITES), cpus)
    results = None
    if workers > 1:
        # imported here, so that importing the package costs no more than before
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            results = _run_forked(multiprocessing.get_context("fork"), workers, max_order)
    if results is None:
        results = _take_suites(itertools.count().__next__, max_order)
    return [results[i] for i in range(len(SUITES))]


def _take_suites(next_index, max_order: int) -> dict[int, SuiteResult]:
    # run suites by index from next_index() until it passes the last one
    results = {}
    while (i := next_index()) < len(SUITES):
        results[i] = run_suite(SUITES[i], max_order)
    return results


def _run_forked(ctx, workers: int, max_order: int) -> dict[int, SuiteResult]:
    counter = ctx.Value("i", 0)

    def next_index() -> int:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        return i

    def child(conn) -> None:
        try:
            got = _take_suites(next_index, max_order)
        except Exception as e:
            got = e
        conn.send(got)
        conn.close()

    # Process.start flushes sys.stdout and sys.stderr before it forks, so
    # no child writes its copy of text the parent buffered
    procs, conns, results, error = [], [], {}, None
    try:
        for _ in range(workers - 1):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=child, args=(send,))
            proc.start()
            send.close()
            procs.append(proc)
            conns.append(recv)
        try:
            results.update(_take_suites(next_index, max_order))
        except Exception as e:
            error = e
        for proc, conn in zip(procs, conns):
            try:
                got = conn.recv()
            except EOFError:
                proc.join()
                got = RuntimeError(f"a suite worker exited with code {proc.exitcode} and no results")
            if isinstance(got, Exception):
                error = error or got
            else:
                results.update(got)
    except BaseException:
        # interrupted before every child reported: stop the rest
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()
    if error is not None:
        raise error
    return results
