"""End-to-end acceptance checks.

Each test pins one externally visible guarantee of the toolkit at desk
scale: exact switching algebra, exact census values, exact invariants,
and deterministic sweep reports.  Tolerances are zero throughout; every
derived number is cross-checked against an independent oracle.
"""

import json
import random
import time

import pytest

import oracles
from seidelkit import (
    VertexSet,
    complement,
    from_graph6,
    make_graph,
    relabel,
    switch_set,
    switch_vertex,
)
from seidelkit import verify
from seidelkit._kernels import algebra_sweep
from seidelkit.classes import census, switching_class
from seidelkit.generators import (
    complete,
    complete_bipartite,
    cube_q3,
    cycle,
    half_join,
    path,
    paw,
    prism_c3p2,
    tadpole,
)
from seidelkit.graphs import graph_from_code
from seidelkit.invariants import seidel_char_polys
from seidelkit.iso import (
    canonical_form,
    is_isomorphic,
    nonisomorphic_graphs,
    similarity_orbits,
)
from seidelkit.iss import edge_iss_conditions, edge_iss_direct, is_iss


def _random_graph(rng, n, p=0.5):
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return make_graph(n, edges)


def test_switching_algebra_exhaustive_through_order_five():
    # every labeled graph, every ordered subset pair, four identities,
    # all bit-exact; the flat scan also stays inside a 30 s budget
    t0 = time.time()
    total_checks = 0
    for n in range(1, 6):
        out = algebra_sweep(n)
        assert out[0] == 1 << (n * (n - 1) // 2)
        total_checks += int(out[1])
        assert out[2] == 0, f"identity violation at order {n}: {out}"
    elapsed = time.time() - t0
    assert total_checks > 1_000_000
    assert elapsed < 30.0


def test_pendant_triangle_switch_exact_edge_set():
    g = paw()  # triangle 0,1,2 with pendant 3 hanging off 2
    h = switch_vertex(g, 0)
    assert h.edges() == [(0, 3), (1, 2), (2, 3)]


def test_order_four_census_is_path_cycle_complete():
    t0 = time.time()
    recs = census(4)
    assert len(recs) == 3
    classes = {r.rep_g6: switching_class(from_graph6(r.rep_g6)) for r in recs}
    fixtures = {"path": path(4), "cycle": cycle(4), "complete": complete(4)}
    homes = {}
    for name, g in fixtures.items():
        owners = [
            rep for rep, sc in classes.items() if canonical_form(g) in sc.members
        ]
        assert len(owners) == 1
        homes[name] = owners[0]
    # the three fixtures land in three different classes, covering the census
    assert len(set(homes.values())) == 3
    assert time.time() - t0 < 1.0


def test_tadpole_vertex_switches_agree_across_orbits():
    t = tadpole(3, 4)
    u, v = 1, 3
    blocks = {x: b for b in similarity_orbits(t) for x in b}
    assert blocks[u] is not blocks[v]
    assert is_isomorphic(switch_vertex(t, u), switch_vertex(t, v))
    assert not is_isomorphic(switch_vertex(t, u), t)


def test_vertex_iss_on_unbalanced_bipartite_graphs():
    g = complete_bipartite(2, 3)
    for v in (2, 3, 4):
        assert is_iss(g, VertexSet.singleton(5, v))
    for v in (0, 1):
        assert not is_iss(g, VertexSet.singleton(5, v))
    for n in (1, 2, 3):
        g = complete_bipartite(n, n + 1)
        order = 2 * n + 1
        for v in range(n, order):
            assert g.degree(v) == n
            assert is_iss(g, VertexSet.singleton(order, v))


def test_edge_iss_examples_exact():
    for m in range(1, 5):
        for n in range(1, 5):
            g = complete_bipartite(m, n)
            for (u, v) in g.edges():
                assert edge_iss_direct(g, u, v)
    q = cube_q3()
    assert not any(edge_iss_direct(q, u, v) for (u, v) in q.edges())
    p = prism_c3p2()
    cross = {(0, 3), (1, 4), (2, 5)}
    for (u, v) in p.edges():
        assert edge_iss_direct(p, u, v) == ((u, v) in cross)


def test_edge_conditions_sufficient_exhaustive_through_order_six():
    t0 = time.time()
    violations = []
    for n in range(2, 7):
        for g in nonisomorphic_graphs(n):
            for (u, v) in g.edges():
                r = edge_iss_conditions(g, u, v)
                if r.by_conditions and not r.direct:
                    violations.append((n, g, u, v))
    assert violations == []
    assert time.time() - t0 < 600.0


def test_agreement_sweeps_complete_and_deterministic():
    # necessity, core partition, edge-removed, and family closure are
    # measured rather than assumed; the reports must replay identically
    first = verify.run_suites("all", max_order=6)
    second = verify.run_suites("all", max_order=6)
    assert [r.suite for r in first] == [r.suite for r in second]
    for a, b in zip(first, second):
        assert a.lines == b.lines
        assert [f.to_json() for f in a.findings] == [f.to_json() for f in b.findings]
        assert not a.violations
    by_claim = {}
    for r in first:
        for f in r.findings:
            by_claim.setdefault(f.claim_id, []).append(f)
    # agreement totals, frozen: these counts are facts about small graphs
    assert len(by_claim["edge-iss-conditions-necessity"]) == 9
    assert len(by_claim["core-partition"]) == 94
    assert len(by_claim["iss-family-delta-closure"]) == 69
    for fs in by_claim.values():
        for f in fs:
            assert from_graph6(f.graph6).n <= 6  # every witness is replayable
    agree_lines = [
        ln for r in first for ln in r.lines if "agree" in ln or "holds" in ln
    ]
    assert agree_lines


def _assert_polynomial_switch_invariant(g):
    # one batch per graph: g, then its switch by every even mask
    n = g.n
    switched = []
    for mask in range(1 << n):
        s = VertexSet(n, mask)
        if mask & 1:
            # odd masks give the same labeled graph as their complement
            assert switch_set(g, s) == switch_set(g, s.complement())
        else:
            switched.append(switch_set(g, s))
    poly, *polys = seidel_char_polys([g, *switched])
    assert polys == [poly] * len(switched)


def test_seidel_polynomial_invariant_under_all_switches():
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            _assert_polynomial_switch_invariant(g)
    rng = random.Random(8861)
    for _ in range(200):
        _assert_polynomial_switch_invariant(_random_graph(rng, 8))


def test_complement_preserves_switching_class_size():
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            assert switching_class(g).size == switching_class(complement(g)).size


def test_canonical_equality_matches_permutation_search():
    # all pairs of order <= 5, phrased through class labels: two graphs
    # agree on canonical form exactly when the brute-force search pairs them
    for n in range(1, 6):
        form_label = {}
        brute_label = {}
        for code in range(1 << (n * (n - 1) // 2)):
            g = graph_from_code(n, code)
            form_label[code] = canonical_form(g)
            brute_label[code] = oracles.brute_canonical_code(g)
        codes = sorted(form_label)
        fl = [form_label[c] for c in codes]
        bl = [brute_label[c] for c in codes]
        # identical partitions of the labeled graphs
        assert {c for c in codes if fl[c] == fl[0]} == {
            c for c in codes if bl[c] == bl[0]
        }
        grouping_f = {}
        grouping_b = {}
        for c in codes:
            grouping_f.setdefault(fl[c], set()).add(c)
            grouping_b.setdefault(bl[c], set()).add(c)
        assert sorted(map(sorted, grouping_f.values())) == sorted(
            map(sorted, grouping_b.values())
        )
    rng = random.Random(4242)
    for k in range(500):
        n = rng.randint(6, 8)
        g = _random_graph(rng, n)
        if k % 2:
            p = list(range(n))
            rng.shuffle(p)
            h = relabel(g, tuple(p))
        else:
            h = _random_graph(rng, n)
        ours = canonical_form(g) == canonical_form(h)
        brute = oracles.brute_find_isomorphism(g, h) is not None
        assert ours == brute
        assert is_isomorphic(g, h) == brute


def test_half_join_iss_sweep_deterministic_and_verified():
    def sweep():
        report = []
        for m in (2, 3, 4):
            for n in (2, 3, 4):
                if (m * n) % 2:
                    continue
                for a_flag in (True, False):
                    for b_flag in (True, False):
                        g = half_join(m, n, a_complete=a_flag, b_complete=b_flag)
                        a = VertexSet.from_indices(m + n, range(m))
                        verdict = is_iss(g, a)
                        assert is_iss(g, a.complement()) == verdict
                        report.append((m, n, a_flag, b_flag, verdict))
        return report

    first = sweep()
    second = sweep()
    assert first == second
    assert len(first) == 32
    positives = 0
    for (m, n, a_flag, b_flag, verdict) in first:
        if verdict:
            positives += 1
            g = half_join(m, n, a_complete=a_flag, b_complete=b_flag)
            a = VertexSet.from_indices(m + n, range(m))
            # re-verify with the permutation-search oracle, not our engine
            phi = oracles.brute_find_isomorphism(switch_set(g, a), g)
            assert phi is not None
            assert relabel(switch_set(g, a), phi) == g
    assert positives > 0
