import json
import multiprocessing
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from multiprocessing.context import ForkProcess
from pathlib import Path

import pytest

from seidelkit import _kernels, complement, from_graph6, iso, iss, to_graph6, verify
from seidelkit.classes import switching_class
from seidelkit.generators import empty
from seidelkit.iso import canonical_form, nonisomorphic_graphs


def test_suite_result_check_counts_and_records_failures():
    res = verify.SuiteResult("unit")
    assert res.check(True, "never recorded") is True
    assert res.checks == 1 and not res.violations and res.ok
    assert res.check(False, "first failure") is False
    res.check(False, "second failure")
    assert res.checks == 3
    assert res.violations == ["first failure", "second failure"]
    assert not res.ok


def test_every_suite_passes_at_small_order():
    results = verify.run_suites("all", max_order=4)
    assert [r.suite for r in results] == list(verify.SUITES)
    for r in results:
        assert r.ok
        assert not r.violations
        assert r.checks > 0
        assert r.lines


def test_finding_counts_at_order_six():
    results = verify.run_suites("all", max_order=6)
    assert all(r.ok for r in results)
    counts = Counter(f.claim_id for r in results for f in r.findings)
    assert counts == {
        "iss-family-delta-closure": 69,
        "core-partition": 94,
        "edge-iss-conditions-necessity": 9,
    }


def test_necessity_findings_sit_at_order_six():
    r = verify.run_suite("edge-iss", max_order=6)
    necessity = [f for f in r.findings if f.claim_id == "edge-iss-conditions-necessity"]
    assert len(necessity) == 9
    from seidelkit import from_graph6

    for f in necessity:
        assert from_graph6(f.graph6).n == 6
    assert any(f.graph6 == "EEzO" for f in necessity)
    # nothing smaller trips it
    r5 = verify.run_suite("edge-iss", max_order=5)
    assert not [
        f for f in r5.findings if f.claim_id == "edge-iss-conditions-necessity"
    ]


def test_runs_are_deterministic():
    a = verify.run_suite("invariants", max_order=5)
    b = verify.run_suite("invariants", max_order=5)
    assert a.lines == b.lines
    assert a.checks == b.checks
    x = verify.run_suite("iss", max_order=6)
    y = verify.run_suite("iss", max_order=6)
    assert [f.to_json() for f in x.findings] == [f.to_json() for f in y.findings]


def test_finding_json_uses_hyphenated_keys():
    f = verify.Finding("some-claim", "Bw", (1, 2), "details here")
    row = json.loads(f.to_json())
    assert list(row.keys()) == ["claim-id", "graph6", "witness-masks", "detail"]
    assert row["witness-masks"] == [1, 2]


def test_findings_are_sorted():
    r = verify.run_suite("iss", max_order=5)
    keys = [f.sort_key() for f in r.findings]
    assert keys == sorted(keys)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify.run_suite("nonesuch", max_order=4)
    with pytest.raises(ValueError):
        verify.run_suites("nonesuch", max_order=4)


def test_single_suite_selection():
    results = verify.run_suites("classes", max_order=5)
    assert len(results) == 1
    assert results[0].suite == "classes"


def test_capped_sweeps_say_so(monkeypatch):
    # every suite whose exhaustive sweep stops at SWEEP_CAP prints the
    # same line once max_order passes it, and never below it
    monkeypatch.setattr(verify, "SWEEP_CAP", 4)
    note = "exhaustive sweep capped at order 4"
    for suite in ("iso", "iss", "edge-iss", "classes"):
        assert note not in verify.run_suite(suite, max_order=4).lines
        lines = verify.run_suite(suite, max_order=5).lines
        assert lines[-1] == note
        assert not any(line.startswith("order 5: ") for line in lines)


def test_classes_suite_reports_a_planted_class_size(monkeypatch):
    # the census record of empty(6)'s class claims one member too many;
    # its complement class, that of K6, is a different class
    planted = canonical_form(empty(6))
    real = verify.census

    def faulty(n):
        recs = real(n)
        if n == 6:
            recs = [replace(r, iso_class_count=r.iso_class_count + 1)
                    if planted in switching_class(from_graph6(r.rep_g6)) else r for r in recs]
        return recs

    monkeypatch.setattr(verify, "census", faulty)
    res = verify.suite_classes(6)
    bad = [g for g in nonisomorphic_graphs(6)
           if planted in switching_class(g) or planted in switching_class(complement(g))]
    assert len(bad) == 8
    # the census no longer sums to the 156 isomorphism classes either
    assert res.violations == ["census does not cover the isomorphism classes at order 6"] + [
        f"complement class size differs: {to_graph6(g)}" for g in bad
    ]


def test_classes_suite_checks_the_census_counts_by_two_graph_orbits(monkeypatch):
    # two order-5 plants: counts swapped between two classes keep the total;
    # a class listed twice, with the other's count, breaks the total too.
    # The copy leaves record 2's two-graph key with no record, so every graph
    # in that class, or with its complement there, fails the complement
    # check; record 1's key names the copy, whose class size is the same 6
    real = verify.census
    lost = switching_class(from_graph6(real(5)[2].rep_g6))
    unnamed = [f"complement class size differs: {to_graph6(g)}" for g in nonisomorphic_graphs(5)
               if canonical_form(g) in lost or canonical_form(complement(g)) in lost]
    assert len(unnamed) == 12

    def swapped(n):
        recs = real(n)
        if n == 5:
            recs[1], recs[2] = (replace(recs[1], labeled_count=recs[2].labeled_count),
                                replace(recs[2], labeled_count=recs[1].labeled_count))
        return recs

    def copied(n):
        recs = real(n)
        if n == 5:
            recs[2] = replace(recs[2], rep_g6=recs[1].rep_g6, labeled_count=recs[1].labeled_count)
        return recs

    for plant, violations in (
        (swapped, ["dual census routes disagree at order 5"]),
        (copied, ["census labeled counts wrong at order 5", "dual census routes disagree at order 5"] + unnamed),
    ):
        monkeypatch.setattr(verify, "census", plant)
        res = verify.suite_classes(6)
        assert res.checks == 230
        assert res.violations == violations


def test_invariants_suite_reports_moved_polynomials(monkeypatch):
    # at order 3 one switched and the relabeled polynomial move; at order
    # 4 every polynomial of one graph gains a trace coefficient.  Each
    # order's rows come in one call, width rows per graph: the graph, its
    # even-mask switches in mask order and its relabeling
    moved, traced = nonisomorphic_graphs(3)[1], nonisomorphic_graphs(4)[0]
    real = verify._char_polys

    def faulty(rows):
        coeffs = real(rows)
        width = (1 << (rows.shape[1] - 1)) + 2
        for lo in range(0, len(rows), width):
            first = tuple(rows[lo].tolist())
            if first == moved.adj:
                coeffs[[lo + 2, lo + width - 1], 0] += 1  # the switch by mask 2, the relabeling
            elif first == traced.adj:
                coeffs[lo : lo + width, 3] += 1
        return coeffs

    monkeypatch.setattr(verify, "_char_polys", faulty)
    res = verify.suite_invariants(4)
    assert res.violations == [
        f"polynomial moved under switch: {to_graph6(moved)} mask 2",
        f"polynomial moved under relabeling: {to_graph6(moved)}",
        f"leading/trace coefficient wrong: {to_graph6(traced)}",
    ]


def test_algebra_suite_reports_a_planted_pattern_fault(monkeypatch):
    # the order-3 pattern of switching by {0} loses bit 1 of row 0, so on
    # the first graph (code 0) that switch already differs from the fold
    # of its one vertex switch
    real = _kernels._switch_pattern
    pattern = real(3).copy()
    pattern[1, 0] ^= 1 << 1

    monkeypatch.setattr(_kernels, "_switch_pattern", lambda n: pattern if n == 3 else real(n))
    res = verify.suite_algebra(5)
    assert res.violations == ["algebra identity failed: order 3 code 0 s=1 t=-1 (fold asc)"]
    assert "order 3: 8 labeled graphs, 784 identity checks" in res.lines


def test_constructions_suite_checks_the_cube_at_order_eight():
    line = "cube: no edge identity switches (degree sums fall short)"
    res = verify.suite_constructions(8)
    assert res.ok and line in res.lines
    assert line not in verify.suite_constructions(7).lines


def test_suites_search_each_graph_once(monkeypatch):
    # the scans, the readers and generation share one memo of the search,
    # so no rows are searched twice across the iss, edge-iss and classes
    # suites
    real = _kernels._canon
    searched = Counter()

    def counting(rows, n):
        searched[tuple(rows)] += 1
        return real(rows, n)

    monkeypatch.setattr(_kernels, "_canon", counting)
    iso._CLASS_SCANS.clear()
    iso._generated.cache_clear()
    _kernels.run_canon.cache_clear()
    for suite in (verify.suite_iss, verify.suite_edge_iss, verify.suite_classes):
        assert suite(5).ok
    assert searched and max(searched.values()) == 1


def test_edge_suite_reports_the_order_eight_edge_removal_witness(monkeypatch):
    # on GyWYdO, edge (0,1) is no identity switch but is one once the edge
    # is deleted: a finding for the remark, and no violation, since the
    # complemented core is checked against the deleted edge, not g
    monkeypatch.setattr(verify, "_reps_upto", lambda max_order: iter([(8, (from_graph6("GyWYdO"),))]))
    res = verify.suite_edge_iss(8)
    assert res.violations == []
    assert [(f.claim_id, f.graph6, f.witness_masks) for f in res.findings] == [
        ("edge-removed-equivalence", "GyWYdO", (3,))
    ]


def test_edge_suite_decides_each_edge_once(monkeypatch):
    # three verdicts for each of the 1380 edges through order 6, all from
    # _edge_reports: the direct one, g minus the edge and g with its core
    # complemented; the suite decides no switch on its own
    real = verify._edge_reports
    verdicts = []

    def counting(graphs):
        got = real(graphs)
        verdicts.extend(v for reports in got for r, removed, flipped in reports
                        for v in (r.direct, removed, flipped))
        return got

    calls = []
    for module in (iss, verify):
        monkeypatch.setattr(module, "is_iss", lambda g, s, real=iss.is_iss: calls.append(s) or real(g, s))
    monkeypatch.setattr(verify, "_edge_reports", counting)
    res = verify.run_suite("edge-iss", 6)
    assert sum(int(line.split()[2]) for line in res.lines if line.startswith("order")) == 1380
    assert len(verdicts) == 3 * 1380
    assert calls == []


def _counted_scans(monkeypatch):
    # the orders of the switch-orbit scans from here on, with both caches cold
    iso._CLASS_SCANS.clear()
    _kernels.run_canon.cache_clear()
    real = _kernels.switch_orbit_scan
    calls = []

    def counting(rows, n, code, gens):
        calls.append(n)
        return real(rows, n, code, gens)

    monkeypatch.setattr(_kernels, "switch_orbit_scan", counting)
    return calls


def test_classes_suite_scans_each_class_once(monkeypatch):
    # the census scans each of the 1 + 1 + 2 + 3 + 7 + 16 classes of
    # orders 1-6; the complement and order-4 checks name classes by
    # their two-graph keys
    calls = _counted_scans(monkeypatch)
    assert verify.suite_classes(6).ok
    assert len(calls) == 30


def test_iss_suite_scans_each_class_once(monkeypatch):
    # the 208 families through order 6 come from one scan per switching
    # class: 1 + 1 + 2 + 3 + 7 + 16
    calls = _counted_scans(monkeypatch)
    assert verify.suite_iss(6).ok
    assert len(calls) == 30


def test_classes_suite_searches_only_the_self_complement_pairs(monkeypatch):
    # the census runs no second search of its representatives, and the
    # complement and order-4 checks name classes by two-graph keys, so the
    # batched search sees only the pairs that pass the self-complement
    # check's degree guard at orders 2, 3 and 6
    real = _kernels._codes
    searched = []

    def counting(rows, n):
        searched.append(list(rows))
        return real(rows, n)

    monkeypatch.setattr(_kernels, "_codes", counting)
    assert verify.suite_classes(6).ok
    assert searched == [[rows for g in nonisomorphic_graphs(n) for pair in [(g.adj, complement(g).adj)]
                         if iso._same_degrees(*pair) for rows in pair] for n in (2, 3, 6)]


def _report(res):
    return res.suite, res.lines, res.checks, res.violations, [f.to_json() for f in res.findings]


@pytest.fixture
def forks(monkeypatch):
    # counts the processes that run_suites starts
    started = []
    real = ForkProcess.start

    def counting(self):
        started.append(self)
        real(self)

    monkeypatch.setattr(ForkProcess, "start", counting)
    return started


def test_parallel_suites_match_one_by_one_runs(monkeypatch, forks):
    # three CPUs whatever the machine has: two children and the parent
    # pull suites from the shared counter
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    got = verify.run_suites("all", 6)
    assert len(forks) == 2
    assert multiprocessing.active_children() == []
    want = [verify.run_suite(name, 6) for name in verify.SUITES]
    assert [_report(r) for r in got] == [_report(r) for r in want]


@pytest.mark.parametrize("planted", [("iso",), verify.SUITES], ids=["one", "every"])
def test_a_suite_error_reaches_the_caller_after_every_child_is_joined(monkeypatch, forks, planted):
    # with every suite planted, the parent and its child each raise on
    # the first suite they take, so both routes of the error are taken
    def faulty(max_order):
        raise RuntimeError("planted")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for name in planted:
        monkeypatch.setitem(verify._SUITE_FNS, name, faulty)
    with pytest.raises(RuntimeError, match="planted"):
        verify.run_suites("all", 4)
    assert len(forks) == 1
    assert multiprocessing.active_children() == []


def test_a_dead_worker_is_an_error_not_a_hang(monkeypatch, forks):
    # a child that exits without sending its results: the parent's copy
    # of each suite sleeps, so the child is sure to take one
    parent = os.getpid()

    def dying(max_order):
        if os.getpid() != parent:
            os._exit(3)
        time.sleep(0.2)
        return verify.SuiteResult("planted")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for name in verify.SUITES:
        monkeypatch.setitem(verify._SUITE_FNS, name, dying)
    with pytest.raises(RuntimeError, match="exited with code 3"):
        verify.run_suites("all", 4)
    assert len(forks) == 1
    assert multiprocessing.active_children() == []


def test_one_cpu_runs_every_suite_in_this_process(monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    got = verify.run_suites("all", 5)
    assert forks == []
    assert [_report(r) for r in got] == [_report(verify.run_suite(name, 5)) for name in verify.SUITES]


def test_text_buffered_before_the_fork_is_written_once():
    # a piped stdout is block-buffered, so "before" still sits in the
    # parent's buffer when the children are forked
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from seidelkit import cli\n"
        "sys.stdout.write('before')\n"
        "sys.exit(cli.main(['verify', '--suite', 'all', '--max-order', '3']))\n"
    )
    src = str(Path(verify.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("before") == 1
    assert proc.stdout.startswith("before[algebra] ")
    assert proc.stdout.endswith("PASS (0 violations, 2 findings)\n")
