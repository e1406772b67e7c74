import json
import math
import random
import time
from collections import Counter

import pytest

import oracles
from seidelkit import (
    VertexSet,
    _kernels,
    classes,
    complement,
    from_graph6,
    make_graph,
    switch_set,
    to_graph6,
)
from seidelkit.classes import (
    CENSUS_MAX_ORDER,
    census,
    switching_class,
)
from seidelkit.generators import complete, cycle, empty, path, paw
from seidelkit.graphs import graph_from_code, relabel
from seidelkit.invariants import seidel_char_poly
from seidelkit.iso import (
    SWITCH_SCAN_MAX_ORDER,
    _forms,
    automorphism_count,
    canonical_form,
    canonical_graph,
    nonisomorphic_graphs,
)
from seidelkit.iss import iss_family

CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 3, 5: 7, 6: 16, 7: 54}


def test_tiny_classes():
    assert switching_class(make_graph(1, [])).size == 1
    k2 = switching_class(make_graph(2, [(0, 1)]))
    e2 = switching_class(make_graph(2, []))
    assert k2 == e2 and k2.size == 2
    assert canonical_form(make_graph(2, [])) in k2


def test_order_four_classes():
    by_class = {}
    for g in nonisomorphic_graphs(4):
        by_class.setdefault(switching_class(g), []).append(g)
    sizes = sorted(sc.size for sc in by_class)
    assert sizes == [3, 3, 5]
    assert sum(len(v) for v in by_class.values()) == 11
    for sc, members in by_class.items():
        assert sc.size == len(members)
    # cycle and empty graph sit together; the path drags in the paw
    assert switching_class(cycle(4)) == switching_class(empty(4))
    p4 = switching_class(path(4))
    assert canonical_form(paw()) in p4
    assert canonical_form(complete(4)) not in p4


def test_class_invariant_under_member_choice():
    g = path(5)
    sc = switching_class(g)
    for mask in range(0, 32, 3):
        h = switch_set(g, VertexSet(5, mask))
        assert switching_class(h) == sc


def test_representative_is_minimum_member():
    sc = switching_class(paw())
    assert sc.representative == min(sc.members)
    assert sc.representative in sc.members


def test_switching_class_matches_the_forms_of_its_scan():
    # every graph to order 6 and one relabeling of each: the class built
    # from codes answers as the frozenset of member forms would
    rng = random.Random(6)
    for n in range(1, 7):
        reps = nonisomorphic_graphs(n)
        classes = {}
        for g in reps:
            perm = list(range(n))
            rng.shuffle(perm)
            h = relabel(g, tuple(perm))
            forms = frozenset(_forms(n, oracles.own_scan(g)))
            sc = switching_class(g)
            assert "members" not in vars(sc)  # built when first read
            assert sc.size == len(forms)
            assert sc.representative == min(forms)
            assert sc.members == forms and sc.members is sc.members
            other = switching_class(h)
            assert other == sc and hash(other) == hash(sc)
            for cf in map(canonical_form, reps):
                assert (cf in sc) == (cf in forms)
            # the same codes at another order name other graphs
            for m in (n - 1, n + 1):
                fits = [c for c in sc.codes if m and not c >> m * (m - 1) // 2]
                assert not any(f in sc for f in _forms(m, fits))
            classes.setdefault(forms, set()).add(sc)
        assert all(len(scs) == 1 for scs in classes.values())
        assert len(classes) == CLASS_COUNTS[n]


def test_census_counts():
    for n in range(1, 7):
        assert len(census(n)) == CLASS_COUNTS[n]


def test_census_count_order_seven():
    recs = census(7)
    assert len(recs) == CLASS_COUNTS[7]
    assert sum(r.labeled_count for r in recs) == 1 << 21
    comp = oracles.labeled_components(7)
    assert comp == {canonical_form(from_graph6(r.rep_g6)): r.labeled_count for r in recs}


def test_census_counts_match_even_degree_graphs_in_the_atlas():
    # switching classes and even-degree graphs are equinumerous (Mallows & Sloane 1975)
    nx = pytest.importorskip("networkx")
    even = dict.fromkeys(range(1, 8), 0)
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() and all(d % 2 == 0 for _, d in h.degree()):
            even[h.number_of_nodes()] += 1
    assert even == CLASS_COUNTS
    for n in range(1, 8):
        assert len(census(n)) == even[n]


def test_census_labeled_counts_cover_everything():
    for n in range(1, 7):
        recs = census(n)
        total = sum(r.labeled_count for r in recs)
        assert total == 1 << (n * (n - 1) // 2)
        if n > 1:
            for r in recs:
                assert r.labeled_count % (1 << (n - 1)) == 0 or n == 1
        assert sum(r.iso_class_count for r in recs) == len(nonisomorphic_graphs(n))


def test_census_places_every_form_in_one_class():
    # each representative lands in exactly one record's switching class,
    # each record holds iso_class_count of them, and its own rep_g6
    for n in range(1, CENSUS_MAX_ORDER + 1):
        recs = census(n)
        where = {}
        for r in recs:
            for cf in switching_class(from_graph6(r.rep_g6)).members:
                where.setdefault(cf, []).append(r.class_id)
        assert set(where) == {canonical_form(g) for g in nonisomorphic_graphs(n)}
        assert all(len(ids) == 1 for ids in where.values())
        per_class = Counter(ids[0] for ids in where.values())
        assert [per_class[r.class_id] for r in recs] == [r.iso_class_count for r in recs]
        assert [where[canonical_form(from_graph6(r.rep_g6))] for r in recs] == [[r.class_id] for r in recs]


def test_census_searches_no_representative_again(monkeypatch):
    # the census walks the codes generation found: no graph of order 7
    # reaches the batched search
    real = _kernels._codes
    searched = []

    def counting(rows, n):
        searched.extend(rows)
        return real(rows, n)

    monkeypatch.setattr(_kernels, "_codes", counting)
    assert len(census(7)) == CLASS_COUNTS[7]
    assert searched == []


def test_census_dual_routes_agree():
    for n in range(1, 7):
        recs = census(n)
        comp = oracles.labeled_components(n)
        assert len(comp) == len(recs)
        for r in recs:
            key = canonical_form(from_graph6(r.rep_g6))
            assert comp[key] == r.labeled_count


def test_census_labeled_counts_match_the_per_member_sum(monkeypatch):
    # reference: each member m adds n!/|Aut(m)| labeled graphs; the census
    # reads |Aut(T)| off its scan and searches |Aut| of its representatives only
    seen = []

    def spy(g):
        seen.append(to_graph6(g))
        return automorphism_count(g)

    monkeypatch.setattr(classes, "automorphism_count", spy)
    for n in range(1, CENSUS_MAX_ORDER + 1):
        seen.clear()
        recs = census(n)
        assert seen == [r.rep_g6 for r in recs]
        sums = [sum(math.factorial(n) // automorphism_count(canonical_graph(cf))
                    for cf in switching_class(from_graph6(r.rep_g6)).members) for r in recs]
        assert [r.labeled_count for r in recs] == sums


def test_census_record_values_order_four():
    recs = census(4)
    rows = [json.loads(r.to_json()) for r in recs]
    assert rows == [
        {
            "order": 4, "class_id": 0, "rep_g6": "C?", "iso_class_count": 3,
            "labeled_count": 8, "seidel_poly": [-3, -8, -6, 0, 1],
            "iss_min": 2, "iss_max": 8,
        },
        {
            "order": 4, "class_id": 1, "rep_g6": "C@", "iso_class_count": 5,
            "labeled_count": 48, "seidel_poly": [5, 0, -6, 0, 1],
            "iss_min": 2, "iss_max": 4,
        },
        {
            "order": 4, "class_id": 2, "rep_g6": "CJ", "iso_class_count": 3,
            "labeled_count": 8, "seidel_poly": [-3, 8, -6, 0, 1],
            "iss_min": 2, "iss_max": 8,
        },
    ]


def test_census_json_field_order():
    line = census(3)[0].to_json()
    keys = list(json.loads(line).keys())
    assert keys == [
        "order", "class_id", "rep_g6", "iso_class_count",
        "labeled_count", "seidel_poly", "iss_min", "iss_max",
    ]


def test_census_poly_constant_within_class():
    for n in range(2, 6):
        for r in census(n):
            rep = from_graph6(r.rep_g6)
            poly = tuple(r.seidel_poly)
            assert seidel_char_poly(rep) == poly
            for mask in range(0, 1 << n, 5):
                assert seidel_char_poly(switch_set(rep, VertexSet(n, mask))) == poly


def test_census_iss_extremes_match_family_scan():
    for r in census(4):
        rep = from_graph6(r.rep_g6)
        sizes = []
        sc = switching_class(rep)
        for cf in sc.members:
            sizes.append(iss_family(canonical_graph(cf)).size)
        assert min(sizes) == r.iss_min
        assert max(sizes) == r.iss_max


def test_complement_class_sizes_agree():
    # seeded random labeled graphs, then every representative through order 6
    rng = random.Random(71)
    graphs = []
    for _ in range(25):
        n = rng.randint(1, 6)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        graphs.append(make_graph(n, edges))
    for n in range(1, 7):
        graphs += nonisomorphic_graphs(n)
    for g in graphs:
        assert switching_class(complement(g)).size == switching_class(g).size


def test_order_bounds():
    with pytest.raises(ValueError):
        switching_class(empty(SWITCH_SCAN_MAX_ORDER + 1))
    with pytest.raises(ValueError):
        census(CENSUS_MAX_ORDER + 1)
    with pytest.raises(ValueError):
        census(0)


def test_most_symmetric_order_ten_classes_finish_quickly():
    # K_n switches to K_k + K_(n-k), and the empty graph to K_(k,n-k):
    # n // 2 + 1 members each, scanned with the largest groups of order 10
    n = SWITCH_SCAN_MAX_ORDER
    for g in (complete(n), empty(n)):
        _kernels.clear_caches()
        t = time.perf_counter()
        sc = switching_class(g)
        assert time.perf_counter() - t < 1.0
        assert sc.size == n // 2 + 1
        assert canonical_form(g) in sc


def test_labeled_components_all_half_sized():
    for n in range(2, 7):
        comp = oracles.labeled_components(n)
        assert sum(comp.values()) == 1 << (n * (n - 1) // 2)
        for count in comp.values():
            assert count % (1 << (n - 1)) == 0
