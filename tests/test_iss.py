import itertools
import random
import time

import pytest

import oracles
from seidelkit import _kernels, iso, iss
from seidelkit import VertexSet, from_graph6, make_graph, relabel, switch_set, switch_vertex
from seidelkit.classes import census, switching_class
from seidelkit.generators import (
    complete,
    complete_bipartite,
    cube_q3,
    cycle,
    empty,
    path,
    path_with_isolated,
    paw,
    prism_c3p2,
    tadpole,
)
from seidelkit.iso import (
    CANONICAL_MAX_ORDER,
    SWITCH_SCAN_MAX_ORDER,
    canonical_form,
    is_isomorphic,
    nonisomorphic_graphs,
    similarity_orbits,
)
from seidelkit.iss import (
    all_vertices_iss,
    complemented_core_agreement,
    core_neighborhoods_partition,
    degree_extremes_adjacent,
    edge_iss_conditions,
    edge_iss_direct,
    edge_removed_agreement,
    is_iss,
    iss_family,
    vertex_iss_set,
)


def test_trivial_sets_are_always_identity_switches():
    rng = random.Random(61)
    for _ in range(20):
        n = rng.randint(1, 7)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = make_graph(n, edges)
        assert is_iss(g, VertexSet(n, 0))
        assert is_iss(g, VertexSet.full(n))


def test_membership_closed_under_complement():
    rng = random.Random(62)
    for _ in range(20):
        n = rng.randint(2, 7)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = make_graph(n, edges)
        s = VertexSet(n, rng.randrange(1 << n))
        assert is_iss(g, s) == is_iss(g, s.complement())


def test_is_iss_definition_spot_checks():
    # against the permutation oracle: is_iss itself is is_isomorphic
    g = paw()
    for mask in range(16):
        s = VertexSet(4, mask)
        assert is_iss(g, s) == oracles.brute_is_isomorphic(switch_set(g, s), g)


def test_degree_guard_keeps_the_order_bound():
    # each switch below changes the degree sequence, so a guard ahead of
    # the bound would answer instead of refusing
    big = path(CANONICAL_MAX_ORDER + 1)
    with pytest.raises(ValueError, match="bound"):
        is_iss(big, VertexSet.singleton(big.n, 0))
    with pytest.raises(ValueError, match="bound"):
        is_isomorphic(big, cycle(big.n))
    with pytest.raises(ValueError, match="bound"):
        edge_iss_conditions(big, 0, 1)


def _counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def test_is_iss_skips_the_search_when_degrees_differ(monkeypatch):
    searches = _counting(monkeypatch, _kernels, "_canon")
    _kernels.clear_caches()
    # switching an end of P5 joins it to 2, 3, 4: the degrees change
    assert not is_iss(path(5), VertexSet.singleton(5, 0))
    assert searches == []
    # switching an end of P3 gives P3 again: same degrees, so it searches
    assert is_iss(path(3), VertexSet.singleton(3, 0))
    assert searches


def test_condition_ii_skips_the_core_when_sizes_differ(monkeypatch):
    _kernels.clear_caches()
    cores = _counting(monkeypatch, iss, "induced_subgraph")
    groups = _counting(monkeypatch, iss, "automorphisms")
    # P4, edge 01: the core {2, 3} holds no neighbor of 0 but one
    # non-neighbor of 1
    r = edge_iss_conditions(path(4), 0, 1)
    assert not r.condition_ii
    assert cores == [] and groups == []
    # edge 12: the core neighbor 0 of 1 is the core non-neighbor of 2,
    # so the identity answers
    assert edge_iss_conditions(path(4), 1, 2).condition_ii
    assert cores == [] and groups == []
    # a triangle 012 and a lone 3, edge 01: the core {2, 3} holds the
    # neighbor 2 of 0 and the non-neighbor 3 of 1, both of core degree 0,
    # so the swap of 2 and 3 has to be found by the search
    assert edge_iss_conditions(make_graph(4, [(0, 1), (0, 2), (1, 2)]), 0, 1).condition_ii
    assert len(cores) == 1 and len(groups) == 1


def test_condition_ii_skips_the_core_when_core_degrees_differ(monkeypatch):
    _kernels.clear_caches()
    cores = _counting(monkeypatch, iss, "induced_subgraph")
    # edge 03: the core {1, 2, 4} holds the neighbor 4 of 0, of core
    # degree 1, and the non-neighbor 2 of 3, of core degree 0
    g = make_graph(5, [(0, 3), (0, 4), (1, 3), (1, 4), (3, 4)])
    assert not edge_iss_conditions(g, 0, 3).condition_ii
    assert cores == []


def _brute_condition_ii(g, x, y, groups):
    # is some permutation of the core that keeps its edges a map of the
    # core neighbors of x onto the core non-neighbors of y?  groups caches
    # each core's automorphisms, found by trying every permutation
    core = [v for v in range(g.n) if v not in (x, y)]
    edges = frozenset((i, j) for j in range(len(core)) for i in range(j) if g.has_edge(core[i], core[j]))
    key = (len(core), edges)
    if key not in groups:
        groups[key] = [p for p in itertools.permutations(range(len(core)))
                       if all((min(p[i], p[j]), max(p[i], p[j])) in edges for i, j in edges)]
    a = {i for i, v in enumerate(core) if g.has_edge(x, v)}
    b = {i for i, v in enumerate(core) if not g.has_edge(y, v)}
    return any({p[i] for i in a} == b for p in groups[key])


def test_condition_ii_matches_brute_force_through_order_seven():
    # every edge of every isomorphism class of orders 2-7, guards and search alike
    groups = {}
    edges = 0
    for n in range(2, 8):
        for g in nonisomorphic_graphs(n):
            for y in range(n):
                for x in range(y):
                    if g.has_edge(x, y):
                        edges += 1
                        assert edge_iss_conditions(g, x, y).condition_ii == _brute_condition_ii(g, x, y, groups)
    assert edges == 12_342


def _uncached(g, x, y):
    # the three verdicts of edge_iss_conditions computed on g itself
    return iss._direct(g, x, y), *iss._conditions(g, x, y, iss._core(g, x, y))


def _verdicts(r):
    return r.direct, r.condition_i, r.condition_ii


def _asked_copies(n, rng):
    # every graph of order n, as three seeded relabelings, a switched
    # relabeling and itself; every graph's first relabeling comes first, so
    # the others read entries that another labeling of their class filled
    copies = []
    for g in nonisomorphic_graphs(n):
        hs = []
        for k in range(4):
            perm = list(range(n))
            rng.shuffle(perm)
            h = switch_set(g, VertexSet(n, rng.randrange(1 << n))) if k == 3 else g
            hs.append(relabel(h, tuple(perm)))
        copies.append(hs + [g])
    return [hs[0] for hs in copies] + [h for hs in copies for h in hs[1:]]


def test_edge_verdicts_match_the_uncached_computation():
    # every edge, in both argument orders, of every graph of orders 2-7 and
    # of four copies of each, against the computation on the graph itself;
    # through order 6 condition_ii also against the permutation scan
    rng = random.Random(35)
    groups = {}
    _kernels.clear_caches()
    calls = 0
    for n in range(2, 8):
        for h in _asked_copies(n, rng):
            for x, y in h.edges():
                for a, b in ((x, y), (y, x)):
                    r = edge_iss_conditions(h, a, b)
                    assert (r.x, r.y) == (a, b)
                    assert _verdicts(r) == _uncached(h, a, b)
                    if n < 7:
                        assert r.condition_ii == _brute_condition_ii(h, a, b, groups)
                    calls += 1
    assert calls == 123_502


def test_a_relabeled_copy_reads_its_class_entries(monkeypatch):
    # once every edge of g is answered in one argument order, every edge of
    # a relabeled copy is answered in both orders without a verdict or a
    # search, once the copy's canonical form is known
    rng = random.Random(36)
    _kernels.clear_caches()
    graphs = [g for n in range(2, 8) for g in nonisomorphic_graphs(n)[::5]]
    for n in range(8, 11):
        graphs += [make_graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5])
                   for _ in range(8)]
    for g in graphs:
        for x, y in g.edges():
            edge_iss_conditions(g, x, y)
    copies = []
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        copies.append(relabel(g, tuple(perm)))
        canonical_form(copies[-1])
    spies = [_counting(monkeypatch, iss, "_direct"), _counting(monkeypatch, iss, "_conditions"),
             _counting(monkeypatch, _kernels, "_canon")]
    asked = 0
    for h in copies:
        for x, y in h.edges():
            for a, b in ((x, y), (y, x)):
                assert edge_iss_conditions(h, a, b).x == a
                asked += 1
    assert asked > 1000
    assert spies == [[], [], []]


def test_edge_memo_keeps_its_cap(monkeypatch):
    # a cap of 16 entries empties the memo many times over; the answers do
    # not change
    monkeypatch.setattr(iss, "_EDGE_VERDICTS_MAX", 16)
    _kernels.clear_caches()
    rng = random.Random(37)
    clears = 0
    for n in (4, 5, 6):
        for h in _asked_copies(n, rng):
            for x, y in h.edges():
                held = len(iss._EDGE_VERDICTS)
                assert _verdicts(edge_iss_conditions(h, x, y)) == _uncached(h, x, y)
                now = len(iss._EDGE_VERDICTS)
                assert now <= 16
                clears += now < held
    assert clears > 20


def test_edge_checks_come_before_the_memo(monkeypatch):
    # entries planted under the keys that a non-edge and an order above the
    # bound would read, and a class whose edges are all held, never answer
    # for a vertex out of range, a non-edge or a graph above the bound
    monkeypatch.setattr(iss, "_EDGE_VERDICTS", {})

    def plant(g, x, y):
        code, lab = _kernels.run_canon(g.adj, g.n)[:2]
        iss._EDGE_VERDICTS[(g.n, code, *sorted((lab.index(x), lab.index(y))))] = (True, True, True)

    g = path(4)
    for x, y in g.edges():
        edge_iss_conditions(g, x, y)
    plant(g, 0, 2)
    for x, y in ((0, 2), (2, 0)):
        with pytest.raises(ValueError, match="not an edge"):
            edge_iss_conditions(g, x, y)
    for x, y in ((0, 4), (4, 3), (-1, 0)):
        with pytest.raises(IndexError):
            edge_iss_conditions(g, x, y)
    big = path(CANONICAL_MAX_ORDER + 1)
    plant(big, 0, 1)
    with pytest.raises(ValueError, match="bound"):
        edge_iss_conditions(big, 0, 1)


def test_family_on_three_path():
    fam = iss_family(path(3))
    assert [s.mask for s in fam.members] == [0, 1, 3, 4, 6, 7]
    assert fam.size == 6
    assert not fam.closed_under_delta
    a, b, d = fam.witness
    assert (a.mask, b.mask, d.mask) == (1, 3, 2)
    assert (a ^ b).mask == d.mask
    assert is_iss(path(3), a) and is_iss(path(3), b) and not is_iss(path(3), d)


def test_family_on_single_vertex_is_closed():
    fam = iss_family(empty(1))
    assert [s.mask for s in fam.members] == [0, 1]
    assert fam.closed_under_delta
    assert fam.witness is None


def test_family_members_are_exactly_the_identity_switches():
    for g in (paw(), cycle(4), complete_bipartite(2, 3)):
        fam = iss_family(g)
        got = {s.mask for s in fam.members}
        want = {
            m
            for m in range(1 << g.n)
            if is_isomorphic(switch_set(g, VertexSet(g.n, m)), g)
        }
        assert got == want


def test_family_sizes_match_the_search_free_count():
    # the orbit-stabilizer count, which runs no canonical search, against
    # the family and the census's extremes, on every graph of orders 2-7
    for n in range(2, 8):
        graphs = nonisomorphic_graphs(n)
        want = oracles.iss_counts(graphs, n)
        assert [iss_family(g).size for g in graphs] == want
        records = census(n)
        where = {cf: r.class_id for r in records for cf in switching_class(from_graph6(r.rep_g6)).members}
        by_class = {}
        for g, count in zip(graphs, want):
            by_class.setdefault(where[canonical_form(g)], []).append(count)
        assert [(r.iss_min, r.iss_max) for r in records] == [
            (min(by_class[r.class_id]), max(by_class[r.class_id])) for r in records
        ]


def test_vertex_iss_sets():
    assert list(vertex_iss_set(complete_bipartite(2, 3))) == [2, 3, 4]
    # balanced-plus-one bipartite: only the larger side works
    for k in (1, 2, 3):
        g = complete_bipartite(k, k + 1)
        assert list(vertex_iss_set(g)) == list(range(k, 2 * k + 1))
    assert list(vertex_iss_set(cycle(5))) == []
    assert list(vertex_iss_set(empty(1))) == [0]


def test_unique_vertex_iss_fixtures():
    # two graphs built around a single distinguished vertex
    assert list(vertex_iss_set(path(5))) == [2]
    assert list(vertex_iss_set(path_with_isolated(3, 2))) == [1]


def test_singleton_verdict_constant_on_orbits():
    for g in nonisomorphic_graphs(5):
        viss = vertex_iss_set(g)
        for block in similarity_orbits(g):
            verdicts = {v in viss for v in block}
            assert len(verdicts) == 1


def test_tadpole_switches_agree_across_orbits():
    t = tadpole(3, 4)
    orbits = similarity_orbits(t)
    blocks = {v: b for b in orbits for v in b}
    assert blocks[1] is not blocks[3]
    h1 = switch_vertex(t, 1)
    h3 = switch_vertex(t, 3)
    assert is_isomorphic(h1, h3)
    assert not is_isomorphic(h1, t)
    assert not is_isomorphic(h3, t)


def test_all_vertices_iss_premise_is_rare():
    # degree (n-1)/2 at every vertex is forced, which kills even orders
    hits = [
        g
        for n in range(1, 6)
        for g in nonisomorphic_graphs(n)
        if all_vertices_iss(g)
    ]
    assert len(hits) == 1 and hits[0].n == 1


def test_degree_extremes_adjacent_contract():
    assert degree_extremes_adjacent(empty(1)) is True
    # premise fails: report None rather than a vacuous verdict
    assert degree_extremes_adjacent(path(3)) is None
    assert degree_extremes_adjacent(complete(4)) is None


def test_edge_iss_direct_examples():
    q = cube_q3()
    assert not any(edge_iss_direct(q, u, v) for (u, v) in q.edges())
    p = prism_c3p2()
    verdicts = {(u, v): edge_iss_direct(p, u, v) for (u, v) in p.edges()}
    assert verdicts == {
        (0, 1): False,
        (0, 2): False,
        (1, 2): False,
        (3, 4): False,
        (3, 5): False,
        (4, 5): False,
        (0, 3): True,
        (1, 4): True,
        (2, 5): True,
    }


def test_complete_bipartite_edges_all_qualify():
    for m, n in ((1, 1), (2, 2), (2, 3), (3, 3), (1, 4)):
        g = complete_bipartite(m, n)
        for (u, v) in g.edges():
            assert edge_iss_direct(g, u, v)
            r = edge_iss_conditions(g, u, v)
            assert r.direct and r.condition_i


def test_conditions_require_an_edge():
    g = path(3)
    for check in (edge_iss_conditions, edge_iss_direct, edge_removed_agreement, complemented_core_agreement):
        for x, y in ((0, 2), (0, 0)):
            with pytest.raises(ValueError):
                check(g, x, y)


def test_conditions_sufficient_on_all_small_graphs():
    # conditions true must imply a genuine identity switch
    for n in range(2, 6):
        for g in nonisomorphic_graphs(n):
            for (u, v) in g.edges():
                r = edge_iss_conditions(g, u, v)
                if r.by_conditions:
                    assert r.direct


def test_conditions_not_necessary_pinned_counterexample():
    g = from_graph6("EEzO")
    assert g.edges() == [
        (0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 4), (3, 5),
    ]
    r = edge_iss_conditions(g, 0, 3)
    assert r.direct  # the pair really is an identity switch
    assert is_isomorphic(switch_set(g, VertexSet.from_indices(6, (0, 3))), g)
    assert r.condition_i
    assert not r.condition_ii
    assert not r.by_conditions
    assert not r.agree


def test_most_symmetric_order_ten_graph_finishes_quickly():
    # the documented family bound, on the complete graph: the largest group
    g = complete(10)
    t = time.perf_counter()
    fam = iss_family(g)
    assert time.perf_counter() - t < 5.0
    assert [s.mask for s in fam.members] == [0, (1 << 10) - 1]
    t = time.perf_counter()
    reports = [edge_iss_conditions(g, x, y) for x, y in g.edges()]
    assert time.perf_counter() - t < 5.0
    assert len(reports) == 45 and all(r.agree for r in reports)


def _from_networkx(h):
    return make_graph(h.number_of_nodes(), list(h.edges()))


def test_less_symmetric_bounds_finish_quickly():
    # the documented bounds on inputs that are neither complete, empty nor
    # complete bipartite: a cold family and class at order 10, and a cold
    # canonical form and every edge's conditions at order 12
    nx = pytest.importorskip("networkx")
    for h in (nx.petersen_graph(), nx.complete_multipartite_graph(3, 3, 4)):
        g = _from_networkx(h)
        _kernels.clear_caches()
        t = time.perf_counter()
        fam = iss_family(g)
        sc = switching_class(g)
        assert time.perf_counter() - t < 1.0
        assert [m.mask for m in fam.members] == oracles.scan_family_masks(g)
        assert sc.codes == oracles.scan_class_codes(g)
    regular = [nx.random_regular_graph(d, 12, seed=d) for d in (3, 5)]
    for h in (nx.icosahedral_graph(), *regular):
        g = _from_networkx(h)
        _kernels.clear_caches()
        t = time.perf_counter()
        canonical_form(g)
        reports = [edge_iss_conditions(g, x, y) for x, y in g.edges()]
        assert time.perf_counter() - t < 1.0
        assert len(reports) == h.number_of_edges()


def test_core_partition_fails_even_when_conditions_hold():
    g = from_graph6("CT")  # triangle plus isolated vertex
    assert g.edges() == [(0, 2), (0, 3), (2, 3)]
    r = edge_iss_conditions(g, 0, 2)
    assert r.direct and r.by_conditions
    assert not core_neighborhoods_partition(g, 0, 2)


def test_core_partition_holds_sometimes():
    g = complete_bipartite(2, 2)
    assert core_neighborhoods_partition(g, 0, 2)


def test_edge_removed_agreement_on_small_graphs():
    for n in range(2, 6):
        for g in nonisomorphic_graphs(n):
            for (u, v) in g.edges():
                assert edge_removed_agreement(g, u, v)


def test_complemented_core_agreement_on_small_graphs():
    for n in range(2, 6):
        for g in nonisomorphic_graphs(n):
            for (u, v) in g.edges():
                assert complemented_core_agreement(g, u, v)


def test_complemented_core_and_edge_removal_give_one_verdict():
    # g with its core complemented is g minus xy, complemented and switched
    # by {x, y}, so the two remarks agree on every edge
    rng = random.Random(21)
    graphs = [g for n in range(2, 7) for g in nonisomorphic_graphs(n)]
    for n in range(7, 11):
        for _ in range(8):
            graphs.append(make_graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5]))
    for g in graphs:
        for x, y in g.edges():
            assert complemented_core_agreement(g, x, y) == edge_removed_agreement(g, x, y)


def test_edge_removal_changes_the_verdict_at_order_eight():
    # GyWYdO, edge (0,1): no identity switch, but one on g minus the edge
    # and on g with its core complemented; networkx decides all three
    nx = pytest.importorskip("networkx")
    g = from_graph6("GyWYdO")
    assert g.has_edge(0, 1)
    removed = make_graph(8, [e for e in g.edges() if e != (0, 1)])
    flipped = make_graph(8, [(i, j) for j in range(8) for i in range(j) if g.has_edge(i, j) != (i > 1)])

    def switched_is_isomorphic(h):
        a, b = nx.empty_graph(8), nx.empty_graph(8)
        a.add_edges_from(h.edges())
        b.add_edges_from((i, j) for j in range(8) for i in range(j)
                         if h.has_edge(i, j) != ((i < 2) != (j < 2)))
        return nx.is_isomorphic(a, b)

    assert [switched_is_isomorphic(h) for h in (g, removed, flipped)] == [False, True, True]
    s = VertexSet.from_indices(8, (0, 1))
    assert [is_iss(h, s) for h in (g, removed, flipped)] == [False, True, True]
    assert iss._derived_verdicts(g, 0, 1) == (True, True)
    assert not edge_iss_direct(g, 0, 1)
    assert not edge_removed_agreement(g, 0, 1)
    assert not complemented_core_agreement(g, 0, 1)


def test_edge_reports_match_the_single_graph_route():
    # every edge through order 6, GyWYdO and 32 seeded random graphs of
    # orders 7-10, one _edge_reports call per order: each report and both
    # derived verdicts equal those of the one-edge functions
    rng = random.Random(23)
    groups = [list(nonisomorphic_graphs(n)) for n in range(1, 7)]
    for n in range(7, 11):
        groups.append([make_graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5])
                       for _ in range(8)])
    groups[7].append(from_graph6("GyWYdO"))
    seen = 0
    for graphs in groups:
        want = [[(edge_iss_conditions(g, x, y), *iss._derived_verdicts(g, x, y)) for x, y in g.edges()]
                for g in graphs]
        assert iss._edge_reports(graphs) == want
        seen += sum(map(len, want))
    assert seen > 1380
    assert iss._edge_reports([]) == []


def _class_groups():
    # every graph of orders 1-7, one group per order; and at orders 8-10 a
    # graph with many identity switches followed by seeded random
    # relabelings of five of its switches, so the map from each member's
    # switched first graph onto the member is not the identity
    rng = random.Random(7)
    groups = [list(nonisomorphic_graphs(n)) for n in range(1, 8)]
    for g in (cube_q3(), complete_bipartite(3, 6), complete_bipartite(3, 7)):
        n = g.n
        members = [g]
        for _ in range(5):
            perm = list(range(n))
            rng.shuffle(perm)
            members.append(relabel(switch_set(g, VertexSet(n, rng.randrange(1 << n))), tuple(perm)))
        groups.append(members)
    return groups


def _assert_own_scan(g):
    # the family and the class from the class cache equal those of g's own scan
    fam = iss_family(g)
    assert fam.graph == g
    assert [m.mask for m in fam.members] == oracles.scan_family_masks(g)
    assert switching_class(g).codes == oracles.scan_class_codes(g)


def test_families_and_classes_match_their_own_scans():
    # each group from a cold cache, last graph first, so most graphs read a
    # class that another member's scan put in the cache
    mapped = 0
    for graphs in _class_groups():
        _kernels.clear_caches()
        for g in reversed(graphs):
            _assert_own_scan(g)
            mapped += iso._class_scan(g)[1] != g
    assert mapped > 1000


def test_one_scan_per_class(monkeypatch):
    # from a cold cache the order-7 families and census(7) scan each of
    # the 54 classes once, and relabeled switches of every graph scan none
    scans = _counting(monkeypatch, _kernels, "switch_orbit_scan")
    _kernels.clear_caches()
    reps = nonisomorphic_graphs(7)
    for g in reps:
        iss_family(g)
    assert len(census(7)) == 54
    assert len(scans) == 54
    rng = random.Random(11)
    repeats = []
    for g in reps:
        perm = list(range(7))
        rng.shuffle(perm)
        repeats.append(relabel(switch_set(g, VertexSet(7, rng.randrange(1 << 7))), tuple(perm)))
    got = [([m.mask for m in iss_family(h).members], switching_class(h).codes) for h in repeats]
    assert len(scans) == 54
    assert got == [(oracles.scan_family_masks(h), oracles.scan_class_codes(h)) for h in repeats]


def test_class_cache_keeps_its_cap(monkeypatch):
    # a cap a little above the largest class of order 7 (36 codes) empties
    # the cache many times over; the answers do not change
    monkeypatch.setattr(iso, "_CLASS_SCAN_MAX_CODES", 40)
    _kernels.clear_caches()
    clears = 0
    for graphs in _class_groups()[:7]:
        for g in graphs:
            held = sum(map(len, iso._CLASS_SCANS.values()))
            _assert_own_scan(g)
            now = sum(map(len, iso._CLASS_SCANS.values()))
            assert now <= 40
            clears += now < held
    assert clears > 20


def test_family_order_bound():
    with pytest.raises(ValueError):
        iss_family(empty(SWITCH_SCAN_MAX_ORDER + 1))
