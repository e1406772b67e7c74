"""Independent oracles the tests compare the package against.

Everything here is deliberately naive: permutation search instead of
refinement, sympy instead of the hand-rolled recursion.  Slow and
obviously correct beats fast and clever for reference values.
"""

from __future__ import annotations

import itertools

import numpy as np

from seidelkit import Graph, _kernels, canonical_form, nonisomorphic_graphs, relabel, seidel_matrix


def brute_canonical_code(g: Graph) -> int:
    """Minimum upper-triangle code over every relabeling, by full scan."""
    best = None
    for q in itertools.permutations(range(g.n)):
        code = 0
        t = 0
        for j in range(1, g.n):
            for i in range(j):
                if (g.adj[q[i]] >> q[j]) & 1:
                    code |= 1 << t
                t += 1
        if best is None or code < best:
            best = code
    return best


def brute_is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n:
        return False
    return any(relabel(g, p) == h for p in itertools.permutations(range(g.n)))


def brute_find_isomorphism(g: Graph, h: Graph):
    """Degree-filtered backtracking; practical up to order 8."""
    if g.n != h.n:
        return None
    n = g.n
    dg = [g.degree(v) for v in range(n)]
    dh = [h.degree(v) for v in range(n)]
    if sorted(dg) != sorted(dh):
        return None
    cand = [[w for w in range(n) if dh[w] == dg[v]] for v in range(n)]
    phi = [-1] * n
    used = [False] * n

    def dfs(v: int) -> bool:
        if v == n:
            return True
        for w in cand[v]:
            if used[w]:
                continue
            if all(((g.adj[v] >> u) & 1) == ((h.adj[w] >> phi[u]) & 1) for u in range(v)):
                phi[v] = w
                used[w] = True
                if dfs(v + 1):
                    return True
                used[w] = False
                phi[v] = -1
        return False

    return tuple(phi) if dfs(0) else None


def brute_automorphism_count(g: Graph) -> int:
    return sum(1 for p in itertools.permutations(range(g.n)) if relabel(g, p) == g)


def group_elements(group) -> tuple[tuple[int, ...], ...]:
    """Every element of an AutomorphismGroup, sorted, by closing its generators."""
    found = {tuple(range(group.n))}
    todo = list(found)
    for p in todo:
        for gen in group.generators:
            q = tuple(gen[v] for v in p)
            if q not in found:
                found.add(q)
                todo.append(q)
    return tuple(sorted(found))


def iss_counts(graphs, n: int) -> list[int]:
    """|ISS(G)| for each graph of order n, with no canonical search.

    The identity switches modulo complement match the cosets of Aut(G)
    in Aut(T), T the two-graph of G.  By orbit-stabilizer on labeled
    graphs and labeled two-graphs, |ISS(G)| = 2 |S_n G| / |S_n T|: |S_n T|
    is the orbit size that _kernels.two_graph_orbits returns, n! over the
    number of relabelings that fix T, and |S_n G| the number of distinct
    upper-triangle codes among G's n! relabelings.
    """
    perms = np.array(list(itertools.permutations(range(n)))).reshape(-1, n)
    p, q = np.array([(i, j) for j in range(n) for i in range(j)], dtype=np.int64).reshape(-1, 2).T
    weight = np.int64(1) << np.arange(len(p), dtype=np.int64)
    two_graph_sizes = _kernels.two_graph_orbits([g.adj for g in graphs], n)[1]
    counts = []
    for g, size in zip(graphs, two_graph_sizes.tolist()):
        adj = np.array([[(row >> j) & 1 for j in range(n)] for row in g.adj], dtype=np.int64)
        labeled = len(np.unique(adj[perms[:, p], perms[:, q]] @ weight))
        count, rest = divmod(2 * labeled, size)
        assert rest == 0, (g.adj, labeled, size)
        counts.append(count)
    return counts


def own_scan(g: Graph) -> tuple[int, ...]:
    """g's own switch-orbit scan, straight from the kernel, past the class cache."""
    code, _, _, _, gens = _kernels.run_canon(g.adj, g.n)
    return _kernels.switch_orbit_scan(g.adj, g.n, code, gens)


def scan_family_masks(g: Graph) -> list[int]:
    """g's identity switches, sorted, from g's own scan: the even masks 2k
    whose slot holds g's code, and their complements."""
    scan = own_scan(g)
    half = [2 * k for k, c in enumerate(scan) if c == scan[0]]
    return sorted(half + [m ^ ((1 << g.n) - 1) for m in half])


def scan_class_codes(g: Graph) -> tuple[int, ...]:
    """The distinct codes of g's own scan, ascending: its switching class."""
    return tuple(sorted(set(own_scan(g))))


def labeled_components(n: int) -> dict:
    """Labeled census by grouping every representative by its two-graph.

    Two labeled graphs share their two-graph, the set of triples with
    an odd number of edges (Seidel, "A survey of two-graphs", 1976),
    exactly when one is a switch of the other.  So representatives lie
    in one switching class when their two-graphs are isomorphic, and the
    class holds 2^(n-1) labeled graphs per labeled two-graph in their
    orbit.  The orbits must cover all 2^(C(n,2)-n+1) labeled two-graphs,
    which is asserted here.  Returns labeled counts keyed by the class's
    minimum canonical form.
    """
    reps = nonisomorphic_graphs(n)
    keys, sizes = _kernels.two_graph_orbits([g.adj for g in reps], n)
    # reps are sorted by canonical form, so each key's first rep is its class minimum
    first = np.unique(keys, return_index=True)[1]
    total = int(sizes[first].sum())
    assert total == 1 << (n * (n - 1) // 2 - n + 1), f"two-graph orbits cover {total} labeled two-graphs"
    return {canonical_form(reps[i]): int(sizes[i]) << (n - 1) for i in first}


def sympy_seidel_poly(g: Graph) -> tuple[int, ...]:
    import sympy

    x = sympy.symbols("x")
    poly = sympy.Matrix(seidel_matrix(g)).charpoly(x)
    return tuple(int(c) for c in reversed(poly.all_coeffs()))
