"""Golden-output checks, run outside the timed region.

Three kinds of evidence, none of which trusts the run being checked:
pinned digests and label-free answer summaries (golden.json, written by
pin.py from a reviewed commit), published counts (172 findings at order 6; switching classes equal to
Euler graphs, counted here from the networkx atlas), and independent
oracles (sympy's characteristic polynomial, networkx isomorphism and
automorphism counting) on a sample of query-mix answers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
EULER_GRAPHS = (1, 1, 2, 3, 7)  # orders 1..5
CENSUS_ORDERS = 5  # checked beside verify-6; together they take about a second
FINDINGS = {4: 8, 6: 172}
ORACLE_EVERY = 8  # one query in eight gets the sympy and networkx checks


def golden() -> dict:
    if GOLDEN_PATH.exists():
        return json.loads(GOLDEN_PATH.read_text())
    return {"census": {}, "verify": {}, "shapes": {}}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_stdout(argv: list[str]) -> tuple[int, str]:
    """Run seidelkit.cli.main in this process and capture what it prints."""
    from seidelkit import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def check_verify_output(smoke: bool, rc, stdout: str) -> str | None:
    """Problem with one `verify` run's output, or None when it matches the pins."""
    if rc != 0:
        return f"exit code {rc}"
    order = 4 if smoke else 6
    lines = stdout.splitlines()
    findings = sum(1 for ln in lines if ln.startswith('{"claim-id"'))
    if findings != FINDINGS[order] or lines[-1] != f"PASS (0 violations, {FINDINGS[order]} findings)":
        return f"verify printed {findings} findings and {lines[-1]!r}"
    want = golden()["verify"].get(str(order))
    if want is None or sha(stdout) != want:
        return f"verify --max-order {order} output digest differs from the pinned one"
    return None


def euler_graph_counts(max_order: int) -> list[int]:
    """Graphs with every degree even, per order, from the networkx atlas."""
    import networkx as nx

    counts = [0] * (max_order + 1)
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if 1 <= n <= max_order and all(d % 2 == 0 for _, d in g.degree()):
            counts[n] += 1
    return counts[1:]


def check_census(outcome) -> None:
    """`census --order 1..CENSUS_ORDERS` against its pins, class counts against Euler graphs."""
    pins = golden()["census"]
    classes = []
    for order in range(1, CENSUS_ORDERS + 1):
        rc, out = cli_stdout(["census", "--order", str(order)])
        classes.append(sum(1 for ln in out.splitlines() if ln.startswith("{")))
        outcome.op(rc == 0 and pins.get(str(order)) == sha(out),
                   f"census --order {order} output digest differs from the pinned one")
    atlas = euler_graph_counts(CENSUS_ORDERS)
    outcome.op(classes == atlas == list(EULER_GRAPHS),
               f"census class counts {classes}, Euler graphs in the atlas {atlas}")


# ---------------------------------------------------------------- query-mix


def decode_g6(text: str) -> tuple[int, set[tuple[int, int]]]:
    n = ord(text[0]) - 63
    bits = "".join(format(ord(c) - 63, "06b") for c in text[1:])
    edges = set()
    t = 0
    for j in range(1, n):
        for i in range(j):
            if bits[t] == "1":
                edges.add((i, j))
            t += 1
    return n, edges


def decode_form(n: int, hexbits: str) -> set[tuple[int, int]]:
    raw = bytes.fromhex(hexbits)
    edges = set()
    t = 0
    for j in range(1, n):
        for i in range(j):
            if raw[t >> 3] & (0x80 >> (t & 7)):
                edges.add((i, j))
            t += 1
    return edges


def answer_summary(ans: dict) -> dict:
    """The parts of an answer that do not depend on the vertex labels."""
    return {
        "cf": ans["cf"], "aut": ans["aut"], "poly": ans["poly"], "iss_size": len(ans["iss"]),
        "closed": ans["closed"], "class_rep": ans["class_rep"], "class_size": ans["class_size"],
        "edge_verdicts": [sum(1 for e in ans["edges"] if e[k]) for k in (2, 3, 4)],
    }


def _nx(n: int, edges) -> "object":
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def _switched(n: int, edges: set, mask: int) -> set:
    out = set()
    for j in range(1, n):
        for i in range(j):
            cross = ((mask >> i) & 1) != ((mask >> j) & 1)
            if ((i, j) in edges) != cross:
                out.add((i, j))
    return out


def oracle_problem(n: int, edges: set, ans: dict) -> str | None:
    import networkx as nx
    import sympy

    s = sympy.Matrix(n, n, lambda i, j: 0 if i == j else (-1 if (min(i, j), max(i, j)) in edges else 1))
    coeffs = [int(c) for c in reversed(s.charpoly().all_coeffs())]
    if coeffs != ans["poly"]:
        return f"Seidel polynomial {ans['poly']} differs from sympy's {coeffs}"
    g = _nx(n, edges)
    if not nx.is_isomorphic(g, _nx(n, decode_form(n, ans["cf"]))):
        return "canonical form is not isomorphic to the input (networkx)"
    aut = sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(g, g).isomorphisms_iter())
    if aut != ans["aut"]:
        return f"|Aut| {ans['aut']} differs from networkx's {aut}"
    for x, y, direct, ci, _ in ans["edges"]:
        if direct != nx.is_isomorphic(g, _nx(n, _switched(n, edges, (1 << x) | (1 << y)))):
            return f"edge ({x},{y}) identity-switch verdict differs from networkx"
        if ci != (g.degree(x) + g.degree(y) == n):
            return f"edge ({x},{y}) degree condition wrong"
    members = set(ans["iss"])
    probes = sorted(members)[:2] + [m for m in range(1 << n) if m not in members][:2]
    for m in probes:
        if (m in members) != nx.is_isomorphic(g, _nx(n, _switched(n, edges, m))):
            return f"identity-switch family disagrees with networkx at mask {m}"
    return None


def query_problem(q: dict, ans: dict, shapes: dict, oracle: bool) -> str | None:
    n, edges = decode_g6(q["g6"])
    full = (1 << n) - 1
    if sorted((x, y) for x, y, *_ in ans["edges"]) != sorted(edges):
        return "edge reports do not match the input's edges"
    if 0 not in ans["iss"] or full not in ans["iss"]:
        return "trivial switches missing from the identity-switch family"
    if math.factorial(n) % ans["aut"] or ans["class_size"] < 1:
        return f"|Aut| {ans['aut']} or class size {ans['class_size']} impossible"
    if len(ans["poly"]) != n + 1 or ans["poly"][n] != 1 or ans["poly"][n - 1] != 0:
        return "Seidel polynomial is not monic with zero trace"
    want = shapes.get(q["shape"])
    if want is None or answer_summary(ans) != want:
        return f"answer for shape {q['shape']} differs from the pinned one"
    if oracle:
        return oracle_problem(n, edges, ans)
    return None


def check_queries(queries, recs, outcome, oracles=True) -> None:
    shapes = golden()["shapes"]
    for k, (q, x) in enumerate(zip(queries, recs)):
        problem = x["error"] or query_problem(q, x["answer"], shapes,
                                              oracles and k % ORACLE_EVERY == 0)
        outcome.op(problem is None, f"query {k} ({q['shape']}, {q['g6']}): {problem}")
