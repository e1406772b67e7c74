"""The query-mix workload: seeded graph6 queries and the closed-loop client.

`generate` turns a seed into query lines.  Each block of 16 holds 12
uniform random labeled graphs (four each at orders 8, 9 and 10) and 4
members of the symmetric roster, every graph relabelled by a random
permutation drawn from the seed.  Random inputs set the median latency;
symmetric ones, whose canonical search visits |Aut| leaves, set the
tail.  Roster members are chosen so that no query takes more than about
a second: `complete(8)`, `K_{4,4}` and `K_{3,6}` take from 20 s to
minutes and stay out.

The random graphs are one fixed sample of 32 per order, drawn once from
POOL_SEED; the run's seed relabels them, orders the queries and orders
the roster.  Query cost varies several-fold between random graphs of one
order but depends on the isomorphism class, not on the labels, so every
seed sees the same cost mix and seeds do not add to the run-to-run
spread.  Eight blocks use each pool graph once and each roster member
four times.  Each query names its `shape`, the pool graph or roster
member it relabels, so its answer can be checked against that shape's
pinned label-free answer whatever the seed.

Run as a script, this module is the client: one process, one thread,
each query issued only after the previous one finished.  Untraced, every
time it reports is corrected for the machine's speed by `speed.Probe`;
a traced run reports raw times.
    python3 perfbench/querymix.py QUERIES OUT --count N [--seconds S] [--trace PREFIX]
with seidelkit importable (the harness puts src/ on PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import json
import random
import sys
import time

BLOCK_RANDOM_ORDERS = (8, 8, 8, 8, 9, 9, 9, 9, 10, 10, 10, 10)
SYMMETRIC_PER_BLOCK = 4
# label, generator family, parameters (orders 6 to 8), and the input kind
# ROADMAP item 1 splits canonical-search cost by
ROSTER = (
    ("empty6", "empty", (6,), "empty-or-complete"),
    ("complete6", "complete", (6,), "empty-or-complete"),
    ("star6", "star", (6,), "irregular"),
    ("k33", "complete_bipartite", (3, 3), "regular"),
    ("prism", "prism", (), "regular"),
    ("cycle7", "cycle", (7,), "regular"),
    ("cycle8", "cycle", (8,), "regular"),
    ("cube", "cube", (), "regular"),
)
BLOCK = len(BLOCK_RANDOM_ORDERS) + SYMMETRIC_PER_BLOCK
POOL_SEED = "query-mix-pool"
POOL_PER_ORDER = 32


def edges_g6(n: int, edges) -> str:
    # graph6 written here, independently of seidelkit's encoder
    bits = [0] * (n * (n - 1) // 2)
    for i, j in edges:
        i, j = min(i, j), max(i, j)
        bits[j * (j - 1) // 2 + i] = 1
    bits += [0] * (-len(bits) % 6)
    chars = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        chars.append(chr(63 + int("".join(map(str, bits[k:k + 6])), 2)))
    return "".join(chars)


def roster_edges(family: str, params: tuple) -> tuple[int, list[tuple[int, int]]]:
    if family == "empty":
        return params[0], []
    if family == "complete":
        n = params[0]
        return n, [(i, j) for j in range(n) for i in range(j)]
    if family == "star":
        return params[0], [(0, i) for i in range(1, params[0])]
    if family == "complete_bipartite":
        a, b = params
        return a + b, [(i, a + j) for i in range(a) for j in range(b)]
    if family == "cycle":
        n = params[0]
        return n, [(i, (i + 1) % n) for i in range(n)]
    if family == "prism":
        return 6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)]
    if family == "cube":
        return 8, [(i, j) for j in range(8) for i in range(j) if bin(i ^ j).count("1") == 1]
    raise ValueError(f"unknown roster family {family}")


def random_pool() -> dict[int, list[list[tuple[int, int]]]]:
    """The fixed sample of uniform random labeled graphs, as edge lists per order."""
    rng = random.Random(POOL_SEED)
    return {n: [[(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5]
                for _ in range(POOL_PER_ORDER)]
            for n in sorted(set(BLOCK_RANDOM_ORDERS))}


def pool_shape(n: int, idx: int) -> str:
    return f"random{n}:{idx}"


def shapes() -> dict[str, tuple[int, list[tuple[int, int]]]]:
    """Every graph a query can be a relabelling of: the 96 pool graphs and the roster."""
    out = {pool_shape(n, k): (n, edges)
           for n, graphs in random_pool().items() for k, edges in enumerate(graphs)}
    for label, family, params, _ in ROSTER:
        out[label] = roster_edges(family, params)
    return out


def generate(seed: int, blocks: int) -> list[dict]:
    """Query records for `blocks` blocks; the same seed gives the same list."""
    rng = random.Random(f"query-mix:{seed}")
    pool = random_pool()
    deal = {n: [] for n in pool}
    order = []

    def relabelled(n, edges):
        perm = list(range(n))
        rng.shuffle(perm)
        return edges_g6(n, [(perm[i], perm[j]) for i, j in edges])

    out = []
    for b in range(blocks):
        if len(order) < SYMMETRIC_PER_BLOCK:
            order = list(ROSTER)
            rng.shuffle(order)
        picks, order = order[:SYMMETRIC_PER_BLOCK], order[SYMMETRIC_PER_BLOCK:]
        block = []
        for n in BLOCK_RANDOM_ORDERS:
            if not deal[n]:
                deal[n] = list(range(POOL_PER_ORDER))
                rng.shuffle(deal[n])
            idx = deal[n].pop()
            block.append({"g6": relabelled(n, pool[n][idx]), "class": "random",
                          "family": "random", "kind": "random", "order": n,
                          "shape": pool_shape(n, idx)})
        for label, family, params, kind in picks:
            n, edges = roster_edges(family, params)
            block.append({"g6": relabelled(n, edges), "class": "symmetric", "family": label,
                          "kind": kind, "order": n, "shape": label})
        rng.shuffle(block)
        for q in block:
            q["block"] = b
        out.extend(block)
    return out


def answer(g6: str) -> dict:
    """One query: every call the client makes on one graph6 line."""
    # looked up per call, so that a traced run sees the tracer's wrappers
    from seidelkit import (automorphism_count, canonical_form, edge_iss_conditions, from_graph6,
                           iss_family, seidel_char_poly, switching_class)

    g = from_graph6(g6)
    cf = canonical_form(g)
    aut = automorphism_count(g)
    poly = seidel_char_poly(g)
    fam = iss_family(g)
    cls = switching_class(g)
    edges = []
    for x, y in g.edges():
        r = edge_iss_conditions(g, x, y)
        edges.append([x, y, r.direct, r.condition_i, r.condition_ii])
    return {
        "cf": cf.bits.hex(),
        "aut": aut,
        "poly": list(poly),
        "iss": [m.mask for m in fam.members],
        "closed": fam.closed_under_delta,
        "class_rep": cls.representative.bits.hex(),
        "class_size": cls.size,
        "edges": edges,
    }


def main(argv: list[str]) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("queries")
    ap.add_argument("out")
    ap.add_argument("--count", type=int, required=True, help="queries always run")
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="keep issuing queries past --count until this much time has passed")
    ap.add_argument("--trace", help="trace the calls and write spans to PREFIX.npz")
    args = ap.parse_args(argv)

    with open(args.queries) as fh:
        queries = [json.loads(line) for line in fh]
    import seidelkit  # noqa: F401  (import before the clock starts)

    import speed  # this script's directory is on sys.path

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    # a traced run takes raw times: the probe would run inside the spans
    probe = speed.Probe() if tracer is None else contextlib.nullcontext()
    records, spans = [], []
    with probe:
        t_start = time.perf_counter()
        for k, q in enumerate(queries):
            if k >= args.count and time.perf_counter() - t_start >= args.seconds:
                break
            if tracer is not None:
                tracer.run_id = k
            t0 = time.perf_counter()
            try:
                ans = answer(q["g6"])
                err = None
            except Exception as e:  # a failed query is counted, not fatal
                ans, err = None, f"{type(e).__name__}: {e}"
            spans.append((t0, time.perf_counter()))
            records.append({"answer": ans, "error": err})
        t_end = time.perf_counter()
    if tracer is not None:
        tracer.save(args.trace + ".npz")

    def took(a: float, b: float) -> float:
        return b - a if tracer else probe.corrected(a, b)

    for rec, (a, b) in zip(records, spans):
        rec["latency_s"] = took(a, b)
    t_fixed = spans[min(args.count, len(spans)) - 1][1]
    raw_total = t_end - t_start - (0.0 if tracer else probe.spent(t_start, t_end))
    with open(args.out, "w") as fh:
        json.dump({"fixed_s": took(t_start, t_fixed), "total_s": took(t_start, t_end),
                   "raw_total_s": raw_total, "records": records,
                   "spans": spans, "probe_marks": [] if tracer else probe.marks,
                   "counts": tracer.counts if tracer else {},
                   "overhead_s": tracer.overhead if tracer else 0.0}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
