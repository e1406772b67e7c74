"""Layer timings for the canonical search and the switch-orbit scan.

Times, in one process, `_kernels.run_canon` per graph on seeded
uniform random graphs (edge probability 1/2) at orders 8, 10 and 12,
and on a symmetric set: complete(12), empty(12), K_{6,6}, the cube Q3
and the prism C3 x P2, each as built, relabelled, and switched by a
random subset and relabelled.  It also times `switch_orbit_scan` per
graph on random order-10 graphs, which is where most searches of the
package run.  Each timing is the median of REPEAT runs; the graphs come
from SEED.  Every output of the timed calls is hashed into
`outputs_sha256`, so runs of two checkouts whose digests match computed
the same codes, labelings, group orders, orbits and generators.

Run from the repository root:

    python benchmarks/bench_canon.py --label change
    python benchmarks/bench_canon.py --src OTHER_CHECKOUT/src --label parent

Each run appends its record to the list under its label in
benchmarks/BENCH_canon.json.  Alternate the labels over several runs:
on a shared machine one process's timings can sit 30% off another's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

# order -> number of seeded random graphs timed at that order
RANDOM_GRAPHS = {8: 64, 10: 64, 12: 32}
SCAN_ORDER = 10
SCAN_GRAPHS = 8
REPEAT = 5
SEED = 1
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_canon.json")


def _median_s(fn):
    times = []
    for _ in range(REPEAT):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _commit(src):
    # dirty means uncommitted changes under src alone: this script's own
    # BENCH_*.json record in the same checkout does not count
    def git(*args):
        return subprocess.run(["git", "-C", src, *args],
                              capture_output=True, text=True, check=True).stdout.strip()

    try:
        head = git("describe", "--always")
        dirty = git("status", "--porcelain", "--", ".")
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + "-dirty" if dirty else head


def _random_rows(rng, n):
    from seidelkit import make_graph

    return make_graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5]).adj


def _symmetric_rows(rng):
    from seidelkit import VertexSet, relabel, switch_set
    from seidelkit.generators import complete, complete_bipartite, cube_q3, empty, prism_c3p2

    out = {}
    for name, g in [("complete12", complete(12)), ("empty12", empty(12)),
                    ("k66", complete_bipartite(6, 6)), ("cube", cube_q3()), ("prism", prism_c3p2())]:
        n = g.n
        perm = list(range(n))
        rng.shuffle(perm)
        switched = switch_set(g, VertexSet(n, rng.randrange(1 << n)))
        out[name] = [g.adj, relabel(g, tuple(perm)).adj, relabel(switched, tuple(perm)).adj]
    return out


def measure():
    from seidelkit import _kernels

    rng = random.Random(SEED)
    digest = hashlib.sha256()

    def per_graph_us(batch):
        for rows in batch:
            digest.update(repr(_kernels.run_canon(rows, len(rows))).encode())
        return 1e6 * _median_s(lambda: [_kernels.run_canon(rows, len(rows)) for rows in batch]) / len(batch)

    rec = {"run_canon_random_us": {}, "run_canon_symmetric_us": {}}
    for n, count in RANDOM_GRAPHS.items():
        rec["run_canon_random_us"][str(n)] = per_graph_us([_random_rows(rng, n) for _ in range(count)])
    for name, batch in _symmetric_rows(rng).items():
        rec["run_canon_symmetric_us"][name] = per_graph_us(batch)
    scans = [_random_rows(rng, SCAN_ORDER) for _ in range(SCAN_GRAPHS)]
    for rows in scans:
        digest.update(repr(_kernels.switch_orbit_scan(rows, SCAN_ORDER)).encode())
    rec["switch_orbit_scan_ms"] = 1e3 * _median_s(
        lambda: [_kernels.switch_orbit_scan(rows, SCAN_ORDER) for rows in scans]) / SCAN_GRAPHS
    rec["outputs_sha256"] = digest.hexdigest()
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default="src", help="directory holding the seidelkit package")
    ap.add_argument("--label", required=True, help="the list in BENCH_canon.json this run's record joins")
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    rec = {
        "commit": _commit(src),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "repeat": REPEAT,
        "seed": SEED,
        "scan_order": SCAN_ORDER,
        "scan_graphs": SCAN_GRAPHS,
        "random_graphs": {str(n): c for n, c in RANDOM_GRAPHS.items()},
    }
    rec.update(measure())
    try:
        with open(OUT) as f:
            doc = json.load(f)
    except FileNotFoundError:
        doc = {"harness": "benchmarks/bench_canon.py",
               "units": "_us microseconds per search, _ms milliseconds per scan", "runs": {}}
    doc["runs"].setdefault(args.label, []).append(rec)
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps({args.label: rec}, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
