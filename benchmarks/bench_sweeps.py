"""Layer timings for the sweeps of `verify` and the exact Seidel polynomial.

Times, in one process, the switching-algebra sweep `algebra_sweep(1..5)`,
the invariants, classes, iss and edge-iss suites at order 6, `census(7)`
and the exact Seidel polynomial per graph at orders 6, 8, 12, 13 and 16,
both batched and as a batch of one.  Each timing is the median of REPEAT
runs; each suite and census run starts with the search caches cleared
(the search memo `_kernels.run_canon`, or the Graph-keyed record cache
at checkouts without it, and the scan cache), so it times searches, not
cache hits.  The random graphs come from SEED.  The process's peak RSS
(`ru_maxrss`) is recorded after each item, so a rise shows where it
happened.  The batched and single polynomials are compared before they
are timed.

Run from the repository root:

    python benchmarks/bench_sweeps.py --label change
    python benchmarks/bench_sweeps.py --src OTHER_CHECKOUT/src --label parent

Each run appends its record to the list under its label in
benchmarks/BENCH_sweeps.json.  Alternate the labels over several runs:
on a shared machine one process's timings can sit 30% off another's.
A checkout without `seidel_char_polys` gets null for the batched
timings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

# order -> number of seeded random graphs timed at that order
POLY_GRAPHS = {6: 256, 8: 256, 12: 64, 13: 32, 16: 16}
REPEAT = 5
SEED = 1
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_sweeps.json")


def _median_s(fn):
    times = []
    for _ in range(REPEAT):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


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


def measure():
    import numpy as np
    from seidelkit import _kernels, classes, invariants, iso, make_graph, verify

    # the graphs stay cached, the searches do not: a repeat would otherwise
    # time cache hits wherever the suite's searches fit in the cache
    caches = [getattr(f, "cache_clear", None)
              for f in (_kernels.run_canon, iso._canon_record, iso._switch_orbit_codes)]
    caches = [clear for clear in caches if clear is not None]

    def cold(call):
        return lambda: ([clear() for clear in caches], call())

    peak = {"import": _peak_rss_mb()}
    rec = {}
    rec["algebra_sweep_1_5_s"] = _median_s(lambda: [_kernels.algebra_sweep(n) for n in range(1, 6)])
    peak["algebra_sweep"] = _peak_rss_mb()
    verify.suite_invariants(6)  # fills the representative caches once
    rec["suite_invariants_6_s"] = _median_s(cold(lambda: verify.suite_invariants(6)))
    peak["suite_invariants"] = _peak_rss_mb()
    verify.suite_classes(6)
    rec["suite_classes_6_s"] = _median_s(cold(lambda: verify.suite_classes(6)))
    peak["suite_classes"] = _peak_rss_mb()
    for name in ("iss", "edge_iss"):
        suite = getattr(verify, f"suite_{name}")
        rec[f"suite_{name}_6_s"] = _median_s(cold(lambda: suite(6)))
        peak[f"suite_{name}"] = _peak_rss_mb()
    classes.census(7)
    rec["census_7_s"] = _median_s(cold(lambda: classes.census(7)))
    peak["census_7"] = _peak_rss_mb()

    batched = getattr(invariants, "seidel_char_polys", None)
    single = invariants.seidel_char_poly
    rng = random.Random(SEED)
    poly = {}
    for n, count in POLY_GRAPHS.items():
        graphs = [make_graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5])
                  for _ in range(count)]
        want = [single(g) for g in graphs]
        row = {"graphs": count, "batched_us": None}
        row["batch_of_one_us"] = 1e6 * _median_s(lambda: [single(g) for g in graphs]) / count
        if batched is not None:
            if batched(graphs) != want:
                raise SystemExit(f"batched and single polynomials differ at order {n}")
            row["batched_us"] = 1e6 * _median_s(lambda: batched(graphs)) / count
        poly[str(n)] = row
    peak["polynomial"] = _peak_rss_mb()
    rec["seidel_char_poly_per_graph"] = poly
    rec["peak_rss_mb_after"] = peak
    rec["numpy"] = np.__version__
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default="src", help="directory holding the seidelkit package")
    ap.add_argument("--label", required=True, help="the list in BENCH_sweeps.json this run's record joins")
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
    }
    rec.update(measure())
    try:
        with open(OUT) as f:
            doc = json.load(f)
    except FileNotFoundError:
        doc = {"harness": "benchmarks/bench_sweeps.py", "units": "_s seconds, _us microseconds per graph, rss MiB", "runs": {}}
    doc["runs"].setdefault(args.label, []).append(rec)
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps({args.label: rec}, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
