"""Layer timings for the sweeps of `verify` and the exact Seidel polynomial.

Times the same layers on two checkouts in one process, in alternating
pairs, through `bench_canon.pairs`: separate processes on a shared
machine spread 20-30% from one another, more than the ~10% per-layer
bound.  Both checkouts need the search memo `_kernels.run_canon`
(c930242 or later).  The layers, each the median of REPEAT calls per
pair:

- the switching-algebra sweep `algebra_sweep(1..5)`;
- the invariants, classes, iss and edge-iss suites at order 6 and
  `census(7)`, each call started with the search memo and the scan
  cache cleared, so it times searches, not cache hits;
- one `run_suites("all", 6)`, the whole of `verify --suite all`, which
  may fork worker processes, started with the same caches and the
  `nonisomorphic_graphs` cache cleared;
- the exact Seidel polynomial per graph of POLY_GRAPHS seeded random
  graphs at orders 6, 8, 12, 13 and 16, both batched and as a batch of
  one.

Every output of the timed calls (each `algebra_sweep` tuple, each
suite's lines, checks, violations and findings, the census records and
the polynomials) is hashed per side, and the run stops if the two
digests differ.  The batched and single polynomials are compared before
they are timed.

Once per side, a fresh interpreter times one cold
`nonisomorphic_graphs(GENERATION_ORDER)`, the largest order that
generation accepts, and reports its peak RSS (`ru_maxrss`); the run
stops if the two sides' representatives differ.

Run from the repository root:

    python benchmarks/bench_sweeps.py --parent PARENT_CHECKOUT/src

Each run appends its record to the `pairs` list in
benchmarks/BENCH_sweeps.json.  The `runs` lists hold the records of the
earlier mode, one process per side.
"""

from __future__ import annotations

import argparse
import importlib
import os
import random
import subprocess
import sys

from bench_canon import SEED, append, pairs

# order -> number of seeded random graphs timed at that order
POLY_GRAPHS = {6: 256, 8: 256, 12: 64, 13: 32, 16: 16}
GENERATION_ORDER = 8
REPEAT = 5
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_sweeps.json")

# run in a fresh interpreter with the checkout's src and the order as arguments
GENERATION = """
import hashlib, resource, sys, time
sys.path.insert(0, sys.argv[1])
from seidelkit import nonisomorphic_graphs, to_graph6
t = time.perf_counter()
reps = nonisomorphic_graphs(int(sys.argv[2]))
s = time.perf_counter() - t
text = "\\n".join(map(to_graph6, reps))
print(s, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, hashlib.sha256(text.encode()).hexdigest())
"""


def _layers(sk):
    # layer name -> (unit scale, per-call divisor, call); one call runs the whole batch
    kernels, iso = sk._kernels, sk.iso
    verify = importlib.import_module(f"{sk.__name__}.verify")
    # the graphs stay cached, the searches do not: a repeat would otherwise
    # time cache hits wherever the suite's searches fit in the cache
    caches = (kernels.run_canon.cache_clear, iso._switch_orbit_codes.cache_clear)

    def cold(call):
        def run():
            for clear in caches:
                clear()
            return call()

        return run

    def suite(name):
        def run():
            res = getattr(verify, f"suite_{name}")(6)
            return res.lines, res.checks, res.violations, res.findings

        return cold(run)

    layers = {"algebra_sweep_1_5_s": (1.0, 1, lambda: [kernels.algebra_sweep(n) for n in range(1, 6)])}
    for name in ("invariants", "classes", "iss", "edge_iss"):
        layers[f"suite_{name}_6_s"] = (1.0, 1, suite(name))

    def verify_all():
        iso.nonisomorphic_graphs.cache_clear()
        return [(r.suite, r.lines, r.checks, r.violations, r.findings)
                for r in verify.run_suites("all", 6)]

    layers["verify_all_6_s"] = (1.0, 1, cold(verify_all))
    layers["census_7_s"] = (1.0, 1, cold(lambda: sk.classes.census(7)))
    single, batched = sk.invariants.seidel_char_poly, sk.invariants.seidel_char_polys
    rng = random.Random(SEED)
    for n, count in POLY_GRAPHS.items():
        graphs = [sk.make_graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5])
                  for _ in range(count)]
        if batched(graphs) != [single(g) for g in graphs]:
            raise SystemExit(f"batched and single polynomials differ at order {n}")
        layers[f"seidel_char_poly_{n}_batched_us"] = (1e6, count, lambda graphs=graphs: batched(graphs))
        layers[f"seidel_char_poly_{n}_batch_of_one_us"] = (
            1e6, count, lambda graphs=graphs: [single(g) for g in graphs])
    return layers


def _generation(src):
    out = subprocess.run([sys.executable, "-c", GENERATION, src, str(GENERATION_ORDER)],
                         capture_output=True, text=True, check=True).stdout.split()
    return {"cold_s": float(out[0]), "peak_rss_mb": float(out[1]), "sha256": out[2]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default="src", help="directory holding the changed seidelkit package")
    ap.add_argument("--parent", required=True, help="directory holding the parent's seidelkit package")
    args = ap.parse_args(argv)
    srcs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.src)}
    generation = {side: _generation(src) for side, src in srcs.items()}
    if generation["parent"]["sha256"] != generation["change"]["sha256"]:
        raise SystemExit(f"nonisomorphic_graphs({GENERATION_ORDER}) differs: {generation}")
    rec = pairs(_layers, srcs["parent"], srcs["change"], REPEAT)
    rec.update({"poly_graphs": {str(n): c for n, c in POLY_GRAPHS.items()},
                f"nonisomorphic_graphs_{GENERATION_ORDER}": generation})
    append(OUT, "pairs", rec, "_s seconds per call, _us microseconds per graph, rss MiB")


if __name__ == "__main__":
    main()
