"""Layer timings for the canonical search and the switch-orbit scan.

Loads the seidelkit package of two checkouts into one process, the
parent's under another module name, and times the same layers on each
in turn, alternating which side goes first, over PAIRS pairs.  Separate processes on a
shared machine spread 20-30% from one another, more than the ~10%
per-layer bound; interleaved in one process, the pairs resolve a few
percent.  `pairs` and `append` hold that protocol for this script and
`bench_sweeps.py` alike.  Both checkouts need the edge-verdict memo
`iss._EDGE_VERDICTS` (a93eae0 or later), the last answer cache that
`clear_answers` empties by hand in a checkout without
`_kernels.clear_caches`.  The layers, each the median of REPEAT calls
per pair, with the search memo cleared before each graph's search or
scan and each generation, so every call times searches, not the answers
for a graph met before; the relabelled complete and empty graphs repeat
the rows of the graph as built:

- `_kernels.run_canon` per graph on 16 fixed seeded uniform random
  graphs (edge probability 1/2) at each of orders 8, 10 and 12, and on
  a symmetric set:
  complete(12), empty(12), K_{6,6}, the cube Q3 and the prism C3 x P2,
  each as built, relabelled, and switched by a random subset and
  relabelled;
- `_kernels.switch_orbit_scan` per graph on 16 fixed seeded random
  graphs at each of orders 6, 8 and 10, and on the same set at order 10:
  complete(10),
  empty(10), K_{5,5}, C10, the cube and the prism.  Each scan includes
  the graph's own search, the `run_canon` call that hands the scan its
  root code and generators;
- a cold `nonisomorphic_graphs(7)`, the search memo and the generation
  table `iso._generated` cleared before each call;
- `switching_class` per graph on seeded random graphs at orders 8 and
  10, reading the representative and the size as a query does, with
  each graph's class scanned before the timing starts and no layer
  emptying the class scans (`iso._CLASS_SCANS`), so each call times
  only what the class does after its scan.  Each call looks the graph's
  code up in the search memo, which the other layers clear, so its
  first call after them searches each graph again; the median of REPEAT
  calls reads the warm ones;
- `switch_set` per call on seeded random graphs of order 10, each with
  a random subset;
- `edge_iss_conditions` per edge, on every edge of seeded random graphs
  at orders 8 and 10, in two variants: cold, the search memo and the
  edge-verdict memo (`iss._EDGE_VERDICTS`) emptied before each graph,
  and repeat, on a relabelled copy of each graph, whose
  edges and canonical form are asked before the timing starts.  The
  other layers empty both memos, so the first repeat call after them
  searches each copy and computes its verdicts again; the median of
  REPEAT calls reads the warm ones, whose keys any labelling of the
  class would fill.

Every output of the timed calls is hashed per side, and the run stops
if the two digests differ, so both sides computed the same codes,
labelings, group orders, orbits, generators and representatives.

`--crossover` times, on this checkout alone, the two ways
`_kernels._search_codes` can search the switched stack of k scan slots
of one random graph of order n, the stack that
`_kernels.switch_orbit_scan` builds: one search per slot, and one
batch; each figure is the median over PAIRS alternating pairs, per
call.  `_SCAN_BATCH_MIN` is the k from which the batch wins.

Run from the repository root:

    python benchmarks/bench_canon.py --parent PARENT_CHECKOUT/src
    python benchmarks/bench_canon.py --crossover

Each run appends its record to the `pairs` or `crossover` list in
benchmarks/BENCH_canon.json.  The `runs` lists hold the records of the
earlier mode, one process per side.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import numpy as np

# order -> number of seeded random graphs per call of a layer
# 16 graphs per layer, 20 pairs of 5 repeats: fewer spread the scan and
# search layers too widely to check a 10% bound
RANDOM_GRAPHS = {8: 16, 10: 16, 12: 16}
SCAN_GRAPHS = {6: 16, 8: 16, 10: 16}
CLASS_GRAPHS = {8: 8, 10: 8}
SWITCH_ORDER = 10
SWITCH_CALLS = 256
EDGE_GRAPHS = {8: 16, 10: 16}
NONISO_ORDER = 7
REPEAT = 5
PAIRS = 20
SEED = 1
CROSSOVER_ORDERS = (4, 6, 8, 10)
CROSSOVER_SLOTS = (2, 4, 6, 8, 12, 16, 24, 32)
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_canon.json")


def _median_s(fn, repeat):
    times = []
    for _ in range(repeat):
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
        raise SystemExit(f"{src} is not inside a git work tree, so a record could not name its commit; "
                         "time a `git clone` of the commit instead") from None
    return head + "-dirty" if dirty else head


def _load(src, name):
    # the seidelkit package under src, imported as the module name
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "seidelkit", "__init__.py"),
        submodule_search_locations=[os.path.join(src, "seidelkit")])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def _random_rows(sk, rng, n):
    return sk.make_graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5]).adj


def _variants(sk, rng, graphs):
    # each graph as built, relabelled, and switched by a random subset and relabelled
    out = {}
    for name, g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        switched = sk.switch_set(g, sk.VertexSet(g.n, rng.randrange(1 << g.n)))
        out[name] = [g.adj, sk.relabel(g, tuple(perm)).adj, sk.relabel(switched, tuple(perm)).adj]
    return out


def _layers(sk):
    # layer name -> (unit scale, per-call divisor, call); one call runs the whole batch
    gen = sk.generators
    rng = random.Random(SEED)
    kernels, iso = sk._kernels, sk.iso
    # the search memo alone: the class scans stay warm for the switching_class layers
    cold = kernels.run_canon.cache_clear
    layers = {}

    def search(rows):
        cold()
        return kernels.run_canon(rows, len(rows))

    def canon(batch):
        return lambda: [search(rows) for rows in batch]

    def scan_one(rows):
        # the graph's own search, then the scan it starts
        cold()
        n = len(rows)
        code, _, _, _, gens = kernels.run_canon(rows, n)
        return kernels.switch_orbit_scan(rows, n, code, gens)

    def scan(batch):
        return lambda: [scan_one(rows) for rows in batch]

    for n, count in RANDOM_GRAPHS.items():
        batch = [_random_rows(sk, rng, n) for _ in range(count)]
        layers[f"run_canon_random_{n}_us"] = (1e6, count, canon(batch))
    sym12 = [("complete12", gen.complete(12)), ("empty12", gen.empty(12)),
             ("k66", gen.complete_bipartite(6, 6)), ("cube", gen.cube_q3()), ("prism", gen.prism_c3p2())]
    for name, batch in _variants(sk, rng, sym12).items():
        layers[f"run_canon_{name}_us"] = (1e6, len(batch), canon(batch))
    for n, count in SCAN_GRAPHS.items():
        batch = [_random_rows(sk, rng, n) for _ in range(count)]
        layers[f"switch_orbit_scan_random_{n}_ms"] = (1e3, count, scan(batch))
    sym10 = [("complete10", gen.complete(10)), ("empty10", gen.empty(10)),
             ("k55", gen.complete_bipartite(5, 5)), ("cycle10", gen.cycle(10)),
             ("cube", gen.cube_q3()), ("prism", gen.prism_c3p2())]
    batch = [rows for rows3 in _variants(sk, rng, sym10).values() for rows in rows3]
    layers["switch_orbit_scan_symmetric_ms"] = (1e3, len(batch), scan(batch))

    def noniso():
        cold()
        iso._generated.cache_clear()
        return [sk.to_graph6(g) for g in iso.nonisomorphic_graphs(NONISO_ORDER)]

    layers[f"nonisomorphic_graphs_{NONISO_ORDER}_cold_s"] = (1.0, 1, noniso)

    def classes(batch):
        return lambda: [(sc.representative, sc.size) for sc in map(sk.switching_class, batch)]

    for n, count in CLASS_GRAPHS.items():
        batch = [sk.Graph(n, _random_rows(sk, rng, n)) for _ in range(count)]
        for g in batch:
            sk.switching_class(g)
        layers[f"switching_class_random_{n}_ms"] = (1e3, count, classes(batch))
    n = SWITCH_ORDER
    calls = [(sk.Graph(n, _random_rows(sk, rng, n)), sk.VertexSet(n, rng.randrange(1 << n)))
             for _ in range(SWITCH_CALLS)]
    layers[f"switch_set_{n}_us"] = (1e6, SWITCH_CALLS, lambda: [sk.switch_set(g, s) for g, s in calls])

    def edges(g):
        return [sk.edge_iss_conditions(g, x, y) for x, y in g.edges()]

    def edges_cold(g):
        cold()
        sk.iss._EDGE_VERDICTS.clear()  # and the edge verdicts, still not the class scans
        return edges(g)

    for n, count in EDGE_GRAPHS.items():
        batch = [sk.Graph(n, _random_rows(sk, rng, n)) for _ in range(count)]
        copies = []
        for g in batch:
            perm = list(range(n))
            rng.shuffle(perm)
            copies.append(sk.relabel(g, tuple(perm)))
            edges(g)
            sk.canonical_form(copies[-1])
        per = sum(g.edge_count() for g in batch)
        layers[f"edge_iss_conditions_random_{n}_cold_us"] = (
            1e6, per, lambda batch=batch: [edges_cold(g) for g in batch])
        layers[f"edge_iss_conditions_random_{n}_repeat_us"] = (
            1e6, per, lambda copies=copies: [edges(h) for h in copies])
    return layers


def clear_answers(sk):
    """Empty every answer cache of the checkout sk: `_kernels.clear_caches()`,
    or in a checkout from before it, its three answer caches by hand."""
    if hasattr(sk._kernels, "clear_caches"):
        sk._kernels.clear_caches()
    else:
        sk._kernels.run_canon.cache_clear()
        sk.iso._CLASS_SCANS.clear()
        sk.iss._EDGE_VERDICTS.clear()


def _digest(layers):
    # one call of each layer, which also fills the caches that stay warm
    h = hashlib.sha256()
    for name, (_, _, call) in layers.items():
        h.update(name.encode() + repr(call()).encode())
    return h.hexdigest()


def _quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def pairs(layers_of, parent_src, change_src, repeat, count=PAIRS):
    """Time layers_of(package) on both checkouts in count alternating pairs.

    Stops if the two sides' outputs differ.  Returns the record common
    to both scripts: commits, pairs, repeat, seed, the outputs digest and
    per layer the times, their quartiles, the change's wins, the ratio
    of the medians and the median of the per-pair ratios.  The machine's
    two speeds can fall unevenly on the two sides' samples and move the
    ratio of the medians by up to 15% on identical code; a pair shares
    one speed, so the per-pair median holds within a few percent.
    """
    commits = {"parent": _commit(parent_src), "change": _commit(change_src)}
    sides = {"parent": layers_of(_load(parent_src, "seidelkit_parent")),
             "change": layers_of(_load(change_src, "seidelkit"))}
    digests = {side: _digest(layers) for side, layers in sides.items()}
    if digests["parent"] != digests["change"]:
        raise SystemExit(f"outputs differ: {digests}")
    times = {side: {name: [] for name in layers} for side, layers in sides.items()}
    for k in range(count):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for name in sides["parent"]:
            for side in order:
                scale, per, call = sides[side][name]
                times[side][name].append(scale * _median_s(call, repeat) / per)
    rec = {"commit": commits,
           "pairs": count, "repeat": repeat, "seed": SEED,
           "outputs_sha256": digests["change"], "layers": {}}
    for name in sides["parent"]:
        p, c = times["parent"][name], times["change"][name]
        rec["layers"][name] = {"parent": p, "change": c,
                               "parent_quartiles": _quartiles(p), "change_quartiles": _quartiles(c),
                               "change_wins": sum(x < y for x, y in zip(c, p)),
                               "ratio": statistics.median(c) / statistics.median(p),
                               "median_pair_ratio": statistics.median(x / y for x, y in zip(c, p))}
    return rec


def append(out, key, rec, units):
    # the machine fields, then rec appended to the key list of the JSON file out
    rec.update({"python": platform.python_version(), "numpy": np.__version__,
                "nproc": os.cpu_count(), "loadavg_1m": os.getloadavg()[0]})
    with open(out) as f:
        doc = json.load(f)
    doc["units"] = units
    doc.setdefault(key, []).append(rec)
    with open(out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps(rec, indent=2, sort_keys=True))


def crossover(src):
    sk = _load(src, "seidelkit")
    kernels = sk._kernels
    cold = kernels.clear_caches

    def search_codes(stack, n):
        cold()
        return kernels._search_codes(stack, n)

    rng = random.Random(SEED)
    default = kernels._SCAN_BATCH_MIN
    rec = {"commit": _commit(src), "pairs": PAIRS, "repeat": REPEAT, "seed": SEED,
           "graphs": 1, "scan_batch_min": default, "ms": {}}
    try:
        for n in CROSSOVER_ORDERS:
            rows = _random_rows(sk, rng, n)
            # slots 1..k, the most a graph of order n has being 2^(n-1) - 1
            for k in CROSSOVER_SLOTS:
                if k >= 1 << (n - 1):
                    continue
                # the switched stack, as _kernels.switch_orbit_scan builds it
                stack = np.array(rows, dtype=np.int64) ^ kernels._switch_pattern(n)[np.arange(1, k + 1) << 1]
                got = {"per_slot": [], "batch": []}
                for _ in range(PAIRS):
                    for way, threshold in (("per_slot", k + 1), ("batch", 0)):
                        kernels._SCAN_BATCH_MIN = threshold
                        got[way].append(1e3 * _median_s(lambda: search_codes(stack, n), REPEAT))
                rec["ms"][f"{n}:{k}"] = {way: statistics.median(ts) for way, ts in got.items()}
    finally:
        kernels._SCAN_BATCH_MIN = default
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default="src", help="directory holding the changed seidelkit package")
    ap.add_argument("--parent", help="directory holding the parent's seidelkit package")
    ap.add_argument("--crossover", action="store_true", help="sweep the batch threshold of _search_codes instead")
    args = ap.parse_args(argv)
    if not args.crossover and not args.parent:
        ap.error("--parent is required unless --crossover is given")
    src = os.path.abspath(args.src)
    units = ("_us microseconds per search, per switch or per edge, _ms milliseconds per scan, "
             "per switching class or per crossover batch, _s seconds per call")
    if args.crossover:
        key, rec = "crossover", crossover(src)
    else:
        key, rec = "pairs", pairs(_layers, os.path.abspath(args.parent), src, REPEAT)
        rec.update({"random_graphs": {str(n): c for n, c in RANDOM_GRAPHS.items()},
                    "scan_graphs": {str(n): c for n, c in SCAN_GRAPHS.items()},
                    "class_graphs": {str(n): c for n, c in CLASS_GRAPHS.items()},
                    "switch_calls": SWITCH_CALLS,
                    "edge_graphs": {str(n): c for n, c in EDGE_GRAPHS.items()}})
    append(OUT, key, rec, units)


if __name__ == "__main__":
    main()
