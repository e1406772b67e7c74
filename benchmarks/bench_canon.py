"""Layer timings for the canonical search and the switch-orbit scan.

Loads the seidelkit package of two checkouts into one process, the
parent's under another module name, and times the same layers on each
in turn, alternating which side goes first.  Separate processes on a
shared machine spread 20-30% from one another, more than the ~10%
per-layer bound; interleaved in one process, the pairs resolve a few
percent.  `pairs` and `append` hold that protocol for this script and
`bench_sweeps.py` alike.  Both checkouts need the search memo
`_kernels.run_canon` (c930242 or later).  The layers, each the median
of REPEAT calls per pair, with the memo cleared before each graph's
search or scan and each generation, so every call times searches, not
the answers for a graph met before; the relabelled complete and empty
graphs repeat the rows of the graph as built:

- `_kernels.run_canon` per graph on seeded uniform random graphs (edge
  probability 1/2) at orders 8, 10 and 12, and on a symmetric set:
  complete(12), empty(12), K_{6,6}, the cube Q3 and the prism C3 x P2,
  each as built, relabelled, and switched by a random subset and
  relabelled;
- `_kernels.switch_orbit_scan` per graph on seeded random graphs at
  orders 6, 8 and 10, and on the same set at order 10: complete(10),
  empty(10), K_{5,5}, C10, the cube and the prism.  Each scan includes
  the graph's own search, the `run_canon` call that hands the scan its
  root code and generators;
- a cold `nonisomorphic_graphs(7)`, its cache and the search caches
  cleared before each call;
- `switching_class` per graph on seeded random graphs at orders 8 and
  10, reading the representative and the size as a query does, with the
  scan warm: the 16 graphs of both layers fit the 16-entry
  `_switch_orbit_codes` cache, and no other layer calls it, so each
  call times only what the class does after its scan;
- `switch_set` per call on seeded random graphs of order 10, each with
  a random subset.

Every output of the timed calls is hashed per side, and the run stops
if the two digests differ, so both sides computed the same codes,
labelings, group orders, orbits, generators and representatives.

`--crossover` times, on this checkout alone, the two ways a scan can
search k slots of a random graph of order n: one search per slot, and
one batch; each figure is the median over PAIRS alternating pairs, per
graph of CROSSOVER_GRAPHS.  The scan's `_SCAN_BATCH_MIN` is the k from
which the batch wins.

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
RANDOM_GRAPHS = {8: 64, 10: 64, 12: 32}
SCAN_GRAPHS = {6: 16, 8: 8, 10: 4}
CLASS_GRAPHS = {8: 8, 10: 8}
SWITCH_ORDER = 10
SWITCH_CALLS = 256
NONISO_ORDER = 7
REPEAT = 3
PAIRS = 10
SEED = 1
CROSSOVER_ORDERS = (4, 6, 8, 10)
CROSSOVER_GRAPHS = 8
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
        return None
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
        iso.nonisomorphic_graphs.cache_clear()
        return [sk.to_graph6(g) for g in iso.nonisomorphic_graphs(NONISO_ORDER)]

    layers[f"nonisomorphic_graphs_{NONISO_ORDER}_cold_s"] = (1.0, 1, noniso)

    def classes(batch):
        return lambda: [(sc.representative, sc.size) for sc in map(sk.switching_class, batch)]

    for n, count in CLASS_GRAPHS.items():
        batch = [sk.Graph(n, _random_rows(sk, rng, n)) for _ in range(count)]
        for g in batch:
            iso._switch_orbit_codes(g)
        layers[f"switching_class_random_{n}_ms"] = (1e3, count, classes(batch))
    n = SWITCH_ORDER
    calls = [(sk.Graph(n, _random_rows(sk, rng, n)), sk.VertexSet(n, rng.randrange(1 << n)))
             for _ in range(SWITCH_CALLS)]
    layers[f"switch_set_{n}_us"] = (1e6, SWITCH_CALLS, lambda: [sk.switch_set(g, s) for g, s in calls])
    return layers


def _digest(layers):
    # one call of each layer, which also fills the caches that stay warm
    h = hashlib.sha256()
    for name, (_, _, call) in layers.items():
        h.update(name.encode() + repr(call()).encode())
    return h.hexdigest()


def _quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def pairs(layers_of, parent_src, change_src, repeat):
    """Time layers_of(package) on both checkouts in PAIRS alternating pairs.

    Stops if the two sides' outputs differ.  Returns the record common
    to both scripts: commits, pairs, repeat, seed, the outputs digest and
    per layer the times, their quartiles, the change's wins and the
    ratio of the medians.
    """
    sides = {"parent": layers_of(_load(parent_src, "seidelkit_parent")),
             "change": layers_of(_load(change_src, "seidelkit"))}
    digests = {side: _digest(layers) for side, layers in sides.items()}
    if digests["parent"] != digests["change"]:
        raise SystemExit(f"outputs differ: {digests}")
    times = {side: {name: [] for name in layers} for side, layers in sides.items()}
    for k in range(PAIRS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for name in sides["parent"]:
            for side in order:
                scale, per, call = sides[side][name]
                times[side][name].append(scale * _median_s(call, repeat) / per)
    rec = {"commit": {"parent": _commit(parent_src), "change": _commit(change_src)},
           "pairs": PAIRS, "repeat": repeat, "seed": SEED,
           "outputs_sha256": digests["change"], "layers": {}}
    for name in sides["parent"]:
        p, c = times["parent"][name], times["change"][name]
        rec["layers"][name] = {"parent": p, "change": c,
                               "parent_quartiles": _quartiles(p), "change_quartiles": _quartiles(c),
                               "change_wins": sum(x < y for x, y in zip(c, p)),
                               "ratio": statistics.median(c) / statistics.median(p)}
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
    cold = kernels.run_canon.cache_clear

    def slot_codes(rows, n, slots):
        cold()
        return kernels._slot_codes(rows, n, slots)

    rng = random.Random(SEED)
    default = kernels._SCAN_BATCH_MIN
    rec = {"commit": _commit(src), "repeat": REPEAT, "seed": SEED,
           "scan_batch_min": default, "ms": {}}
    try:
        for n in CROSSOVER_ORDERS:
            batch = [_random_rows(sk, rng, n) for _ in range(CROSSOVER_GRAPHS)]
            for k in CROSSOVER_SLOTS:
                if k >= 1 << (n - 1):
                    continue
                slots = list(range(1, k + 1))
                got = {"per_slot": [], "batch": []}
                for _ in range(PAIRS):
                    for way, threshold in (("per_slot", k + 1), ("batch", 0)):
                        kernels._SCAN_BATCH_MIN = threshold
                        got[way].append(1e3 * _median_s(
                            lambda: [slot_codes(rows, n, slots) for rows in batch], REPEAT) / len(batch))
                rec["ms"][f"{n}:{k}"] = {way: statistics.median(ts) for way, ts in got.items()}
    finally:
        kernels._SCAN_BATCH_MIN = default
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default="src", help="directory holding the changed seidelkit package")
    ap.add_argument("--parent", help="directory holding the parent's seidelkit package")
    ap.add_argument("--crossover", action="store_true", help="sweep the scan's batch threshold instead")
    args = ap.parse_args(argv)
    if not args.crossover and not args.parent:
        ap.error("--parent is required unless --crossover is given")
    src = os.path.abspath(args.src)
    units = ("_us microseconds per search or per switch, _ms milliseconds per scan, "
             "per switching class or per crossover batch, _s seconds per call")
    if args.crossover:
        key, rec = "crossover", crossover(src)
    else:
        key, rec = "pairs", pairs(_layers, os.path.abspath(args.parent), src, REPEAT)
        rec.update({"random_graphs": {str(n): c for n, c in RANDOM_GRAPHS.items()},
                    "scan_graphs": {str(n): c for n, c in SCAN_GRAPHS.items()},
                    "class_graphs": {str(n): c for n, c in CLASS_GRAPHS.items()},
                    "switch_calls": SWITCH_CALLS})
    append(OUT, key, rec, units)


if __name__ == "__main__":
    main()
