"""seidelkit benchmark: one named workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {verify-6,query-mix}
                             --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the program is imported from
src/ and nothing is installed.  Every measured process is a fresh
single-threaded interpreter (BLAS and OpenMP pools pinned to one
thread), started by this script and waited for.

--trace 0 times the workload untraced and prints the end-to-end metrics.
Every time among them is corrected for the machine's speed, which drifts
on the shared machine this was built on (see speed.py).
--trace 1 runs it once traced, and prints the per-layer metrics: calls,
self time and work counts per public function, plus the traced wall time
and the tracing overhead (time spent in the tracer's wrappers, measured
in the same run).  Outputs are checked against pinned digests and
independent oracles outside the timed region; a mismatch counts as a
failed operation and fails the run (exit 1).  --smoke shrinks every
workload (verify max-order 4, 10 queries).  A measured
process still running after CHILD_TIMEOUT_S is stopped and the run ends
with exit 3 and no result line: a timeout, reported apart from a wrong
output.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
the full record, with the environment, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import querymix  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("verify-6", "query-mix")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170.0  # each measured process on its own; one takes 45-80 s
QUERIES = 128  # eight blocks: each pool graph once, each roster member four times
SMOKE_QUERIES = 10
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

UNITS_E2E = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class ChildTimeout(Exception):
    """A measured process ran longer than CHILD_TIMEOUT_S: too slow, not wrong."""


def run_child(argv: list[str], out_path: Path) -> dict:
    """Run one process to completion; wall time, exit code and its own peak RSS."""
    with open(out_path, "w") as out, open(str(out_path) + ".err", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if wall >= CHILD_TIMEOUT_S:
        raise ChildTimeout(f"{' '.join(argv[1:])} was stopped after {wall:.0f} s")
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime, "rc": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0}


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (statistics.quantiles' inclusive method)."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment(args, load_start) -> dict:
    import numpy

    from seidelkit import _kernels

    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jit_enabled": bool(getattr(_kernels, "JIT_ENABLED", False)),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "seed": args.seed,
        "argv": sys.argv,
    }


def measure_setup(work: Path, repeats: int) -> list[dict]:
    """Fresh `import seidelkit.cli` processes, each between two start-up references.

    The reference is a fresh interpreter importing numpy (speed.START_ARGV):
    start-up work of the same kind, outside the program.  Each set-up time
    is scaled by START_REF_S over the mean of the references on either side.
    """
    def reference(k: int) -> float:
        return run_child(speed.START_ARGV, work / f"setup-ref{k}.out")["wall_s"]

    runs = []
    before = reference(0)
    for k in range(repeats):
        r = run_child([sys.executable, "-c", "import seidelkit.cli"], work / f"setup{k}.out")
        after = reference(k + 1)
        r["corrected_s"] = r["wall_s"] * 2.0 * speed.START_REF_S / (before + after)
        r["reference_s"] = (before, after)
        runs.append(r)
        before = after
    return runs


def probe_summary(marks: list[list[float]]) -> dict:
    """How long the speed probe's reference took, over one measured process."""
    samples = [e - s for s, e in marks]
    return {"n": len(samples), "median_s": statistics.median(samples),
            "min_s": min(samples), "max_s": max(samples)}


class Outcome:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# ---------------------------------------------------------------- verify-6


def verify_args(smoke: bool) -> list[str]:
    return ["verify", "--suite", "all", "--max-order", "4" if smoke else "6"]


def verify_timed(smoke, seconds, work, outcome):
    """Repeat the CLI in fresh interpreters until `seconds` have passed (at least once).

    Each runs under the speed probe (speed.py), which reports its time
    from the start of `import seidelkit.cli` to the CLI's return,
    corrected for the machine's speed.
    """
    runs = []
    t0 = time.perf_counter()
    while not runs or time.perf_counter() - t0 < seconds:
        out = work / f"cli{len(runs)}.out"
        probe_out = work / f"cli{len(runs)}.probe.json"
        r = run_child([sys.executable, str(HERE / "speed.py"), str(probe_out), "--"]
                      + verify_args(smoke), out)
        if r["rc"] != 0:
            outcome.op(False, f"run {len(runs)}: probe worker exit {r['rc']}")
            return None, {}
        meta = json.loads(probe_out.read_text())
        problem = checks.check_verify_output(smoke, meta["rc"], out.read_text())
        outcome.op(problem is None, f"run {len(runs)}: {problem}")
        r.update(corrected_s=meta["corrected_s"], raw_s=meta["raw_s"],
                 probe=probe_summary(meta["probe_marks"]))
        runs.append(r)
    walls = [r["corrected_s"] for r in runs]
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
        # one query is one CLI invocation here, so these restate wall_s
        "query_p50_ms": 1000.0 * quantile(walls, 0.5),
        "query_p90_ms": 1000.0 * quantile(walls, 0.9),
        "queries_per_s": len(runs) / sum(walls),
    }
    detail = {"invocations": runs}
    return metrics, detail


def verify_traced(smoke, work, outcome):
    prefix = work / "traced"
    argv = [sys.executable, str(HERE / "tracing.py"), str(prefix), "--"] + verify_args(smoke)
    r = run_child(argv, work / "traced.out")
    meta = json.loads(Path(str(prefix) + ".json").read_text()) if r["rc"] == 0 else {"rc": None}
    stdout = Path(str(prefix) + ".stdout").read_text() if r["rc"] == 0 else ""
    problem = None if r["rc"] == 0 else f"traced worker exit {r['rc']}"
    problem = problem or checks.check_verify_output(smoke, meta["rc"], stdout)
    outcome.op(problem is None, f"traced run: {problem}")
    npz = str(prefix) + ".npz" if r["rc"] == 0 else None
    return r["wall_s"], meta.get("overhead_s", 0.0), npz, meta.get("counts", {}), None


# ---------------------------------------------------------------- query-mix


def query_file(seed: int, smoke: bool, seconds: float, work: Path) -> tuple[Path, list[dict]]:
    count = SMOKE_QUERIES if smoke else QUERIES
    # enough whole blocks for `seconds` at one query per 20 ms, far faster than any run
    blocks = max(math.ceil(count / querymix.BLOCK), math.ceil(seconds / 0.02 / querymix.BLOCK))
    queries = querymix.generate(seed, blocks)
    path = work / "queries.jsonl"
    path.write_text("".join(json.dumps(q) + "\n" for q in queries))
    return path, queries


def querymix_run(path, count, seconds, work, tag, trace_prefix=None):
    out = work / f"{tag}.json"
    argv = [sys.executable, str(HERE / "querymix.py"), str(path), str(out), "--count", str(count),
            "--seconds", str(seconds)]
    if trace_prefix:
        argv += ["--trace", str(trace_prefix)]
    r = run_child(argv, work / f"{tag}.out")
    data = json.loads(out.read_text()) if r["rc"] == 0 else None
    return r, data


def querymix_timed(seed, smoke, seconds, work, outcome):
    count = SMOKE_QUERIES if smoke else QUERIES
    path, queries = query_file(seed, smoke, seconds, work)
    r, data = querymix_run(path, count, seconds, work, "untraced")
    if data is None:
        outcome.op(False, f"query-mix client exit {r['rc']}")
        return None, {}
    recs = data["records"]
    checks.check_queries(queries[: len(recs)], recs, outcome)
    lat = [1000.0 * x["latency_s"] for x in recs]
    metrics = {
        "wall_s": data["fixed_s"],
        "peak_rss_mb": r["rss_mb"],
        "query_p50_ms": quantile(lat, 0.5),
        "query_p90_ms": quantile(lat, 0.9),
        "queries_per_s": len(recs) / data["total_s"],
    }
    detail = {"process_wall_s": r["wall_s"], "process_cpu_s": r["cpu_s"], "queries": len(recs),
              "raw_total_s": data["raw_total_s"], "probe": probe_summary(data["probe_marks"]),
              "by_class": querymix_groups(queries, recs, "class"),
              "by_kind": querymix_groups(queries, recs, "kind"),
              "by_family": querymix_groups(queries, recs, "family"),
              "per_query": [{"class": q["class"], "family": q["family"], "order": q["order"],
                             "aut": (x["answer"] or {}).get("aut"), "latency_ms": ms}
                            for q, x, ms in zip(queries, recs, lat)]}
    return metrics, detail


def querymix_groups(queries, recs, key) -> dict:
    groups: dict[str, list[float]] = {}
    for q, x in zip(queries, recs):
        groups.setdefault(q[key], []).append(1000.0 * x["latency_s"])
    return {g: {"n": len(v), "p50_ms": quantile(v, 0.5), "p90_ms": quantile(v, 0.9)}
            for g, v in sorted(groups.items())}


def querymix_traced(seed, smoke, work, outcome):
    count = SMOKE_QUERIES if smoke else QUERIES
    path, queries = query_file(seed, smoke, 0.0, work)
    prefix = work / "traced"
    r, data = querymix_run(path, count, 0.0, work, "traced", trace_prefix=prefix)
    if data is None:
        outcome.op(False, f"traced query-mix client exit {r['rc']}")
        return r["wall_s"], 0.0, None, {}, None
    recs = data["records"]
    checks.check_queries(queries[: len(recs)], recs, outcome)
    classes = [q["class"] for q in queries[: len(recs)]]
    return data["total_s"], data["overhead_s"], str(prefix) + ".npz", data["counts"], classes


# ---------------------------------------------------------------- per-layer metrics


def layer_metrics(npz: str | None, counts: dict, classes: list[str] | None) -> tuple[dict, list]:
    """Per-layer figures from one traced run; a layer that did not run reads 0."""
    import numpy as np

    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    incl: dict[str, float] = {}
    per_class = {"random": 0.0, "symmetric": 0.0}
    if npz is not None:
        d = np.load(npz)
        names = [str(x) for x in d["names"]]
        st = tracing.self_times(d["parent"], d["start"], d["end"])
        dur = d["end"] - d["start"]
        k = len(names)
        c = np.bincount(d["name"], minlength=k)
        s = np.bincount(d["name"], weights=st, minlength=k)
        w = np.bincount(d["name"], weights=dur, minlength=k)
        for i, nm in enumerate(names):
            calls[nm], selfs[nm], incl[nm] = int(c[i]), float(s[i]), float(w[i])
        if classes is not None:
            canon = np.isin(d["name"], [names.index(x) for x in tracing.CANON_SEARCH if x in names])
            for cls in per_class:
                runs = [i for i, x in enumerate(classes) if x == cls]
                per_class[cls] = float(st[canon & np.isin(d["run"], runs)].sum())
    out = {}
    for fn in sorted(set(calls) | {m["name"].rsplit(".", 1)[0] for m in BENCH["per_layer"]}):
        out[fn + ".calls"] = calls.get(fn, 0)
        out[fn + ".self_s"] = selfs.get(fn, 0.0)
    for key in ("kernels.census_scan.searches", "kernels.switch_orbit_scan.searches",
                "kernels.run_canon.tied_leaves", "kernels.algebra_sweep.checks",
                "iso.automorphisms.elements"):
        out[key] = counts.get(key, 0)
    for fn in ("kernels.switch_orbit_scan", "iso.canonical_form"):
        n = calls.get(fn, 0)
        out[fn + ".repeat_ratio"] = counts.get(fn + ".repeats", 0) / n if n else 0.0
    from seidelkit.verify import SUITES

    for suite in SUITES:
        fn = "verify.suite_" + suite.replace("-", "_")
        out[f"verify.{suite}.wall_s"] = incl.get(fn, 0.0)
        out[f"verify.{suite}.checks"] = counts.get(fn + ".checks", 0)
    out["querymix.random.canon_self_s"] = per_class["random"]
    out["querymix.symmetric.canon_self_s"] = per_class["symmetric"]
    table = sorted(((fn, calls[fn], selfs[fn]) for fn in calls), key=lambda t: -t[2])
    return out, table


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("repeat_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    try:
        return run(argv)
    except ChildTimeout as e:
        # slowness is its own verdict: no result line, and not a wrong output
        print(f"TIMEOUT: {e}; each measured process may take {CHILD_TIMEOUT_S:.0f} s",
              file=sys.stderr)
        return 3


def untraced(args, work, outcome):
    """End-to-end metrics: set-up time, then the workload, speed-corrected."""
    setup = measure_setup(work, 1 if args.smoke else SETUP_REPEATS)
    if any(r["rc"] != 0 for r in setup):
        outcome.op(False, "`import seidelkit.cli` failed; see " + str(work))
        return None, None
    if args.workload == "query-mix":
        metrics, detail = querymix_timed(args.seed, args.smoke, args.seconds, work, outcome)
    else:
        metrics, detail = verify_timed(args.smoke, args.seconds, work, outcome)
        checks.check_census(outcome)
    if metrics is None:
        return None, None
    metrics["setup_s"] = statistics.median(r["corrected_s"] for r in setup)
    metrics["success_rate"] = 1.0 - len(outcome.failures) / outcome.attempted
    record = {"workload": args.workload, "smoke": args.smoke, "metrics_untraced": metrics,
              "setup_walls_s": [r["wall_s"] for r in setup],
              "setup_corrected_s": [r["corrected_s"] for r in setup], "detail": detail}
    return record, {k: {"value": v, "unit": UNITS_E2E[k]} for k, v in metrics.items()}


def traced(args, work, outcome):
    """Per-layer metrics from one traced run, with raw times."""
    if args.workload == "query-mix":
        wall, overhead, npz, counts, classes = querymix_traced(args.seed, args.smoke, work, outcome)
    else:
        wall, overhead, npz, counts, classes = verify_traced(args.smoke, work, outcome)
        checks.check_census(outcome)
    if npz is None:
        return None, None
    per_layer, table = layer_metrics(npz, counts, classes)
    per_layer["trace.wall_s"] = wall
    per_layer["trace.overhead_s"] = overhead
    print(f"traced run: {wall:.3f} s, of which {overhead:.3f} s in the tracer's wrappers")
    print("The program is single-threaded and nothing contends, so a layer's gain on this "
          "workload is at most its share of the traced wall time below.")
    for fn, n, s in table:
        if n:
            print(f"  {fn:42s} {n:9d} calls {s:10.4f} s self {100 * s / wall:6.2f} %")
    record = {"workload": args.workload, "smoke": args.smoke, "per_layer": per_layer}
    return record, {k: {"value": v, "unit": unit_of(k)} for k, v in per_layer.items()}


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description="seidelkit benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the harness tests")
    args = ap.parse_args(argv)

    if not (SRC / "seidelkit" / "cli.py").is_file():
        print(f"error: no seidelkit source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_start = list(os.getloadavg())
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    work = RESULTS / label
    work.mkdir(parents=True, exist_ok=True)

    outcome = Outcome()
    if args.trace:
        record, reported = traced(args, work, outcome)
    else:
        record, reported = untraced(args, work, outcome)
    if record is None:
        print("error: workload failed before producing metrics: " + "; ".join(outcome.failures),
              file=sys.stderr)
        return 1
    wanted = BENCH["per_layer"] if args.trace else BENCH["end_to_end"]
    reported = {m["name"]: reported[m["name"]] for m in wanted}

    record["environment"] = environment(args, load_start)
    record["failures"] = outcome.failures
    (RESULTS / f"{label}.json").write_text(json.dumps(record, indent=1))
    for f in outcome.failures:
        print("FAILED: " + f)
    print(f"result record: {RESULTS / (label + '.json')}")
    correct = not outcome.failures
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": len(outcome.failures), "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
