"""Compare two sets of benchmark result records, metric by metric.

    python3 perfbench/compare.py BASE.json [BASE.json ...] -- NEW.json [NEW.json ...]

Each side is a list of records written by run.py (perfbench/results/*.json)
for one workload.  Prints each side's median and quartiles and the change
in the median.  Refuses (exit 2) when the records mix workloads, smoke
and full runs, or compiled and interpreted kernels: installing numba
switches the measured path without any change to the code.
"""

from __future__ import annotations

import json
import statistics
import sys


def load(paths: list[str]) -> list[dict]:
    return [json.loads(open(p).read()) for p in paths]


def refusal(base: list[dict], new: list[dict]) -> str | None:
    recs = base + new
    for key, what in ((lambda r: r["environment"]["jit_enabled"], "JIT_ENABLED"),
                      (lambda r: r["workload"], "workload"),
                      (lambda r: r["smoke"], "smoke mode")):
        seen = {key(r) for r in recs}
        if len(seen) > 1:
            return f"records differ in {what}: {sorted(map(str, seen))}"
    return None


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, new = load(argv[:cut]), load(argv[cut + 1:])
    if not base or not new:
        print("error: each side needs at least one record", file=sys.stderr)
        return 2
    why = refusal(base, new)
    if why:
        print(f"refusing to compare: {why}", file=sys.stderr)
        return 2
    for name in base[0]["metrics_untraced"]:
        a = summary([r["metrics_untraced"][name] for r in base])
        b = summary([r["metrics_untraced"][name] for r in new])
        change = (b[1] - a[1]) / a[1] if a[1] else float("nan")
        print(f"{name:16s} base {a[1]:12.4f} [{a[0]:.4f}, {a[2]:.4f}]  "
              f"new {b[1]:12.4f} [{b[0]:.4f}, {b[2]:.4f}]  {100 * change:+7.2f} %")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
