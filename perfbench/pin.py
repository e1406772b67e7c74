"""Write golden.json: the pinned outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/pin.py

Run from the repository root on a commit whose outputs were reviewed:
the census to order 5, `verify --max-order 4` and `6` with their 8 and
172 findings, and the label-free answer summary of every query-mix
shape (the 96 pool graphs and the 8 roster members).  Every query-mix
query relabels one of these shapes, so the pins cover every seed.  A
change that alters any of these outputs fails the benchmark until this
file is regenerated on purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import querymix  # noqa: E402


def main() -> int:
    pins = {"census": {}, "verify": {}, "shapes": {}}
    for order in range(1, checks.CENSUS_ORDERS + 1):
        rc, out = checks.cli_stdout(["census", "--order", str(order)])
        if rc != 0:
            raise SystemExit(f"census --order {order} failed")
        pins["census"][str(order)] = checks.sha(out)
    for order in (4, 6):
        rc, out = checks.cli_stdout(["verify", "--suite", "all", "--max-order", str(order)])
        if rc != 0 or out.splitlines()[-1] != f"PASS (0 violations, {checks.FINDINGS[order]} findings)":
            raise SystemExit(f"verify --max-order {order} did not pass with the published findings")
        pins["verify"][str(order)] = checks.sha(out)
    for shape, (n, edges) in querymix.shapes().items():
        g6 = querymix.edges_g6(n, edges)
        ans = querymix.answer(g6)
        problem = checks.oracle_problem(n, checks.decode_g6(g6)[1], ans)
        if problem:
            raise SystemExit(f"{shape}: {problem}")
        pins["shapes"][shape] = checks.answer_summary(ans)
    checks.GOLDEN_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
