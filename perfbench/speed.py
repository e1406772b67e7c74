"""Machine-speed probe: a fixed reference computation timed beside the workload.

The benchmark runs on a shared virtual machine whose speed for plain
Python code swings by a quarter from one second to the next and drifts
by up to a half between quarter-hours, whatever the benchmark does.
Wall and CPU time both follow those swings, so no length of run
averages them out.

`Probe` samples the machine's speed inside the measured process: on
entry, every PROBE_EVERY_S of wall time (from a SIGALRM handler) and on
exit it runs `reference`, a fixed piece of Python and numpy-scalar code
shaped like seidelkit's fallback kernels, and records when it ran.
`Probe.corrected(a, b)` is the workload's time in [a, b] with the probe's
own time taken out and each stretch between two probes scaled by
REF_S over those two probes' mean: the time the workload would have
taken on a machine that runs the reference in REF_S.  The reference
lives here, not in the program, so a change to seidelkit moves the
workload's time and not the scale.  Set-up time is corrected the same
way, against a start-up reference (START_ARGV) run just before and just
after each measured start-up.

Run as a script, this module runs one seidelkit CLI command under the probe:
    python3 perfbench/speed.py OUT.json -- verify --suite all --max-order 6
with seidelkit importable; the command's stdout is this process's stdout.
"""

from __future__ import annotations

import json
import signal
import sys
import time

import numpy as np

PROBE_EVERY_S = 0.5
REF_ROUNDS = 2000
# the reference's typical time on the 2-vCPU machine the benchmark was built on;
# it only sets the scale, so that corrected figures read close to that machine's seconds
REF_S = 0.02
# start-up reference for set-up time: a fresh interpreter importing numpy, which
# seidelkit imports too; START_REF_S is its typical time on that machine
START_ARGV = [sys.executable, "-c", "import numpy"]
START_REF_S = 0.18


def reference() -> int:
    """Fixed work: bit-row refinement on small int64 arrays, as the kernels do it."""
    n = 10
    rows = np.zeros(n, np.int64)
    lab = np.arange(n, dtype=np.int64)
    acc = 0
    seen: dict[int, int] = {}
    for k in range(REF_ROUNDS):
        i = k % n
        rows[i] ^= np.int64((k * 2654435761) & 0x3FF)
        m = np.int64(0)
        for j in range(n):
            if (rows[lab[j]] >> i) & 1:
                m |= np.int64(1) << j
        key = int(m)
        seen[key] = seen.get(key, 0) + 1
        acc += key.bit_count()
        if k % n == n - 1:
            lab = lab[::-1].copy()
    return acc + len(seen)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


class Probe:
    """Runs `reference` on entry, every PROBE_EVERY_S, and on exit (main thread only)."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (start, end) of each reference run

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        reference()
        self.marks.append((t0, time.perf_counter()))

    def __enter__(self) -> "Probe":
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    @property
    def started(self) -> float:
        """End of the entry sample: the first instant the workload can use."""
        return self.marks[0][1]

    def spent(self, a: float, b: float) -> float:
        """Probe time inside [a, b]."""
        return sum(max(0.0, min(b, e) - max(a, s)) for s, e in self.marks)

    def corrected(self, a: float, b: float) -> float:
        """Workload time in [a, b], probe time excluded, at reference speed."""
        total = 0.0
        prev_end, prev_d = -float("inf"), self.marks[0][1] - self.marks[0][0]
        for s, e in self.marks + [(float("inf"), None)]:
            d = prev_d if e is None else e - s
            lo, hi = max(a, prev_end), min(b, s)
            if hi > lo:
                total += (hi - lo) * 2.0 * REF_S / (prev_d + d)
            prev_end, prev_d = e, d
        return total


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[2:]
    with Probe() as probe:
        from seidelkit import cli

        rc = cli.main(cli_argv)
        t_end = time.perf_counter()
    sys.stdout.flush()
    t0 = probe.started
    with open(out_path, "w") as fh:
        json.dump({"rc": rc, "corrected_s": probe.corrected(t0, t_end),
                   "raw_s": t_end - t0 - probe.spent(t0, t_end), "window": (t0, t_end),
                   "probe_marks": probe.marks}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
