"""Spans around the calls into seidelkit's public functions.

Tracing lives in the benchmark, not in the program: `install` wraps every
public function of the layer modules and rebinds the wrapper in every
seidelkit module that imported the function by name (`iss`, `verify` and
`classes` bind their imports at load time, so patching the defining
module alone would miss their calls).

Each call records one span: name, start, end, parent span and run id.
Spans stay in memory, in flat arrays, until `Tracer.save` writes them.
A span's self time is its duration minus the time its child spans
cover.  Counts are derived from arguments and return values, so they
repeat exactly from run to run.  The tracer's own cost is measured in
the same run: each wrapper adds the time it spends outside the wrapped
call to `Tracer.overhead`.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# module file name -> layer name used in metric names
LAYERS = {
    "graph6": "graph6",
    "switching": "switching",
    "_kernels": "kernels",
    "iso": "iso",
    "invariants": "invariants",
    "iss": "iss",
    "classes": "classes",
    "verify": "verify",
}

# the functions whose time is canonical search (per-class query-mix figure)
CANON_SEARCH = ("kernels.run_canon", "kernels.switch_orbit_scan", "kernels.census_scan")
# functions with counts beyond calls (see Tracer._count), plus every verify suite
COUNTED = CANON_SEARCH + ("kernels.algebra_sweep", "iso.canonical_form", "iso.automorphisms")


class Tracer:
    """In-memory span store plus the counters derived at span boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.run_id = 0
        self.counts: dict[str, int] = {}
        self._seen: dict[str, set] = {}
        self.overhead = 0.0  # time spent in the wrappers outside the wrapped calls

    def _add(self, key: str, k: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def _repeat(self, key: str, item) -> None:
        seen = self._seen.setdefault(key, set())
        if item in seen:
            self._add(key + ".repeats", 1)
        else:
            seen.add(item)

    def _count(self, name: str, args, result) -> None:
        # argument- and result-derived work counts, one branch per counted function
        if name == "kernels.census_scan":
            n = int(args[0])
            self._add(name + ".searches", 1 << (n * (n - 1) // 2))
        elif name == "kernels.switch_orbit_scan":
            self._add(name + ".searches", 1 << (int(args[1]) - 1))
            self._repeat(name, (int(args[1]), np.asarray(args[0]).tobytes()))
        elif name == "kernels.run_canon":
            self._add(name + ".tied_leaves", int(result[2]))
        elif name == "kernels.algebra_sweep":
            self._add(name + ".checks", int(result[1]))
        elif name == "iso.canonical_form":
            self._repeat(name, args[0])
        elif name == "iso.automorphisms":
            self._add(name + ".elements", result.order)
        elif name.startswith("verify.suite_"):
            self._add(name + ".checks", result.checks)

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        counted = name in COUNTED or name.startswith("verify.suite_")
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = clock()
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.run.append(self.run_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if counted:
                self._count(name, args, result)
            self.overhead += clock() - t_in - (t1 - t0)
            return result

        return traced

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=np.array(self.name, dtype=np.int32), parent=np.array(self.parent, dtype=np.int32),
                 run=np.array(self.run, dtype=np.int32), start=np.array(self.start, dtype=np.float64),
                 end=np.array(self.end, dtype=np.float64))


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per-span duration minus the time covered by its children.

    Spans come from one thread, so a span's children are disjoint and
    lie inside it; summing their durations gives the covered time.
    """
    dur = end - start
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - child


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer module, wherever they are bound."""
    import seidelkit.cli  # noqa: F401  (loads every module that binds imports)

    pkg = "seidelkit."
    wrappers: dict[int, tuple[object, object]] = {}
    for mod_name, layer in LAYERS.items():
        mod = sys.modules[pkg + mod_name]
        for attr, val in list(vars(mod).items()):
            if attr.startswith("_") or isinstance(val, type) or not callable(val):
                continue
            if getattr(val, "__module__", None) != mod.__name__:
                continue
            wrappers[id(val)] = (val, tracer.wrap(f"{layer}.{attr}", val))
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "seidelkit" or mod_name.startswith(pkg)):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
    suites = sys.modules[pkg + "verify"]._SUITE_FNS
    for key, fn in list(suites.items()):
        suites[key] = wrappers[id(fn)][1]


def main(argv: list[str]) -> int:
    """Traced CLI run: `python3 perfbench/tracing.py PREFIX -- seidelkit-args...`.

    Calls seidelkit.cli.main in this process with its stdout sent to
    PREFIX.stdout, then writes the spans to PREFIX.npz and the return
    code, counts and tracing overhead to PREFIX.json.
    """
    import contextlib
    import json

    prefix, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from seidelkit import cli

    with open(prefix + ".stdout", "w") as out, contextlib.redirect_stdout(out):
        rc = cli.main(cli_argv)
    tracer.save(prefix + ".npz")
    with open(prefix + ".json", "w") as fh:
        json.dump({"rc": rc, "counts": tracer.counts, "overhead_s": tracer.overhead}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
