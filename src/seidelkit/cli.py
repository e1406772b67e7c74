"""Command-line front end.

Subcommands: switch, iss, census, verify, gen.  Graphs travel as graph6
on the command line or stdin; vertex sets are comma-separated indices.
Exit codes: 0 success, 1 asserted-property violation, 2 usage or parse
error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .classes import census
from .generators import FAMILIES, gen
from .graph6 import Graph6Error, from_graph6, to_graph6
from .graphs import Graph, VertexSet, _check_bound
from .iso import CANONICAL_MAX_ORDER
from .iss import edge_iss_conditions, iss_family, vertex_iss_set
from .switching import switch_set
from .verify import SUITES, run_suites


class UsageError(Exception):
    pass


def _parse_set(n: int, text: str | None) -> VertexSet:
    if not text:
        return VertexSet(n, 0)
    try:
        idx = [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as e:
        raise UsageError(f"bad vertex set {text!r}: {e}") from None
    try:
        return VertexSet.from_indices(n, idx)
    except IndexError as e:
        raise UsageError(str(e)) from None


def _load_graphs(args) -> list[Graph]:
    if args.stdin:
        graphs = []
        for i, ln in enumerate(sys.stdin, 1):
            if ln.strip():
                try:
                    graphs.append(from_graph6(ln.strip()))
                except Graph6Error as e:
                    raise UsageError(f"line {i}: {e}") from None
        return graphs
    if args.graph is None:
        raise UsageError("pass --graph <graph6> or --stdin")
    return [from_graph6(args.graph)]


def _output(path: str | None):
    # the --out file, opened before any work so a bad path fails fast
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e.strerror}") from None


def _mask_repr(n: int, mask: int) -> str:
    bits = format(mask, f"0{n}b")
    idx = ",".join(str(i) for i in range(n) if (mask >> i) & 1)
    return f"{bits} [{idx}]"


def cmd_switch(args) -> int:
    for g in _load_graphs(args):
        s = _parse_set(g.n, args.set)
        print(to_graph6(switch_set(g, s)))
    return 0


def cmd_iss(args) -> int:
    for g in _load_graphs(args):
        if args.mode == "family":
            fam = iss_family(g)
            print(f"graph {to_graph6(g)}: {fam.size} identity switches")
            for m in fam.members:
                print(f"  {_mask_repr(g.n, m.mask)}")
            if fam.closed_under_delta:
                print("closed under symmetric difference: yes")
            else:
                a, b, c = fam.witness
                print("closed under symmetric difference: no "
                      f"(witness {_mask_repr(g.n, a.mask)} ^ {_mask_repr(g.n, b.mask)} "
                      f"-> {_mask_repr(g.n, c.mask)})")
        elif args.mode == "vertices":
            vset = vertex_iss_set(g)
            print(f"graph {to_graph6(g)}:")
            for v in range(g.n):
                print(f"  vertex {v}: {'yes' if v in vset else 'no'}")
        else:
            # refused before the header, as the other modes refuse before theirs
            _check_bound(g.n, CANONICAL_MAX_ORDER)
            print(f"graph {to_graph6(g)}:")
            print("  edge  direct  cond_i  cond_ii  conditions  agree")
            for (x, y) in g.edges():
                r = edge_iss_conditions(g, x, y)
                print(f"  ({x},{y})  {r.direct!s:5}  {r.condition_i!s:5}  "
                      f"{r.condition_ii!s:5}  {r.by_conditions!s:5}  {r.agree!s:5}")
    return 0


def cmd_census(args) -> int:
    with _output(args.out) as out:
        recs = census(args.order)
        for r in recs:
            print(r.to_json(), file=out)
    print(f"order {args.order}: {len(recs)} classes")
    return 0


def cmd_verify(args) -> int:
    if args.max_order < 1:
        raise UsageError(f"--max-order must be at least 1, got {args.max_order}")
    with _output(args.out) as out:
        findings = []
        bad = 0
        for res in run_suites(args.suite, args.max_order):
            print(f"[{res.suite}] {res.checks} checks, "
                  f"{len(res.violations)} violations, {len(res.findings)} findings")
            for line in res.lines:
                print(f"  {line}")
            for v in res.violations:
                print(f"  VIOLATION: {v}")
            bad += len(res.violations)
            findings.extend(res.findings)
        for f in findings:
            print(f.to_json(), file=out)
    print(("FAIL" if bad else "PASS") + f" ({bad} violations, {len(findings)} findings)")
    return 1 if bad else 0


def cmd_gen(args) -> int:
    flags = {}
    if args.a is not None:
        flags["a_complete"] = args.a == "complete"
    if args.b is not None:
        flags["b_complete"] = args.b == "complete"
    try:
        g = gen(args.family, *args.params, **flags)
    except (ValueError, IndexError) as e:
        raise UsageError(str(e)) from None
    print(to_graph6(g))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="seidelkit",
        description="Exact Seidel switching toolkit for small graphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_graph_args(p):
        p.add_argument("--graph", help="graph6 string")
        p.add_argument("--stdin", action="store_true", help="read graph6 lines from stdin")

    p = sub.add_parser("switch", help="switch a graph by a vertex subset")
    add_graph_args(p)
    p.add_argument("--set", default="", help="comma-separated vertex indices (default: empty set)")
    p.set_defaults(fn=cmd_switch)

    p = sub.add_parser("iss", help="identity-switch reports")
    add_graph_args(p)
    p.add_argument("--mode", choices=("family", "vertices", "edges"), default="family")
    p.set_defaults(fn=cmd_iss)

    p = sub.add_parser("census", help="switching-class census for one order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out", help="write JSONL records here instead of stdout")
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all", choices=SUITES + ("all",))
    p.add_argument("--max-order", type=int, default=6, dest="max_order")
    p.add_argument("--out", help="write findings JSONL here instead of stdout")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", help="named graph families as graph6")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("params", type=int, nargs="*")
    p.add_argument("--a", choices=("complete", "empty"), help="half_join block A flavor")
    p.add_argument("--b", choices=("complete", "empty"), help="half_join block B flavor")
    p.set_defaults(fn=cmd_gen)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return args.fn(args)
    except (UsageError, ValueError) as e:
        # Graph6Error is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
