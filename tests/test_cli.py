import hashlib
import io
import json
import sys

import pytest

from seidelkit import cli
from seidelkit.cli import main


def run_cli(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr, sys.stdin
    sys.stdout, sys.stderr = out, err
    sys.stdin = io.StringIO(stdin_text)
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stderr, sys.stdin = old
    return code, out.getvalue(), err.getvalue()


def test_gen_fixtures():
    code, out, _ = run_cli(["gen", "paw"])
    assert code == 0 and out.strip() == "Cx"
    code, out, _ = run_cli(["gen", "tadpole", "3", "4"])
    assert code == 0 and out.strip() == "ExCG"
    code, out, _ = run_cli(["gen", "half_join", "2", "3", "--a", "empty", "--b", "empty"])
    assert code == 0 and out.strip() == "DQ_"
    code, out, _ = run_cli(["gen", "path", "4"])
    assert code == 0 and out.strip() == "Ch"


def test_gen_errors_exit_two():
    code, _, err = run_cli(["gen", "cycle", "2"])
    assert code == 2 and err
    code, _, err = run_cli(["gen", "half_join", "3", "3"])
    assert code == 2 and err
    code, _, err = run_cli(["gen", "path"])
    assert code == 2


def test_switch_fixture():
    code, out, _ = run_cli(["switch", "--graph", "Cx", "--set", "0"])
    assert code == 0 and out.strip() == "CL"
    # empty set leaves the graph alone
    code, out, _ = run_cli(["switch", "--graph", "Cx"])
    assert code == 0 and out.strip() == "Cx"


def test_switch_stdin_lines():
    code, out, _ = run_cli(["switch", "--stdin", "--set", "0"], stdin_text="Cx\nCL\n")
    assert code == 0
    assert out.split() == ["CL", "Cx"]


def test_stdin_error_names_the_bad_line():
    # blank lines still count toward the line number
    code, out, err = run_cli(["switch", "--stdin"], stdin_text="Cx\n\n!!\nCL\n")
    assert code == 2 and out == ""
    assert err.startswith("error: line 3: ")


def test_switch_rejects_garbage():
    code, _, err = run_cli(["switch", "--graph", "!!", "--set", "0"])
    assert code == 2 and err
    code, _, err = run_cli(["switch", "--graph", "Cx", "--set", "0,9"])
    assert code == 2 and err
    code, _, err = run_cli(["switch", "--graph", "Cx", "--set", "zero"])
    assert code == 2 and err


def test_iss_family_mode():
    code, out, _ = run_cli(["iss", "--graph", "Bw", "--mode", "family"])
    assert code == 0
    assert "2 identity switches" in out
    assert "000 []" in out
    assert "111 [0,1,2]" in out
    assert "closed under symmetric difference: yes" in out


def test_iss_family_reports_witness():
    # three-vertex path family is not closed
    code, out, _ = run_cli(["iss", "--graph", "Bo", "--mode", "family"])
    assert code == 0
    assert "closed under symmetric difference: no" in out


def test_iss_vertices_mode():
    code, out, _ = run_cli(["iss", "--graph", "Cx", "--mode", "vertices"])
    assert code == 0
    for v in range(4):
        assert f"vertex {v}: no" in out


def test_iss_edges_mode():
    code, out, _ = run_cli(["iss", "--graph", "Cx", "--mode", "edges"])
    assert code == 0
    assert "direct" in out and "cond_i" in out
    assert "(0,1)" in out and "(2,3)" in out


def test_iss_needs_a_graph_or_stdin():
    code, out, err = run_cli(["iss"])
    assert code == 2 and out == ""
    assert err == "error: pass --graph <graph6> or --stdin\n"


def test_iss_edges_mode_refuses_past_the_order_bound():
    # empty(13) has no edge to search and complete(13) fails at its first;
    # both are refused before the header
    for g6 in ("L" + "?" * 13, "L" + "~" * 13):
        code, out, err = run_cli(["iss", "--graph", g6, "--mode", "edges"])
        assert code == 2 and out == "" and "bound 12" in err


def test_census_jsonl_and_summary():
    code, out, _ = run_cli(["census", "--order", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "order 4: 3 classes"
    rows = [json.loads(x) for x in lines[:-1]]
    assert len(rows) == 3
    assert [r["rep_g6"] for r in rows] == ["C?", "C@", "CJ"]
    assert all(r["order"] == 4 for r in rows)


def test_census_out_file(tmp_path):
    target = tmp_path / "census4.jsonl"
    code, out, _ = run_cli(["census", "--order", "4", "--out", str(target)])
    assert code == 0
    rows = [json.loads(x) for x in target.read_text().splitlines()]
    assert len(rows) == 3
    assert "order 4: 3 classes" in out


def test_census_bounds():
    code, _, err = run_cli(["census", "--order", "9"])
    assert code == 2 and err
    code, _, err = run_cli(["census", "--order", "0"])
    assert code == 2 and err


def test_census_refused_order_keeps_the_out_file(tmp_path, monkeypatch):
    target = tmp_path / "kept.jsonl"
    target.write_text("earlier\n")
    for order in ("8", "0"):
        code, out, err = run_cli(["census", "--order", order, "--out", str(target)])
        assert code == 2 and out == "" and err.startswith("error: ")
        assert target.read_text() == "earlier\n"
    # a valid order with an unwritable path is refused before any census work
    def no_census(n):
        raise AssertionError("census ran")

    monkeypatch.setattr(cli, "census", no_census)
    missing = str(tmp_path / "missing" / "x.jsonl")
    code, out, err = run_cli(["census", "--order", "7", "--out", missing])
    assert code == 2 and out == "" and missing in err


def test_verify_pass_and_findings_file(tmp_path):
    target = tmp_path / "findings.jsonl"
    code, out, _ = run_cli(
        ["verify", "--suite", "iss", "--max-order", "5", "--out", str(target)]
    )
    assert code == 0
    assert "PASS" in out
    rows = [json.loads(x) for x in target.read_text().splitlines()]
    assert rows  # closure findings appear by order 4
    assert all(
        list(r.keys()) == ["claim-id", "graph6", "witness-masks", "detail"]
        for r in rows
    )


def test_verify_all_small():
    code, out, _ = run_cli(["verify", "--suite", "all", "--max-order", "3"])
    assert code == 0
    assert "PASS (0 violations" in out
    for name in ("algebra", "iso", "invariants", "iss", "edge-iss", "classes", "constructions"):
        assert f"[{name}]" in out


def test_verify_edge_iss_at_order_seven_pinned():
    # the benchmark's golden output stops at --max-order 6; this pins the
    # edge suite one order further, byte for byte
    code, out, _ = run_cli(["verify", "--suite", "edge-iss", "--max-order", "7"])
    assert code == 0
    assert out.splitlines()[-1] == "PASS (0 violations, 376 findings)"
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "64022c21e0f06fc443eb670f992d78f758edfe5149720c5270a00abbd81d36e6"


def test_verify_unknown_suite():
    code, _, err = run_cli(["verify", "--suite", "nonesuch", "--max-order", "3"])
    assert code == 2


def test_unknown_subcommand():
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2


def test_verify_refuses_nonpositive_max_order():
    for bad in ("0", "-3"):
        code, out, err = run_cli(["verify", "--max-order", bad])
        assert code == 2
        assert err.startswith("error: ") and "--max-order" in err
        assert "PASS" not in out


def test_unwritable_out_exits_two(tmp_path):
    target = str(tmp_path / "missing" / "x.jsonl")
    for argv in (["census", "--order", "3"], ["verify", "--suite", "iss", "--max-order", "3"]):
        code, out, err = run_cli(argv + ["--out", target])
        assert code == 2
        assert err.startswith("error: ") and target in err
        assert out == ""  # refused before any work was reported
