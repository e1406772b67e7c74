"""Smoke tests for the benchmark harness, at tiny sizes (seconds, not minutes).

    python3 -m pytest perfbench/tests -q      (from the repository root)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import compare  # noqa: E402
import querymix  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
    if trace:
        m = result["metrics"]
        self_sum = sum(v["value"] for k, v in m.items() if k.endswith(".self_s"))
        assert 0 < self_sum <= m["trace.wall_s"]["value"]
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("verify-6", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_refuses_mixed_jit(tmp_path, capsys):
    def record(jit: bool) -> str:
        path = tmp_path / f"r{int(jit)}.json"
        path.write_text(json.dumps({"workload": "verify-6", "smoke": False,
                                    "environment": {"jit_enabled": jit},
                                    "metrics_untraced": {"wall_s": 1.0}}))
        return str(path)

    assert compare.main([record(False), "--", record(True)]) == 2
    assert "JIT_ENABLED" in capsys.readouterr().err
    assert compare.main([record(False), "--", record(False)]) == 0


def test_every_seed_queries_pinned_shapes():
    pins = checks.golden()["shapes"]
    assert set(pins) == set(querymix.shapes())
    for seed in (0, 987654321):
        assert {q["shape"] for q in querymix.generate(seed, 8)} == set(pins)


def test_wrong_answer_is_caught():
    q = querymix.generate(5, 1)[0]
    ans = querymix.answer(q["g6"])
    shapes = checks.golden()["shapes"]
    assert checks.query_problem(q, ans, shapes, oracle=True) is None
    ans["aut"] *= 2
    assert "differs from the pinned one" in checks.query_problem(q, ans, shapes, oracle=False)


def test_timeout_is_its_own_verdict(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.5)
    with pytest.raises(run.ChildTimeout):
        run.run_child([sys.executable, "-c", "import time; time.sleep(30)"], tmp_path / "x.out")


def test_probe_correction_scales_between_samples():
    probe = speed.Probe()
    r = speed.REF_S
    # the machine ran the reference at full speed, then at half speed
    probe.marks = [(0.0, r), (1.0, 1.0 + r), (2.0, 2.0 + 2 * r), (3.0, 3.0 + 2 * r)]
    assert probe.spent(0.0, 3.0 + 2 * r) == pytest.approx(6 * r)
    # full speed, then the mean of r and 2r, then half speed
    assert probe.corrected(r, 1.0) == pytest.approx(1.0 - r)
    assert probe.corrected(1.0 + r, 2.0) == pytest.approx((1.0 - r) / 1.5)
    assert probe.corrected(2.0 + 2 * r, 3.0) == pytest.approx((1.0 - 2 * r) / 2)
    # before the first and after the last sample, that sample's speed
    assert probe.corrected(-1.0, 0.0) == pytest.approx(1.0)
    assert probe.corrected(4.0, 5.0) == pytest.approx(0.5)
    # a span crossing a sample leaves the sample's own time out
    assert probe.corrected(0.5, 1.5) == pytest.approx(0.5 + 0.5 / 1.5 - r / 1.5)
