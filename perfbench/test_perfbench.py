"""Self-test of the benchmark: every workload at tiny scale, same code.

Run from the repository root (a few minutes; each case starts Spark):

    python3 -m pytest perfbench/test_perfbench.py -q

Neither the tier-1 command (``pytest tests/``) nor a bare ``pytest``
(``testpaths`` in ``pyproject.toml``) collects this file.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-2].removeprefix("perfbench "))
    return summary, json.loads(lines[-1])


def _detail(workload: str, trace: int) -> dict:
    return json.loads((ROOT / ".perfbench" / f"{workload}-seed7-trace{trace}.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_and_correct(workload):
    summary, result = _result(_run(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert summary["metrics"][name].endswith(f" {unit}")
        assert result["metrics"][name]["value"] > 0
    assert summary["metrics"]["fail_ratio"] == "0 fraction"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_consistent(workload):
    summary, result = _result(_run(workload, 1))
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert summary["metrics"][name].endswith(f" {unit}")
    assert summary["metrics"]["fail_ratio"] == "0 fraction"
    m = {n: v["value"] for n, v in result["metrics"].items()}
    # engine.self_s and every other span's self time add up to the
    # traced evaluation time
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.eval_s"], abs=1e-6)

    detail = _detail(workload, 1)
    assert detail["traced_evals"]
    for ev in detail["traced_evals"]:
        # ΣΔ = final rows, analyze calls and DSD choices agree with the
        # engine's counters, children inside parents (spans.invariant_violations)
        assert ev["violations"] == []
    spans = {s["id"]: s for s in detail["spans"]}
    for s in spans.values():
        if s["parent"] is not None:
            p = spans[s["parent"]]
            assert p["start"] <= s["start"] <= s["end"] <= p["end"]
            assert p["eval_id"] == s["eval_id"]

    pbme = workload == "tc-pbme"
    assert (m["pbme.result_rows"] > 0) == pbme
    assert (m["engine.iterations"] > 0) != pbme
    if not pbme:
        assert m["stats.analyze_calls"] > 0 and m["compiler.plans"] > 0


def test_refuses_to_run_without_the_engine(tmp_path):
    """In a copy holding only the benchmark, the command fails without a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in BENCH["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
