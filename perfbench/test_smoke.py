"""Smoke test of the benchmark runner at toy sizes.

Run from the root of a checkout: ``python3 -m pytest -q perfbench/test_smoke.py``.
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
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in workloads.workloads().values()}
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER_UNITS)
    assert [name for name, _ in spans.LAYER_UNITS] == list(spans.layer_metrics([]))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_tail_has_ten_ops_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(40)])
    assert (value, pct, beyond) == (29.0, 75.0, 10)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_untraced_run(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                          "--trace", "0", "--scale", "tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    spec = workloads.workloads("tiny")[workload]
    assert result["attempted"] == spec.rounds(0.2) * len(spec.configs)
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert result["metrics"]["setup_s"]["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_traced_run(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                          "--trace", "1", "--scale", "tiny"))
    assert result["correct"] is True
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == list(
        run.PER_LAYER_UNITS)
    shares = sum(result["metrics"][f"{m}.share"]["value"] for m in spans.MODULES)
    assert shares == pytest.approx(1.0, abs=1e-6)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "mask-enumeration", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
