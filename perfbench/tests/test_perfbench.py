"""Smoke test of the benchmark itself, at tiny sizes.

Every metric named in BENCHMARK.json is emitted for every workload, a broken
correctness gate shows up as failed operations, and the benchmark refuses to
run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (needs the path set above)
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(monkeypatch, capsys, workload: str, trace: int) -> dict:
    monkeypatch.setattr(run, "MIN_REPS", 1)
    monkeypatch.setattr(run, "MIN_SETUPS", 2)
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace), "--scale", "tiny"])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _named(result: dict, spec: list) -> None:
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in spec]
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, monkeypatch, capsys):
    plain = _bench(monkeypatch, capsys, workload, 0)
    _named(plain, SPEC["end_to_end"])
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert plain["metrics"]["ok_ratio"]["value"] == 1.0
    assert plain["metrics"]["wall_s"]["value"] > 0.0

    traced = _bench(monkeypatch, capsys, workload, 1)
    _named(traced, SPEC["per_layer"])
    # correct includes the check that counts repeat between the traced passes
    assert traced["correct"] and traced["failed"] == 0
    assert traced["metrics"]["grids.gridfunction_allocs"]["value"] > 0


def test_broken_gate_counts_as_failure(tmp_path, monkeypatch):
    good = worker.run_once("sweep-1d", 1, tmp_path / "good", scale="tiny")
    monkeypatch.setattr(workloads, "SWEEP_ERROR_FACTOR", 0.0)
    broken = worker.run_once("sweep-1d", 1, tmp_path / "broken", scale="tiny")
    for rec in (good, broken):
        rec.update(setup_s=rec.pop("entry_t"), traced=False)
    assert all(good["ok"]) and not any(broken["ok"])

    report = run.summarize([good, broken], [good, broken], trace=False)
    assert report["failed_ratio"] == 0.5
    assert report["result"]["metrics"]["ok_ratio"]["value"] == 0.5
    assert report["result"]["correct"] is False


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
