"""The difference report of ``scripts/compare_artifacts.py`` on made-up outputs."""

from __future__ import annotations

import importlib.util
import io
import json
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_artifacts.py"
_spec = importlib.util.spec_from_file_location("compare_artifacts", SCRIPT)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


def _npz(derivs, iterations) -> bytes:
    buf = io.BytesIO()
    meta = {"window_summary": {"iterations": iterations, "residuals": [1e-3, 2e-9]}}
    np.savez(buf, meta=np.array(json.dumps(meta)), derivs=np.asarray(derivs, dtype=float),
             dim=np.array(1))
    return buf.getvalue()


def test_every_differing_file_is_listed_with_its_float_gap():
    old = (0, b"done\n", {
        "diagnostics.json": json.dumps({"E1mu": 2.0, "rows": [1.0, 3.0]}).encode(),
        "trajectory.npz": _npz([[4.0, -2.0]], 3),
        "timeseries.csv": b"time\n0.0\n",
        "same.json": b"{}",
        "gone.csv": b"x\n",
    })
    new = (3, b"done\n", {
        "diagnostics.json": json.dumps({"E1mu": 2.0, "rows": [1.0, 3.0 + 3e-12]}).encode(),
        "trajectory.npz": _npz([[4.0, -2.0 + 2e-12]], 4),
        "timeseries.csv": b"time\n0.1\n",
        "same.json": b"{}",
    })
    diffs = compare.differences(old, new)
    assert diffs == [
        "exit code 0 != 3",
        "diagnostics.json: largest relative difference 1e-12 at /rows/1 (absolute 3e-12)",
        "gone.csv (only in old)",
        "timeseries.csv",
        "trajectory.npz: largest relative difference 5e-13 at derivs (absolute 2e-12); "
        "other values differ at meta/window_summary/iterations",
    ]
    assert compare.differences(new, new) == []
