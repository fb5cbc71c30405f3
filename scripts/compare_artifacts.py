#!/usr/bin/env python3
"""Check that two source trees write byte-identical run artifacts.

    python scripts/compare_artifacts.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the ``parabolab`` package (the
``src/`` of two checkouts).  For every config in ``configs/`` and
``perfbench/configs/`` of this checkout, the script runs

    python -m parabolab.cli run --config CONFIG --out DIR --seed 0

once with each tree on ``PYTHONPATH``, each into its own scratch directory,
and compares the exit codes, stdout and every output file byte for byte.
It then does the same for

    python -m parabolab.cli sweep --config configs/heat.json --axes AXES --out DIR --seed 0

with a small axes file written to the scratch directory, comparing every
cell's files.  It exits 0 when everything matches, and 1 naming the first
difference.  Nothing is written inside the checkout.
"""

import json

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIRS = (REPO / "configs", REPO / "perfbench" / "configs")
SEED = "0"
SWEEP_CONFIG = REPO / "configs" / "heat.json"
SWEEP_AXES = {"grid.nodes": [17, 33], "exponents.mu": ["4/5", "9/10"]}


def run(src: Path, argv: list, out: Path):
    """Exit code, stdout and {relative path: bytes} of one command writing
    into ``out``."""
    # one BLAS thread on both sides, so that threading cannot move a bit
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "parabolab.cli", *argv, "--out", str(out), "--seed", SEED],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False)
    files = {str(f.relative_to(out)): f.read_bytes()
             for f in sorted(out.rglob("*")) if f.is_file()}
    return proc.returncode, proc.stdout, files


def first_difference(old, new):
    if old[0] != new[0]:
        return f"exit code {old[0]} != {new[0]}"
    if old[1] != new[1]:
        return "stdout"
    for name in sorted(set(old[2]) | set(new[2])):
        if old[2].get(name) != new[2].get(name):
            return name
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old_src, new_src = (Path(a).resolve() for a in argv)
    configs = [c for d in CONFIG_DIRS for c in sorted(d.glob("*.json"))]
    with tempfile.TemporaryDirectory() as tmp:
        axes = Path(tmp) / "axes.json"
        axes.write_text(json.dumps(SWEEP_AXES, sort_keys=True) + "\n")
        checks = [(f"{c.relative_to(REPO)}", c.stem, ["run", "--config", str(c)])
                  for c in configs]
        checks.append((f"sweep {SWEEP_CONFIG.relative_to(REPO)}", "sweep",
                       ["sweep", "--config", str(SWEEP_CONFIG), "--axes", str(axes)]))
        for name, stem, argv in checks:
            old = run(old_src, argv, Path(tmp) / "old" / stem)
            new = run(new_src, argv, Path(tmp) / "new" / stem)
            diff = first_difference(old, new)
            if diff is not None:
                print(f"{name}: differs at {diff}")
                return 1
            print(f"{name}: {len(new[2])} files identical (exit {new[0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
