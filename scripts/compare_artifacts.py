#!/usr/bin/env python3
"""Check that two source trees write byte-identical run artifacts.

    python scripts/compare_artifacts.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the ``parabolab`` package (the
``src/`` of two checkouts).  For every config in ``configs/`` and
``perfbench/configs/`` of this checkout, the script runs

    python -m parabolab.cli run --config CONFIG --out DIR --seed 0

once with each tree on ``PYTHONPATH``, each into its own scratch directory,
and compares the exit codes, stdout and every output file byte for byte.
It compares, the same way, the reports on that config

    python -m parabolab.cli check --config CONFIG --json JSON
    python -m parabolab.cli symbol --config CONFIG --json JSON
    python -m parabolab.cli symbol --config CONFIG --json JSON --b-range B --lambda-points 30

with B = 1e-300:1e150:41 (the widest b range the options admit, scanned at
11,111 points), the report on the config's flat exponent table

    python -m parabolab.cli check --config TABLE --json JSON

where TABLE, written to the scratch directory, holds the config's
``exponents`` with ``n`` = ``grid.dim`` and the ``order`` of its family, and
on each tree's ``trajectory.npz`` of the run

    python -m parabolab.cli norms --checkpoint TRAJ --csv CSV --json JSON
    python -m parabolab.cli norms --checkpoint TRAJ --csv CSV --json JSON --mu 0.8 --p 3
    python -m parabolab.cli omega --checkpoint TRAJ --json JSON
    python -m parabolab.cli omega --checkpoint TRAJ --json JSON --count 24 --fraction 1
    python -m parabolab.cli symbol --config CONFIG --json JSON --field TRAJ

(the second omega report samples the whole run, so that its distances come
from many samples in several clusters).  For every config it also compares a
run interrupted after its first window and resumed,

    python -m parabolab.cli run --config FIRST --out DIR --seed 0
    python -m parabolab.cli run --config CONFIG --out DIR --seed 0 --resume

where FIRST is the config with ``solver.horizon`` set to ``solver.window``;
the configs of ``perfbench/configs/`` resume 2D runs on the Cholesky and LU
marches.
Last it does the same for

    python -m parabolab.cli sweep --config configs/heat.json --axes AXES --out DIR --seed 0

with a small axes file written to the scratch directory, comparing every
cell's files.  It exits 0 when everything matches, and 1 when anything
differs.  Every difference is listed: the exit code, stdout and each file
that differs.  For a differing ``.json`` or ``.npz`` file it prints the
largest relative difference among its floats,

    max |old - new| / max(|old|, |new|)

taken over each float (a JSON number or a float in the JSON meta of a
checkpoint) and over each float array as a whole, with the absolute
difference there, and it names the entries whose other values (integers,
strings, shapes, keys) differ.  Nothing is written inside the checkout.
"""

import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIRS = (REPO / "configs", REPO / "perfbench" / "configs")
SEED = "0"
SWEEP_CONFIG = REPO / "configs" / "heat.json"
SWEEP_AXES = {"grid.nodes": [17, 33], "exponents.mu": ["4/5", "9/10"]}
# the differential order of each problem family, as parabolab.config.FAMILY_ORDER
FAMILY_ORDER = {"heat": "second", "reaction_diffusion": "second",
                "surface_diffusion": "fourth", "willmore": "fourth"}


# the commands that read only the config {config}
CONFIG_CHECKS = {
    "check": ["check", "--config", "{config}", "--json", "{out}/check.json"],
    "symbol": ["symbol", "--config", "{config}", "--json", "{out}/symbol.json"],
    "symbol-widest": ["symbol", "--config", "{config}", "--json", "{out}/symbol.json",
                      "--b-range", "1e-300:1e150:41", "--lambda-points", "30"],
}

# the commands that read the trajectory of a run; {run} is that run's output
# directory under the same tree, {out} the command's own, and {config} the
# config of the run
TRAJECTORY_CHECKS = {
    "norms": ["norms", "--checkpoint", "{run}/trajectory.npz",
              "--csv", "{out}/norms.csv", "--json", "{out}/norms.json"],
    "norms-reweighted": ["norms", "--checkpoint", "{run}/trajectory.npz",
                         "--csv", "{out}/norms.csv", "--json", "{out}/norms.json",
                         "--mu", "0.8", "--p", "3"],
    "omega": ["omega", "--checkpoint", "{run}/trajectory.npz", "--json", "{out}/omega.json"],
    "omega-whole-run": ["omega", "--checkpoint", "{run}/trajectory.npz",
                        "--json", "{out}/omega.json", "--count", "24", "--fraction", "1"],
    "symbol-field": ["symbol", "--config", "{config}", "--json", "{out}/symbol.json",
                     "--field", "{run}/trajectory.npz"],
}


def run(src: Path, argvs: list, root: Path, stem: str, run_stem: str = ""):
    """Exit codes (space separated), stdout and {relative path: bytes} of
    the commands ``argvs``, run one after another and writing into
    ``root / stem``, with ``{out}`` and ``{run}`` in each argv standing for
    ``root / stem`` and ``root / run_stem``."""
    # one BLAS thread on both sides, so that threading cannot move a bit
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    out = root / stem
    out.mkdir(parents=True)
    codes, stdout = [], b""
    for argv in argvs:
        argv = [a.replace("{out}", str(out)).replace("{run}", str(root / run_stem))
                for a in argv]
        proc = subprocess.run([sys.executable, "-m", "parabolab.cli", *argv],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              check=False)
        codes.append(str(proc.returncode))
        stdout += proc.stdout
    files = {str(f.relative_to(out)): f.read_bytes()
             for f in sorted(out.rglob("*")) if f.is_file()}
    return " ".join(codes), stdout, files


def _leaves(obj, path=""):
    """{path: value} of every leaf of a JSON document; a string that holds
    JSON, such as the meta of a checkpoint, is opened up as well."""
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except ValueError:
            return {path: obj}
        if isinstance(obj, str):
            return {path: obj}
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return {path: obj}
    out = {}
    for key, value in items:
        out.update(_leaves(value, f"{path}/{key}"))
    return out


def _entries(name: str, data: bytes) -> dict:
    """{path: value} of a .json file, or {array name: array} of a .npz file
    with its string arrays opened up as JSON."""
    if name.endswith(".json"):
        return _leaves(json.loads(data))
    with np.load(io.BytesIO(data), allow_pickle=False) as npz:
        out = {}
        for key in npz.files:
            arr = npz[key]
            if arr.dtype.kind == "U":
                out.update(_leaves(str(arr), key))
            else:
                out[key] = arr
        return out


def _is_float(x) -> bool:
    return (isinstance(x, float)
            or isinstance(x, np.ndarray) and x.dtype.kind == "f")


def float_gaps(name: str, old: bytes, new: bytes) -> str:
    """The largest relative difference among the floats of two versions of a
    .json or .npz file, and the entries whose other values differ."""
    old, new = _entries(name, old), _entries(name, new)
    worst = (0.0, 0.0, None)
    other = sorted(set(old) ^ set(new))
    for key in sorted(set(old) & set(new)):
        a, b = old[key], new[key]
        if not (_is_float(a) and _is_float(b) and np.shape(a) == np.shape(b)):
            if not np.array_equal(a, b):
                other.append(key)
            continue
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if a.size == 0:
            continue
        gap = float(np.max(np.abs(a - b)))
        scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
        rel = gap / scale if scale > 0.0 else 0.0
        if rel > worst[0]:
            worst = (rel, gap, key)
    text = []
    if worst[2] is not None:
        text.append(f"largest relative difference {worst[0]:.3g} at {worst[2]} "
                    f"(absolute {worst[1]:.3g})")
    if other:
        text.append(f"other values differ at {', '.join(other)}")
    return "; ".join(text) or "same values, other bytes"


def differences(old, new) -> list:
    """Each difference between the (exit code, stdout, files) of two runs."""
    out = []
    if old[0] != new[0]:
        out.append(f"exit code {old[0]} != {new[0]}")
    if old[1] != new[1]:
        out.append("stdout")
    for name in sorted(set(old[2]) | set(new[2])):
        a, b = old[2].get(name), new[2].get(name)
        if a == b:
            continue
        if a is None or b is None:
            out.append(f"{name} (only in {'new' if a is None else 'old'})")
        elif name.endswith((".json", ".npz")):
            out.append(f"{name}: {float_gaps(name, a, b)}")
        else:
            out.append(name)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old_src, new_src = (Path(a).resolve() for a in argv)
    configs = [c for d in CONFIG_DIRS for c in sorted(d.glob("*.json"))]
    status = False
    with tempfile.TemporaryDirectory() as tmp:
        axes = Path(tmp) / "axes.json"
        axes.write_text(json.dumps(SWEEP_AXES, sort_keys=True) + "\n")
        seeded = ["--out", "{out}", "--seed", SEED]
        # (name, output directory, argvs, directory of the run they read)
        checks = []
        for c in configs:
            checks.append((f"{c.relative_to(REPO)}", c.stem,
                           [["run", "--config", str(c), *seeded]], ""))
            checks += [(f"{check} {c.relative_to(REPO)}", f"{c.stem}-{check}",
                        [[a.replace("{config}", str(c)) for a in argv]], run_stem)
                       for commands, run_stem in ((CONFIG_CHECKS, ""),
                                                  (TRAJECTORY_CHECKS, c.stem))
                       for check, argv in commands.items()]
            cfg = json.loads(c.read_text())
            table = Path(tmp) / f"{c.stem}-flat.json"
            table.write_text(json.dumps({**cfg["exponents"], "n": cfg["grid"]["dim"],
                                         "order": FAMILY_ORDER[cfg["problem"]["family"]]},
                                        sort_keys=True) + "\n")
            checks.append((f"check-flat {c.relative_to(REPO)}", f"{c.stem}-check-flat",
                           [[a.replace("{config}", str(table)) for a in CONFIG_CHECKS["check"]]],
                           ""))
        for c in configs:
            cfg = json.loads(c.read_text())
            cfg["solver"]["horizon"] = cfg["solver"]["window"]
            first = Path(tmp) / f"{c.stem}-first-window.json"
            first.write_text(json.dumps(cfg, sort_keys=True) + "\n")
            checks.append((f"resumed {c.relative_to(REPO)}", f"{c.stem}-resumed",
                           [["run", "--config", str(first), *seeded],
                            ["run", "--config", str(c), *seeded, "--resume"]], ""))
        checks.append((f"sweep {SWEEP_CONFIG.relative_to(REPO)}", "sweep",
                       [["sweep", "--config", str(SWEEP_CONFIG), "--axes", str(axes), *seeded]],
                       ""))
        for name, stem, argvs, run_stem in checks:
            old = run(old_src, argvs, Path(tmp) / "old", stem, run_stem)
            new = run(new_src, argvs, Path(tmp) / "new", stem, run_stem)
            diffs = differences(old, new)
            for diff in diffs:
                print(f"{name}: differs at {diff}")
            if not diffs:
                print(f"{name}: {len(new[2])} files identical (exit {new[0]})")
            status = status or bool(diffs)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
