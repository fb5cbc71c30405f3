#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, written as one JSON file.

    python scripts/bench_pairs.py --parent REV --workload W [--workload W2 ...]
        --pairs N --out BENCH.json

Run from a checkout.  The parent is the commit REV; the change is the
working tree as ``git add -A`` would stage it (built in a temporary index,
so the repository's own index is not touched), which for a clean checkout
is HEAD.  Each side is written from its own ``git archive`` into a
temporary directory, so neither run sees the other's files or an old
``__pycache__``.

Pair k of a workload runs

    python3 perfbench/run.py --workload W --seed FIRST_SEED+k --seconds S --trace 0

once in each tree, the parent first in even pairs and the change first in
odd ones.  Each run reports the medians over its repetitions; the file holds
those per-run values and, over them, the median and quartiles (linear
interpolation) of each side, the number of pairs in which the change is
better, the change of the median in percent, and whether that change
exceeds the parent's interquartile range.  The end-to-end metrics, their
direction and the run length S are those of ``BENCHMARK.json`` in the
current checkout; the machine and the source digest of each side are those
its first run reports.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METHOD = ("one parent/change pair per seed, parent and change each run from its own copy of "
          "its tree (git archive of the parent commit, and of the working tree as git add -A "
          "stages it; no __pycache__), the side that runs first alternating from pair to pair "
          "(parent_first); each run reports the medians over its repetitions, and the "
          "statistics here are over those per-run values (quartiles by linear interpolation)")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
FIRST_SEED = 2101


def describe(runs: list) -> dict:
    """Median and quartiles (linear interpolation) of the per-run values."""
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1
                      else runs * 3)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(v, 4) for v in runs]}


def pair_stats(parent: list, change: list, better: str, unit: str) -> dict:
    """One metric over paired runs: each side described, the pairs in which
    the change is strictly better, and the median change against the
    parent's interquartile range."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = describe(parent), describe(change)
    gap = c["median"] - p["median"]
    return {
        "better": better, "unit": unit, "parent": p, "change": c,
        "change_better_pairs": sum(sign * (b - a) > 0.0 for a, b in zip(parent, change)),
        "median_change_pct": round(100.0 * gap / p["median"], 2) if p["median"] else 0.0,
        "median_gap_exceeds_parent_iqr": abs(gap) > p["q3"] - p["q1"],
    }


def _git(*args: str, env=None) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          stdout=subprocess.PIPE).stdout


def _working_tree(tmp: Path) -> str:
    """The tree object of the working tree as ``git add -A`` would stage it."""
    env = dict(os.environ, GIT_INDEX_FILE=str(tmp / "index"))
    _git("add", "-A", env=env)
    return _git("write-tree", env=env).decode().strip()


def _extract(treeish: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", treeish))) as tar:
        tar.extractall(dest, filter="data")


def _run(tree: Path, workload: str, seed: int) -> dict:
    """The report of one benchmark run in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
    subprocess.run(cmd, cwd=tree, check=True, stdout=subprocess.DEVNULL)
    out = tree / ".perfbench-out" / f"{workload}-seed{seed}-trace0" / "report.json"
    return json.loads(out.read_text())


def bench_workload(trees: dict, workload: str, pairs: int, metrics: list,
                   machines: dict) -> dict:
    """Alternating pairs of one workload; ``machines`` gets each side's
    first reported machine."""
    values = {side: {m["name"]: [] for m in metrics} for side in trees}
    ok, parent_first = True, []
    for k in range(pairs):
        parent_first.append(k % 2 == 0)
        for side in (("parent", "change") if parent_first[-1] else ("change", "parent")):
            report = _run(trees[side], workload, FIRST_SEED + k)
            machines.setdefault(side, report["machine"])
            result = report["result"]
            ok = ok and result["correct"]
            for name, runs in values[side].items():
                runs.append(result["metrics"][name]["value"])
            shown = {name: m["value"] for name, m in result["metrics"].items()}
            print(f"{workload} pair {k + 1}/{pairs} {side}: {shown}", file=sys.stderr)
    return {
        "all_operations_ok": ok,
        "metrics": {m["name"]: pair_stats(values["parent"][m["name"]], values["change"][m["name"]],
                                          m["better"], m["unit"]) for m in metrics},
        "pairs": pairs, "parent_first": parent_first,
        "seeds": list(range(FIRST_SEED, FIRST_SEED + pairs)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the parent commit")
    ap.add_argument("--workload", required=True, action="append", help="repeatable")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    args = ap.parse_args(argv)

    machines: dict = {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as name:
        tmp = Path(name)
        parent = _git("rev-parse", args.parent + "^{commit}").decode().strip()
        change = _working_tree(tmp)
        trees = {"parent": tmp / "parent", "change": tmp / "change"}
        for side, rev in (("parent", parent), ("change", change)):
            _extract(rev, trees[side])
        workloads = {w: bench_workload(trees, w, args.pairs, BENCHMARK["end_to_end"], machines)
                     for w in args.workload}
    report = {
        "change_tree": change,
        "command": "python3 perfbench/run.py --workload WORKLOAD --seed SEED "
                   f"--seconds {BENCHMARK['run_seconds']} --trace 0",
        "machine": machines,
        "method": METHOD,
        "parent_commit": parent,
        "source_sha256": {side: m["source_sha256"] for side, m in machines.items()},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
