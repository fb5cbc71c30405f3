#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, written as one JSON file.

    python scripts/bench_pairs.py --parent REV --workload W [--workload W2 ...]
        --pairs N --out BENCH.json

Run from a checkout.  The parent is the commit REV; the change is the
working tree as ``git add -A`` would stage it (built in a temporary index,
so the repository's own index is not touched), which for a clean checkout
is HEAD.  Each side is written from its own ``git archive`` into a
temporary directory, so neither run sees the other's files or an old
``__pycache__``, and its ``src/`` and ``perfbench/`` are byte-compiled
there before its first run, so that no run times the compiler.

Pair k of a workload runs

    python3 perfbench/run.py --workload W --seed FIRST_SEED+k --seconds S --trace 0

once in each tree, the parent first in even pairs and the change first in
odd ones.  Each run reports the medians over its repetitions; the file holds
those per-run values and, over them, the median and quartiles (linear
interpolation) of each side, the number of pairs in which the change is
better, the change of the median in percent, whether that change exceeds
the parent's interquartile range, and whether the gain rule holds: the
change is strictly better in at least 9 of 10 pairs and its median is
better than the parent's by more than the parent's interquartile range.
Each run also records the host's CPU steal share over it, the growth of the
steal time in the aggregate ``cpu`` line of ``/proc/stat`` divided by the
growth of the total time there, or null where that file is missing: on a
virtual machine, time stolen by other guests slows a run without showing in
its own CPU time.
The end-to-end metrics, their direction and the run length S are those of
``BENCHMARK.json`` in the current checkout; the machine and the source
digest of each side are those its first run reports.

A run that exits non-zero ends the benchmark: the file is still written,
with the statistics of the pairs finished before it and the failed run
(side, pair, seed and exit code) under ``failed_run``, and the script exits
1.
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
          "stages it; no __pycache__), each tree's src/ and perfbench/ byte-compiled by "
          "python -m compileall -q before its first run, outside any timed interval, so "
          "setup_s holds no compilation; the side that runs first alternating from pair to pair "
          "(parent_first); each run reports the medians over its repetitions, and the "
          "statistics here are over those per-run values (quartiles by linear interpolation)")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
FIRST_SEED = 2101
PROC_STAT = Path("/proc/stat")


def describe(runs: list) -> dict:
    """Median and quartiles (linear interpolation) of the per-run values."""
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1
                      else runs * 3)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(v, 4) for v in runs]}


def pair_stats(parent: list, change: list, better: str, unit: str) -> dict:
    """One metric over paired runs: each side described, the pairs in which
    the change is strictly better, the median change against the parent's
    interquartile range, and whether the gain rule holds (see the module
    docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = describe(parent), describe(change)
    gap = c["median"] - p["median"]
    iqr = p["q3"] - p["q1"]
    better_pairs = sum(sign * (b - a) > 0.0 for a, b in zip(parent, change))
    return {
        "better": better, "unit": unit, "parent": p, "change": c,
        "change_better_pairs": better_pairs,
        "median_change_pct": round(100.0 * gap / p["median"], 2) if p["median"] else 0.0,
        "median_gap_exceeds_parent_iqr": abs(gap) > iqr,
        "gain_rule_met": 10 * better_pairs >= 9 * len(parent) and sign * gap > iqr,
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


def _compile(tree: Path) -> None:
    """Byte-compile the ``src/`` and ``perfbench/`` of ``tree``.  An archive
    holds no bytecode, and a worker run with PYTHONDONTWRITEBYTECODE set
    writes none, so without this every worker would compile parabolab
    again inside the ``setup_s`` it reports."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=tree,
                   check=True, stdout=subprocess.DEVNULL)


def _cpu_times():
    """(steal, total) of the aggregate ``cpu`` line of ``PROC_STAT``, in
    clock ticks, or None where the file is missing.  The total is the sum of
    the first eight fields, user to steal; guest time is part of user time."""
    try:
        fields = PROC_STAT.read_text().splitlines()[0].split()
    except OSError:
        return None
    ticks = [int(v) for v in fields[1:9]]
    return ticks[7], sum(ticks)


def _steal_share(before, after):
    """The share of the host's CPU time stolen between two ``_cpu_times``
    readings, or None without both or when no time passed."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return round((after[0] - before[0]) / (after[1] - before[1]), 4)


class RunFailed(Exception):
    """A benchmark run that exited non-zero."""

    def __init__(self, exit_code: int):
        super().__init__(f"exit code {exit_code}")
        self.exit_code = exit_code


def _run(tree: Path, workload: str, seed: int) -> dict:
    """The report of one benchmark run in ``tree``; RunFailed if it exits
    non-zero."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
    code = subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL).returncode
    if code != 0:
        raise RunFailed(code)
    out = tree / ".perfbench-out" / f"{workload}-seed{seed}-trace0" / "report.json"
    return json.loads(out.read_text())


def bench_workload(trees: dict, workload: str, pairs: int, metrics: list,
                   machines: dict) -> dict:
    """Alternating pairs of one workload; ``machines`` gets each side's
    first reported machine.  A failed run ends the workload: the statistics
    cover the pairs finished before it, and ``failed_run`` names it."""
    values = {side: {m["name"]: [] for m in metrics} for side in trees}
    steal = {side: [] for side in trees}
    ok, failed, done = True, None, 0
    for k in range(pairs):
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            start = _cpu_times()
            try:
                report = _run(trees[side], workload, FIRST_SEED + k)
            except RunFailed as exc:
                failed = {"side": side, "pair": k + 1, "seed": FIRST_SEED + k,
                          "exit_code": exc.exit_code}
                print(f"{workload} pair {k + 1}/{pairs} {side}: {exc}", file=sys.stderr)
                break
            steal[side].append(_steal_share(start, _cpu_times()))
            machines.setdefault(side, report["machine"])
            result = report["result"]
            ok = ok and result["correct"]
            for name, runs in values[side].items():
                runs.append(result["metrics"][name]["value"])
            shown = {name: m["value"] for name, m in result["metrics"].items()}
            print(f"{workload} pair {k + 1}/{pairs} {side}: {shown}", file=sys.stderr)
        if failed:
            break
        done += 1
    return {
        "all_operations_ok": ok,
        "failed_run": failed,
        "metrics": {m["name"]: pair_stats(values["parent"][m["name"]][:done],
                                          values["change"][m["name"]][:done],
                                          m["better"], m["unit"])
                    for m in metrics} if done else {},
        "pairs": done, "parent_first": [k % 2 == 0 for k in range(done)],
        "seeds": list(range(FIRST_SEED, FIRST_SEED + done)),
        "steal_share": {side: shares[:done] for side, shares in steal.items()},
    }


def bench(trees: dict, workloads: list, pairs: int, header: dict, out: Path) -> int:
    """Run the pairs of each workload and write the report, ``header`` and
    the results, to ``out``.  Returns 0, or 1 after the first failed run,
    which ends the benchmark."""
    machines: dict = {}
    results: dict = {}
    failed = None
    for workload in workloads:
        results[workload] = bench_workload(trees, workload, pairs, BENCHMARK["end_to_end"],
                                           machines)
        failed = results[workload]["failed_run"]
        if failed:
            failed = dict(failed, workload=workload)
            break
    report = dict(header, failed_run=failed, machine=machines,
                  source_sha256={side: m["source_sha256"] for side, m in machines.items()},
                  workloads=results)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the parent commit")
    ap.add_argument("--workload", required=True, action="append", help="repeatable")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as name:
        tmp = Path(name)
        parent = _git("rev-parse", args.parent + "^{commit}").decode().strip()
        change = _working_tree(tmp)
        trees = {"parent": tmp / "parent", "change": tmp / "change"}
        for side, rev in (("parent", parent), ("change", change)):
            _extract(rev, trees[side])
            _compile(trees[side])
        header = {
            "change_tree": change,
            "command": "python3 perfbench/run.py --workload WORKLOAD --seed SEED "
                       f"--seconds {BENCHMARK['run_seconds']} --trace 0",
            "method": METHOD,
            "parent_commit": parent,
        }
        return bench(trees, args.workload, args.pairs, header, args.out)


if __name__ == "__main__":
    sys.exit(main())
