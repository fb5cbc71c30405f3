"""parabolab benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The loop is closed with one client: each
repetition is a fresh ``perfbench/worker.py`` process, started after the
previous one exits, with one BLAS thread.  Repetitions continue until
``--seconds`` have passed and at least ``MIN_REPS`` have run; every
repetition of a run uses the same inputs, generated from ``--seed``.

``--trace 0`` reports the end-to-end metrics, medians over the repetitions:

- ``wall_s``: one pass, from the first call into parabolab until the last
  artifact is written;
- ``cpu_s``: user plus system CPU time of the same interval;
- ``setup_s``: from spawning the interpreter until the first call into
  parabolab (imports and input generation), over at least ``MIN_SETUPS``
  start-ups;
- ``peak_rss_mb``: peak resident memory of the workload process;
- ``ok_ratio``: operations that passed their correctness gate over those
  attempted (1 - failed_ratio).

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracer.py`` (times are medians over traced passes,
counts must repeat exactly), plus ``trace.wall_s`` and ``trace.overhead_s``,
the gap between the traced and untraced median ``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full report with
every sample, the quartiles and the machine context is written to
``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

BENCH_DIR, ROOT = workloads.BENCH_DIR, workloads.REPO_ROOT

OUT_DIR = ROOT / ".perfbench-out"
MIN_REPS = 3
MIN_TRACED_REPS = 2
MIN_SETUPS = 5
# Every run must end within 180 s; no repetition starts past this budget.
BUDGET_S = 165.0

END_TO_END = {  # name -> unit
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "1",
}
_UNITS = {"_s": "s", "_calls": "count", "_ratio": "1"}
_BYTES = ("checkpoint.bytes_written", "checkpoint.bytes_read")


def _layer_unit(name: str) -> str:
    if name in _BYTES:
        return "B"
    for suffix, unit in _UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer_names() -> list:
    return tracer.metric_names() + ["trace.wall_s", "trace.overhead_s"]


# ---------------------------------------------------------------- machine

def _git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src" / "parabolab"
    for path in sorted(p for p in src.rglob("*") if p.suffix in (".py", ".json")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_info(env: dict) -> dict:
    """The context a number is comparable within."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "loadavg_1min": os.getloadavg()[0],
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------- repetitions

def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_rep(args, env: dict, run_dir: Path, index: int, traced: bool,
            setup_only: bool = False, timeout: float = BUDGET_S) -> dict:
    """Spawn one worker and wait for it; a worker that fails fails every operation."""
    work = run_dir / f"rep-{index:03d}"
    result = run_dir / f"rep-{index:03d}.json"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work), "--result", str(result),
           "--trace", str(int(traced)), "--scale", args.scale]
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        cmd += ["--spans", str(run_dir / "spans.csv")]
    spawn_t = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
        code, err = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, err = None, f"timed out after {timeout:.0f} s: {exc.stderr or ''}"
    shutil.rmtree(work, ignore_errors=True)
    if code == 0 and result.exists():
        rec = json.loads(result.read_text())
        result.unlink()
        rec["setup_s"] = rec.pop("entry_t") - spawn_t
    else:
        n = workloads.operation_count(args.workload, args.scale)
        rec = {"ok": [False] * n, "notes": [f"worker exit {code}: {err[-2000:]}"]}
    rec["traced"] = traced
    return rec


def collect(args, env: dict, run_dir: Path) -> tuple:
    """Repetitions until the time is up; returns (pass records, setup records)."""
    start = time.monotonic()
    deadline = start + args.seconds
    reps: list = []
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        t0 = time.monotonic()
        reps.append(run_rep(args, env, run_dir, len(reps), traced,
                            timeout=BUDGET_S - (t0 - start)))
        longest = max(longest, time.monotonic() - t0)
        n_traced = sum(r["traced"] for r in reps)
        if args.trace:
            enough = n_traced >= MIN_TRACED_REPS and len(reps) - n_traced >= MIN_TRACED_REPS
        else:
            enough = len(reps) >= MIN_REPS
        now = time.monotonic()
        if (now >= deadline and enough) or now - start + longest > BUDGET_S:
            break
    setups = [r for r in reps if not r["traced"] and "setup_s" in r]
    while not args.trace and len(setups) < MIN_SETUPS:
        rec = run_rep(args, env, run_dir, len(reps) + len(setups), False,
                      setup_only=True, timeout=BUDGET_S - (time.monotonic() - start))
        if "setup_s" not in rec:
            reps.append(rec)
            break
        setups.append(rec)
    return reps, setups


# ---------------------------------------------------------------- statistics

def describe(values: list) -> dict:
    """Median, quartiles and count."""
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarize(reps: list, setups: list, trace: bool) -> dict:
    """Aggregate repetition records into the result and the report."""
    flags = [ok for r in reps for ok in r["ok"]]
    attempted, failed = len(flags), flags.count(False)
    notes = [n for r in reps for n in r["notes"]]
    passes = [r for r in reps if "wall_s" in r]
    plain = [r for r in passes if not r["traced"]]
    stats = {k: describe([r[k] for r in plain]) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    stats["setup_s"] = describe([r["setup_s"] for r in setups])
    ok_ratio = 1.0 - failed / attempted if attempted else 0.0
    report = {"attempted": attempted, "failed": failed, "failed_ratio": 1.0 - ok_ratio,
              "notes": notes, "stats": stats, "samples": reps}
    if not trace:
        metrics = {k: stats[k]["median"] for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
        metrics["ok_ratio"] = ok_ratio
        units = END_TO_END
    else:
        traced = [r for r in passes if r["traced"]]
        layers = [r["layers"] for r in traced]
        counted = tracer.count_metric_names()
        mismatched = [k for k in counted if len({lay[k] for lay in layers}) > 1]
        if mismatched:
            notes.append(f"counts differ between traced passes: {mismatched}")
        report["counts_repeat"] = not mismatched
        metrics = {}
        for name in tracer.metric_names():
            if not layers:
                metrics[name] = None
            elif name in counted:
                metrics[name] = layers[0][name]
            else:
                metrics[name] = statistics.median(lay[name] for lay in layers)
        stats["trace.wall_s"] = describe([r["wall_s"] for r in traced])
        traced_wall, plain_wall = stats["trace.wall_s"]["median"], stats["wall_s"]["median"]
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = (None if None in (traced_wall, plain_wall)
                                       else traced_wall - plain_wall)
        units = {name: _layer_unit(name) for name in per_layer_names()}
    complete = all(v is not None for v in metrics.values())
    correct = failed == 0 and complete and report.get("counts_repeat", True)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v if v is not None else 0.0, "unit": units[k]}
                          for k, v in metrics.items()}}
    report["result"] = result
    return report


# ---------------------------------------------------------------- output

def _print_report(args, machine: dict, report: dict) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {args.workload} seed={args.seed} {mode}: "
          f"{len(report['samples'])} repetitions, one client, closed loop, "
          "fresh process per repetition")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for name, st in report["stats"].items():
        if st["n"]:
            print(f"  {name:<28} median {st['median']:.6g}  q1 {st['q1']:.6g}  "
                  f"q3 {st['q3']:.6g}  n={st['n']}")
    result = report["result"]
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  operations: {report['attempted']} attempted, {report['failed']} failed "
          f"(failed_ratio {report['failed_ratio']:.6g})")
    for note in report["notes"][:5]:
        print(f"  failure: {note.strip()[:400]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="parabolab benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full",
                        help="'tiny' shrinks every workload, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "parabolab" / "__init__.py").is_file():
        print(f"error: no parabolab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "sweep-1d" and not workloads.SWEEP_TEMPLATE.is_file():
        print(f"error: missing {workloads.SWEEP_TEMPLATE}", file=sys.stderr)
        return 2

    env = worker_env()
    machine = machine_info(env)
    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    reps, setups = collect(args, env, run_dir)
    report = summarize(reps, setups, bool(args.trace))
    report.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "scale": args.scale, "machine": machine})
    (run_dir / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    _print_report(args, machine, report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
