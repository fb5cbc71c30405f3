"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --work DIR --result FILE
                                [--trace 0|1] [--scale full|tiny] [--setup-only]
                                [--spans FILE]

Imports parabolab from the checkout's ``src/``, builds the workload's inputs
from the seed, then runs one pass through parabolab's public entry points.
The result (a JSON object) goes to ``--result``:

- ``entry_t``: ``time.monotonic()`` just before the first call into
  parabolab's entry point; the parent subtracts its spawn time to get the
  set-up time (interpreter start, imports and input generation);
- ``wall_s``/``cpu_s``: wall and user+system CPU time of the pass, from that
  first call until the last artifact is written;
- ``peak_rss_mb``: the process's peak resident memory at the end of the pass;
- ``ok``/``notes``: one flag per operation from the correctness gates;
- ``layers``: the per-layer metrics, in a traced pass.

With ``--setup-only`` the worker stops after building the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer

# the checkout's sources, ahead of any installed copy
sys.path.insert(0, str(workloads.REPO_ROOT / "src"))
import parabolab.cli  # noqa: E402,F401  (imports count as set-up, not as the pass)


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_once(name: str, seed: int, work: Path, trace: bool = False,
             scale: str = "full", setup_only: bool = False,
             spans_path: Path | None = None) -> dict:
    """Prepare, execute and check one pass; returns the result record."""
    work.mkdir(parents=True, exist_ok=True)
    inputs = workloads.prepare(name, seed, scale, work)
    if setup_only:
        return {"entry_t": time.monotonic()}
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    entry_t = time.monotonic()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        produced = workloads.execute(name, inputs)
    finally:
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome = workloads.check(name, inputs, produced)
    record = {"entry_t": entry_t, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": peak_rss_mb, "ok": outcome.ok, "notes": outcome.notes}
    if tracer is not None:
        record["layers"] = tracer.metrics()
        if spans_path is not None:
            tracer.write_spans(spans_path)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    record = run_once(args.workload, args.seed, args.work, trace=bool(args.trace),
                      scale=args.scale, setup_only=args.setup_only,
                      spans_path=args.spans)
    tmp = args.result.with_suffix(".tmp")
    tmp.write_text(json.dumps(record))
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
