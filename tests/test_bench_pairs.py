"""The statistics of ``scripts/bench_pairs.py`` on fixed per-run values."""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# ladder-1d wall_s of ten alternating pairs, as committed in BENCH_18.json;
# its statistics came from the unrounded values, so its change q3 reads 0.4
PARENT = [0.5549, 0.531, 0.5272, 0.4865, 0.5273, 0.549, 0.5336, 0.5583, 0.5538, 0.5353]
CHANGE = [0.3524, 0.3687, 0.3412, 0.3458, 0.4137, 0.3926, 0.4213, 0.3997, 0.3725, 0.4]


def test_pair_statistics_of_a_committed_benchmark():
    stats = bench_pairs.pair_stats(PARENT, CHANGE, "lower", "s")
    assert stats["parent"] == {"median": 0.5344, "q1": 0.5282, "q3": 0.5526, "runs": PARENT}
    assert stats["change"] == {"median": 0.3826, "q1": 0.3565, "q3": 0.3999, "runs": CHANGE}
    assert stats["change_better_pairs"] == 10
    assert stats["median_change_pct"] == -28.41
    assert stats["median_gap_exceeds_parent_iqr"] is True
    assert (stats["better"], stats["unit"]) == ("lower", "s")


def test_pairs_count_only_strict_gains_in_the_metric_direction():
    # higher is better: a tie is no gain, and a lower change value is a loss
    stats = bench_pairs.pair_stats([1.0, 1.0, 0.5, 2.0], [1.0, 1.5, 0.25, 2.0], "higher", "1")
    assert stats["change_better_pairs"] == 1
    assert stats["parent"]["median"] == 1.0 and stats["change"]["median"] == 1.25
    assert stats["median_change_pct"] == 25.0
    # parent quartiles 0.875 and 1.25: a gap of 0.25 is not beyond them
    assert (stats["parent"]["q1"], stats["parent"]["q3"]) == (0.875, 1.25)
    assert stats["median_gap_exceeds_parent_iqr"] is False
    lower = bench_pairs.pair_stats([0.5, 0.4], [0.4, 0.5], "lower", "s")
    assert lower["change_better_pairs"] == 1 and lower["median_change_pct"] == 0.0


def test_a_single_run_is_its_own_median_and_quartiles():
    assert bench_pairs.describe([0.25]) == {"median": 0.25, "q1": 0.25, "q3": 0.25,
                                            "runs": [0.25]}


def test_the_gain_rule_needs_nine_of_ten_pairs_and_a_gap_beyond_the_parent_iqr():
    assert bench_pairs.pair_stats(PARENT, CHANGE, "lower", "s")["gain_rule_met"] is True
    # the same runs read as a loss when higher is better: the gap exceeds the
    # parent's IQR, but in the worse direction
    worse = bench_pairs.pair_stats(PARENT, CHANGE, "higher", "s")
    assert worse["median_gap_exceeds_parent_iqr"] is True and worse["gain_rule_met"] is False
    # 8 of 10 pairs better is not enough, whatever the gap
    mixed = CHANGE[:8] + PARENT[8:]
    eight = bench_pairs.pair_stats(PARENT, mixed, "lower", "s")
    assert eight["change_better_pairs"] == 8 and eight["gain_rule_met"] is False
    # every pair better, but by less than the parent's spread
    close = bench_pairs.pair_stats(PARENT, [v - 0.001 for v in PARENT], "lower", "s")
    assert close["change_better_pairs"] == 10
    assert close["median_gap_exceeds_parent_iqr"] is False and close["gain_rule_met"] is False


def test_a_failed_run_keeps_the_finished_pairs(monkeypatch, tmp_path):
    metrics = [m["name"] for m in bench_pairs.BENCHMARK["end_to_end"]]
    runs = []

    def fake_run(tree, workload, seed):
        runs.append((tree.name, workload, seed))
        if (tree.name, workload, seed) == ("change", "w2", bench_pairs.FIRST_SEED + 2):
            raise bench_pairs.RunFailed(3)
        value = seed - bench_pairs.FIRST_SEED + (1.0 if tree.name == "parent" else 0.5)
        return {"machine": {"source_sha256": tree.name},
                "result": {"correct": True,
                           "metrics": {name: {"value": value} for name in metrics}}}

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    out = tmp_path / "bench.json"
    trees = {"parent": Path("parent"), "change": Path("change")}
    code = bench_pairs.bench(trees, ["w1", "w2", "w3"], 4, {"parent_commit": "abc"}, out)
    assert code == 1
    report = json.loads(out.read_text())
    first = bench_pairs.FIRST_SEED
    assert report["failed_run"] == {"side": "change", "pair": 3, "seed": first + 2,
                                    "exit_code": 3, "workload": "w2"}
    assert report["parent_commit"] == "abc"
    assert report["source_sha256"] == {"parent": "parent", "change": "change"}
    # w3 never ran; the failure was the last run
    assert sorted(report["workloads"]) == ["w1", "w2"] and runs[-1][1:] == ("w2", first + 2)
    w1, w2 = report["workloads"]["w1"], report["workloads"]["w2"]
    assert w1["failed_run"] is None and w1["pairs"] == 4
    assert w1["metrics"]["wall_s"]["parent"]["runs"] == [1.0, 2.0, 3.0, 4.0]
    # the parent's run of the broken pair is left out with it
    assert w2["pairs"] == 2 and w2["seeds"] == [first, first + 1]
    assert w2["parent_first"] == [True, False]
    assert w2["metrics"]["wall_s"]["parent"]["runs"] == [1.0, 2.0]
    assert w2["metrics"]["wall_s"]["change"]["runs"] == [0.5, 1.5]
    # a failure in the first pair leaves no statistics, and the file is written
    monkeypatch.setattr(bench_pairs, "_run", lambda tree, w, s: (_ for _ in ()).throw(
        bench_pairs.RunFailed(2)))
    assert bench_pairs.bench(trees, ["w1"], 3, {}, out) == 1
    report = json.loads(out.read_text())
    assert report["workloads"]["w1"]["metrics"] == {} and report["workloads"]["w1"]["pairs"] == 0
    assert report["failed_run"]["pair"] == 1 and report["failed_run"]["side"] == "parent"


def test_each_tree_is_byte_compiled_before_its_runs(tmp_path, monkeypatch):
    # compiled also where the interpreter is told not to write bytecode
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    package = tmp_path / "src" / "parabolab"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    for path, text in ((package / "__init__.py", ""), (package / "grids.py", "X = 1\n"),
                       (tmp_path / "perfbench" / "run.py", "import sys\n")):
        path.write_text(text)
    bench_pairs._compile(tmp_path)
    sources = sorted(package.glob("*.py")) + [tmp_path / "perfbench" / "run.py"]
    assert len(sources) == 3
    for source in sources:
        assert os.path.isfile(importlib.util.cache_from_source(source))


def _fake_run(tree, workload, seed):
    metrics = [m["name"] for m in bench_pairs.BENCHMARK["end_to_end"]]
    return {"machine": {"source_sha256": tree.name},
            "result": {"correct": True, "metrics": {name: {"value": 1.0} for name in metrics}}}


def test_each_run_records_the_hosts_steal_share(monkeypatch):
    # cumulative (steal, total) ticks read before and after each run, in
    # run order: parent and change in pair 1, change and parent in pair 2
    readings = iter([(10, 100), (15, 200), (15, 200), (15, 300),
                     None, (20, 400), (20, 400), (20, 400)])
    monkeypatch.setattr(bench_pairs, "_cpu_times", lambda: next(readings))
    monkeypatch.setattr(bench_pairs, "_run", _fake_run)
    trees = {"parent": Path("parent"), "change": Path("change")}
    result = bench_pairs.bench_workload(trees, "w", 2, bench_pairs.BENCHMARK["end_to_end"], {})
    # a missing reading, or no time between two, records null
    assert result["steal_share"] == {"parent": [0.05, None], "change": [0.0, None]}


def test_the_steal_reader_takes_the_aggregate_cpu_line(monkeypatch, tmp_path):
    stat = tmp_path / "stat"
    stat.write_text("cpu  100 5 50 800 10 0 5 30 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n")
    monkeypatch.setattr(bench_pairs, "PROC_STAT", stat)
    # steal is the eighth field; guest time (ninth) is already in user time
    assert bench_pairs._cpu_times() == (30, 1000)
    monkeypatch.setattr(bench_pairs, "PROC_STAT", tmp_path / "missing")
    assert bench_pairs._cpu_times() is None
