"""The statistics of ``scripts/bench_pairs.py`` on fixed per-run values."""

from __future__ import annotations

import importlib.util
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
