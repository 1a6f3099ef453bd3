"""Self-tests for the benchmark's own arithmetic, on synthetic inputs.

Run with ``python3 -m pytest -q perfbench/test_perfbench.py``; they need
neither the server nor the program under test.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import analysis  # noqa: E402


# -- the percentile with ten samples beyond it ------------------------------------


@pytest.mark.parametrize("count, want", [(1000, 99.0), (1100, 99.0), (5000, 99.0), (500, 98.0),
                                         (11, 100.0 / 11), (20, 50.0)])
def test_tail_percentile_leaves_ten_samples_beyond(count, want):
    p = analysis.tail_percentile(count)
    assert p == pytest.approx(want)
    values = list(range(count))
    threshold = analysis.percentile(values, p)
    assert sum(v > threshold for v in values) >= 10


def test_tail_percentile_is_the_highest_such_percentile():
    for count in (50, 333, 999, 1000, 1001, 4321):
        p = analysis.tail_percentile(count)
        values = list(range(count))
        # Any higher percentile (up to 99) leaves fewer than ten beyond.
        higher = min(99.0, p + 100.0 / count)
        if higher > p:
            beyond = sum(v > analysis.percentile(values, higher) for v in values)
            assert beyond < 10


def test_tail_percentile_refuses_tiny_samples():
    assert analysis.tail_percentile(10) is None
    assert analysis.tail([1.0, 2.0, 3.0]) == (None, 3.0)


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert analysis.percentile(values, 50.0) == 3.0
    assert analysis.percentile(values, 100.0) == 5.0
    assert analysis.percentile(values, 0.0) == 1.0
    assert analysis.percentile(values, 20.0) == 1.0
    assert analysis.percentile(values, 21.0) == 2.0


# -- span self time ---------------------------------------------------------------


def test_self_time_without_children_is_the_duration():
    assert analysis.self_time((1.0, 4.0), []) == 3.0


def test_self_time_subtracts_disjoint_children():
    assert analysis.self_time((0.0, 10.0), [(1.0, 2.0), (5.0, 8.0)]) == pytest.approx(6.0)


def test_self_time_counts_overlapping_children_once():
    assert analysis.self_time((0.0, 10.0), [(1.0, 5.0), (3.0, 6.0), (4.0, 4.5)]) == pytest.approx(5.0)


def test_self_time_clips_children_to_the_span():
    # A child starting before and one ending after the parent; one outside.
    children = [(-2.0, 1.0), (9.0, 12.0), (20.0, 21.0)]
    assert analysis.self_time((0.0, 10.0), children) == pytest.approx(8.0)


def test_self_time_of_a_fully_covered_span_is_zero():
    assert analysis.self_time((2.0, 3.0), [(0.0, 5.0)]) == 0.0


# -- comparison verdicts ----------------------------------------------------------


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_same_runs_are_within_bound():
    assert analysis.verdict(BASE, list(BASE), "lower", 0.1)["verdict"] == "within bound"


def test_clear_gain_reads_better():
    change = [v * 0.8 for v in BASE]
    v = analysis.verdict(BASE, change, "lower", 0.1)
    assert v["verdict"] == "better" and v["change_wins"] == 1.0


def test_higher_is_better_flips_the_direction():
    change = [v * 1.2 for v in BASE]
    assert analysis.verdict(BASE, change, "higher", 0.1)["verdict"] == "better"
    assert analysis.verdict(BASE, change, "lower", 0.1)["verdict"] == "worse"


def test_small_loss_inside_bound_is_within_bound():
    change = [v * 1.03 for v in BASE]
    assert analysis.verdict(BASE, change, "lower", 0.1)["verdict"] == "within bound"


def test_loss_beyond_bound_is_worse():
    change = [v * 1.2 for v in BASE]
    v = analysis.verdict(BASE, change, "lower", 0.1)
    assert v["verdict"] == "worse" and v["worse_by"] == pytest.approx(0.2)


def test_gain_winning_too_few_pairs_is_not_better():
    # The change's median is lower, but it wins only 6 of 10 pairs.
    change = [90.0, 91.0, 92.0, 93.0, 94.0, 95.0, 105.0, 106.0, 107.0, 108.0]
    base = [100.0] * 10
    v = analysis.verdict(base, change, "lower", 0.2)
    assert v["change_wins"] == 0.6 and v["verdict"] != "better"


def test_gain_smaller_than_base_spread_is_not_better():
    base = [90.0, 110.0, 95.0, 105.0, 100.0, 92.0, 108.0, 97.0, 103.0, 100.0]
    change = [v - 1.0 for v in base]
    v = analysis.verdict(base, change, "lower", 0.25)
    assert v["change_wins"] == 1.0 and v["verdict"] == "within bound"


def test_spread_wider_than_bound_is_unresolved():
    base = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    change = [v * 1.05 for v in base]
    assert analysis.verdict(base, change, "lower", 0.1)["verdict"] == "unresolved"


def test_noisy_but_every_run_better_reads_better():
    base = [100.0, 130.0, 110.0, 120.0, 105.0, 125.0, 115.0, 100.0, 130.0, 110.0]
    change = [40.0, 60.0, 50.0, 55.0, 45.0, 58.0, 52.0, 41.0, 59.0, 50.0]
    assert analysis.verdict(base, change, "lower", 0.1)["verdict"] == "better"


def test_noisy_but_every_run_worse_beyond_bound_reads_worse():
    base = [100.0, 130.0, 110.0, 120.0, 105.0, 125.0, 115.0, 100.0, 130.0, 110.0]
    change = [v * 2.0 for v in base]
    assert analysis.verdict(base, change, "lower", 0.1)["verdict"] == "worse"


def test_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert analysis.spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def test_band_mean_averages_rows_in_the_percentile_band():
    keys = list(range(1, 101))
    rows = [{"a": float(k), "b": 1.0} for k in keys]
    out = analysis.band_mean(keys, rows, 99.0, 100.0)
    assert out == {"a": 99.5, "b": 1.0}
