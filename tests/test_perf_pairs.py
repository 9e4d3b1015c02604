"""The verdict that scripts/perf_pairs.py gives each end-to-end metric, and
what it prints of each pair."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "perf_pairs.py"
spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
perf_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_pairs)
verdict = perf_pairs.verdict

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]  # IQR 0.02


def test_gain_needs_nine_tenths_of_the_pairs_and_a_median_past_the_iqr():
    faster = [p + 0.1 for p in PARENT]
    assert verdict(PARENT, faster, higher=True, bound=0.25) == "gain"
    # eight wins of ten are not enough, however large the median gain
    eight = faster[:8] + [p - 0.1 for p in PARENT[8:]]
    assert verdict(PARENT, eight, higher=True, bound=0.25) == "within bound"
    # ten wins by less than the parent's IQR are not a gain either
    slight = [p + 0.005 for p in PARENT]
    assert verdict(PARENT, slight, higher=True, bound=0.25) == "within bound"


def test_ties_count_for_neither_side():
    assert verdict(PARENT, list(PARENT), higher=True, bound=0.25) == "within bound"
    nine = list(PARENT[:1]) + [p + 0.1 for p in PARENT[1:]]
    assert verdict(PARENT, nine, higher=True, bound=0.25) == "gain"


@pytest.mark.parametrize("higher, scale, want", [
    (True, 0.7, "regression"),  # 30% fewer runs per second against a 25% bound
    (True, 0.8, "within bound"),
    (False, 1.3, "regression"),  # 30% longer cases
    (False, 0.7, "gain"),  # lower is better: shorter cases win
])
def test_regression_is_a_median_worse_by_more_than_the_relative_bound(higher, scale, want):
    assert verdict(PARENT, [scale * p for p in PARENT], higher, bound=0.25) == want


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    wide = [1.0, 1.4, 0.6, 1.2, 0.8, 1.0, 1.3, 0.7, 1.1, 0.9]
    assert verdict(wide, [p * 0.95 for p in wide], higher=True, bound=0.25) == "unresolved"



def summary(values: dict) -> dict:
    """A ``perfbench/run.py`` summary line carrying the given metric values."""
    return {"metrics": {name: {"value": v, "unit": ""} for name, v in values.items()}}


def test_pair_lines_show_every_metric_of_both_sides_per_workload():
    old = summary({"a/runs_per_s": 5.0, "a/green_frac": 0.4, "b/runs_per_s": 1.25,
                   "b/green_frac": 1.0})
    new = summary({"a/runs_per_s": 5.5, "a/green_frac": 0.4, "b/runs_per_s": 1.5,
                   "b/green_frac": 1.0})
    assert perf_pairs.pair_lines(old, new) == [
        "  a: runs_per_s 5/5.5, green_frac 0.4/0.4",
        "  b: runs_per_s 1.25/1.5, green_frac 1/1",
    ]
    one = summary({"runs_per_s": 7.85, "setup_s": 0.4})
    assert perf_pairs.pair_lines(one, one) == ["  runs_per_s 7.85/7.85, setup_s 0.4/0.4"]


def test_differing_pairs_lists_each_pair_and_workload_whose_metric_differs():
    same = summary({"a/green_frac": 0.625, "b/green_frac": 1.0, "b/runs_per_s": 1.0})
    moved = summary({"a/green_frac": 0.594, "b/green_frac": 1.0, "b/runs_per_s": 2.0})
    pairs = [(same, same), (same, moved), (moved, moved)]
    assert perf_pairs.differing_pairs(pairs, "green_frac") == [(2, "a/green_frac", 0.625, 0.594)]
    assert perf_pairs.differing_pairs(pairs[:1], "green_frac") == []
    single = [(summary({"green_frac": 0.5}), summary({"green_frac": 0.53}))]
    assert perf_pairs.differing_pairs(single, "green_frac") == [(1, "green_frac", 0.5, 0.53)]
