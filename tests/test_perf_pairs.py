"""The verdict that scripts/perf_pairs.py gives each end-to-end metric, what
it prints of each pair, and the BENCH document it writes."""

import importlib.util
import json
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


def test_bench_document_holds_the_commits_machine_seeds_and_each_verdict():
    spec = {"runs_per_s": {"name": "runs_per_s", "unit": "runs/s", "better": "higher",
                           "bound": 0.25},
            "green_frac": {"name": "green_frac", "unit": "fraction", "better": "higher",
                           "bound": 0.25}}
    stamp = {"backend": "numpy", "source_sha256": "p", "nproc": 2, "python": "3.11.7",
             "numpy": "2.4.6", "commit": None}
    pairs = []
    for i, p in enumerate(PARENT):
        old = summary({"runs_per_s": p, "green_frac": 0.5})
        new = summary({"runs_per_s": p + 0.1, "green_frac": 0.5 if i else 0.75})
        old["stamp"], new["stamp"] = stamp, {**stamp, "source_sha256": "t"}
        pairs.append((old, new))
    commits = {"parent": "a" * 40, "tree": "a" * 40, "tree_has_uncommitted_changes": True}
    doc = perf_pairs.bench_document("w", list(range(301, 311)), 20.0, commits, pairs, spec)
    assert {k: doc[k] for k in ("workload", "commits", "backend", "source_sha256", "nproc",
                                "python", "numpy", "seeds", "seconds")} == {
        "workload": "w", "commits": commits, "backend": {"parent": "numpy", "tree": "numpy"},
        "source_sha256": {"parent": "p", "tree": "t"}, "nproc": 2, "python": "3.11.7",
        "numpy": "2.4.6", "seeds": list(range(301, 311)), "seconds": 20.0,
    }
    runs = doc["metrics"]["runs_per_s"]
    assert runs["verdict"] == "gain" and runs["tree_better_in"] == 10 and runs["pairs"] == 10
    assert runs["parent"] == pytest.approx({"q1": 0.99, "median": 1.0, "q3": 1.01})
    assert runs["tree"] == pytest.approx({"q1": 1.09, "median": 1.1, "q3": 1.11})
    assert runs["parent_iqr"] == pytest.approx(0.02)
    assert runs["median_gain"] == pytest.approx(0.1)
    assert (runs["unit"], runs["better"], runs["bound"]) == ("runs/s", "higher", 0.25)
    assert doc["metrics"]["green_frac"]["verdict"] == "within bound"
    assert doc["green_frac_differs"] == [[1, "green_frac", 0.5, 0.75]]
    json.dumps(doc)  # the document is written as JSON


@pytest.mark.parametrize("status, tree", [
    ("", "b" * 40), (" M src/skfnav/harness.py", None), ("?? src/skfnav/new.py", None),
], ids=["clean", "uncommitted", "untracked"])
def test_the_tree_commit_is_null_when_the_tree_has_uncommitted_changes(
        monkeypatch, status, tree):
    # an untracked source file changes what is measured as much as an edit
    answers = {("rev-parse", "HEAD~1"): "a" * 40, ("rev-parse", "HEAD"): "b" * 40,
               ("status", "--porcelain"): status}
    monkeypatch.setattr(perf_pairs, "git", lambda *args: answers[args])
    assert perf_pairs.commits_stamp("HEAD~1") == {
        "parent": "a" * 40, "tree": tree, "tree_has_uncommitted_changes": bool(status)}
