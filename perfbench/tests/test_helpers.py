"""Unit tests for the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import random
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from tracing import Tracer, branch_counts, nearest_rank, self_times, ten_beyond  # noqa: E402

from skfnav.switching import StepDiagnostics  # noqa: E402


class TestTenBeyond:
    def test_hundred_samples_give_p90(self):
        values = list(range(1, 101))
        random.Random(0).shuffle(values)
        tail = ten_beyond(values)
        assert tail == {"value": 90, "percentile": 90.0, "samples": 100}
        assert sum(v > tail["value"] for v in values) == 10

    def test_thousand_samples_give_p99(self):
        tail = ten_beyond(np.arange(1000.0))
        assert tail["value"] == 989.0
        assert tail["percentile"] == 99.0

    def test_eleven_samples_leave_the_minimum(self):
        tail = ten_beyond([5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0])
        assert tail["value"] == 1.0
        assert tail["percentile"] == pytest.approx(100.0 / 11.0)

    def test_ten_samples_have_no_tail(self):
        with pytest.raises(ValueError):
            ten_beyond(range(10))

    def test_nearest_rank(self):
        assert nearest_rank(range(1, 101), 99) == 99
        assert nearest_rank([3.0], 50) == 3.0


class TestSelfTimes:
    def test_nested_spans(self):
        # 0: root [0, 10]; 1: [1, 3] and 2: [2, 5] overlap, covering [1, 5];
        # 3: [7, 12] reaches past the root, counting [7, 10]; 4: [1.5, 2]
        # inside span 1; 5: a second root without children.
        start = [0.0, 1.0, 2.0, 7.0, 1.5, 20.0]
        end = [10.0, 3.0, 5.0, 12.0, 2.0, 21.0]
        parent = [-1, 0, 0, 0, 1, -1]
        own = self_times(start, end, parent)
        np.testing.assert_allclose(own, [3.0, 1.5, 3.0, 5.0, 0.5, 1.0])

    def test_disjoint_children_of_two_parents(self):
        start = [0.0, 10.0, 1.0, 4.0, 11.0]
        end = [5.0, 20.0, 2.0, 5.0, 19.0]
        parent = [-1, -1, 0, 0, 1]
        np.testing.assert_allclose(
            self_times(start, end, parent), [3.0, 2.0, 1.0, 1.0, 8.0]
        )

    def test_no_spans(self):
        assert self_times([], [], []).size == 0


class TestTracer:
    def test_wrap_records_nesting_and_restores(self):
        mod = types.SimpleNamespace()
        mod.leaf = lambda x: x + 1
        mod.outer = lambda x: mod.leaf(x) + mod.leaf(x)
        mod.recurse = lambda n: 0 if n == 0 else mod.recurse(n - 1)
        original = (mod.leaf, mod.outer, mod.recurse)
        tracer = Tracer()
        assert tracer.wrap(mod, "leaf", "leaf")
        assert tracer.wrap(mod, "outer", "outer")
        assert tracer.wrap(mod, "recurse", "recurse")
        assert not tracer.wrap(mod, "absent", "absent")
        try:
            assert mod.outer(1) == 4
            mod.recurse(3)
        finally:
            tracer.restore()
        assert (mod.leaf, mod.outer, mod.recurse) == original
        spans = tracer.summary()
        assert spans["leaf"]["calls"] == 2
        assert spans["outer"]["calls"] == 1
        assert spans["recurse"]["calls"] == 4
        a = tracer.arrays()
        assert list(a["parent"][:3]) == [-1, 0, 0]
        assert list(a["nested"][3:]) == [0, 1, 1, 1]
        assert spans["outer"]["self_s"] <= spans["outer"]["s"]
        assert spans["recurse"]["s"] == pytest.approx(spans["recurse"]["durations"][0])

    def test_count_within_counts_only_under_named_parents(self):
        mod = types.SimpleNamespace()
        mod.factor = lambda: None
        mod.update = lambda: mod.factor()
        mod.points = lambda: mod.factor()
        tracer = Tracer()
        tracer.wrap(mod, "update", "update")
        tracer.wrap(mod, "points", "points")
        tracer.count_within(mod, "factor", "factor", {"update"})
        try:
            mod.update()
            mod.update()
            mod.points()
            mod.factor()
        finally:
            tracer.restore()
        assert tracer.counts["factor"] == 2


def test_live_branch_frac_from_step_diagnostics():
    diags = [
        StepDiagnostics(k=1, epoch=True, spawned_s=1, n_branches=2),
        StepDiagnostics(k=2, epoch=True, spawned_s=2, n_branches=3),
        StepDiagnostics(k=3, epoch=True, spawned_s=3, pruned=((1, -4.0),),
                        n_branches=3, frozen=(2,)),
        StepDiagnostics(k=4, epoch=True, spawned_s=None, pruned=((3, -9.0), (2, -8.0)),
                        n_branches=1, frozen=(0,)),
        StepDiagnostics(k=5, epoch=False, n_branches=1, frozen=(0,)),
    ]
    counts = branch_counts(diags)
    assert counts == {
        "spawned": 3,
        "pruned": 3,
        "branch_steps": 10,
        "frozen_branch_steps": 3,
        "live_branch_frac": 0.7,
    }
    assert branch_counts([])["live_branch_frac"] == 0.0



class TestCalibratedCells:
    @staticmethod
    def fake_harness():
        def _run_task(task):
            return types.SimpleNamespace(task=task)

        return types.SimpleNamespace(_run_task=_run_task)

    def test_in_process_cells_carry_bursts_and_restore(self):
        import run

        harness = self.fake_harness()
        original = harness._run_task
        with run.calibrated_cells(harness):
            record = harness._run_task(7)
        assert harness._run_task is original
        assert record.task == 7
        assert len(record.calibration_bursts) == 2 * run.BURSTS_PER_GAP
        assert all(b > 0 for b in record.calibration_bursts)

    def test_forked_workers_inherit_the_stand_in(self):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        import run

        harness = self.fake_harness()
        run_task = harness._run_task
        with run.calibrated_cells(harness):
            with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
                records = list(pool.map(run._calibrated_task, [1, 2, 3]))
        assert harness._run_task is run_task
        assert [r.task for r in records] == [1, 2, 3]
        assert all(len(r.calibration_bursts) == 2 * run.BURSTS_PER_GAP for r in records)
