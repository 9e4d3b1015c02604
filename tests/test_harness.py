import csv
import json
import multiprocessing
import os
import pickle
import re
import tempfile

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skfnav import configio, harness
from skfnav.cli import main
from skfnav.constants import EARTH_RADIUS_FT
from skfnav.exceptions import ConfigError, FieldDomainError
from skfnav.metrics import GREEN, RED, YELLOW, classify, relative_rmse
from skfnav.switching import SwitchingFilter


PLOT_SCHEMA = {
    "type": "object",
    "required": ["kind", "axis", "series"],
    "properties": {
        "kind": {"enum": ["success_rate", "rmse_scatter"]},
        "axis": {"type": "string"},
        "series": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["label", "x", "y"],
                "properties": {
                    "label": {"type": "string"},
                    "x": {"type": "array", "items": {"type": "number"}},
                    "y": {"type": "array", "items": {"type": "number"}},
                },
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}


def balloon_config(**overrides):
    data = {
        "scenario": "balloon", "n_steps": 100, "dt": 0.01, "q_x": 1e-4, "q_p": 1e-4,
        "r": 1e-6, "delta": 1, "seed": 0,
        "bias": {"kind": "static", "A": 0.2}, "true_switch_step": 50,
    }
    data.update(overrides)
    return data


class TestValidateDocument:
    @pytest.mark.parametrize("doc, schema", [
        ({"scenario": "shuttle", "n_steps": 0}, configio.SHUTTLE_SCHEMA),
        ({"scenario": "shuttle", "init_state": [1.0, 2.0]}, configio.SHUTTLE_SCHEMA),
        ({"scenario": "balloon", "wind": 3}, configio.BALLOON_SCHEMA),
        ({"scenario": "balloon", "axes": {"D": [1.0]}}, configio.SWEEP_SCHEMA),
        ({"kind": "success_rate", "axis": "A", "series": [{"label": "x", "x": [1]}]},
         PLOT_SCHEMA),
    ])
    def test_raises_what_jsonschema_validate_raises(self, doc, schema):
        for _ in range(2):  # first call builds the validator, the second reuses it
            with pytest.raises(jsonschema.ValidationError) as ours:
                configio.validate_document(doc, schema)
            with pytest.raises(jsonschema.ValidationError) as ref:
                jsonschema.validate(doc, schema)
            assert ours.value.message == ref.value.message
            assert list(ours.value.absolute_path) == list(ref.value.absolute_path)

    def test_valid_document_passes(self):
        for _ in range(2):
            configio.validate_document(balloon_config(), configio.BALLOON_SCHEMA)


class TestRelativeRmse:
    def test_exact_match_is_zero(self):
        series = np.linspace(1, 2, 50)[:, None]
        assert relative_rmse(series, series)[0] == 0.0

    def test_constant_offset_hand_value(self):
        truth = np.ones((10, 1))
        est = np.full((10, 1), 1.1)
        assert relative_rmse(est, truth)[0] == pytest.approx(0.1)

    def test_sign_flip_gives_two(self):
        truth = np.linspace(1, 3, 20)[:, None]
        assert relative_rmse(-truth, truth)[0] == pytest.approx(2.0)

    def test_zero_truth_flagged_nan(self):
        truth = np.zeros((5, 1))
        out = relative_rmse(np.ones((5, 1)), truth)
        assert np.isnan(out[0])

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=100, deadline=None)
    def test_matches_bruteforce_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        truth = rng.standard_normal((n, 3))
        est = rng.standard_normal((n, 3))
        got = relative_rmse(est, truth)
        for j in range(3):
            num = sum((est[k, j] - truth[k, j]) ** 2 for k in range(n))
            den = sum(truth[k, j] ** 2 for k in range(n))
            if den > 0:
                assert got[j] == pytest.approx(np.sqrt(num / den), rel=1e-12, abs=1e-12)
            else:
                assert np.isnan(got[j])


class TestClassify:
    def test_one_step_off_is_green(self):
        out = classify(201, 200, bias_free=False, no_corruption_reported=False)
        assert out == GREEN

    def test_four_steps_off_is_yellow(self):
        out = classify(204, 200, bias_free=False, no_corruption_reported=False)
        assert out == YELLOW

    def test_far_off_is_red(self):
        out = classify(493, 10, bias_free=False, no_corruption_reported=False)
        assert out == RED

    def test_missed_detection_is_red(self):
        out = classify(None, 200, bias_free=False, no_corruption_reported=True)
        assert out == RED

    def test_unbiased_convention(self):
        assert classify(499, None, bias_free=True, no_corruption_reported=True) == GREEN
        assert classify(250, None, bias_free=True, no_corruption_reported=False) == RED


class TestRunCase:
    def test_detecting_run_is_green(self):
        record = harness.execute_case(balloon_config())[0]
        assert record.status == "ok"
        assert record.outcome == GREEN
        assert record.est_switch_step == 50
        assert set(record.rmse) == {"lon", "lat"}
        assert record.rmse["lon"] < 1e-2

    def test_unbiased_run_no_corruption(self):
        record = harness.execute_case(balloon_config(
            bias={"kind": "quadratic"}, true_switch_step=None, q_x=1e-6, q_p=1e-6))[0]
        assert record.no_corruption
        assert record.outcome == GREEN
        assert max(record.rmse.values()) < 1e-2

    def test_two_seeds_share_config_hash(self):
        a = harness.execute_case(balloon_config(), seed=1)[0]
        b = harness.execute_case(balloon_config(), seed=2)[0]
        assert a.seed == 1 and b.seed == 2
        assert a.config_hash == b.config_hash
        assert a.rmse != b.rmse  # different noise draws, distinct records

    def test_field_is_part_of_the_config(self):
        # two runs that differ only in their velocity field
        data = {"scenario": "balloon", "n_steps": 30, "true_switch_step": None}
        plain = harness.execute_case(data)[0]
        fielded = harness.execute_case({**data, "field": {"kind": "analytic", "u0": 0.5}})[0]
        assert plain.rmse != fielded.rmse
        assert plain.config_hash == "cd621069d0eb"  # a config without a field keeps its hash
        assert "field" not in plain.config
        assert fielded.config["field"] == {"kind": "analytic", "u0": 0.5}
        assert fielded.config_hash != plain.config_hash

    @pytest.mark.parametrize("scenario", ["balloon", "shuttle"])
    def test_echoed_config_validates(self, scenario):
        # the record's config echo is itself a config of its scenario
        data = balloon_config() if scenario == "balloon" else shuttle_config()
        record = harness.execute_case(data)[0]
        assert record.status == "ok"
        assert configio.validate_config(record.config) == scenario

    def test_same_config_same_record(self):
        a = harness.execute_case(balloon_config())[0]
        b = harness.execute_case(balloon_config())[0]
        assert a.rmse == b.rmse
        assert a.est_switch_step == b.est_switch_step

    def test_invalid_config_raises(self):
        with pytest.raises(ConfigError):
            harness.execute_case({"scenario": "balloon", "n_steps": 0})

    def test_seed_override_is_validated(self):
        with pytest.raises(ConfigError, match="seed: -1 is less than the minimum of 0"):
            harness.execute_case(balloon_config(), seed=-1)

    # json loads NaN and Infinity, and the schema takes them as numbers
    @pytest.mark.parametrize("data", [
        {"scenario": "shuttle", "n_steps": 5, "true_switch_step": None,
         "init_state": [float("nan"), 0.93, 0.32, 1.4e4, -0.006, 0.8, 0.6, 0.2, 0.65]},
        {"scenario": "shuttle", "n_steps": 5, "true_switch_step": None,
         "dt": float("nan")},
        balloon_config(q_x=float("nan")),
        balloon_config(r=float("inf")),
    ], ids=["shuttle-init-state-nan", "shuttle-dt-nan", "balloon-q-x-nan", "balloon-r-inf"])
    def test_non_finite_number_is_a_config_error(self, data):
        with pytest.raises(ConfigError, match="must be finite"):
            harness.execute_case(data)


class TestSweep:
    def sweep_dict(self, **overrides):
        data = {
            "scenario": "balloon",
            "name": "unit",
            "base": {"n_steps": 60, "dt": 0.01, "q_x": 1e-6, "q_p": 1e-6,
                     "delta": 1, "true_switch_step": 30},
            "axes": {"r": [1e-6, 1e-4], "A": [0.0, 0.2]},
            "seeds": 2,
        }
        data.update(overrides)
        return data

    def test_cardinality(self):
        grid = harness.sweep_from_dict(self.sweep_dict())
        records = harness.run_sweep(grid, threads=1)
        assert len(records) == 2 * 2 * 2

    def test_single_cell_aggregate_equals_record(self):
        grid = harness.sweep_from_dict(self.sweep_dict(
            axes={"A": [0.2]}, seeds=[7]))
        records = harness.run_sweep(grid, threads=1)
        rows = harness.aggregate(grid, records)
        pooled = [row for row in rows if row["q_p"] == "all"][0]
        assert pooled["runs"] == 1
        assert pooled["success_rate"] in (0.0, 1.0)
        assert pooled["median_rmse_lon"] == pytest.approx(records[0].rmse["lon"])

    def test_q_x_link(self):
        grid = harness.sweep_from_dict(self.sweep_dict(q_x_over_r=100.0))
        for cell in grid.cell_configs():
            assert cell["q_x"] == pytest.approx(cell["r"] / 100.0)

    def test_aggregate_matches_bruteforce(self):
        grid = harness.sweep_from_dict(self.sweep_dict())
        records = harness.run_sweep(grid, threads=1)
        rows = harness.aggregate(grid, records)
        for row in rows:
            if row["q_p"] == "all":
                subset = [r for r in records
                          if harness._axis_value(r, row["axis"]) == row["value"]]
                values = sorted(r.rmse["lon"] for r in subset)
                mid = (values[(len(values) - 1) // 2] + values[len(values) // 2]) / 2
                assert row["median_rmse_lon"] == pytest.approx(mid)
                assert row["successes"] == sum(r.outcome == GREEN for r in subset)

    def test_plot_success_rates_equal_aggregate_rows(self):
        # on the q_p axis, a value crossed with any other q_p level is empty
        grid = harness.sweep_from_dict(self.sweep_dict(
            axes={"q_p": [1e-6, 1e-4], "A": [0.0, 0.2]}))
        records = harness.run_sweep(grid, threads=1)
        rates = {
            (row["axis"], row["value"], row["q_p"]): row["success_rate"]
            for row in harness.aggregate(grid, records) if row["q_p"] != "all"
        }
        docs = harness.plot_documents(grid, records)
        levels = sorted({rec.config["q_p"] for rec in records})
        empty = 0
        for axis, values in grid.axes.items():
            series = docs[f"success_rate_{axis}"]["series"]
            assert [s["label"] for s in series] == [f"q_p={q_p:g}" for q_p in levels]
            for q_p, points in zip(levels, series):
                assert points["x"] == [float(v) for v in values]
                for value, y in zip(values, points["y"]):
                    if (axis, value, q_p) in rates:
                        assert y == rates[(axis, value, q_p)]
                    else:
                        assert np.isnan(y)
                        assert not [r for r in records if r.config["q_p"] == q_p
                                    and harness._axis_value(r, axis) == value]
                        empty += 1
        assert len(rates) == 6 and empty == 2

    def test_negative_seed_is_a_config_error(self):
        sweep = self.sweep_dict()
        with pytest.raises(ConfigError, match="seeds must be non-negative"):
            harness.SweepGrid(scenario="balloon", base=sweep["base"], axes=sweep["axes"],
                              seeds=(0, -1))

    def test_non_finite_axis_value_is_a_config_error(self):
        with pytest.raises(ConfigError, match="must be finite"):
            harness.sweep_from_dict(self.sweep_dict(axes={"A": [0.0, float("nan")]}))

    def test_parallel_matches_serial(self):
        grid = harness.sweep_from_dict(self.sweep_dict(seeds=1))
        serial = harness.run_sweep(grid, threads=1)
        parallel = harness.run_sweep(grid, threads=2)
        assert [r.rmse for r in serial] == [r.rmse for r in parallel]
        assert [r.est_switch_step for r in serial] == [r.est_switch_step for r in parallel]

    def test_shipped_statistical_grid_cardinality(self):
        import json
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "configs" / "balloon_sa.json"
        grid = harness.sweep_from_dict(json.loads(path.read_text()))
        assert len(grid.cell_configs()) * len(grid.seeds) == 3**5 * 5

    def test_cell_failure_recorded_not_raised(self):
        # polar-singular initial state makes every shuttle run fail
        grid = harness.sweep_from_dict({
            "scenario": "shuttle",
            "base": {"n_steps": 10, "true_switch_step": None, "oversample": 1,
                     "init_state": [1.5e5, 1.5707963267948966, 0.32, 1.4e4, -0.006,
                                    0.8, 0.6, 0.2, 0.65]},
            "axes": {"A": [0.0]},
            "seeds": 1,
        })
        records = harness.run_sweep(grid, threads=1)
        assert len(records) == 1
        assert records[0].status == "error"
        assert "Polar" in records[0].error

    @staticmethod
    def assert_rejected_at_load(scenario, base, message, tmp_path):
        """``base`` is a config error before any run: ``execute_case`` and
        ``sweep_from_dict`` raise, and ``skfnav simulate`` exits 2."""
        data = {"scenario": scenario, "n_steps": 20, "true_switch_step": None, **base}
        with pytest.raises(ConfigError, match=re.escape(message)):
            harness.execute_case(data)
        with pytest.raises(ConfigError, match=re.escape(message)):
            harness.sweep_from_dict({
                "scenario": scenario, "base": {k: v for k, v in data.items() if k != "scenario"},
                "axes": {"A": [0.0, 10.0]}, "seeds": 1,
            })
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert main(["--quiet", "simulate", scenario, "--config", str(path),
                     "--out", str(tmp_path / "runs")]) == 2
        assert not (tmp_path / "runs").exists()

    def test_negative_speed_is_a_config_error_not_a_crash(self, tmp_path):
        init = [1.5e5, 0.93, 0.32, -1.4e4, -0.006, 0.8, 0.6, 0.2, 0.65]
        self.assert_rejected_at_load(
            "shuttle", {"oversample": 1, "init_state": init},
            "shuttle config: init_state[3]: -14000.0 is less than the minimum of 0", tmp_path)

    @pytest.mark.parametrize("altitude", [-EARTH_RADIUS_FT, -EARTH_RADIUS_FT - 1e3])
    def test_altitude_at_or_below_earth_centre_is_a_config_error(self, altitude, tmp_path):
        # the gravity of a radius at or below zero is undefined; at exactly
        # -EARTH_RADIUS_FT it divided by zero
        init = [altitude, 0.93, 0.32, 1.4e4, -0.006, 0.8, 0.6, 0.2, 0.65]
        self.assert_rejected_at_load(
            "shuttle", {"oversample": 1, "init_state": init},
            f"shuttle config: init_state[0]: {altitude!r} is less than or equal to the "
            f"minimum of {-EARTH_RADIUS_FT!r}", tmp_path)

    @pytest.mark.parametrize("scenario, base, error", [
        ("balloon", {"field": {"kind": "analytic", "wavelength": 0.0}},
         "balloon config: field.wavelength: 0.0 is less than or equal to the minimum of 0"),
        ("shuttle", {"imu_walk_accel": 1.5e154},
         "shuttle config: imu_walk_accel: 1.5e+154 is greater than the maximum of "
         "1.3407807929942596e+154"),
        ("shuttle", {"imu_walk_gyro": 1.5e154},
         "shuttle config: imu_walk_gyro: 1.5e+154 is greater than the maximum of "
         "1.3407807929942596e+154"),
        ("shuttle", {"init_state": [1.5e5, 0.93, 0.32, 1.4e4, 2.0, 0.8, 0.6, 0.2, 0.65]},
         "shuttle config: init_state[4]: 2.0 is greater than the maximum of 1.5707963267958966"),
        # a latitude of 1e167 degrees once ran to a green record
        ("balloon", {"x0": [0.0, 1.0245718301761099e167]},
         "balloon config: x0[1]: 1.0245718301761099e+167 is greater than the maximum of 90"),
        ("balloon", {"x0": [-360.5, 25.0]},
         "balloon config: x0[0]: -360.5 is less than the minimum of -360"),
    ], ids=["zero-wavelength", "accel-walk", "gyro-walk", "flight-path-angle",
            "latitude", "longitude"])
    def test_config_that_cannot_run_is_rejected_at_load(self, scenario, base, error, tmp_path):
        # the first three once escaped execute_case as ZeroDivisionError or
        # OverflowError and aborted a sweep
        self.assert_rejected_at_load(scenario, base, error, tmp_path)

    def test_diverging_reference_is_an_error_record(self):
        # an initial speed of 3e154 drives the reference to NaN
        init = [1.5e5, 0.93, 0.32, 3e154, -0.006, 0.8, 0.6, 0.2, 0.65]
        base = {"n_steps": 20, "true_switch_step": None, "oversample": 1, "init_state": init}
        error = "DynamicsDivergedError: reference diverged: IMU sample must be finite"
        assert harness.execute_case({"scenario": "shuttle", **base})[0].error == error
        grid = harness.sweep_from_dict({
            "scenario": "shuttle", "base": base, "axes": {"A": [0.0, 10.0]}, "seeds": 1,
        })
        records = harness.run_sweep(grid, threads=1)
        assert [(r.status, r.error) for r in records] == [("error", error)] * 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_inertial_state_is_an_error_record(self):
        # a speed of 2e307 over a 1.8e8 s step overflows the position while
        # every IMU sample stays finite; it once ran to a green record with
        # NaN fixes, and a sweep over it aborted on them
        init = [0.0, 0.0, 0.0, 2.1017494651598519e307, 0.0, 0.0, 0.0, 0.0, 0.0]
        base = {"n_steps": 1, "true_switch_step": None, "oversample": 1,
                "dt": 178789149.0, "init_state": init}
        error = "DynamicsDivergedError: reference diverged: inertial state must be finite"
        assert harness.execute_case({"scenario": "shuttle", **base})[0].error == error
        grid = harness.sweep_from_dict({
            "scenario": "shuttle", "base": base, "axes": {"A": [0.0, 10.0]}, "seeds": 1,
        })
        records = harness.run_sweep(grid, threads=1)
        assert [(r.status, r.error) for r in records] == [("error", error)] * 2

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_diverging_balloon_truth_is_an_error_record(self):
        # a subnormal wavelength overflows the field's wavenumber to inf and
        # the truth to NaN, which once came back green with a NaN RMSE
        base = {"n_steps": 20, "true_switch_step": None,
                "field": {"kind": "analytic", "wavelength": 1e-320}}
        error = "DynamicsDivergedError: truth diverged: balloon state must be finite"
        record = harness.execute_case({"scenario": "balloon", **base})[0]
        assert (record.status, record.outcome, record.error) == ("error", RED, error)
        grid = harness.sweep_from_dict({
            "scenario": "balloon", "base": base, "axes": {"A": [0.0, 10.0]}, "seeds": 1,
        })
        records = harness.run_sweep(grid, threads=1)
        assert [(r.status, r.error) for r in records] == [("error", error)] * 2

    @pytest.mark.parametrize("index, value, error", [
        (7, np.pi / 2, "GimbalLockError: pitch at Euler-rate singularity"),
    ], ids=["pitch"])
    def test_bad_init_state_is_an_error_record(self, index, value, error):
        init = [1.5e5, 0.93, 0.32, 1.4e4, -0.006, 0.8, 0.6, 0.2, 0.65]
        init[index] = value
        record = harness.execute_case({"scenario": "shuttle", "n_steps": 20, "oversample": 1,
                                       "true_switch_step": None, "init_state": init})[0]
        assert record.status == "error"
        assert record.error == error


def shuttle_config(**overrides):
    data = {"scenario": "shuttle", "n_steps": 30, "oversample": 1, "seed": 3,
            "true_switch_step": 15, "bias": {"kind": "quadratic", "A": 100.0, "cap": 1000.0}}
    data.update(overrides)
    return data


def test_threads_default_to_the_cpus_the_process_may_run_on(monkeypatch):
    monkeypatch.delenv("SKFNAV_THREADS", raising=False)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert harness.resolve_threads() == 1
    monkeypatch.setenv("SKFNAV_THREADS", "3")
    assert harness.resolve_threads() == 3


class TestPrefixCheckpoint:
    """A sweep runs the cells that differ only in their bias as one prefix
    family: the family's first run leaves a checkpoint at its onset, and the
    others resume from it.  Single runs step in full."""

    @staticmethod
    def count_steps(monkeypatch) -> list:
        """The step each ``SwitchingFilter.step`` call starts from, from now on."""
        starts = []
        step = SwitchingFilter.step

        def counted(self, y=None):
            starts.append(self.k)
            return step(self, y)

        monkeypatch.setattr(SwitchingFilter, "step", counted)
        return starts

    @staticmethod
    def count_sweep_steps(monkeypatch):
        """The number of ``SwitchingFilter.step`` calls from now on, in this
        process and in the worker processes that it forks."""
        calls = multiprocessing.Value("l", 0)
        step = SwitchingFilter.step

        def counted(self, y=None):
            with calls.get_lock():
                calls.value += 1
            return step(self, y)

        monkeypatch.setattr(SwitchingFilter, "step", counted)
        return calls

    GRIDS = {
        "balloon": {"scenario": "balloon", "seeds": 2,
                    "base": {"n_steps": 60, "dt": 0.01, "q_x": 1e-6, "q_p": 1e-6,
                             "true_switch_step": 30},
                    "axes": {"r": [1e-6, 1e-4], "A": [0.0, 0.2], "B": [0.0, 2.0]}},
        "shuttle": {"scenario": "shuttle", "seeds": [3, 4],
                    "base": {"n_steps": 30, "oversample": 1, "true_switch_step": 15,
                             "bias": {"kind": "quadratic", "cap": 1000.0}},
                    "axes": {"A": [0.0, 100.0], "C": [0.0, 10.0]}},
    }

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("scenario", ["balloon", "shuttle"])
    def test_sweep_writes_the_records_of_runs_without_a_checkpoint(
            self, tmp_path, monkeypatch, scenario, threads):
        grid = harness.sweep_from_dict({"name": "reuse", **self.GRIDS[scenario]})
        cold = [harness.execute_case(cell, seed=seed)[0]
                for cell in grid.cell_configs() for seed in grid.seeds]
        harness.write_records_csv(tmp_path / "cold.csv", cold)
        steps = self.count_sweep_steps(monkeypatch)
        _, target = harness.run_sweep_to_dir(grid, tmp_path, threads=threads)
        assert (target / "records.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()
        # per seed and noise level, on any worker count, the first of four
        # bias cells steps the whole run and the other three only the steps
        # after onset
        n, onset = grid.base["n_steps"], grid.base["true_switch_step"]
        families = len(cold) // 4
        assert steps.value == families * (n + 3 * (n - onset))

    def test_a_lone_family_steps_its_prefix_once_on_any_worker_count(
            self, tmp_path, monkeypatch):
        doc = {**self.GRIDS["balloon"], "name": "lone", "seeds": 1,
               "axes": {"A": [0.0, 0.2], "B": [0.0, 2.0]}}
        grid = harness.sweep_from_dict(doc)
        steps = self.count_sweep_steps(monkeypatch)
        blobs, counts = [], []
        for threads in (1, 2, 4):
            steps.value = 0
            _, target = harness.run_sweep_to_dir(grid, tmp_path / f"t{threads}",
                                                 threads=threads)
            blobs.append((target / "records.csv").read_bytes())
            counts.append(steps.value)
        assert blobs[0] == blobs[1] == blobs[2]
        # one family of four runs: the head steps the prefix once and three
        # tails resume from its checkpoint, however many workers are idle
        n, onset = grid.base["n_steps"], grid.base["true_switch_step"]
        assert counts == [n + 3 * (n - onset)] * 3

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_head_that_fails_before_its_onset_hands_on_the_family(
            self, tmp_path, monkeypatch, threads):
        # the truth of the family's first two runs (A = 0) fails, so neither
        # leaves a checkpoint; the third run heads the family
        simulate = harness.simulate_balloon

        def failing(cfg, field):
            if cfg.bias.A == 0.0:
                raise FieldDomainError("longitude query outside grid hull")
            return simulate(cfg, field)

        monkeypatch.setattr(harness, "simulate_balloon", failing)
        doc = {**self.GRIDS["balloon"], "name": "fails", "seeds": 1,
               "axes": {"A": [0.0, 0.2], "B": [0.0, 2.0]}}
        grid = harness.sweep_from_dict(doc)
        cold = [harness.execute_case(cell, seed=seed)[0]
                for cell in grid.cell_configs() for seed in grid.seeds]
        assert [r.status for r in cold] == ["error", "error", "ok", "ok"]
        harness.write_records_csv(tmp_path / "cold.csv", cold)
        steps = self.count_sweep_steps(monkeypatch)
        _, target = harness.run_sweep_to_dir(grid, tmp_path, threads=threads)
        assert (target / "records.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()
        n, onset = grid.base["n_steps"], grid.base["true_switch_step"]
        assert steps.value == n + (n - onset)

    def test_every_run_is_one_task_call_in_a_worker(self, monkeypatch):
        # a stand-in for _run_task, as perfbench/run.py installs one, sees
        # every run exactly once, in a forked worker and never in this process
        calls = multiprocessing.Value("l", 0)
        parent, run_task = os.getpid(), harness._run_task

        def counted(task):
            with calls.get_lock():
                calls.value += 1
            record = run_task(task)
            record.worker = os.getpid()
            return record

        monkeypatch.setattr(harness, "_run_task", counted)
        grid = harness.sweep_from_dict(self.GRIDS["shuttle"])
        records = harness.run_sweep(grid, threads=2)
        assert calls.value == len(records) == 8
        assert all(getattr(r, "worker", parent) != parent for r in records)

    def test_a_task_that_raises_stops_a_pooled_sweep(self, monkeypatch):
        # every run of this grid heads a family of its own, so all of them are
        # queued at the start; the first raises, as a fix mismatch does, and
        # the sweep raises it without running the rest of the queue first
        calls = multiprocessing.Value("l", 0)
        run_task = harness._run_task
        grid = harness.sweep_from_dict({
            "scenario": "balloon", "seeds": 4, "base": {"n_steps": 100},
            "axes": {"r": [1e-6, 1e-5, 1e-4, 1e-3]}})
        first = grid.cell_configs()[0], grid.seeds[0]

        def failing(task):
            with calls.get_lock():
                calls.value += 1
            if task[:2] == first:
                raise RuntimeError("runs of one prefix family differ in their fixes")
            return run_task(task)

        monkeypatch.setattr(harness, "_run_task", failing)
        with pytest.raises(RuntimeError, match="differ in their fixes"):
            harness.run_sweep(grid, threads=2)
        assert calls.value < 16

    @pytest.mark.parametrize("threads, raises", [(1, False), (2, False), (2, True)],
                             ids=["1", "2", "2-raises"])
    def test_a_sweep_leaves_no_checkpoint_behind(self, tmp_path, monkeypatch,
                                                 threads, raises):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        resumed = multiprocessing.Value("l", 0)
        run_task = harness._run_task

        def counted(task):
            checkpoint = task[2]
            if checkpoint is not None and checkpoint.exists():
                assert checkpoint.parent.parent == tmp_path
                with resumed.get_lock():
                    resumed.value += 1
                if raises:
                    raise RuntimeError("a tail raises")
            return run_task(task)

        monkeypatch.setattr(harness, "_run_task", counted)
        grid = harness.sweep_from_dict(self.GRIDS["shuttle"])
        if raises:
            with pytest.raises(RuntimeError, match="a tail raises"):
                harness.run_sweep(grid, threads=threads)
        else:
            assert len(harness.run_sweep(grid, threads=threads)) == 8
        # tails found their head's file while the sweep ran
        assert resumed.value >= 1 if raises else resumed.value == 6
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("data, freezes", [
        (balloon_config(n_steps=60, true_switch_step=30), False),
        (shuttle_config(), True),
    ], ids=["balloon", "shuttle"])
    def test_resumed_bank_equals_a_fresh_runs(self, tmp_path, monkeypatch,
                                              assert_banks_equal, data, freezes):
        checkpoint = tmp_path / "family.pickle"
        harness.execute_case({**data, "bias": {"kind": "quadratic", "B": 3.0}},
                             checkpoint=checkpoint)
        starts = self.count_steps(monkeypatch)
        resumed_record, resumed, _ = harness.execute_case(data, checkpoint=checkpoint)
        onset, n = data["true_switch_step"], data["n_steps"]
        assert starts == list(range(onset, n))
        fresh_record, fresh, _ = harness.execute_case(data)
        assert_banks_equal(resumed.bank, fresh.bank)
        assert harness.record_row(resumed_record) == harness.record_row(fresh_record)
        assert any(cause is not None for cause in fresh.bank.cause) == freezes

    def test_the_checkpoint_holds_the_onset_and_a_resumed_run_leaves_it(self, tmp_path):
        checkpoint = tmp_path / "family.pickle"
        data = balloon_config(n_steps=60, true_switch_step=30)
        _, head, _ = harness.execute_case(data, checkpoint=checkpoint)
        written = checkpoint.read_bytes()
        k, bank, _ = pickle.loads(written)
        # the head wrote its bank at the onset and then stepped on to its end
        assert (k, head.k) == (30, 60)
        assert all(len(bank.trajectory(row)) == 31 for row in range(len(bank)))
        _, resumed, _ = harness.execute_case({**data, "bias": {"kind": "static"}},
                                             checkpoint=checkpoint)
        assert resumed.k == 60
        assert checkpoint.read_bytes() == written

    def test_repeated_runs_step_in_full(self, monkeypatch):
        data = balloon_config(n_steps=60, true_switch_step=30)
        starts = self.count_steps(monkeypatch)
        rows = []
        for _ in range(2):
            rows.append(harness.record_row(harness.execute_case(data)[0]))
            assert starts == list(range(60))
            starts.clear()
        assert rows[0] == rows[1]

    def test_onset_zero_takes_no_checkpoint(self, tmp_path, monkeypatch):
        grid = harness.sweep_from_dict({
            "scenario": "balloon", "name": "onset0", "seeds": 1,
            "base": {"n_steps": 40, "true_switch_step": 0}, "axes": {"A": [0.1, 0.2]}})
        assert harness._prefix_key(harness.execute_case(grid.cell_configs()[0])[0].config) is None
        starts = self.count_steps(monkeypatch)
        harness.run_sweep_to_dir(grid, tmp_path, threads=1)
        assert starts == list(range(40)) * 2

    def test_fix_mismatch_in_a_family_raises(self, tmp_path):
        data = balloon_config(n_steps=60, true_switch_step=30)
        checkpoint = tmp_path / "family.pickle"
        harness.execute_case(data, checkpoint=checkpoint)
        k, bank, fixes = pickle.loads(checkpoint.read_bytes())
        checkpoint.write_bytes(pickle.dumps((k, bank, fixes + 1e-3)))
        with pytest.raises(RuntimeError, match="differ in their fixes"):
            harness.execute_case(data, checkpoint=checkpoint)

    def test_a_nan_fix_in_a_family_matches_itself(self, tmp_path, monkeypatch):
        # the filter skips a non-finite fix, and the same NaN in two runs of
        # one family is no mismatch
        simulate = harness.simulate_balloon

        def with_nan_fix(cfg, field):
            truth = simulate(cfg, field)
            truth.measurements[5] = np.nan
            return truth

        monkeypatch.setattr(harness, "simulate_balloon", with_nan_fix)
        data = balloon_config(n_steps=60, true_switch_step=30)
        checkpoint = tmp_path / "family.pickle"
        head = harness.execute_case(data, checkpoint=checkpoint)[0]
        tail = harness.execute_case(data, checkpoint=checkpoint)[0]
        assert tail.status == "ok"
        assert harness.record_row(tail) == harness.record_row(head)

    def test_rewritten_reference_file_is_read_again(self, tmp_path, monkeypatch):
        from skfnav.scenarios.shuttle import (
            ShuttleConfig,
            generate_reference,
            save_reference_csv,
        )

        path = tmp_path / "ref.csv"
        data = shuttle_config(reference_path=str(path))
        h, *rest = ShuttleConfig().init_state
        records = []
        for offset in (0.0, 100.0):
            source = ShuttleConfig(n_steps=30, oversample=1, true_switch_step=None,
                                   init_state=(h + offset, *rest))
            save_reference_csv(path, generate_reference(source))
            records.append(harness.execute_case(data)[0])
        assert harness._prefix_key(records[0].config) is None
        assert records[0].rmse != records[1].rmse
        cold = harness.execute_case(data)[0]
        assert harness.record_row(records[1]) == harness.record_row(cold)
        # in a sweep, each run that reads the file is a family of its own
        grid = harness.sweep_from_dict({
            "scenario": "shuttle", "name": "file", "seeds": 1,
            "base": {k: v for k, v in data.items() if k not in ("scenario", "bias")},
            "axes": {"A": [0.0, 100.0]}})
        starts = self.count_steps(monkeypatch)
        harness.run_sweep_to_dir(grid, tmp_path, threads=1)
        assert starts == list(range(30)) * 2


class TestDataFiles:
    """A schema-valid config whose data file is missing or malformed gives a
    ``ConfigError`` record; a sweep over it completes."""

    @pytest.mark.parametrize("field", [
        {"kind": "gridded"},
        {"path": "field.csv"},
        {"kind": "analytic", "path": "field.csv"},
    ], ids=["gridded-without-path", "default-kind-with-path", "analytic-with-path"])
    def test_field_path_is_checked_by_the_schema(self, field, tmp_path):
        with pytest.raises(ConfigError, match="balloon config"):
            harness.execute_case(balloon_config(field=field))
        path = tmp_path / "gridded.json"
        path.write_text(json.dumps(balloon_config(field=field)))
        assert main(["--quiet", "simulate", "balloon", "--config", str(path),
                     "--out", str(tmp_path / "runs")]) == 2

    @staticmethod
    def sweep_records(scenario, base):
        grid = harness.sweep_from_dict({
            "scenario": scenario, "base": base, "axes": {"A": [0.0, 0.1]}, "seeds": 1,
        })
        return harness.run_sweep(grid, threads=1)

    def assert_config_error_records(self, scenario, base, message):
        record = harness.execute_case({"scenario": scenario, **base})[0]
        assert record.status == "error" and record.outcome == "red"
        assert record.error.startswith("ConfigError: ") and message in record.error
        records = self.sweep_records(scenario, base)
        assert [r.status for r in records] == ["error", "error"]
        assert all(r.error == record.error for r in records)

    def test_missing_field_file(self, tmp_path):
        base = balloon_config(n_steps=20, true_switch_step=10,
                              field={"kind": "gridded", "path": str(tmp_path / "none.csv")})
        del base["scenario"]
        self.assert_config_error_records("balloon", base, "unreadable field file")

    @pytest.mark.parametrize("text", [
        "lon,lat,t,u,v\n0,0,0,north,1\n",
        "lon,lat,t,u,v\n0,0,0,1,1\n0,1,0\n",
        "0,0,0\n1,0,0\n",
    ], ids=["non-numeric", "ragged", "three-columns"])
    def test_malformed_field_file(self, tmp_path, text):
        path = tmp_path / "field.csv"
        path.write_text(text)
        base = balloon_config(n_steps=20, true_switch_step=10,
                              field={"kind": "gridded", "path": str(path)})
        del base["scenario"]
        self.assert_config_error_records("balloon", base, "malformed field file")

    @pytest.mark.parametrize("text", [None, ""], ids=["missing", "empty"])
    def test_missing_or_malformed_reference_file(self, tmp_path, text):
        path = tmp_path / "reference.csv"
        if text is not None:
            path.write_text(text)
        base = {"n_steps": 10, "true_switch_step": None, "reference_path": str(path)}
        message = "unreadable" if text is None else "malformed"
        self.assert_config_error_records("shuttle", base, f"{message} reference file")


class TestPersistence:
    def test_records_csv_round_trip(self, tmp_path):
        grid = harness.sweep_from_dict({
            "scenario": "balloon",
            "base": {"n_steps": 60, "dt": 0.01, "q_x": 1e-6, "q_p": 1e-6,
                     "delta": 1, "true_switch_step": 30},
            "axes": {"A": [0.0, 0.2]},
            "seeds": 2,
        })
        records = harness.run_sweep(grid, threads=1)
        path = tmp_path / "records.csv"
        harness.write_records_csv(path, records)
        rows = harness.read_records_csv(path)
        back = harness.rows_to_records(rows)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.config_hash == b.config_hash
            assert a.outcome == b.outcome
            assert a.est_switch_step == b.est_switch_step
            assert a.rmse["lon"] == pytest.approx(b.rmse["lon"], rel=1e-15)
            assert harness._axis_value(a, "A") == harness._axis_value(b, "A")

    def test_sweep_dir_layout_and_idempotence(self, tmp_path):
        doc = {
            "scenario": "balloon",
            "name": "layout",
            "base": {"n_steps": 40, "dt": 0.01, "q_x": 1e-6, "q_p": 1e-6,
                     "delta": 1, "true_switch_step": 20},
            "axes": {"A": [0.0, 0.2]},
            "seeds": 1,
        }
        grid = harness.sweep_from_dict(doc)
        _, target = harness.run_sweep_to_dir(grid, tmp_path, threads=1)
        assert (target / "records.csv").exists()
        assert (target / "aggregates.csv").exists()
        assert (target / "sweep_config.json").exists()
        assert list((target / "plots").glob("*.json"))
        first = (target / "records.csv").read_bytes()
        _, target2 = harness.run_sweep_to_dir(grid, tmp_path, threads=1)
        assert target2 == target
        assert (target / "records.csv").read_bytes() == first

    @pytest.mark.parametrize("sweep", [
        {"scenario": "balloon", "seeds": 1,
         "base": {"n_steps": 40, "dt": 0.01, "q_x": 1e-6, "delta": 1,
                  "true_switch_step": 20},
         "axes": {"q_p": [1e-6, 1e-4], "A": [0.0, 0.2]}},
        {"scenario": "shuttle", "seeds": 1,
         "base": {"n_steps": 30, "oversample": 1, "true_switch_step": 15,
                  "bias": {"kind": "quadratic", "cap": 1000.0}},
         "axes": {"r": [1e-6, 1e-4], "A": [0.0, 100.0]}},
    ], ids=["balloon", "shuttle"])
    def test_plot_documents_validate(self, sweep):
        grid = harness.sweep_from_dict(sweep)
        records = harness.run_sweep(grid, threads=1)
        docs = harness.plot_documents(grid, records)
        assert sorted(docs) == sorted(f"{kind}_{axis}" for axis in grid.axes
                                      for kind in ("success_rate", "rmse_scatter"))
        for doc in docs.values():
            jsonschema.validate(doc, PLOT_SCHEMA)
            json.dumps(doc)

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            harness.write_records_csv(tmp_path / "r.csv", [])

    def test_run_outputs_include_branch_export(self, tmp_path):
        record, filt, truth = harness.execute_case(balloon_config())
        target = harness.write_run_outputs(record, filt, tmp_path / "run", truth=truth)
        assert (target / "summary.json").exists()
        assert (target / "branch_trajectory.csv").exists()
        header = (target / "branch_trajectory.csv").read_text().splitlines()[0]
        assert header.startswith("step,time,branch_t_s,logL,mean_0")
        summary = json.loads((target / "summary.json").read_text())
        assert summary["outcome"] == record.outcome
        assert summary["weights"]
        truth_rows = (target / "truth.csv").read_text().splitlines()
        assert truth_rows[0] == "step,time,lon,lat"
        assert len(truth_rows) == record.config["n_steps"] + 2
        # 17-significant-digit floats round-trip exactly
        lon_back = float(truth_rows[1].split(",")[2])
        assert lon_back == truth.states[0, 0]
        meas_rows = (target / "measurements.csv").read_text().splitlines()
        assert meas_rows[0] == "step,time,y_lon,y_lat"
        assert len(meas_rows) == len(truth.epochs) + 1

    @pytest.mark.parametrize("data, nominal_wins", [
        (balloon_config(), False),
        (balloon_config(bias={"kind": "quadratic"}, true_switch_step=None), True),
    ], ids=["detection", "clean"])
    def test_exported_trajectory_is_the_winners(self, tmp_path, data, nominal_wins):
        record, filt, truth = harness.execute_case(data)
        est = filt.estimate()
        assert est.is_nominal == nominal_wins
        target = harness.write_run_outputs(record, filt, tmp_path / "run", truth=truth)
        with open(target / "branch_trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == record.config["n_steps"] + 1
        assert float(rows[-1]["logL"]) == filt.bank.log_lik[est.row]
        assert [float(rows[-1][f"mean_{i}"]) for i in range(5)] == (
            filt.bank.mean[est.row].tolist())
        t_s = 0.0 if nominal_wins else record.est_switch_step * record.config["dt"]
        assert {float(row["branch_t_s"]) for row in rows} == {t_s}
        weights = json.loads((target / "summary.json").read_text())["weights"]
        assert [w["s_index"] for w in weights] == filt.bank.s_index
        assert sum(w["weight"] for w in weights) == pytest.approx(1.0)

    def test_shuttle_truth_export(self, tmp_path):
        data = {
            "scenario": "shuttle", "n_steps": 20, "dt": 1.4, "delta": 2,
            "true_switch_step": 10, "seed": 1,
            "bias": {"kind": "static", "A": 50.0, "cap": 1000.0},
        }
        record, filt, truth = harness.execute_case(data)
        target = harness.write_run_outputs(record, filt, tmp_path / "run", truth=truth)
        truth_rows = (target / "truth.csv").read_text().splitlines()
        assert truth_rows[0].startswith("step,time,h,L,lam,v,gamma,alpha")
        assert len(truth_rows) == 22
        meas_rows = (target / "measurements.csv").read_text().splitlines()
        assert len(meas_rows) == 11  # 10 epochs + header
        y_back = float(meas_rows[1].split(",")[2])
        assert y_back == truth.gps[0, 0]


def test_public_exports_resolve():
    import skfnav
    import skfnav.scenarios

    for module in (skfnav, skfnav.scenarios):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
