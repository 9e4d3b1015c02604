import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skfnav import harness
from skfnav.exceptions import ConfigError
from skfnav.metrics import GREEN, RED, YELLOW, classify, relative_rmse


def balloon_config(**overrides):
    data = {
        "scenario": "balloon", "n_steps": 100, "dt": 0.01, "q_x": 1e-4, "q_p": 1e-4,
        "r": 1e-6, "delta": 1, "seed": 0,
        "bias": {"kind": "static", "A": 0.2}, "true_switch_step": 50,
    }
    data.update(overrides)
    return data


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
        record = harness.run_case(balloon_config())
        assert record.status == "ok"
        assert record.outcome == GREEN
        assert record.est_switch_step == 50
        assert set(record.rmse) == {"lon", "lat"}
        assert record.rmse["lon"] < 1e-2

    def test_unbiased_run_no_corruption(self):
        record = harness.run_case(balloon_config(
            bias={"kind": "quadratic"}, true_switch_step=None, q_x=1e-6, q_p=1e-6))
        assert record.no_corruption
        assert record.outcome == GREEN
        assert max(record.rmse.values()) < 1e-2

    def test_two_seeds_share_config_hash(self):
        a = harness.run_case(balloon_config(), seed=1)
        b = harness.run_case(balloon_config(), seed=2)
        assert a.seed == 1 and b.seed == 2
        assert a.config_hash == b.config_hash
        assert a.rmse != b.rmse  # different noise draws, distinct records

    def test_same_config_same_record(self):
        a = harness.run_case(balloon_config())
        b = harness.run_case(balloon_config())
        assert a.rmse == b.rmse
        assert a.est_switch_step == b.est_switch_step

    def test_invalid_config_raises(self):
        with pytest.raises(ConfigError):
            harness.run_case({"scenario": "balloon", "n_steps": 0})


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

    def test_negative_speed_is_a_config_error_not_a_crash(self):
        # schema-valid, but NavState15 rejects a negative speed
        base = {"n_steps": 20, "true_switch_step": None, "oversample": 1,
                "init_state": [1.5e5, 0.93, 0.32, -1.4e4, -0.006, 0.8, 0.6, 0.2, 0.65]}
        record = harness.run_case({"scenario": "shuttle", **base})
        assert record.status == "error"
        assert record.error.startswith("ConfigError: ")
        assert "speed must be non-negative" in record.error
        grid = harness.sweep_from_dict({
            "scenario": "shuttle", "base": base, "axes": {"A": [0.0, 10.0]}, "seeds": 1,
        })
        records = harness.run_sweep(grid, threads=1)
        assert len(records) == 2
        assert [r.status for r in records] == ["error", "error"]
        assert all(r.error.startswith("ConfigError: ") for r in records)


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

    def test_plot_documents_validate(self):
        grid = harness.sweep_from_dict({
            "scenario": "balloon",
            "base": {"n_steps": 40, "dt": 0.01, "q_x": 1e-6, "q_p": 1e-6,
                     "delta": 1, "true_switch_step": 20},
            "axes": {"A": [0.0, 0.2]},
            "seeds": 1,
        })
        records = harness.run_sweep(grid, threads=1)
        docs = harness.plot_documents(grid, records)
        assert "success_rate_A" in docs and "rmse_scatter_A" in docs
        # json-serializable and schema-valid (validated inside plot_documents)
        json.dumps(docs)

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
