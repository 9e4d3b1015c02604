import json
import re
from pathlib import Path

import pytest

from skfnav import harness
from skfnav.cli import build_parser, main
from skfnav.configio import parse_single
from skfnav.exceptions import ConfigError


@pytest.fixture
def balloon_cfg(tmp_path):
    path = tmp_path / "balloon.json"
    path.write_text(json.dumps({
        "scenario": "balloon", "n_steps": 80, "dt": 0.01, "q_x": 1e-4, "q_p": 1e-4,
        "r": 1e-6, "delta": 1, "seed": 0,
        "bias": {"kind": "static", "A": 0.2}, "true_switch_step": 40,
    }))
    return path


@pytest.fixture
def sweep_cfg(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "scenario": "balloon", "name": "cli-sweep",
        "base": {"n_steps": 50, "dt": 0.01, "q_x": 1e-6, "q_p": 1e-6, "delta": 1,
                 "true_switch_step": 25},
        "axes": {"A": [0.0, 0.2]},
        "seeds": 2,
    }))
    return path


def test_simulate_happy_path(tmp_path, balloon_cfg):
    out = tmp_path / "runs"
    rc = main(["--quiet", "simulate", "balloon", "--config", str(balloon_cfg),
               "--seed", "42", "--out", str(out)])
    assert rc == 0
    run_dirs = list(out.glob("run-*-s42"))
    assert len(run_dirs) == 1
    assert (run_dirs[0] / "records.csv").exists()
    assert (run_dirs[0] / "summary.json").exists()


def test_failed_run_writes_its_record_and_summary_only(tmp_path):
    # a pitch this close to pi/2 trips the gimbal-lock guard at the first substep
    config = tmp_path / "gimbal.json"
    config.write_text(json.dumps({
        "scenario": "shuttle", "n_steps": 20, "true_switch_step": 10,
        "init_state": [1.5e5, 0.93, 0.32, 1.4e4, -0.006, 0.8, 0.6, 1.5707963, 0.65],
    }))
    out = tmp_path / "runs"
    rc = main(["--quiet", "simulate", "shuttle", "--config", str(config), "--out", str(out)])
    assert rc == 1
    (run_dir,) = out.iterdir()
    assert sorted(p.name for p in run_dir.iterdir()) == ["records.csv", "summary.json"]
    (row,) = harness.read_records_csv(run_dir / "records.csv")
    summary = json.loads((run_dir / "summary.json").read_text())
    for doc in (row, summary):
        assert doc["status"] == "error"
        assert doc["error"] == "GimbalLockError: pitch at Euler-rate singularity"


def test_negative_seed_override_is_config_error(tmp_path):
    config = Path(__file__).resolve().parent.parent / "configs" / "table3_test3.json"
    rc = main(["--quiet", "simulate", "balloon", "--config", str(config),
               "--seed", "-1", "--out", str(tmp_path)])
    assert rc == 2
    assert list(tmp_path.iterdir()) == []


def test_simulate_scenario_mismatch(tmp_path, balloon_cfg):
    rc = main(["--quiet", "simulate", "shuttle", "--config", str(balloon_cfg),
               "--out", str(tmp_path)])
    assert rc == 2


def test_missing_config_is_config_error(tmp_path):
    rc = main(["--quiet", "simulate", "balloon", "--config", str(tmp_path / "nope.json")])
    assert rc == 2


def test_schema_violation_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "balloon", "n_steps": -5}))
    rc = main(["--quiet", "validate-config", "--config", str(bad)])
    assert rc == 2


def test_non_finite_number_is_config_error(tmp_path):
    bad = tmp_path / "nan.json"
    bad.write_text('{"scenario": "balloon", "n_steps": 10, "q_x": NaN}')
    rc = main(["--quiet", "validate-config", "--config", str(bad)])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["--quiet", "sweep", "--config", "x"],
    ["sweep", "--config", "x", "--quiet"],
    ["-v", "validate-config", "--config", "x"],
    ["validate-config", "--config", "x", "-v"],
    ["validate-config", "--config", "x"],
])
def test_log_flags_work_before_and_after_subcommand(argv):
    args = build_parser().parse_args(argv)
    assert (args.quiet, args.verbose) == ("--quiet" in argv, "-v" in argv)


def test_unknown_flag_exits_two(balloon_cfg):
    rc = main(["simulate", "balloon", "--config", str(balloon_cfg), "--bogus"])
    assert rc == 2


def test_expect_outcome_gate(tmp_path):
    path = tmp_path / "expect.json"
    path.write_text(json.dumps({
        "scenario": "balloon", "n_steps": 60, "dt": 0.01, "q_x": 1e-6, "q_p": 1e-6,
        "r": 1e-6, "delta": 1, "seed": 0, "true_switch_step": None,
        "bias": {"kind": "quadratic"},
        "expect_outcome": "red",
    }))
    rc = main(["--quiet", "simulate", "balloon", "--config", str(path),
               "--out", str(tmp_path / "runs")])
    assert rc == 1  # clean run classifies green, expectation says red


def test_sweep_then_report(tmp_path, sweep_cfg):
    out = tmp_path / "runs"
    rc = main(["--quiet", "sweep", "--config", str(sweep_cfg), "--out", str(out),
               "--threads", "1"])
    assert rc == 0
    target = out / "cli-sweep"
    assert (target / "aggregates.csv").exists()
    rc = main(["--quiet", "report", "--records", str(target), "--out", str(tmp_path / "rep")])
    assert rc == 0
    table = (tmp_path / "rep" / "summary_table.csv").read_text().splitlines()
    assert table[0].startswith(
        "test,config_hash,seed,r,q_x,q_p,delta,A,B,C,true_switch_step,est_switch_step,outcome"
    )
    assert len(table) == 5  # header + 4 records
    assert (tmp_path / "rep" / "aggregates.csv").exists()
    assert list((tmp_path / "rep" / "plots").glob("success_rate_*.json"))


def test_report_without_records(tmp_path):
    rc = main(["--quiet", "report", "--records", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("sweep, message", [
    ({"base": {"n_steps": 20, "true_switch_step": 10}, "axes": {"r": [-1.0, 1e-6]}},
     "sweep cell r=-1.0: shuttle config: r: -1.0 is less than the minimum of 0"),
    ({"base": {"n_steps": 20, "true_switch_step": 50}, "axes": {"r": [1e-6]}},
     "sweep cell r=1e-06: switch index 50 outside [0, 20]"),
    ({"base": {"n_steps": 20, "true_switch_step": 10}, "axes": {"A": [0.0, 1.0]},
      "q_x_over_r": 100.0},
     "q_x_over_r needs a measurement-noise value (axis or base)"),
], ids=["negative-axis-value", "onset-past-the-run", "q-x-over-r-without-r"])
def test_sweep_with_a_bad_cell_is_rejected_before_any_run(tmp_path, caplog, sweep, message):
    sweep = {"scenario": "shuttle", "seeds": 1, **sweep}
    with pytest.raises(ConfigError, match=re.escape(message)):
        harness.sweep_from_dict(sweep)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep))
    out = tmp_path / "runs"
    assert main(["--quiet", "validate-config", "--config", str(path)]) == 2
    assert main(["--quiet", "sweep", "--config", str(path), "--out", str(out),
                 "--threads", "1"]) == 2
    assert not out.exists()
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"config error: {message}"] * 2


@pytest.mark.parametrize("options", [[], ["--branches", "4"]], ids=["plain", "branches"])
def test_sweep_of_a_single_config_is_rejected(tmp_path, caplog, balloon_cfg, options):
    out = tmp_path / "runs"
    assert main(["--quiet", "sweep", "--config", str(balloon_cfg), "--out", str(out),
                 *options]) == 2
    assert not out.exists()
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["config error: not a sweep config (no axes)"]


def test_single_config_that_cannot_be_built_is_rejected(tmp_path, caplog):
    path = tmp_path / "shuttle.json"
    path.write_text(json.dumps({"scenario": "shuttle", "n_steps": 20, "true_switch_step": 50}))
    for command in (["validate-config"], ["simulate", "shuttle", "--out", str(tmp_path)]):
        assert main(["--quiet", *command, "--config", str(path)]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["config error: switch index 50 outside [0, 20]"] * 2


@pytest.mark.parametrize("scenario, bias, message", [
    ("balloon", {"A": [0.1, 0.2, 0.3]}, "bias A has 3 entries; need 1 or one per channel (2)"),
    ("balloon", {"A": [0.1, 0.2], "B": [0.1, 0.2, 0.3]},
     "bias B has 3 entries; need 1 or one per channel (2)"),
    ("shuttle", {"A": [1.0, 2.0]}, "bias A has 2 entries; need 1 or one per channel (3)"),
], ids=["balloon-three-A", "balloon-three-B", "shuttle-two-A"])
def test_bias_lists_that_do_not_fit_the_channels_are_rejected(tmp_path, caplog, scenario,
                                                               bias, message):
    data = {"scenario": scenario, "n_steps": 20, "true_switch_step": 10, "bias": bias}
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_single(data)
    path = tmp_path / "single.json"
    path.write_text(json.dumps(data))
    assert main(["--quiet", "validate-config", "--config", str(path)]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"config error: {message}"]
    sweep = {"scenario": scenario, "base": {"n_steps": 20, "true_switch_step": 10, "bias": bias},
             "axes": {"r": [1e-6]}, "seeds": 1}
    with pytest.raises(ConfigError, match="sweep cell r=1e-06: bias"):
        harness.sweep_from_dict(sweep)


def test_bias_list_with_one_entry_per_channel_runs():
    base = {"n_steps": 30, "dt": 0.01, "true_switch_step": 10,
            "bias": {"kind": "static", "A": [0.1, 0.2]}}
    record = harness.execute_case({"scenario": "balloon", **base})[0]
    assert record.status == "ok"
    grid = harness.sweep_from_dict({"scenario": "balloon", "base": base,
                                    "axes": {"r": [1e-6, 1e-4]}, "seeds": 1})
    assert [r.status for r in harness.run_sweep(grid, threads=1)] == ["ok", "ok"]


def test_validate_config_ok(sweep_cfg, capsys):
    rc = main(["--quiet", "validate-config", "--config", str(sweep_cfg)])
    assert rc == 0
    assert "sweep" in capsys.readouterr().out


def test_branches_override(tmp_path, balloon_cfg):
    out = tmp_path / "runs"
    rc = main(["--quiet", "simulate", "balloon", "--config", str(balloon_cfg),
               "--out", str(out), "--branches", "4"])
    assert rc == 0
    summary = json.loads(next(out.glob("run-*/summary.json")).read_text())
    assert summary["config"]["capacity"] == 4
    # capacity bounds surviving hypotheses: nominal + at most 3 corrupted
    assert len(summary["weights"]) <= 4
