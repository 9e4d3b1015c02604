import hashlib
import warnings
from dataclasses import fields

import numpy as np
import pytest

from skfnav import harness, kernels
from skfnav.biasmodels import BiasSpec
from skfnav.constants import EARTH_RADIUS_FT, GRAV_PARAM, PITCH_GUARD
from skfnav.exceptions import (
    ConfigError,
    DynamicsDivergedError,
    FieldDomainError,
    GimbalLockError,
)
from skfnav.scenarios.balloon import (
    BalloonConfig,
    build_balloon_filter,
    simulate_balloon,
)
from skfnav.scenarios.fields import (
    AnalyticField,
    GriddedField,
    load_field_csv,
)
from skfnav.scenarios.shuttle import (
    _CHUNK,
    SCALING_FACTORS,
    ReferenceTrajectory,
    ShuttleConfig,
    ShuttleTruth,
    _command_accel,
    _command_rates,
    _noiseless_run,
    generate_reference,
    integrate_imu,
    load_reference_csv,
    save_reference_csv,
    scale_noise,
    simulate_shuttle,
)


class TestFields:
    def test_constant_analytic_field(self):
        field = AnalyticField(u0=1.0, v0=-2.0, amp_u=0.0, amp_v=0.0)
        assert field.eval(-35.0, 25.0, 0.7) == pytest.approx((1.0, -2.0))

    def make_grid(self):
        lons = np.array([0.0, 1.0, 2.0])
        lats = np.array([10.0, 11.0])
        times = np.array([0.0, 1.0])
        u = np.arange(12, dtype=float).reshape(3, 2, 2)
        v = -u
        return GriddedField(lons=lons, lats=lats, times=times, u=u, v=v)

    def test_grid_node_values_exact(self):
        field = self.make_grid()
        u, v = field.eval(1.0, 11.0, 1.0)
        assert u == field.u[1, 1, 1]
        assert v == field.v[1, 1, 1]

    def test_cell_center_is_corner_mean(self):
        field = self.make_grid()
        u, _ = field.eval(0.5, 10.5, 0.0)
        expect = field.u[0:2, 0:2, 0].mean()
        assert u == pytest.approx(expect)

    def test_out_of_hull_rejected(self):
        field = self.make_grid()
        with pytest.raises(FieldDomainError):
            field.eval(5.0, 10.5, 0.0)
        with pytest.raises(FieldDomainError):
            field.eval(1.0, 10.5, 3.0)

    def test_csv_round_trip(self, tmp_path):
        field = self.make_grid()
        path = tmp_path / "field.csv"
        rows = ["lon,lat,t,u,v"]
        for i, lon in enumerate(field.lons):
            for j, lat in enumerate(field.lats):
                for k, t in enumerate(field.times):
                    rows.append(f"{lon},{lat},{t},{field.u[i,j,k]},{field.v[i,j,k]}")
        path.write_text("\n".join(rows))
        loaded = load_field_csv(path)
        assert np.abs(loaded.u - field.u).max() == 0.0
        u, v = loaded.eval(0.5, 10.5, 0.5)
        u0, v0 = field.eval(0.5, 10.5, 0.5)
        assert (u, v) == pytest.approx((u0, v0))

    def test_incomplete_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,10,0,1,1\n1,10,0,1,1\n0,11,0,1,1\n")
        with pytest.raises(ConfigError):
            load_field_csv(path)


class TestBalloonSim:
    def test_duration_and_shapes(self):
        cfg = BalloonConfig(seed=0)
        truth = simulate_balloon(cfg)
        assert truth.states.shape == (501, 2)
        assert truth.times[-1] == pytest.approx(5.0)
        assert truth.epochs[-1] == 500

    def test_zero_noise_zero_field_constant(self):
        cfg = BalloonConfig(q_x=0.0, q_p=0.0, r=0.0, seed=1)
        field = AnalyticField(u0=0.0, v0=0.0, amp_u=0.0, amp_v=0.0)
        truth = simulate_balloon(cfg, field)
        assert np.abs(truth.states - truth.states[0]).max() == 0.0
        assert np.abs(truth.measurements - truth.states[0]).max() == 0.0

    def test_corruption_from_first_step(self):
        # onset at time zero: every fix carries the static offset
        cfg = BalloonConfig(r=1e-6, q_x=0.0, seed=2,
                            bias=BiasSpec("static", A=0.1), true_switch_step=0)
        truth = simulate_balloon(cfg)
        assert np.abs(truth.bias_offsets - 0.1).max() == 0.0

    def test_measurement_decomposition_bookkeeping(self):
        cfg = BalloonConfig(q_x=1e-5, r=1e-4, seed=3,
                            bias=BiasSpec("quadratic", A=0.1, B=0.2, C=0.3),
                            true_switch_step=37)
        truth = simulate_balloon(cfg)
        recon = truth.states[truth.epochs] + truth.bias_offsets + truth.meas_noise
        assert np.abs(truth.measurements - recon).max() == 0.0

    def test_switch_gating(self):
        cfg = BalloonConfig(seed=4, bias=BiasSpec("static", A=5.0), true_switch_step=250)
        truth = simulate_balloon(cfg)
        before = truth.epochs <= 250
        assert np.abs(truth.bias_offsets[before]).max() == 0.0
        assert np.all(np.abs(truth.bias_offsets[~before]) > 0.0)

    def test_seed_determinism(self):
        cfg = BalloonConfig(seed=5, bias=BiasSpec("static", A=0.1), true_switch_step=100)
        a, b = simulate_balloon(cfg), simulate_balloon(cfg)
        assert np.abs(a.states - b.states).max() == 0.0
        assert np.abs(a.measurements - b.measurements).max() == 0.0

    def test_sampling_period_thins_epochs(self):
        cfg = BalloonConfig(delta=5, seed=6)
        truth = simulate_balloon(cfg)
        assert truth.epochs[0] == 5
        assert np.all(np.diff(truth.epochs) == 5)

    def test_filter_dimensions(self):
        cfg = BalloonConfig(seed=0)
        filt = build_balloon_filter(cfg)
        assert filt.bank.mean.shape[-1] == 5


def balloon_states_on_rows(cfg: BalloonConfig, field) -> np.ndarray:
    """The truth loop stepped on array rows, one ``states[k]`` at a time."""
    rng = np.random.default_rng(cfg.seed)
    times = np.arange(cfg.n_steps + 1) * cfg.dt
    proc_noise = np.sqrt(cfg.q_x) * rng.standard_normal((cfg.n_steps, 2))
    states = np.empty((cfg.n_steps + 1, 2))
    states[0] = cfg.x0
    for k in range(cfg.n_steps):
        u, v = field.eval(states[k, 0], states[k, 1], times[k])
        states[k + 1] = states[k] + cfg.dt * np.array([float(u), float(v)]) + proc_noise[k]
    return states


def analytic_grid() -> GriddedField:
    """The default analytic field sampled around the balloon's start."""
    lons, lats = np.arange(-40.0, -29.5, 0.5), np.arange(20.0, 30.5, 0.5)
    times = np.arange(0.0, 6.5, 0.5)
    u, v = AnalyticField().eval(*np.meshgrid(lons, lats, times, indexing="ij"))
    return GriddedField(lons=lons, lats=lats, times=times, u=u, v=v)


@pytest.mark.parametrize("field", [AnalyticField(), analytic_grid()], ids=["analytic", "gridded"])
def test_truth_on_floats_matches_rows(field):
    cfg = BalloonConfig(q_x=1e-4, seed=7, x0=(-35, 25.25))
    assert np.array_equal(simulate_balloon(cfg, field).states, balloon_states_on_rows(cfg, field))


def noise_to_range_ratio(r: float, trajectory: np.ndarray) -> float:
    """Two measurement standard deviations as a percentage of the trajectory
    range, worst channel."""
    spans = trajectory.max(axis=0) - trajectory.min(axis=0)
    return float(np.max(100.0 * 2.0 * np.sqrt(r) / spans))


class TestNoiseToRange:
    def test_reference_run_ratio_matches_reported_values(self):
        truth = simulate_balloon(BalloonConfig(q_x=0.0, q_p=0.0, r=0.0, seed=0))
        table = {1e-6: 0.25, 1e-5: 0.78, 5e-5: 1.75, 1e-4: 2.47, 1e-3: 7.81}
        for r, expect in table.items():
            assert noise_to_range_ratio(r, truth.states) == pytest.approx(expect, abs=0.05)


class TestScaleNoise:
    def test_table_factors(self):
        q_vec, r_vec = scale_noise(1e-8, 1e-8)
        assert r_vec[0] == pytest.approx(1e-8 * 1.5e5)
        assert r_vec[1] == pytest.approx(1e-8 * 9.3e-1)
        assert r_vec[2] == pytest.approx(1e-8 * 3.2e-1)
        assert q_vec[3] == pytest.approx(1e-8 * 1.4e4)

    def test_zero_measurement_noise(self):
        _, r_vec = scale_noise(1e-8, 0.0)
        assert np.abs(r_vec).max() == 0.0

    def test_speed_channel_product(self):
        q_vec, _ = scale_noise(1e-8, 1e-8)
        assert q_vec[list(SCALING_FACTORS).index("v")] == pytest.approx(1.4e-4)


class TestShuttleSim:
    def test_clean_gps_equals_inertial_positions(self):
        cfg = ShuttleConfig(n_steps=40, r=0.0, imu_noise_accel=0.0, imu_noise_gyro=0.0,
                            imu_walk_accel=0.0, imu_walk_gyro=0.0,
                            bias=BiasSpec("quadratic", cap=1000.0), true_switch_step=None,
                            seed=0)
        truth = simulate_shuttle(cfg)
        assert np.abs(truth.gps - truth.inertial_states[truth.epochs, :3]).max() == 0.0

    def test_linear_corruption_offset_after_switch(self):
        cfg = ShuttleConfig(n_steps=30, r=0.0, imu_noise_accel=0.0, imu_noise_gyro=0.0,
                            imu_walk_accel=0.0, imu_walk_gyro=0.0,
                            bias=BiasSpec("quadratic", A=0.0, B=100.0, C=0.0, cap=1000.0),
                            true_switch_step=10, seed=0)
        truth = simulate_shuttle(cfg)
        k = 11  # first epoch after onset
        i = list(truth.epochs).index(k)
        expect = 100.0 * cfg.dt  # B * (t_k - t_s), below the cap
        offset = truth.gps[i] - truth.inertial_states[k, :3]
        assert offset == pytest.approx([expect] * 3)

    def test_cap_saturates_offset(self):
        cfg = ShuttleConfig(n_steps=30, r=0.0, imu_noise_accel=0.0, imu_noise_gyro=0.0,
                            imu_walk_accel=0.0, imu_walk_gyro=0.0,
                            bias=BiasSpec("quadratic", A=0.0, B=1000.0, C=0.0, cap=1000.0),
                            true_switch_step=5, seed=0)
        truth = simulate_shuttle(cfg)
        late = truth.epochs > 6
        assert np.abs(truth.bias_offsets[late] - 1000.0).max() == 0.0

    def test_seed_determinism(self):
        cfg = ShuttleConfig(n_steps=25, seed=9, true_switch_step=12)
        a, b = simulate_shuttle(cfg), simulate_shuttle(cfg)
        assert np.abs(a.gps - b.gps).max() == 0.0
        assert np.abs(a.imu_meas - b.imu_meas).max() == 0.0

    def test_measurement_decomposition_bookkeeping(self):
        cfg = ShuttleConfig(n_steps=25, seed=10,
                            bias=BiasSpec("quadratic", A=50.0, B=0.0, C=0.0, cap=1000.0),
                            true_switch_step=12)
        truth = simulate_shuttle(cfg)
        recon = truth.inertial_states[truth.epochs, :3] + truth.bias_offsets + truth.gps_noise
        assert np.abs(truth.gps - recon).max() == 0.0


def shuttle_imu(n_steps=40, seed=0, **noise):
    """A clean shuttle run's truth with the given IMU noise and bias walks."""
    levels = dict(imu_noise_accel=0.0, imu_noise_gyro=0.0,
                  imu_walk_accel=0.0, imu_walk_gyro=0.0)
    levels.update(noise)
    return simulate_shuttle(ShuttleConfig(n_steps=n_steps, oversample=1, seed=seed,
                                          true_switch_step=None, **levels))


class TestImuSynthesis:
    """The bias walks and white noise ``simulate_shuttle`` adds to the
    reference IMU stream."""

    def test_bias_propagation_zero_sigma_is_identity(self):
        truth = shuttle_imu()
        assert not truth.accel_bias.any() and not truth.gyro_bias.any()

    def test_bias_propagation_reproducible(self):
        runs = [shuttle_imu(seed=7, imu_walk_accel=1e-4, imu_walk_gyro=1e-6) for _ in range(2)]
        assert np.array_equal(runs[0].accel_bias, runs[1].accel_bias)
        assert np.array_equal(runs[0].gyro_bias, runs[1].gyro_bias)
        assert runs[0].accel_bias.any()

    def test_random_walk_variance(self):
        # 2000 steps on 3 axes: the pooled step variance approaches the walk
        # variance with ~1.8% sampling error over the 6000 samples
        var = 1e-4
        truth = shuttle_imu(n_steps=2001, seed=1, imu_walk_accel=np.sqrt(var))
        steps = np.diff(truth.accel_bias, axis=0)
        assert np.mean(steps**2) == pytest.approx(var, rel=0.05)

    def test_synthesize_truth_when_clean(self):
        truth = shuttle_imu()
        assert np.array_equal(truth.imu_meas, truth.reference.imu_true)

    def test_synthesize_adds_bias(self):
        truth = shuttle_imu(imu_walk_accel=1e-3, imu_walk_gyro=1e-6)
        added = truth.imu_meas - truth.reference.imu_true
        assert np.abs(added[:, :3] - truth.accel_bias).max() < 1e-12
        assert np.abs(added[:, 3:] - truth.gyro_bias).max() < 1e-15

    def test_noise_mean_converges(self):
        n = 2001
        truth = shuttle_imu(n_steps=n, seed=5, imu_noise_accel=0.3)
        noise = truth.imu_meas[:, :3] - truth.reference.imu_true[:, :3]
        # CLT: sample mean within ~3 sigma / sqrt(N) of zero
        assert np.abs(noise.mean(axis=0)).max() < 3 * 0.3 / np.sqrt(n)


class TestReference:
    def test_round_trip_reintegration(self):
        cfg = ShuttleConfig(n_steps=200, oversample=1, true_switch_step=None)
        ref = generate_reference(cfg)
        again = integrate_imu(ref.states[0], ref.imu_true, cfg.dt)
        assert np.abs(again - ref.states).max() == 0.0

    def test_oversampled_reference_consistency(self):
        cfg = ShuttleConfig(n_steps=50, oversample=7, true_switch_step=None)
        ref = generate_reference(cfg)
        assert ref.states.shape == (51, 15)
        assert ref.imu_true.shape == (50, 6)
        assert np.array_equal(ref.states[0], [*cfg.init_state, *np.zeros(6)])

    def test_inertial_model_drifts_from_fine_reference(self):
        # zero-order-hold reintegration accumulates position error while the
        # attitude error stays bounded
        cfg = ShuttleConfig(n_steps=400, oversample=7, true_switch_step=None, seed=0)
        truth = simulate_shuttle(cfg)
        fine_at_coarse = truth.reference.states
        pos_err = np.abs(truth.inertial_states[:, 0] - fine_at_coarse[:, 0])
        att_err = np.abs(truth.inertial_states[:, 6:9] - fine_at_coarse[:, 6:9]).max(axis=1)
        assert pos_err[-1] > 10 * max(pos_err[40], 1e-12)
        assert att_err.max() < 0.01

    def test_csv_round_trip(self, tmp_path):
        cfg = ShuttleConfig(n_steps=20, oversample=1, true_switch_step=None)
        ref = generate_reference(cfg)
        path = tmp_path / "ref.csv"
        save_reference_csv(path, ref)
        loaded = load_reference_csv(path)
        assert np.abs(loaded.imu_true - ref.imu_true).max() == 0.0
        assert np.abs(loaded.states[:, :9] - ref.states[:, :9]).max() == 0.0

    def test_file_backed_simulation(self, tmp_path):
        cfg = ShuttleConfig(n_steps=20, oversample=1, true_switch_step=None)
        ref = generate_reference(cfg)
        path = tmp_path / "ref.csv"
        save_reference_csv(path, ref)
        cfg2 = ShuttleConfig(n_steps=20, reference_path=str(path), true_switch_step=None,
                             r=0.0, imu_noise_accel=0.0, imu_noise_gyro=0.0,
                             imu_walk_accel=0.0, imu_walk_gyro=0.0, seed=0)
        truth = simulate_shuttle(cfg2)
        assert np.abs(truth.gps - truth.inertial_states[truth.epochs, :3]).max() == 0.0

    def test_malformed_reference_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,reference\n1,2,3\n")
        with pytest.raises(ConfigError):
            load_reference_csv(path)

    def test_short_reference_rejected(self, tmp_path):
        cfg = ShuttleConfig(n_steps=20, oversample=1, true_switch_step=None)
        ref = generate_reference(cfg)
        path = tmp_path / "ref.csv"
        save_reference_csv(path, ref)
        with pytest.raises(ConfigError):
            simulate_shuttle(ShuttleConfig(n_steps=50, reference_path=str(path),
                                           true_switch_step=None))


def truth_arrays(truth: ShuttleTruth) -> dict:
    """Every array of a truth, with the reference's fields flattened in."""
    out = {f.name: getattr(truth, f.name) for f in fields(truth) if f.name != "reference"}
    out.update({f"reference.{f.name}": getattr(truth.reference, f.name)
                for f in fields(truth.reference)})
    return out


SEED_FREE = ("inertial_states", "reference.times", "reference.states", "reference.imu_true")


class TestReferenceCache:
    def cfg(self, seed=3, **overrides):
        kw = dict(n_steps=30, true_switch_step=15, seed=seed,
                  bias=BiasSpec("quadratic", A=50.0, cap=1000.0))
        kw.update(overrides)
        return ShuttleConfig(**kw)

    def cold(self, cfg):
        _noiseless_run.cache_clear()
        return simulate_shuttle(cfg)

    def test_warm_run_equals_cold_run(self):
        cold_3, cold_4 = self.cold(self.cfg(seed=3)), self.cold(self.cfg(seed=4))
        first = self.cold(self.cfg(seed=3))
        warm = simulate_shuttle(self.cfg(seed=4))
        assert _noiseless_run.cache_info().hits == 1
        assert warm.reference is first.reference
        for name, value in truth_arrays(warm).items():
            assert np.array_equal(value, truth_arrays(cold_4)[name]), name
        for name in SEED_FREE:
            assert np.array_equal(truth_arrays(warm)[name], truth_arrays(cold_3)[name]), name
        assert not np.array_equal(warm.gps, first.gps)

    def test_cached_arrays_are_read_only(self):
        truth = self.cold(self.cfg())
        arrays = truth_arrays(truth)
        for name in SEED_FREE:
            with pytest.raises(ValueError):
                arrays[name][0] = 1.0
        truth.imu_meas[0] = 1.0  # seeded arrays stay private to the run

    def test_changed_init_state_is_not_served_stale(self):
        first = self.cold(self.cfg())
        init = list(ShuttleConfig().init_state)
        init[0] += 100.0
        moved = self.cfg(init_state=tuple(init))
        second = simulate_shuttle(moved)
        assert second.reference.states[0, 0] == first.reference.states[0, 0] + 100.0
        assert not np.array_equal(second.inertial_states, first.inertial_states)
        assert np.array_equal(second.inertial_states, self.cold(moved).inertial_states)

    def test_invalid_init_state_raises_every_time(self):
        init = list(ShuttleConfig().init_state)
        init[7] = np.pi / 2  # pitch at the Euler-rate singularity
        cfg = self.cfg(init_state=tuple(init))
        for _ in range(2):
            with pytest.raises(GimbalLockError):
                simulate_shuttle(cfg)

    def test_reference_file_is_read_on_every_run(self, tmp_path):
        path = tmp_path / "ref.csv"
        cfg = self.cfg(reference_path=str(path))
        init = list(ShuttleConfig().init_state)
        runs = []
        for h_offset in (0.0, 100.0):
            init[0] = ShuttleConfig().init_state[0] + h_offset
            source = ShuttleConfig(n_steps=30, true_switch_step=None, init_state=tuple(init))
            save_reference_csv(path, generate_reference(source))
            runs.append(simulate_shuttle(cfg))
        assert runs[1].inertial_states[0, 0] == runs[0].inertial_states[0, 0] + 100.0
        assert not np.array_equal(runs[1].gps, runs[0].gps)


def reference_oracle(cfg: ShuttleConfig):
    """Reference states and IMU stream from one state vector and one
    single-row numpy ``strapdown_batch`` call per substep."""
    dt_f = cfg.dt / cfg.oversample
    state = np.zeros(15)
    state[:9] = cfg.init_state
    states = np.empty((cfg.n_steps + 1, 15))
    imu_true = np.empty((cfg.n_steps, 6))
    states[0] = state
    for k in range(cfg.n_steps):
        for sub in range(cfg.oversample):
            t = (k * cfg.oversample + sub) * dt_f
            C = np.array(kernels.rotation_entries(*kernels.angle_trig(*state[6:9]))).reshape(3, 3)
            gravity = np.array([0.0, 0.0, GRAV_PARAM / (EARTH_RADIUS_FT + state[0]) ** 2])
            f_b = C.T @ (_command_accel(t) - gravity)
            omega_b = _command_rates(t)
            if not (np.isfinite(f_b).all() and np.isfinite(omega_b).all()):
                raise DynamicsDivergedError("reference diverged: IMU sample must be finite")
            if sub == 0:
                imu_true[k, :3] = f_b
                imu_true[k, 3:] = omega_b
            state = kernels.numpy_backend.strapdown_batch(state[None, :], f_b, omega_b, dt_f)[0]
        states[k + 1] = state
    return states, imu_true


DEFAULT_INIT = ShuttleConfig().init_state
RAISED_INIT = (DEFAULT_INIT[0] + 250.0, *DEFAULT_INIT[1:])
TURNED_INIT = (1.2e5, 0.5, -0.4, 9.0e3, 0.02, -2.5, -0.3, -0.6, 3.0)
# yaw 0.02 rad short of pi: it passes pi within 60 steps, so wrap_angle takes
# its remainder branch on floats (the other inits never leave (-pi, pi])
WRAPPING_INIT = (*TURNED_INIT[:8], np.pi - 0.02)


class TestReferenceEquivalence:
    @pytest.mark.parametrize("oversample", [7, 1])
    @pytest.mark.parametrize("init_state", [RAISED_INIT, TURNED_INIT, WRAPPING_INIT])
    def test_generate_reference_matches_single_row_oracle(self, oversample, init_state):
        # generate_reference runs the numpy body under either backend, and so
        # does the oracle
        cfg = ShuttleConfig(n_steps=60, oversample=oversample, init_state=init_state,
                            true_switch_step=None)
        states, imu_true = reference_oracle(cfg)
        ref = generate_reference(cfg)
        assert np.array_equal(ref.states, states)
        assert np.array_equal(ref.imu_true, imu_true)
        yaw_wraps = np.count_nonzero(np.abs(np.diff(ref.states[:, 8])) > np.pi)
        assert yaw_wraps == (init_state is WRAPPING_INIT)

    def test_reference_beyond_a_float_square_matches_oracle(self):
        # the altitude passes 1.3e154 ft, where a Python float's square raises
        # OverflowError and numpy's is inf, so the gravity is 0.0 on both paths
        init = (1.5e5, 0.93, 0.32, 1e154, -1.0, 0.8, 0.6, 0.2, 0.65)
        cfg = ShuttleConfig(n_steps=20, oversample=1, init_state=init, true_switch_step=None)
        with np.errstate(over="ignore"):
            states, imu_true = reference_oracle(cfg)
        ref = generate_reference(cfg)
        assert abs(ref.states[-1, 0]) > 1e155
        assert ref.states.tobytes() == states.tobytes()
        assert ref.imu_true.tobytes() == imu_true.tobytes()

    def test_command_profile_on_times_matches_calls_at_each_time(self):
        cfg = ShuttleConfig()
        times = np.arange(cfg.n_steps * cfg.oversample) * (cfg.dt / cfg.oversample)
        assert np.array_equal(_command_accel(times), [_command_accel(t) for t in times.tolist()])
        assert np.array_equal(_command_rates(times), [_command_rates(t) for t in times.tolist()])

    def test_integrate_imu_matches_per_row_kernel(self):
        cfg = ShuttleConfig(n_steps=80, oversample=3, true_switch_step=None)
        ref = generate_reference(cfg)
        x0 = ref.states[0].copy()
        x0[9:] = [2e-3, -1e-3, 5e-4, 1e-6, -2e-6, 3e-7]  # biases the kernel subtracts
        expect = np.empty_like(ref.states)
        expect[0] = x0
        for k, row in enumerate(ref.imu_true):
            expect[k + 1] = kernels.numpy_backend.strapdown_batch(
                expect[k][None, :], row[:3], row[3:], cfg.dt)[0]
        assert np.array_equal(integrate_imu(x0, ref.imu_true, cfg.dt), expect)

    def test_non_finite_imu_input_raises_dynamics_diverged(self):
        init = (float("nan"), *DEFAULT_INIT[1:])  # gravity, so the specific force, is NaN
        cfg = ShuttleConfig(n_steps=3, init_state=init, true_switch_step=None)
        for build in (reference_oracle, generate_reference):
            with pytest.raises(DynamicsDivergedError, match="finite"):
                build(cfg)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()[:16]


def with_init(**entries) -> list:
    """The default ``init_state`` with entries replaced by index (``i7=...``)."""
    init = list(DEFAULT_INIT)
    for key, value in entries.items():
        init[int(key[1:])] = value
    return init


NEAR_GUARD = dict(i6=0.0, i7=PITCH_GUARD - 1e-5)  # level roll, pitch 1e-5 short of the guard


class TestReferenceChunks:
    """The reference and its re-integration run in chunks of substeps, with
    the attitude passes ahead of the translation; the arrays and the errors
    are those of one kernel call per substep."""

    # sha256 prefixes of (times, states, imu_true) and of the re-integration,
    # taken when every substep called the whole kernel
    @pytest.mark.parametrize("overrides, reference, inertial", [
        (dict(n_steps=80, oversample=1), "08bdc523b9830ba2", "a1ce9b20fc11c621"),
        (dict(n_steps=80, oversample=3), "e9985de825f2ae21", "6d354d16c1bad80a"),
        # 560 substeps: a chunk and a part
        (dict(n_steps=80, oversample=7), "85b5e5cf9d477cab", "4e5bb35f7d36c0de"),
        (dict(n_steps=512, oversample=1), "6e6be99686217777", "52ea64a06d00d1a9"),
        (dict(n_steps=1100, oversample=1), "9b57e57199332cf9", "00cb8f0003b30b54"),
        (dict(), "cb18bed1866a2cd4", "6e56f3e422b0af17"),
        (dict(n_steps=60, oversample=7, init_state=WRAPPING_INIT),
         "cea5ec271c8c12fb", "ea0f2e691787b873"),
    ], ids=["oversample-1", "oversample-3", "oversample-7", "one-chunk", "three-chunks",
            "default", "yaw-wraps"])
    def test_arrays_keep_their_digests(self, overrides, reference, inertial):
        assert _CHUNK == 512
        cfg = ShuttleConfig(true_switch_step=None, **overrides)
        ref = generate_reference(cfg)
        assert digest(ref.times, ref.states, ref.imu_true) == reference
        assert digest(integrate_imu(ref.states[0], ref.imu_true, cfg.dt)) == inertial

    PITCH = "GimbalLockError: pitch at Euler-rate singularity"
    PITCH_AFTER = "GimbalLockError: pitch at Euler-rate singularity after update"
    POLAR = "PolarSingularityError: position angle at polar singularity"
    IMU = "DynamicsDivergedError: reference diverged: IMU sample must be finite"
    INERTIAL = "DynamicsDivergedError: reference diverged: inertial state must be finite"

    # (init_state, error through the generated reference, error through a
    # file that starts at init_state), each taken when every substep called
    # the whole kernel
    @pytest.mark.parametrize("init, generated, from_file", [
        (with_init(i7=np.pi / 2), PITCH, PITCH),
        (with_init(**NEAR_GUARD), PITCH_AFTER, PITCH_AFTER),
        (with_init(i1=np.pi / 2), POLAR, POLAR),
        (with_init(i1=np.pi / 2, **NEAR_GUARD), POLAR, POLAR),
        (with_init(i3=3e154), IMU, INERTIAL),
    ], ids=["pitch-at-start", "pitch-after-update", "pole", "pole-then-pitch", "imu"])
    def test_guard_errors_keep_their_text(self, init, generated, from_file, tmp_path):
        base = {"scenario": "shuttle", "n_steps": 120, "true_switch_step": None}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for oversample in (1, 7):
                data = {**base, "oversample": oversample, "init_state": init}
                assert harness.execute_case(data)[0].error == generated, oversample
            ref = generate_reference(ShuttleConfig(n_steps=120, true_switch_step=None))
            states = ref.states.copy()
            states[0, :9] = init
            path = tmp_path / "reference.csv"
            save_reference_csv(path, ReferenceTrajectory(ref.times, states, ref.imu_true))
            data = {**base, "reference_path": str(path)}
            assert harness.execute_case(data)[0].error == from_file

    def test_pitch_guard_trips_before_a_later_non_finite_imu_sample(self):
        # the pitch trips at step 2 and the IMU sample turns NaN at step 3
        data = {"scenario": "shuttle", "n_steps": 20, "oversample": 1,
                "true_switch_step": None, "init_state": with_init(i3=3e154, **NEAR_GUARD)}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert harness.execute_case(data)[0].error == self.PITCH_AFTER

    def test_pitch_guard_trips_in_a_later_chunk_after_nan_specific_force(self, tmp_path):
        # a level roll under a pure pitch rate turns the pitch linearly onto
        # the guard at step 701, in the second chunk; a NaN specific force from
        # step 300 on raises nothing before it
        n, dt = 1100, 1.4
        states = np.zeros((n + 1, 15))
        states[0, :9] = with_init(i6=0.0)
        imu = np.zeros((n, 6))
        imu[:, 2] = -32.0
        imu[:, 4] = (PITCH_GUARD - DEFAULT_INIT[7]) / (700.5 * dt)
        integrate_imu(states[0], imu[:700], dt)  # no guard trips in the first 700 steps
        with pytest.raises(GimbalLockError, match="after update"):
            integrate_imu(states[0], imu, dt)
        imu[300:, 0] = np.nan
        path = tmp_path / "reference.csv"
        save_reference_csv(path, ReferenceTrajectory(np.arange(n + 1) * dt, states, imu))
        data = {"scenario": "shuttle", "n_steps": n, "true_switch_step": None,
                "reference_path": str(path)}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert harness.execute_case(data)[0].error == self.PITCH_AFTER
