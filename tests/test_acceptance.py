"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are fixed here, not tuned elsewhere.
"""

import time

import numpy as np
import pytest

from skfnav import harness, kernels
from skfnav.biasmodels import BiasSpec
from skfnav.gaussfilt import linear_update, predict
from skfnav.constants import EARTH_RADIUS_FT, GRAV_PARAM
from skfnav.metrics import GREEN, relative_rmse
from skfnav.scenarios.balloon import BalloonConfig, build_balloon_filter, simulate_balloon
from skfnav.scenarios.shuttle import ShuttleConfig, generate_reference
from skfnav.switching import reports_no_corruption


def check(number, description, passed):
    print(f"[ACCEPTANCE] criterion {number:2d} {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {number}: {description}"


def balloon_case(seed, **overrides):
    cfg = dict(
        n_steps=500, dt=0.01, delta=1, seed=seed,
        q_x=1e-4, q_p=1e-4, r=1e-6,
        bias=BiasSpec("static", A=0.2), true_switch_step=200,
    )
    cfg.update(overrides)
    return BalloonConfig(**cfg)


def run_balloon(cfg):
    truth = simulate_balloon(cfg)
    filt = build_balloon_filter(cfg)
    diags = filt.run(truth.measurement_map(), cfg.n_steps)
    est = filt.estimate()
    means = np.asarray([entry[0] for entry in filt.bank.trajectory(est.row)])
    rmse = relative_rmse(means[1:, :2], truth.states[1:])
    return est, rmse, filt, diags


def test_criterion_1_linear_gaussian_oracle(linear_kalman):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    dt = 0.5
    A = np.array([[1.0, dt], [0.0, 1.0]])
    H = np.array([[1.0, 0.0]])
    Q = np.diag([1e-4, 1e-3])
    R = np.array([[0.04]])
    kf = linear_kalman([0.0, 1.0], np.eye(2), A, H, Q, R)
    mean, cov = np.array([0.0, 1.0]), np.eye(2)
    x = np.array([0.0, 1.0])
    worst_mean = worst_cov = 0.0
    for _ in range(200):
        x = A @ x + np.linalg.cholesky(Q) @ rng.standard_normal(2)
        y = H @ x + 0.2 * rng.standard_normal(1)
        kf.predict()
        kf.update(y)
        mean, cov = predict(mean, cov, lambda pts: pts @ A.T, Q)
        mean, cov, _ = linear_update(mean, cov, H, y, R)
        worst_mean = max(worst_mean, np.abs(mean - kf.m).max())
        worst_cov = max(worst_cov, np.abs(cov - kf.P).max())
    elapsed = time.perf_counter() - start
    check(1, f"unscented predict + exact linear update match closed-form KF over 200 steps "
             f"(mean {worst_mean:.1e}, cov {worst_cov:.1e}, {elapsed:.2f}s)",
          worst_mean < 1e-8 and worst_cov < 1e-8 and elapsed < 1.0)


def test_criterion_2_balloon_static_detection():
    start = time.perf_counter()
    greens, rmses = 0, []
    for seed in range(20):
        est, rmse, _, _ = run_balloon(balloon_case(seed))
        hit = (not est.is_nominal) and abs(est.s_index - 200) <= 1
        greens += hit
        rmses.append(rmse)
    med = np.median(np.asarray(rmses), axis=0)
    elapsed = time.perf_counter() - start
    check(2, f"static-offset onset recovered: {greens}/20 green, median RMSE "
             f"lon {med[0]:.1e} lat {med[1]:.1e} ({elapsed:.0f}s)",
          greens >= 16 and med.max() <= 1e-2 and elapsed < 120.0)


def test_criterion_3_balloon_quadratic_detection():
    greens = 0
    for seed in range(20):
        cfg = balloon_case(seed, q_x=1e-6, q_p=1e-6, r=1e-3,
                           bias=BiasSpec("quadratic", A=0.1, B=0.0, C=0.01))
        est, _, _, _ = run_balloon(cfg)
        greens += (not est.is_nominal) and abs(est.s_index - 200) <= 1
    check(3, f"quadratic-corruption onset recovered: {greens}/20 green", greens >= 16)


def test_criterion_4_unbiased_balloon_stays_clean():
    clean = 0
    theta_worst = 0.0
    for seed in range(20):
        cfg = balloon_case(seed, q_x=1e-6, q_p=1e-6, r=1e-6,
                           bias=BiasSpec("quadratic"), true_switch_step=None)
        est, _, filt, _ = run_balloon(cfg)
        clean += reports_no_corruption(est, cfg.n_steps)
        for mean, _, _ in filt.bank.trajectory(0):
            theta_worst = max(theta_worst, np.abs(mean[2:]).max())
    check(4, f"clean runs report no corruption: {clean}/20, nominal parameter "
             f"mean stays |{theta_worst:.1e}| < 1e-9",
          clean == 20 and theta_worst < 1e-9)


def test_criterion_5_success_rate_monotone_in_offset(tmp_path):
    # each seed's four offsets are one prefix family: the first run steps
    # the filter through the onset and checkpoints it, and the others resume
    # there, with banks bit for bit those of full runs
    offsets = (0.001, 0.01, 0.1, 0.5)
    greens = dict.fromkeys(offsets, 0)
    for seed in range(20):
        checkpoint = tmp_path / f"seed{seed}.pickle"
        for A in offsets:
            data = {"scenario": "balloon", "n_steps": 500, "dt": 0.01, "delta": 1,
                    "seed": seed, "q_x": 1e-6, "q_p": 1e-6, "r": 1e-5,
                    "bias": {"kind": "static", "A": A}, "true_switch_step": 200}
            _, filt, _ = harness.execute_case(data, checkpoint=checkpoint)
            est = filt.estimate()
            greens[A] += (not est.is_nominal) and abs(est.s_index - 200) <= 1
    rates = [greens[A] / 20 for A in offsets]
    monotone = all(a <= b for a, b in zip(rates, rates[1:]))
    check(5, f"success rate over offset magnitudes {rates} is non-decreasing "
             f"and reaches {rates[-1]:.0%}",
          monotone and rates[-1] >= 0.95)


def test_criterion_6_spawned_branch_matches_nominal():
    rng = np.random.default_rng(99)
    comparisons = 0
    worst = 0.0
    for _ in range(50):
        cfg = BalloonConfig(
            n_steps=int(rng.integers(20, 61)),
            dt=0.01,
            delta=int(rng.choice([1, 2, 5])),
            q_x=float(10.0 ** rng.uniform(-7, -4)),
            q_p=float(10.0 ** rng.uniform(-7, -4)),
            r=float(10.0 ** rng.uniform(-6, -3)),
            bias=BiasSpec("quadratic", A=float(rng.uniform(0, 0.3)),
                          B=float(rng.uniform(0, 0.1)), C=float(rng.uniform(0, 0.05))),
            true_switch_step=int(rng.integers(0, 20)),
            seed=int(rng.integers(0, 2**31)),
            capacity=int(rng.integers(3, 12)),
        )
        truth = simulate_balloon(cfg)
        filt = build_balloon_filter(cfg)
        meas = truth.measurement_map()
        for k in range(1, cfg.n_steps + 1):
            diag = filt.step(meas.get(k))
            if diag.spawned_s is None:
                continue
            bank = filt.bank
            spawned = [i for i in range(1, len(bank)) if bank.s_index[i] == diag.spawned_s]
            if not spawned:
                continue  # pruned at birth
            i = spawned[0]
            worst = max(worst,
                        np.abs(bank.mean[i] - bank.mean[0]).max(),
                        np.abs(bank.cov[i] - bank.cov[0]).max())
            comparisons += 1
    check(6, f"{comparisons} spawned branches match the nominal belief at the "
             f"spawn epoch (worst deviation {worst:.1e})",
          comparisons > 500 and worst <= 1e-12)


def test_criterion_7_pruning_contract():
    cfg = balloon_case(5, capacity=6)
    truth = simulate_balloon(cfg)
    filt = build_balloon_filter(cfg)
    meas = truth.measurement_map()
    violations = 0
    prune_events = 0
    for k in range(1, cfg.n_steps + 1):
        diag = filt.step(meas.get(k))
        if len(filt.bank) > cfg.capacity:
            violations += 1
        if not diag.pruned:
            continue
        prune_events += len(diag.pruned)
        # removed branches must be exactly the lowest-score hypotheses
        # (ties discard the latest onset)
        ranked = sorted(diag.scores_before_prune, key=lambda t: (t[1], -t[0]))
        expected = set(ranked[: len(diag.pruned)])
        if set(diag.pruned) != expected:
            violations += 1
    check(7, f"{prune_events} prune events kept count <= capacity and removed "
             f"the minimum-score branch ({violations} violations)",
          prune_events > 400 and violations == 0)


def test_criterion_8_strapdown_round_trip():
    cfg = ShuttleConfig(n_steps=1000, oversample=1, true_switch_step=None)
    ref = generate_reference(cfg)
    state = ref.states[0]
    worst_pos = 0.0
    worst_orth = 0.0
    for k in range(cfg.n_steps):
        state = kernels.strapdown_batch(state[None, :], ref.imu_true[k, :3],
                                        ref.imu_true[k, 3:], cfg.dt)[0]
        expect = ref.states[k + 1]
        rel = np.abs(state[:3] - expect[:3]) / np.maximum(np.abs(expect[:3]), 1e-12)
        worst_pos = max(worst_pos, rel.max())
        C = np.array(kernels.rotation_entries(*kernels.angle_trig(*state[6:9]))).reshape(3, 3)
        worst_orth = max(worst_orth, np.abs(C @ C.T - np.eye(3)).max(),
                         abs(np.linalg.det(C) - 1.0))
    # the kernel's surface gravity: the speed a level state picks up from rest
    # in one second with no specific force
    rest = np.zeros((1, 15))
    g_kernel = kernels.strapdown_batch(rest, np.zeros(3), np.zeros(3), 1.0)[0, 3]
    g_err = abs(g_kernel - GRAV_PARAM / EARTH_RADIUS_FT**2) / (GRAV_PARAM / EARTH_RADIUS_FT**2)
    check(8, f"1000-step IMU stream re-integrates to the reference (worst "
             f"position rel err {worst_pos:.1e}, orthonormality {worst_orth:.1e}, "
             f"surface gravity rel err {g_err:.1e})",
          worst_pos <= 1e-6 and worst_orth <= 1e-10 and g_err <= 1e-9)


def test_criterion_9_shuttle_large_bias_detection():
    start = time.perf_counter()
    hits = 0
    for seed in range(10):
        data = {
            "scenario": "shuttle", "n_steps": 600, "dt": 1.4, "delta": 1,
            "q_x": 1e-8, "q_p": 1e-12, "r": 1e-8, "seed": seed,
            "bias": {"kind": "quadratic", "A": 100.0, "B": 100.0, "C": 0.0, "cap": 1000.0},
            "true_switch_step": 357,
        }
        record = harness.execute_case(data)[0]
        assert record.status == "ok", record.error
        hits += (record.est_switch_step is not None
                 and abs(record.est_switch_step - 357) <= 1)
    elapsed = time.perf_counter() - start
    check(9, f"ramping offset located within one epoch in {hits}/10 runs "
             f"({elapsed:.0f}s)",
          hits >= 8 and elapsed < 300.0)


def test_criterion_10_rmse_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 50))
        truth = rng.standard_normal((n, 2)) + 0.5
        est = truth + 0.1 * rng.standard_normal((n, 2))
        got = relative_rmse(est, truth)
        for j in range(2):
            num = sum((est[k, j] - truth[k, j]) ** 2 for k in range(n))
            den = sum(truth[k, j] ** 2 for k in range(n))
            worst = max(worst, abs(got[j] - np.sqrt(num / den)))
    check(10, f"relative-RMSE matches brute-force evaluation on 100 random "
              f"series pairs (worst {worst:.1e})", worst <= 1e-12)


def test_criterion_11_thread_count_invariance(tmp_path, monkeypatch):
    doc = {
        "scenario": "balloon",
        "name": "determinism",
        "base": {"n_steps": 80, "dt": 0.01, "q_x": 1e-6, "q_p": 1e-6,
                 "delta": 1, "true_switch_step": 40},
        "axes": {"r": [1e-6, 1e-4], "A": [0.0, 0.2]},
        "seeds": 2,
    }
    grid = harness.sweep_from_dict(doc)
    blobs = []
    for threads in ("1", "4"):
        monkeypatch.setenv("SKFNAV_THREADS", threads)
        _, target = harness.run_sweep_to_dir(grid, tmp_path / f"t{threads}")
        blobs.append((target / "records.csv").read_bytes())
    check(11, "records.csv byte-identical for SKFNAV_THREADS in {1, 4}",
          blobs[0] == blobs[1] and len(blobs[0]) > 0)
