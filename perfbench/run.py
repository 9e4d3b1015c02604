#!/usr/bin/env python3
"""Benchmark for skfnav: per-case latency and sweep throughput, with
per-layer spans.

Every workload is a closed loop driven from this one process by one caller:
a run starts only when the previous one has finished.  The inputs are drawn
from ``--seed``; the program sees only the generated configs and seeds.

  balloon-cases   the 9 table-3 configs, 2 drawn seeds each (18 runs of
                  500 steps), through ``execute_case`` + ``write_run_outputs``
                  as ``skfnav simulate`` does.  d=5 filter, no kernel, no
                  reference: time goes to per-branch filter call overhead.
  shuttle-cases   8 clean (``table5_test1``) and 4 corrupted
                  (``table5_test22``) shuttle runs at n=600, each with a
                  drawn seed and a drawn altitude offset, so no two runs
                  share a reference key.  Kernel and reference heavy; clean
                  runs keep every branch live, corrupted ones freeze.
  shuttle-sweep   the ``shuttle_sa`` grid (32 cells, n=280) at one drawn
                  seed through ``run_sweep_to_dir`` with 2 worker processes
                  (at most the CPU count), as ``skfnav sweep`` does.  Every
                  cell rebuilds the same reference.

``--trace 0`` repeats timed passes over the workload for about ``--seconds``
and prints the end-to-end metrics.  ``--trace 1`` runs one untraced pass,
then one traced pass (the sweep in a single process) that wraps the calls
into skfnav's modules, and prints the per-layer metrics.  Every pass checks
each record's outcome against ``metrics.classify``; passes of one run must
write byte-identical ``records.csv`` files, which on the sweep also compares
2 workers against one process.  Results, stamped with the commit, backend,
CPU count and versions, go to ``perfbench/out/``.

End-to-end times and set-up are scaled to a reference machine speed
measured by calibration bursts (see ``calibrate``).
``case_s.tail`` is the highest percentile with at least ten runs beyond it;
with 18 and 12 runs per pass that is p44 and p17 on the two case workloads,
and p69 on the sweep's 32 cells.

Usage, from the repository root:

    python3 perfbench/run.py --workload balloon-cases --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1   # every metric

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when an output check fails and 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))
from tracing import Tracer, branch_counts, nearest_rank, ten_beyond  # noqa: E402

SETUP_PROBES = 5
BALLOON_SEEDS_PER_CONFIG = 2
# clean and corrupted runs; with more clean ones the median lies inside
# the clean runs' cluster instead of on the gap between the two clusters
SHUTTLE_CASES = (8, 4)
SHUTTLE_ALT_OFFSET_FT = 300.0
SWEEP_WORKERS = min(2, os.cpu_count() or 1)
KERNEL_ROWS = (49, 490)
# A calibration burst of BURST_STEPS steps takes BURST_REF_S seconds at the
# reference machine speed; BURSTS_PER_GAP of them run before the first and
# after every case run.
BURST_STEPS, BURST_REF_S = 2000, 0.0225
BURSTS_PER_GAP = 2
_CAL_MATRIX = np.eye(5) * 5.0 + 0.1


def load_spec() -> dict:
    """Workload and metric declarations from BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class SourceMissing(RuntimeError):
    """The checkout lacks the skfnav sources or configs."""


def load_skfnav():
    """Import skfnav from ``src/`` of this checkout, never from elsewhere."""
    if not (SRC / "skfnav" / "__init__.py").is_file() or not CONFIGS.is_dir():
        raise SourceMissing(f"no skfnav sources under {SRC} or configs under {CONFIGS}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import skfnav
    import skfnav.harness
    import skfnav.scenarios.shuttle

    if not Path(skfnav.__file__).resolve().is_relative_to(SRC):
        raise SourceMissing(f"skfnav imported from {skfnav.__file__}, not {SRC}")
    return skfnav


def calibrate() -> float:
    """Seconds for a fixed burst of small numpy operations and Python calls,
    the kind of work the filter does, with no skfnav code involved.

    The shared machine's speed drifts by up to 2x within minutes, and
    differently on each CPU.  So the case workloads run pinned to one CPU
    with bursts on it before and after every run; the sweep's workers run
    bursts before and after every cell (see ``calibrated_cells``), never
    beside a busy worker; and each set-up probe ends with bursts of its
    own.  A time is scaled by the reference burst time over the median of
    its bursts: seconds at the reference speed.  Raw times stay in the
    result file.
    """
    a = _CAL_MATRIX
    t0 = time.perf_counter()
    for _ in range(BURST_STEPS):
        c = np.linalg.cholesky(a)
        m = a @ c
        b = np.empty((11, 5))
        b[0] = m[0] * 0.5
    return time.perf_counter() - t0


def speed_factor(bursts: list[float]) -> float:
    """Reference burst time over the median of measured burst times."""
    return BURST_REF_S / statistics.median(bursts)


def _gap(calibrated: bool) -> list[float]:
    return [calibrate() for _ in range(BURSTS_PER_GAP)] if calibrated else []


_RUN_TASK = None  # harness._run_task while _calibrated_task stands in for it


def _calibrated_task(task):
    """One sweep cell between calibration bursts in the process that runs
    it; the bursts travel back to the caller on the record."""
    before = _gap(True)
    record = _RUN_TASK(task)
    record.calibration_bursts = before + _gap(True)
    return record


@contextmanager
def calibrated_cells(harness):
    """Run every sweep cell through ``_calibrated_task``.  The pool's workers
    are forked from this process inside the block, so they inherit the
    stand-in and the original it calls."""
    global _RUN_TASK
    _RUN_TASK, harness._run_task = harness._run_task, _calibrated_task
    try:
        yield
    finally:
        harness._run_task, _RUN_TASK = _RUN_TASK, None


# -- workloads ---------------------------------------------------------------


@dataclass
class Workload:
    name: str
    n_steps: int
    cases: list = field(default_factory=list)  # (label, config dict, seed)
    grid: object = None  # harness.SweepGrid for the sweep


def _config(name: str) -> dict:
    return json.loads((CONFIGS / f"{name}.json").read_text())


def _draw_seeds(rng, n: int) -> list[int]:
    return [int(s) for s in rng.choice(2**31, size=n, replace=False)]


def build_workload(name: str, seed: int) -> Workload:
    """The workload's inputs, a pure function of ``name`` and ``seed``."""
    sk = load_skfnav()
    rng = np.random.default_rng(seed)
    if name == "balloon-cases":
        configs = [(f"table3_test{i}", _config(f"table3_test{i}")) for i in range(1, 10)]
        seeds = _draw_seeds(rng, BALLOON_SEEDS_PER_CONFIG * len(configs))
        cases = [
            (label, data, seeds[rep * len(configs) + i])
            for rep in range(BALLOON_SEEDS_PER_CONFIG)
            for i, (label, data) in enumerate(configs)
        ]
        return Workload(name, n_steps=500, cases=cases)
    if name == "shuttle-cases":
        base_state = list(sk.scenarios.shuttle.ShuttleConfig().init_state)
        labels = ["table5_test1"] * SHUTTLE_CASES[0] + ["table5_test22"] * SHUTTLE_CASES[1]
        labels = [labels[i] for i in rng.permutation(len(labels))]
        n = len(labels)
        seeds = _draw_seeds(rng, n)
        offsets = rng.uniform(-SHUTTLE_ALT_OFFSET_FT, SHUTTLE_ALT_OFFSET_FT, size=n)
        cases = []
        for i, label in enumerate(labels):
            data = _config(label)
            data["init_state"] = [base_state[0] + float(offsets[i])] + base_state[1:]
            cases.append((label, data, seeds[i]))
        keys = {(d["n_steps"], d["dt"], d.get("oversample"), tuple(d["init_state"]))
                for _, d, _ in cases}
        if len(keys) != len(cases):
            raise RuntimeError("two shuttle cases share a reference key")
        return Workload(name, n_steps=600, cases=cases)
    if name == "shuttle-sweep":
        data = _config("shuttle_sa")
        data["seeds"] = _draw_seeds(rng, 1)
        grid = sk.harness.sweep_from_dict(data)
        return Workload(name, n_steps=int(grid.base["n_steps"]), grid=grid)
    raise ValueError(f"unknown workload {name!r}")


# -- passes ------------------------------------------------------------------


@dataclass
class PassResult:
    wall: float = 0.0
    case_s: list = field(default_factory=list)  # one latency per run, workload order
    speed: float = 1.0  # speed_factor of the whole pass
    case_speed: list = field(default_factory=list)  # speed_factor per entry of case_s
    busy_scaled: float = 0.0  # wall at the reference speed, calibration excluded
    burst_s: float = 0.0  # the sweep's wall taken by its workers' calibration bursts
    runtimes: list = field(default_factory=list)  # RunRecord.runtime per record
    outputs: list = field(default_factory=list)  # records.csv contents
    attempted: int = 0
    failed: int = 0
    green: int = 0
    write_bytes: int = 0
    mismatches: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def check_records(sk, path: Path, result: PassResult) -> None:
    """Count a records.csv and recompute each ok record's outcome."""
    records = sk.harness.rows_to_records(sk.harness.read_records_csv(path))
    for rec in records:
        result.attempted += 1
        if rec.status != "ok":
            result.failed += 1
            continue
        result.green += rec.outcome == sk.metrics.GREEN
        bias_free = (
            rec.true_switch_step is None
            or sk.biasmodels.BiasSpec.from_dict(rec.config["bias"]).is_zero
        )
        expected = sk.metrics.classify(
            rec.est_switch_step,
            None if bias_free else rec.true_switch_step,
            bias_free=bias_free,
            no_corruption_reported=rec.no_corruption,
        )
        if expected != rec.outcome:
            result.mismatches.append(
                f"{path.parent.name} seed {rec.seed}: outcome {rec.outcome}, "
                f"classify gives {expected}"
            )


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_pass(sk, wl: Workload, out_dir: Path, workers: int,
             calibrated: bool = True) -> PassResult:
    """Run every case (or the sweep) once, then check what was written."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    result = PassResult()
    harness = sk.harness
    written = []
    if wl.grid is None:
        gaps = [_gap(calibrated)]
        for i, (label, data, seed) in enumerate(wl.cases):
            t0 = time.perf_counter()
            try:
                record, filt, truth = harness.execute_case(data, seed=seed)
                target = out_dir / f"{i:02d}-run-{record.config_hash}-s{record.seed}"
                harness.write_run_outputs(record, filt, target, truth=truth)
                written.append(target)
                result.runtimes.append(record.runtime)
            except Exception:  # a run that raises counts as failed; the pass goes on
                result.errors.append(f"{label} seed {seed}: {traceback.format_exc()}")
                result.attempted += 1
                result.failed += 1
            result.case_s.append(time.perf_counter() - t0)
            gaps.append(_gap(calibrated))
        result.wall = sum(result.case_s)
        result.case_speed = [1.0] * len(result.case_s)
        if calibrated:
            # each run is scaled by the bursts just before and just after it
            result.case_speed = [speed_factor(a + b) for a, b in zip(gaps, gaps[1:])]
            result.speed = speed_factor(sum(gaps, []))
        result.busy_scaled = sum(t * f for t, f in zip(result.case_s, result.case_speed))
    else:
        records = []
        start = time.perf_counter()
        try:
            with calibrated_cells(harness) if calibrated else nullcontext():
                records, target = harness.run_sweep_to_dir(wl.grid, out_dir,
                                                           threads=workers)
            written.append(target)
            result.runtimes = [r.runtime for r in records]
            result.case_s = list(result.runtimes)
        except Exception:  # the whole sweep failed: every run counts as failed
            result.errors.append(traceback.format_exc())
            n_runs = len(wl.grid.cell_configs()) * len(wl.grid.seeds)
            result.attempted += n_runs
            result.failed += n_runs
        result.wall = time.perf_counter() - start
        result.case_speed = [1.0] * len(result.case_s)
        result.busy_scaled = result.wall
        if calibrated and records:
            bursts = [getattr(r, "calibration_bursts", None) for r in records]
            if None in bursts:
                raise RuntimeError("a sweep cell ran without calibration bursts: "
                                   "the worker pool must fork this process")
            # each cell is scaled by its own worker's bursts; the wall, less
            # the bursts' share of it, by the cells' mean factor, weighted by
            # their runtimes
            result.case_speed = [speed_factor(b) for b in bursts]
            result.speed = (sum(t * f for t, f in zip(result.case_s, result.case_speed))
                            / sum(result.case_s))
            result.burst_s = sum(map(sum, bursts)) / workers
            result.busy_scaled = (result.wall - result.burst_s) * result.speed
    for target in written:
        check_records(sk, target / "records.csv", result)
        result.outputs.append((target / "records.csv").read_bytes())
    result.write_bytes = _tree_bytes(out_dir)
    return result


# -- end-to-end metrics ------------------------------------------------------


def probe_bursts() -> None:
    """Run in a set-up probe after its set-up: prints the median of three
    calibration bursts and the seconds they took together."""
    bursts = [calibrate() for _ in range(3)]
    print(statistics.median(bursts), sum(bursts))


def measure_setup(name: str, seed: int) -> list[tuple[float, float]]:
    """Wall time of fresh interpreters that import skfnav and build the
    workload's inputs, as a user's process pays it before its first run.

    Returns ``(seconds, burst)`` per probe: the probe's own calibration
    bursts, run after its set-up, are taken out of its time and give its
    speed."""
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import run; "
        f"run.build_workload({name!r}, {seed}); run.probe_bursts()"
    )
    probes = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        burst, bursts_s = (float(v) for v in proc.stdout.split()[-2:])
        probes.append((elapsed - bursts_s, burst))
    return probes


def peak_rss_mb(workers: int) -> float:
    """This process's peak RSS, plus ``workers`` times the largest child's
    peak when a worker pool ran (children that overlap in time)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def per_case_samples(passes: list[PassResult], scaled: bool = True) -> list[float]:
    """One sample per run of the workload: its median latency over passes."""
    return [
        statistics.median(times)
        for times in zip(*(
            [t * f for t, f in zip(p.case_s, p.case_speed)] if scaled else p.case_s
            for p in passes
        ))
    ]


def end_to_end(passes: list[PassResult], setup: list[tuple[float, float]],
               rss_mb: float):
    """End-to-end metrics; times are scaled to the reference speed."""
    first = passes[0]
    metrics, raw = {}, {}
    for scaled, out in ((True, metrics), (False, raw)):
        samples = per_case_samples(passes, scaled)
        tail = ten_beyond(samples)
        busy = sum(p.busy_scaled if scaled else p.wall - p.burst_s for p in passes)
        out.update({
            "setup_s": statistics.median(
                t * (speed_factor([burst]) if scaled else 1.0)
                for t, burst in setup
            ),
            "runs_per_s": sum(len(p.case_s) for p in passes) / busy,
            "case_s.p50": statistics.median(samples),
            "case_s.tail": tail["value"],
        })
    metrics.update({
        "peak_rss_mb": rss_mb,
        "green_frac": first.green / first.attempted,
    })
    detail = {
        "setup_s": {"samples": len(setup), "statistic": "median"},
        "case_s.p50": {"percentile": 50.0, "samples": len(samples),
                       "statistic": "median over passes per run, then percentile"},
        "case_s.tail": {"percentile": tail["percentile"], "samples": tail["samples"],
                        "rule": "highest percentile with at least ten runs beyond it"},
        "failed_frac": first.failed / first.attempted,
        "passes": len(passes),
        "runs_per_pass": first.attempted,
        "speed_factor": [p.speed for p in passes],
        "unscaled": raw,
    }
    return metrics, detail


# -- per-layer metrics ---------------------------------------------------------


def install_tracer(tracer: Tracer, sk) -> list[str]:
    """Wrap the public calls between skfnav's modules; returns the names of
    attributes that no longer exist (their metrics then read 0)."""
    h, sw, shuttle = sk.harness, sk.switching, sk.scenarios.shuttle
    diags = tracer.step_diagnostics

    def count_rows(args, _result):
        tracer.counts["kernels.rows"] += int(np.shape(args[0])[0])

    wraps = [
        (h, "execute_case", "harness.execute_case", None),
        (h, "validate_config", "configio.validate_config", None),
        (h, "simulate_balloon", "scenarios.simulate", None),
        (h, "simulate_shuttle", "scenarios.simulate", None),
        (shuttle, "generate_reference", "scenarios.generate_reference", None),
        (shuttle, "integrate_imu", "scenarios.integrate_imu", None),
        (sk.kernels, "strapdown_batch", "kernels.strapdown_batch", count_rows),
        (sw.SwitchingFilter, "step", "switching.step", lambda a, r: diags.append(r)),
        (sw, "predict", "gaussfilt.predict", None),
        (sw, "update", "gaussfilt.update", None),
        (sw, "log_likelihood_increment", "gaussfilt.log_likelihood_increment", None),
        (sk.gaussfilt, "sigma_points", "gaussfilt.sigma_points", None),
        (sw, "quadratic_offsets", "biasmodels.quadratic_offsets", None),
        (sw, "prune", "switching.prune", None),
        (sw, "estimate", "switching.estimate", None),
        (h, "classify", "metrics.classify_rmse", None),
        (h, "relative_rmse", "metrics.classify_rmse", None),
        (h, "write_run_outputs", "harness.write", None),
        (h, "write_records_csv", "harness.write", None),
        (h, "write_aggregates_csv", "harness.write", None),
        (h, "aggregate", "harness.aggregate", None),
        (h, "plot_documents", "harness.aggregate", None),
    ]
    missing = []
    for owner, attr, name, hook in wraps:
        if not tracer.wrap(owner, attr, name, on_result=hook):
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    # innovation factorisations: Cholesky calls made directly by the update
    # and the score, not those behind sigma-point generation
    tracer.count_within(np.linalg, "cholesky", "gaussfilt.cholesky",
                        {"gaussfilt.update", "gaussfilt.log_likelihood_increment"})
    return missing


def kernel_batch(n_rows: int, seed: int = 0) -> np.ndarray:
    """Sigma-point-like reentry states around the shuttle's initial state."""
    rng = np.random.default_rng(seed)
    states = np.empty((n_rows, 15))
    states[:, 0] = 1.5e5 + 1e3 * rng.standard_normal(n_rows)
    states[:, 1] = 0.93 + 0.01 * rng.standard_normal(n_rows)
    states[:, 2] = 0.32 + 0.01 * rng.standard_normal(n_rows)
    states[:, 3] = 1.4e4 + 100 * rng.standard_normal(n_rows)
    states[:, 4] = -0.006 + 0.001 * rng.standard_normal(n_rows)
    states[:, 5] = 0.8 + 0.01 * rng.standard_normal(n_rows)
    states[:, 6:9] = 0.3 + 0.01 * rng.standard_normal((n_rows, 3))
    states[:, 9:15] = 1e-4 * rng.standard_normal((n_rows, 6))
    return states


def kernel_micro(sk, mismatches: list) -> dict:
    """Per-call time of the active strapdown kernel at 49 rows (one branch's
    sigma points) and 490 rows (ten branches stacked), median of 7 blocks;
    checks the numpy and compiled kernels agree when both exist."""
    f = np.array([-5.0, 2.0, -31.0])
    w = np.array([1e-3, -2e-3, 5e-4])
    dt, reps = 1.4, 200
    fn = sk.kernels.strapdown_batch
    out = {}
    for rows in KERNEL_ROWS:
        states = kernel_batch(rows)
        fn(states, f, w, dt)
        blocks = []
        for _ in range(7):
            t0 = time.perf_counter()
            for _ in range(reps):
                fn(states, f, w, dt)
            blocks.append((time.perf_counter() - t0) / reps)
        out[f"kernels.strapdown_batch.us_{rows}rows"] = statistics.median(blocks) * 1e6
    try:
        from skfnav.kernels import _native
    except ImportError:
        return out
    states = kernel_batch(max(KERNEL_ROWS), seed=1)
    a = sk.kernels.numpy_backend.strapdown_batch(states, f, w, dt)
    b = _native.strapdown_batch(states, f, w, dt)
    rel = float((np.abs(a - b) / np.maximum(np.abs(a), 1e-12)).max())
    if rel >= 1e-13:
        mismatches.append(f"native and numpy kernels differ: max relative {rel:.2e}")
    return out


def per_layer(tracer: Tracer, base: PassResult, traced: PassResult,
              micro: dict, workers: int, is_sweep: bool) -> tuple[dict, dict]:
    spans = tracer.summary()

    def get(name, key):
        return spans[name][key] if name in spans else 0

    kernel_calls = get("kernels.strapdown_batch", "calls")
    rows = tracer.counts["kernels.rows"]
    kernel_s = get("kernels.strapdown_batch", "s")
    updates = get("gaussfilt.update", "calls")
    cholesky = tracer.counts["gaussfilt.cholesky"]
    diags = tracer.step_diagnostics
    step_ms = spans["switching.step"]["durations"] * 1e3 if "switching.step" in spans else []
    if len(step_ms) != len(diags):
        raise RuntimeError("a traced filter step raised; step spans and diagnostics differ")
    epoch_ms = [ms for ms, d in zip(step_ms, diags) if d.epoch]
    branches = branch_counts(diags)
    metrics = {
        "kernels.strapdown_batch.calls": kernel_calls,
        "kernels.strapdown_batch.rows": rows,
        "kernels.strapdown_batch.s": kernel_s,
        "kernels.strapdown_batch.ns_per_row": kernel_s / rows * 1e9 if rows else 0.0,
        # states in and out plus the IMU sample, from array sizes
        "kernels.strapdown_batch.bytes_computed": 8 * (30 * rows + 6 * kernel_calls),
        **micro,
        "scenarios.generate_reference.calls": get("scenarios.generate_reference", "calls"),
        "scenarios.generate_reference.s": get("scenarios.generate_reference", "s"),
        "scenarios.integrate_imu.s": get("scenarios.integrate_imu", "s"),
        "scenarios.simulate.self_s": get("scenarios.simulate", "self_s"),
        "gaussfilt.sigma_points.calls": get("gaussfilt.sigma_points", "calls"),
        "gaussfilt.sigma_points.s": get("gaussfilt.sigma_points", "s"),
        "gaussfilt.predict.calls": get("gaussfilt.predict", "calls"),
        "gaussfilt.predict.self_s": get("gaussfilt.predict", "self_s"),
        "gaussfilt.update.calls": updates,
        "gaussfilt.update.self_s": get("gaussfilt.update", "self_s"),
        "gaussfilt.log_likelihood_increment.calls":
            get("gaussfilt.log_likelihood_increment", "calls"),
        "gaussfilt.log_likelihood_increment.s": get("gaussfilt.log_likelihood_increment", "s"),
        "gaussfilt.cholesky.calls": cholesky,
        "gaussfilt.cholesky_per_update": cholesky / updates if updates else 0.0,
        "biasmodels.quadratic_offsets.calls": get("biasmodels.quadratic_offsets", "calls"),
        "biasmodels.quadratic_offsets.s": get("biasmodels.quadratic_offsets", "s"),
        "switching.step.calls": get("switching.step", "calls"),
        "switching.step.self_s": get("switching.step", "self_s"),
        "switching.epoch_ms.p50": float(np.median(epoch_ms)),
        "switching.epoch_ms.p99": float(nearest_rank(epoch_ms, 99)),
        "switching.prune.s": get("switching.prune", "s"),
        "switching.estimate.s": get("switching.estimate", "s"),
        **{f"switching.{k}": v for k, v in branches.items()},
        "configio.validate_config.calls": get("configio.validate_config", "calls"),
        "configio.validate_config.s": get("configio.validate_config", "s"),
        "metrics.classify_rmse.s": get("metrics.classify_rmse", "s"),
        "harness.execute_case.self_s": get("harness.execute_case", "self_s"),
        "harness.write.s": get("harness.write", "s"),
        "harness.write.bytes": traced.write_bytes,
        "harness.aggregate.s": get("harness.aggregate", "s"),
        "harness.pool.busy_frac":
            sum(base.runtimes) / ((base.wall - base.burst_s) * workers)
            if is_sweep else 0.0,
        "trace_overhead_frac": sum(traced.runtimes) / sum(base.runtimes) - 1.0,
    }
    detail = {
        "switching.epoch_ms.p50": {"percentile": 50.0, "samples": len(epoch_ms)},
        "switching.epoch_ms.p99": {"percentile": 99.0, "samples": len(epoch_ms),
                                   "rule": "nearest rank"},
        "gaussfilt.cholesky_per_update": {"base": "gaussfilt.update.calls",
                                          "numerator": "gaussfilt.cholesky.calls"},
        "kernels.strapdown_batch.bytes_computed":
            "computed from array sizes: 15 doubles in and out per row, 6 per call",
        "harness.pool.busy_frac": (
            f"sum of record runtimes / (untraced pass wall, calibration bursts "
            f"excluded, x {workers} workers)"
            if is_sweep else "no worker pool on this workload; reads 0"),
        "trace_overhead_frac":
            "sum of record runtimes, traced pass over untraced pass, minus 1",
        "span_count": len(tracer.start),
    }
    return metrics, detail


# -- one workload ------------------------------------------------------------


def source_stamp(sk, name: str, seed: int, trace: int, seconds: float) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "skfnav").rglob("*")):
        if path.suffix in (".py", ".pyx") and path.is_file():
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "backend": sk.BACKEND,
        "nproc": os.cpu_count(),
        "sweep_workers": SWEEP_WORKERS,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: int) -> dict:
    sk = load_skfnav()
    wl = build_workload(name, seed)
    is_sweep = wl.grid is not None
    workers = SWEEP_WORKERS if is_sweep else 1
    out = OUT / f"{name}-s{seed}"
    mismatches, passes = [], []
    cpus = os.sched_getaffinity(0)
    if not is_sweep:
        # one process does all the work: keep it, and the calibration bursts
        # between its runs, on one CPU
        os.sched_setaffinity(0, {min(cpus)})
    try:
        start = time.perf_counter()
        while True:
            passes.append(run_pass(sk, wl, out / f"pass{len(passes)}", workers))
            elapsed = time.perf_counter() - start
            if trace or elapsed + passes[-1].wall / 2 >= seconds:
                break
        # before the set-up probes, whose interpreters would count as children
        rss = peak_rss_mb(workers if is_sweep else 0)
        metrics, detail = end_to_end(passes, measure_setup(name, seed), rss)
        if trace:
            tracer = Tracer()
            missing = install_tracer(tracer, sk)
            try:
                passes.append(run_pass(sk, wl, out / "traced", 1, calibrated=False))
            finally:
                tracer.restore()
            micro = kernel_micro(sk, mismatches)
            layers, layer_detail = per_layer(tracer, passes[0], passes[-1], micro,
                                             workers, is_sweep)
            tracer.save(out / "spans.npz")
            metrics.update(layers)
            detail.update(layer_detail, missing_wrapped=missing)
    finally:
        os.sched_setaffinity(0, cpus)
    declared = spec["end_to_end"] + (spec["per_layer"] if trace else [])
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError("computed metrics differ from those BENCHMARK.json declares")
    for i, p in enumerate(passes):
        mismatches += p.mismatches
        if p.outputs != passes[0].outputs:
            mismatches.append(f"records.csv of pass {i} differs from pass 0")
    result = {
        "stamp": source_stamp(sk, name, seed, trace, seconds),
        "n_steps": wl.n_steps,
        "correct": not mismatches,
        "attempted": passes[0].attempted,
        "failed": passes[0].failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
        "detail": detail,
        "pass_walls": [p.wall for p in passes],
        "pass_case_s": [p.case_s for p in passes],
        "pass_case_speed": [p.case_speed for p in passes],
        "mismatches": mismatches,
        "errors": [e for p in passes for e in p.errors],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{name}-s{seed}-trace{trace}.json").write_text(json.dumps(result, indent=2))
    return result


def print_metrics(name: str, result: dict) -> None:
    print(f"== {name}  seed {result['stamp']['seed']}  backend {result['stamp']['backend']}"
          f"  n_steps {result['n_steps']}  runs/pass {result['attempted']}"
          f"  failed {result['failed']}  correct {result['correct']}")
    for key, m in result["metrics"].items():
        print(f"  {key:44s} {m['value']:>16.6g} {m['unit']}")
    detail = result["detail"]
    print(f"  {'failed_frac':44s} {detail['failed_frac']:>16.6g} fraction")
    tail = detail["case_s.tail"]
    print(f"  case_s.tail is p{tail['percentile']:.1f} of {tail['samples']} runs")
    for line in result["mismatches"]:
        print(f"  MISMATCH {line}")


def main(argv=None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_skfnav()
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    names = workloads if args.workload == "all" else [args.workload]
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(spec, name, args.seed, args.seconds, args.trace)
        print_metrics(name, result)
        line["correct"] &= result["correct"]
        line["attempted"] += result["attempted"]
        line["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}/"
        for key in reported:
            line["metrics"][prefix + key] = result["metrics"][key]
    sys.stdout.flush()
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
