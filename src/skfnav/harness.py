"""Experiment runner: single cases, parameter sweeps, aggregates, reports.

Sweeps enumerate the Cartesian product of the configured axes in a canonical
order and execute their runs (optionally in parallel processes).  Runs that
differ only in their bias form a prefix family, which shares one checkpoint
file: a head task steps the family's shared prefix, writes the file at its
onset and steps its own rest, and one tail task per other run resumes from
that file.  A family of ``m`` runs of ``n`` steps with onset ``s`` thus
steps its filter ``n + (m - 1)(n - s)`` times on any worker count.  The
record list and every emitted file are deterministic functions of config
plus seeds, independent of worker count.  Wall-clock timings are logged,
never written into result files.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import logging
import os
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Optional

import numpy as np

from .configio import config_to_dict, parse_single, validate_config
from .exceptions import ConfigError, SkfnavError
from .metrics import GREEN, YELLOW, classify, relative_rmse
from .scenarios.balloon import build_balloon_filter, simulate_balloon
from .scenarios.fields import field_from_dict
from .scenarios.shuttle import STATE_LABELS, build_shuttle_filter, simulate_shuttle
from .switching import reports_no_corruption

log = logging.getLogger("skfnav")

AXIS_ORDER = ("q_p", "r", "A", "B", "C")
RMSE_STATES = {
    "balloon": ("lon", "lat"),
    "shuttle": STATE_LABELS,
}
_CSV_FIELDS = [
    "config_hash", "scenario", "seed", "n_steps", "dt", "delta",
    "q_x", "q_p", "r", "bias_kind", "A", "B", "C", "cap",
    "true_switch_step", "est_switch_step", "no_corruption",
    "outcome", "status", "error",
]


def fmt(value) -> str:
    """Canonical CSV cell text (17 significant digits for floats)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (list, tuple)):
        return ";".join(fmt(v) for v in value)
    return str(value)


def _canonical(data: dict, omit: str) -> str:
    """``data`` without its ``omit`` entry as canonical JSON text."""
    doc = {k: v for k, v in data.items() if k != omit}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(data: dict) -> str:
    """Hash of the config content, seed excluded: replicated runs of one cell
    share a hash and records key on (hash, seed)."""
    return hashlib.sha256(_canonical(data, "seed").encode()).hexdigest()[:12]


@dataclass
class RunRecord:
    """One experiment: config snapshot, estimate, outcome, per-state errors."""

    scenario: str
    config: dict
    config_hash: str
    seed: int
    true_switch_step: Optional[int] = None
    est_switch_step: Optional[int] = None
    no_corruption: bool = False
    outcome: str = "red"
    rmse: dict = field(default_factory=dict)
    weights: list = field(default_factory=list)
    runtime: float = 0.0
    status: str = "ok"
    error: Optional[str] = None


def execute_case(data: dict, seed: Optional[int] = None,
                 checkpoint: Optional[Path] = None):
    """Execute one configured run end to end.  Returns ``(record, filter,
    truth)``.  A config that breaks a rule of ``configio``, with ``seed`` in
    place of its own, raises ``ConfigError``; a package error while
    simulating or filtering (``SkfnavError``) is captured in the record, and
    the filter and truth are then None.  The filter steps from the start unless
    ``checkpoint`` names its prefix family's checkpoint file (see
    ``_run_filter``)."""
    if seed is not None:
        data = {**data, "seed": int(seed)}
    validate_config(data)
    scenario, cfg, extra = parse_single(data)
    snapshot = config_to_dict(scenario, cfg, extra)
    record = RunRecord(
        scenario=scenario,
        config=snapshot,
        config_hash=config_hash(snapshot),
        seed=cfg.seed,
        true_switch_step=cfg.true_switch_step,
    )
    start = time.perf_counter()
    filt = truth = None
    try:
        filt, truth = _run(scenario, cfg, extra, record, checkpoint)
    except SkfnavError as exc:
        record.status = "error"
        record.error = f"{type(exc).__name__}: {exc}"
        record.outcome = "red"
        filt = truth = None
    record.runtime = time.perf_counter() - start
    log.debug("run %s seed=%s outcome=%s (%.2fs)",
              record.config_hash, record.seed, record.outcome, record.runtime)
    return record, filt, truth


def _run(scenario: str, cfg, field_data, record: RunRecord,
         checkpoint: Optional[Path]):
    """Simulate and filter one case and fill in ``record``'s estimate,
    outcome, errors and weights; returns ``(filter, truth)``."""
    if scenario == "balloon":
        field_obj = field_from_dict(field_data)
        truth = simulate_balloon(cfg, field_obj)
        filt = build_balloon_filter(cfg, field_obj)
        truth_states = truth.states
    else:
        truth = simulate_shuttle(cfg)
        filt = build_shuttle_filter(cfg, truth)
        truth_states = truth.inertial_states
    _run_filter(filt, truth.measurement_map(), cfg, checkpoint)
    est = filt.estimate()
    record.no_corruption = reports_no_corruption(est, cfg.n_steps)
    record.est_switch_step = None if est.is_nominal else est.s_index
    bias_free = cfg.true_switch_step is None or cfg.bias.is_zero
    record.outcome = classify(
        record.est_switch_step,
        cfg.true_switch_step if not bias_free else None,
        bias_free=bias_free,
        no_corruption_reported=record.no_corruption,
    )
    state_names = RMSE_STATES[scenario]
    means = np.asarray([entry[0] for entry in filt.bank.trajectory(est.row)])
    errors = relative_rmse(
        means[1:, : len(state_names)], truth_states[1:, : len(state_names)]
    )
    record.rmse = {name: float(err) for name, err in zip(state_names, errors)}
    record.weights = [
        {"s_index": int(s), "t_s": float(s) * cfg.dt, "weight": float(w)}
        for s, w in zip(est.s_indices, est.weights)
    ]
    return filt, truth


def _prefix_key(snapshot: dict) -> Optional[str]:
    """The key of a run's prefix family: the config ``snapshot`` without its
    ``bias`` entry.  Runs under one key differ only in their bias, and since
    no fix carries an offset before the onset, they step the filter
    identically through it.  None, and the run forms a family of its own,
    when those steps are empty (onset 0) or when the run reads a file, which
    may change."""
    reads_file = (snapshot.get("reference_path") is not None
                  or "path" in snapshot.get("field", {}))
    if snapshot["true_switch_step"] == 0 or reads_file:
        return None
    return _canonical(snapshot, "bias")


def _run_filter(filt, measurements: dict, cfg, checkpoint: Optional[Path]) -> None:
    """Step ``filt`` through ``cfg.n_steps``.  ``checkpoint``, unless None, is
    the checkpoint file of the run's prefix family: a run that finds no file
    there steps to its onset and pickles ``(step, bank, fixes through the
    onset)`` to it, and a run that finds one unpickles it, checks that the
    fixes are its own, and resumes from that bank.  Either way the bank ends
    the same, bit for bit."""
    if checkpoint is None:
        filt.run(measurements, cfg.n_steps)
        return
    onset = cfg.n_steps if cfg.true_switch_step is None else cfg.true_switch_step
    fixes = np.array([y for k, y in measurements.items() if k <= onset])
    if checkpoint.exists():
        filt.k, filt.bank, family_fixes = pickle.loads(checkpoint.read_bytes())
        if not np.array_equal(family_fixes, fixes, equal_nan=True):
            raise RuntimeError("runs of one prefix family differ in their fixes "
                               "through the onset")
    else:
        filt.run(measurements, onset)
        checkpoint.write_bytes(pickle.dumps((filt.k, filt.bank, fixes),
                                            pickle.HIGHEST_PROTOCOL))
    filt.run(measurements, cfg.n_steps)


# -- sweeps ----------------------------------------------------------------


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian sweep over noise/corruption axes, replicated over seeds."""

    scenario: str
    base: dict
    axes: dict
    seeds: tuple
    q_x_over_r: Optional[float] = None
    success_includes_yellow: bool = False
    name: Optional[str] = None

    def __post_init__(self):
        if not self.axes:
            raise ConfigError("sweep needs at least one axis")
        for axis in self.axes:
            if axis not in AXIS_ORDER:
                raise ConfigError(f"unknown sweep axis {axis!r}")
        if not self.seeds:
            raise ConfigError("sweep needs at least one seed")
        if any(seed < 0 for seed in self.seeds):
            raise ConfigError(f"sweep seeds must be non-negative, got {list(self.seeds)}")
        # every cell is checked and built here, so that no run starts on a
        # sweep whose cells would fail before simulating
        for values, cell in self._cells():
            try:
                validate_config(cell)
                parse_single(cell)
            except ConfigError as exc:
                raise ConfigError(f"sweep cell {values}: {exc}") from exc

    def cell_configs(self) -> list[dict]:
        return [cell for _, cell in self._cells()]

    def _cells(self):
        """Each cell's config with its axis values as text (``r=1e-06, A=0.0``)."""
        names = [a for a in AXIS_ORDER if a in self.axes]
        for combo in itertools.product(*(self.axes[a] for a in names)):
            data = dict(self.base)
            data["scenario"] = self.scenario
            bias = dict(data.get("bias", {"kind": "quadratic"}))
            for axis, value in zip(names, combo):
                if axis in ("A", "B", "C"):
                    bias["kind"] = "quadratic"
                    bias[axis] = value
                else:
                    data[axis] = value
            if any(a in names for a in ("A", "B", "C")):
                data["bias"] = bias
            if self.q_x_over_r is not None:
                if "r" not in data:
                    raise ConfigError(
                        "q_x_over_r needs a measurement-noise value (axis or base)"
                    )
                data["q_x"] = data["r"] / self.q_x_over_r
            yield ", ".join(f"{a}={v!r}" for a, v in zip(names, combo)), data


def sweep_from_dict(data: dict) -> SweepGrid:
    validate_config(data)
    if "axes" not in data:
        raise ConfigError("not a sweep config (no axes)")
    seeds = data.get("seeds", 5)
    if isinstance(seeds, int):
        seeds = tuple(range(seeds))
    else:
        seeds = tuple(int(s) for s in seeds)
    return SweepGrid(
        scenario=data["scenario"],
        base=dict(data.get("base", {})),
        axes={k: list(v) for k, v in data["axes"].items()},
        seeds=seeds,
        q_x_over_r=data.get("q_x_over_r"),
        success_includes_yellow=data.get("success_includes_yellow", False),
        name=data.get("name"),
    )


def resolve_threads() -> int:
    env = os.environ.get("SKFNAV_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"SKFNAV_THREADS must be an integer, got {env!r}") from exc
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(4, cpus))


def _run_task(task) -> RunRecord:
    """One sweep run, ``(data, seed, checkpoint)`` as ``execute_case`` takes
    them.  Every run of a sweep is exactly one call, made in the process that
    runs it, so ``perfbench/run.py`` stands in for it to time each run."""
    data, seed, checkpoint = task
    return execute_case(data, seed=seed, checkpoint=checkpoint)[0]


def _pooled_task(task) -> RunRecord:
    """``_run_task(task)`` in a worker process, looked up there, so that a
    stand-in installed before the pool forks runs in its place (a stand-in
    defined in a function cannot be pickled)."""
    return _run_task(task)


def _run_pooled(tasks: list, families: list, threads: int) -> dict:
    """The records, by run index, of ``tasks`` on ``threads`` worker
    processes.  Every family's head is queued at the start, and all of its
    tails as soon as it completes; the pool runs its queue in order.  A head
    that fails before its onset writes no checkpoint, and the family's next
    run is queued as its head instead.  A task that raises cancels every
    queued one and ends the sweep."""
    in_flight, records = {}, {}
    with ProcessPoolExecutor(max_workers=threads) as pool:
        def submit(i, *waiting):
            in_flight[pool.submit(_pooled_task, tasks[i])] = i, waiting

        for family in families:
            submit(*family)
        try:
            while in_flight:
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    i, waiting = in_flight.pop(future)
                    records[i] = future.result()
                    if waiting and tasks[i][2].exists():
                        for j in waiting:
                            submit(j)
                    elif waiting:
                        submit(*waiting)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return records


def run_sweep(grid: SweepGrid, threads: Optional[int] = None) -> list[RunRecord]:
    """All cells x seeds, cell-major (each cell's seeds together), in an order
    that does not depend on parallelism.

    Each run is one task.  The runs under one ``_prefix_key`` form a prefix
    family, and every run of a family of two or more is given the same
    checkpoint file, in a temporary directory that lasts as long as the
    sweep: its first run, the head task, steps the shared prefix and writes
    the file as ``_run_filter`` describes, and each other run is a tail task
    that resumes from it.  In one process the families run in order, each
    head before its tails; on a worker pool, every head is queued at the
    start and a family's tails when its head completes (see
    ``_run_pooled``), so a sweep does the same work on any worker count.  A
    head that fails before its onset leaves no checkpoint, and the family's
    next run heads it instead.  A run's package error is captured in its
    record; a program error, such as a family whose fixes differ, stops the
    sweep.
    """
    threads = resolve_threads() if threads is None else max(1, int(threads))
    cells, seeds = grid.cell_configs(), grid.seeds
    runs = [(cell, seed) for cell in cells for seed in seeds]
    families = {}
    for i, (cell, seed) in enumerate(runs):
        key = _prefix_key(config_to_dict(*parse_single({**cell, "seed": seed})))
        families.setdefault(i if key is None else key, []).append(i)
    families = list(families.values())
    log.info("sweep: %d runs (%d cells x %d seeds) in %d prefix families, %d worker(s)",
             len(runs), len(cells), len(seeds), len(families), threads)
    start = time.perf_counter()
    with TemporaryDirectory(prefix="skfnav-sweep-") as tmp:
        checkpoints = {i: Path(tmp) / f"{family[0]}.pickle"
                       for family in families if len(family) > 1 for i in family}
        tasks = [(*run, checkpoints.get(i)) for i, run in enumerate(runs)]
        if threads == 1:
            records = {i: _run_task(tasks[i]) for family in families for i in family}
        else:
            records = _run_pooled(tasks, families, threads)
    wall = time.perf_counter() - start
    records = [records[i] for i in range(len(runs))]
    log.info("sweep finished in %.1fs: %d tasks, busy fraction %.3f of %d worker(s)",
             wall, len(runs), sum(r.runtime for r in records) / (wall * threads), threads)
    return records


def _is_success(record: RunRecord, include_yellow: bool) -> bool:
    return record.outcome == GREEN or (include_yellow and record.outcome == YELLOW)


def _axis_value(record: RunRecord, axis: str):
    if axis in ("A", "B", "C"):
        return record.config["bias"].get(axis, 0.0)
    return record.config[axis]


def _sweep_groups(grid: SweepGrid, records: list[RunRecord]):
    """The q_p levels of ``records`` and, for each swept axis in canonical
    order, one ``(value, matching records, [(runs, successes) per level])``
    per axis value.  The aggregate table and the success-rate plots both read
    these groups, so their rates agree."""
    levels = sorted({rec.config["q_p"] for rec in records})
    groups = []
    for axis in (a for a in AXIS_ORDER if a in grid.axes):
        cells = []
        for value in grid.axes[axis]:
            matching = [rec for rec in records if _axis_value(rec, axis) == value]
            counts = []
            for q_p in levels:
                subset = [rec for rec in matching if rec.config["q_p"] == q_p]
                wins = sum(_is_success(r, grid.success_includes_yellow) for r in subset)
                counts.append((len(subset), wins))
            cells.append((value, matching, counts))
        groups.append((axis, cells))
    return levels, groups


def aggregate(grid: SweepGrid, records: list[RunRecord]) -> list[dict]:
    """Success rate per (axis value, parameter-noise level) and pooled median
    RMSE per axis value."""
    state_names = RMSE_STATES[grid.scenario]
    levels, groups = _sweep_groups(grid, records)
    rows = []
    for axis, cells in groups:
        for value, matching, counts in cells:
            for q_p, (runs, wins) in zip(levels, counts):
                if runs:
                    rows.append({
                        "axis": axis, "value": value, "q_p": q_p,
                        "runs": runs, "successes": wins, "success_rate": wins / runs,
                        **{f"median_rmse_{s}": "" for s in state_names},
                    })
            total = sum(wins for _, wins in counts)
            medians = _median_rmse(matching, state_names)
            rows.append({
                "axis": axis, "value": value, "q_p": "all",
                "runs": len(matching), "successes": total,
                "success_rate": total / len(matching) if matching else "",
                **{f"median_rmse_{s}": medians[s] for s in state_names},
            })
    return rows


def _median_rmse(records: list[RunRecord], state_names) -> dict:
    out = {}
    for name in state_names:
        values = [
            rec.rmse.get(name) for rec in records
            if rec.status == "ok" and rec.rmse.get(name) is not None
            and np.isfinite(rec.rmse.get(name))
        ]
        out[name] = float(np.median(values)) if values else ""
    return out


# -- persistence -------------------------------------------------------------


def record_row(record: RunRecord) -> dict:
    cfg = record.config
    bias = cfg.get("bias", {})
    row = {
        "config_hash": record.config_hash,
        "scenario": record.scenario,
        "seed": record.seed,
        "n_steps": cfg.get("n_steps"),
        "dt": float(cfg.get("dt")),
        "delta": cfg.get("delta"),
        "q_x": float(cfg.get("q_x")),
        "q_p": float(cfg.get("q_p")),
        "r": float(cfg.get("r")),
        "bias_kind": bias.get("kind", ""),
        "A": bias.get("A", 0.0),
        "B": bias.get("B", 0.0),
        "C": bias.get("C", 0.0),
        "cap": bias.get("cap"),
        "true_switch_step": record.true_switch_step,
        "est_switch_step": record.est_switch_step,
        "no_corruption": record.no_corruption,
        "outcome": record.outcome,
        "status": record.status,
        "error": record.error,
    }
    for name in RMSE_STATES[record.scenario]:
        row[f"rmse_{name}"] = record.rmse.get(name)
    return row


def write_records_csv(path, records: list[RunRecord]) -> None:
    if not records:
        raise ConfigError("no records to write")
    state_names = RMSE_STATES[records[0].scenario]
    fields = _CSV_FIELDS + [f"rmse_{s}" for s in state_names]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for record in records:
            writer.writerow({k: fmt(v) for k, v in record_row(record).items()})


def read_records_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_aggregates_csv(path, rows: list[dict]) -> None:
    if not rows:
        raise ConfigError("no aggregate rows to write")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: fmt(v) for k, v in row.items()})


def plot_documents(grid: SweepGrid, records: list[RunRecord]) -> dict[str, dict]:
    """Success-rate and RMSE-scatter series mirroring the aggregate tables."""
    docs = {}
    state_names = RMSE_STATES[grid.scenario]
    levels, groups = _sweep_groups(grid, records)
    for axis, cells in groups:
        xs = [float(value) for value, _, _ in cells]
        series = []
        for i, q_p in enumerate(levels):
            ys = []
            for _, _, counts in cells:
                runs, wins = counts[i]
                ys.append(wins / runs if runs else float("nan"))
            series.append({"label": f"q_p={q_p:g}", "x": xs, "y": ys})
        docs[f"success_rate_{axis}"] = {"kind": "success_rate", "axis": axis,
                                        "series": series}
        scatter = []
        for name in state_names:
            xs, ys = [], []
            for rec in records:
                value = rec.rmse.get(name)
                if rec.status == "ok" and value is not None and np.isfinite(value):
                    xs.append(float(_axis_value(rec, axis)))
                    ys.append(float(value))
            scatter.append({"label": name, "x": xs, "y": ys})
        docs[f"rmse_scatter_{axis}"] = {"kind": "rmse_scatter", "axis": axis,
                                        "series": scatter}
    return docs


def write_sweep_tables(grid: SweepGrid, records: list[RunRecord], out_dir) -> None:
    """Write ``aggregates.csv`` and ``plots/*.json`` of a sweep's records
    into ``out_dir``."""
    write_aggregates_csv(Path(out_dir) / "aggregates.csv", aggregate(grid, records))
    plots = Path(out_dir) / "plots"
    plots.mkdir(exist_ok=True)
    for name, doc in plot_documents(grid, records).items():
        (plots / f"{name}.json").write_text(json.dumps(doc, sort_keys=True, indent=2))


def run_sweep_to_dir(
    grid: SweepGrid, out_dir, threads: Optional[int] = None
) -> tuple[list[RunRecord], Path]:
    """Execute a sweep and write records.csv, aggregates.csv, plots/, and the
    config echo under ``out_dir/<sweep-id>/``."""
    sweep_doc = {
        "scenario": grid.scenario,
        "base": grid.base,
        "axes": grid.axes,
        "seeds": list(grid.seeds),
        "q_x_over_r": grid.q_x_over_r,
        "success_includes_yellow": grid.success_includes_yellow,
    }
    sweep_id = grid.name or f"sweep-{config_hash(sweep_doc)}"
    target = Path(out_dir) / sweep_id
    target.mkdir(parents=True, exist_ok=True)
    records = run_sweep(grid, threads=threads)
    write_records_csv(target / "records.csv", records)
    write_sweep_tables(grid, records, target)
    sweep_doc["config_hash"] = config_hash(sweep_doc)
    (target / "sweep_config.json").write_text(
        json.dumps(sweep_doc, sort_keys=True, indent=2)
    )
    return records, target


# -- single-run outputs and report tables ------------------------------------

_TABLE_FIELDS = [
    "test", "config_hash", "seed", "r", "q_x", "q_p", "delta", "A", "B", "C",
    "true_switch_step", "est_switch_step", "outcome",
]


def write_summary_table(path, rows: list[dict]) -> None:
    """Per-test table: one row per record, setup columns then results."""
    if not rows:
        raise ConfigError("no records selected for the summary table")
    fields = _TABLE_FIELDS + [
        key for key in rows[0] if key.startswith("rmse_")
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        for i, row in enumerate(rows, start=1):
            writer.writerow({"test": i, **{k: fmt(v) for k, v in row.items()}})


def _parse_cell(text: str):
    if text == "" or text is None:
        return None
    if ";" in text:
        return [float(v) for v in text.split(";")]
    return float(text)


def rows_to_records(rows: list[dict]) -> list[RunRecord]:
    """Rebuild records (config subset sufficient for aggregation/plots) from
    a records.csv read back as dicts of strings."""
    records = []
    for row in rows:
        scenario = row["scenario"]
        bias = {
            "kind": row["bias_kind"] or "quadratic",
            "A": _parse_cell(row["A"]) or 0.0,
            "B": _parse_cell(row["B"]) or 0.0,
            "C": _parse_cell(row["C"]) or 0.0,
        }
        if row.get("cap"):
            bias["cap"] = float(row["cap"])
        config = {
            "scenario": scenario,
            "n_steps": int(row["n_steps"]),
            "dt": float(row["dt"]),
            "delta": int(row["delta"]),
            "q_x": float(row["q_x"]),
            "q_p": float(row["q_p"]),
            "r": float(row["r"]),
            "bias": bias,
        }
        rmse = {}
        for name in RMSE_STATES[scenario]:
            cell = row.get(f"rmse_{name}", "")
            rmse[name] = float(cell) if cell else None
        records.append(RunRecord(
            scenario=scenario,
            config=config,
            config_hash=row["config_hash"],
            seed=int(row["seed"]),
            true_switch_step=(
                int(row["true_switch_step"]) if row["true_switch_step"] else None
            ),
            est_switch_step=(
                int(row["est_switch_step"]) if row["est_switch_step"] else None
            ),
            no_corruption=row["no_corruption"] == "true",
            outcome=row["outcome"],
            rmse=rmse,
            status=row["status"],
            error=row["error"] or None,
        ))
    return records


def write_run_outputs(record: RunRecord, filt, out_dir, truth=None) -> Path:
    """Persist a single run: summary JSON, records.csv, best-branch CSV, and
    (when the truth object is supplied) truth/measurement CSV exports."""
    target = Path(out_dir)
    target.mkdir(parents=True, exist_ok=True)
    write_records_csv(target / "records.csv", [record])
    if truth is not None:
        if record.scenario == "balloon":
            from .scenarios import balloon as scenario_io
        else:
            from .scenarios import shuttle as scenario_io
        scenario_io.write_truth_csv(target / "truth.csv", truth)
        scenario_io.write_measurements_csv(target / "measurements.csv", truth)
    summary = {
        "config": record.config,
        "config_hash": record.config_hash,
        "seed": record.seed,
        "true_switch_step": record.true_switch_step,
        "est_switch_step": record.est_switch_step,
        "est_switch_time": (
            None if record.est_switch_step is None
            else record.est_switch_step * record.config["dt"]
        ),
        "no_corruption": record.no_corruption,
        "outcome": record.outcome,
        "rmse": record.rmse,
        "weights": record.weights,
        "status": record.status,
        "error": record.error,
    }
    (target / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2))
    if filt is not None:
        est = filt.estimate()
        export_branch_history(
            target / "branch_trajectory.csv", filt.bank.trajectory(est.row),
            est.s_index * filt.dt, record.config["dt"],
        )
    return target


def export_branch_history(path, trajectory, t_s: float, dt: float) -> None:
    """Best-branch ``trajectory`` (``Bank.trajectory``) and onset time ``t_s``:
    step, time, hypothesis, score, means, variances.

    Rows are formatted whole, with the cells and CRLF line ends that
    ``csv.writer`` writes for them."""
    dim = trajectory[0][0].size
    fields = ["step", "time", "branch_t_s", "logL"]
    fields += [f"mean_{i}" for i in range(dim)] + [f"var_{i}" for i in range(dim)]
    t_s = fmt(t_s)
    row = "%d,%s,%s,%s" + ",%.17g" * (2 * dim) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(fields)
        fh.writelines(
            row % (step, fmt(step * dt), t_s, fmt(loglik), *mean.tolist(), *var.tolist())
            for step, (mean, var, loglik) in enumerate(trajectory)
        )
