"""Command-line front end: single runs, sweeps, and report generation.

Exit codes: 0 success, 1 run failure, 2 configuration/usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import harness
from .configio import load_config, parse_single, validate_config
from .exceptions import ConfigError, SkfnavError

log = logging.getLogger("skfnav")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skfnav",
        description="Corruption-onset detection experiments: simulate, sweep, report.",
    )
    # subcommands set the log flags only when given, so as not to reset them
    common = argparse.ArgumentParser(add_help=False)
    for target, default in ((parser, False), (common, argparse.SUPPRESS)):
        target.add_argument("-v", "--verbose", action="store_true", default=default,
                            help="debug logging")
        target.add_argument("--quiet", action="store_true", default=default, help="warnings only")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one configured scenario", parents=[common])
    sim.add_argument("scenario", choices=["balloon", "shuttle"])
    sim.add_argument("--config", required=True, help="scenario config JSON")
    sim.add_argument("--seed", type=int, default=None, help="seed override")
    sim.add_argument("--out", default="runs", help="output directory root")
    sim.add_argument("--branches", dest="capacity", type=int, default=None,
                     help="branch capacity override (default 10)")

    swp = sub.add_parser("sweep", help="run a parameter sweep", parents=[common])
    swp.add_argument("--config", required=True, help="sweep config JSON")
    swp.add_argument("--out", default="runs", help="output directory root")
    swp.add_argument("--branches", dest="capacity", type=int, default=None)
    swp.add_argument("--threads", type=int, default=None,
                     help="worker processes (default: SKFNAV_THREADS or cpu-based)")

    rep = sub.add_parser("report", help="emit tables/plot data from records", parents=[common])
    rep.add_argument("--records", required=True,
                     help="run directory containing records.csv")
    rep.add_argument("--out", default=None, help="output directory (default: in place)")

    val = sub.add_parser("validate-config", help="check and build a config file",
                         parents=[common])
    val.add_argument("--config", required=True)
    return parser


def _cmd_simulate(args) -> int:
    data = load_config(args.config)
    if data.get("scenario") != args.scenario:
        raise ConfigError(
            f"config is for scenario {data.get('scenario')!r}, not {args.scenario!r}"
        )
    if args.capacity is not None:
        data["capacity"] = args.capacity
    record, filt, truth = harness.execute_case(data, seed=args.seed)
    run_id = f"run-{record.config_hash}-s{record.seed}"
    target = harness.write_run_outputs(record, filt, Path(args.out) / run_id, truth=truth)
    log.info("run %s: outcome=%s estimated_switch=%s (wrote %s)",
             record.config_hash, record.outcome, record.est_switch_step, target)
    if record.status != "ok":
        log.error("run failed: %s", record.error)
        return 1
    expected = data.get("expect_outcome")
    if expected is not None and record.outcome != expected:
        log.error("expected outcome %s, got %s", expected, record.outcome)
        return 1
    return 0


def _cmd_sweep(args) -> int:
    data = load_config(args.config)
    # a single config is left as it is, for sweep_from_dict to reject
    if args.capacity is not None and "axes" in data:
        data.setdefault("base", {})["capacity"] = args.capacity
    grid = harness.sweep_from_dict(data)
    records, target = harness.run_sweep_to_dir(grid, args.out, threads=args.threads)
    failures = [r for r in records if r.status != "ok"]
    log.info("sweep wrote %s (%d records, %d failures)",
             target, len(records), len(failures))
    return 1 if failures else 0


def _cmd_report(args) -> int:
    records_dir = Path(args.records)
    csv_path = records_dir / "records.csv"
    if not csv_path.exists():
        raise ConfigError(f"no records.csv under {records_dir}")
    rows = harness.read_records_csv(csv_path)
    if not rows:
        raise ConfigError("records.csv is empty")
    records = harness.rows_to_records(rows)
    out_dir = Path(args.out) if args.out else records_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    harness.write_summary_table(
        out_dir / "summary_table.csv", [harness.record_row(r) for r in records]
    )
    sweep_path = records_dir / "sweep_config.json"
    if sweep_path.exists():
        doc = json.loads(sweep_path.read_text())
        doc.pop("config_hash", None)
        grid = harness.sweep_from_dict(doc)
        harness.write_sweep_tables(grid, records, out_dir)
    log.info("report written to %s", out_dir)
    return 0


def _cmd_validate(args) -> int:
    data = load_config(args.config)
    kind = validate_config(data)
    # builds the config (every cell of a sweep), as a run would before simulating
    if kind == "sweep":
        harness.sweep_from_dict(data)
    else:
        parse_single(data)
    print(f"OK: {kind} config")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    level = logging.DEBUG if args.verbose else (
        logging.WARNING if args.quiet else logging.INFO
    )
    logging.basicConfig(level=level, format="%(levelname)s %(message)s", stream=sys.stderr)
    handlers = {
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
        "validate-config": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 2
    except SkfnavError as exc:
        log.error("run error: %s", exc)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
