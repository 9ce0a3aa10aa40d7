"""Command line entry point.

Subcommands: ``run <config.json>``, ``compare <record...>``, and
``sweep <config.json> --param <name> --values <list>``. Exit codes:
0 success; 2 configuration error only (a ``harness.ConfigError``, whose
message names the field); 3 any failure inside a method, whether the
method reports it or raises ``ValueError``, ``RuntimeError`` or
``FloatingPointError``. The QNS_MAX_QUBITS environment variable overrides
the qubit ceiling, and an invalid value is a configuration error.
"""
from __future__ import annotations

import argparse
import copy
import csv
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import harness

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_METHOD = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qns",
        description="Run and compare subnetwork-selection experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment config")
    run_p.add_argument("config", help="path to a JSON experiment config")

    cmp_p = sub.add_parser("compare", help="summarize records sharing a task")
    cmp_p.add_argument("records", nargs="+", help="record JSON files")
    cmp_p.add_argument("--csv", help="also write the summary as CSV here")

    sweep_p = sub.add_parser("sweep", help="re-run a config over parameter values")
    sweep_p.add_argument("config", help="path to a JSON experiment config")
    sweep_p.add_argument("--param", required=True,
                         help="dotted config path, e.g. method_params.total_time")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated JSON values, e.g. 1,10,100")
    return parser


def _set_dotted(doc: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    target = doc
    for key in keys[:-1]:
        if key not in target or not isinstance(target[key], dict):
            target[key] = {}
        target = target[key]
    target[keys[-1]] = value


def _run(cfg: harness.ExperimentConfig, where: str = ""):
    """(record, None), or (None, exit code) with the error on stderr."""
    try:
        return harness.run(cfg), None
    except harness.ConfigError as err:
        print(f"config error{where}: {err}", file=sys.stderr)
        return None, EXIT_CONFIG
    except (ValueError, RuntimeError, FloatingPointError) as err:
        print(f"method failure{where}: {err}", file=sys.stderr)
        return None, EXIT_METHOD


def _cmd_run(args) -> int:
    try:
        cfg = harness.load_config(args.config)
    except harness.ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    record, code = _run(cfg)
    if record is None:
        return code
    print(f"record written: {record['path']}")
    for entry in record["per_seed"]:
        metrics = entry["metrics"]
        print(f"  seed {entry['seed']}: loss={metrics.get('loss')} "
              f"success={metrics.get('success')} "
              f"oracle_calls={metrics.get('oracle_calls')}")
    return EXIT_METHOD if harness.method_failed(record) else EXIT_OK


def _cmd_compare(args) -> int:
    records = []
    for path in args.records:
        p = Path(path)
        if problem := harness.file_problem(p):
            print(f"config error: record {p}: {problem}", file=sys.stderr)
            return EXIT_CONFIG
        try:
            record = json.loads(p.read_text())
            harness.compare([record])  # checks the fields a comparison reads
        except (OSError, ValueError, KeyError, TypeError) as err:
            detail = f"missing field {err}" if isinstance(err, KeyError) else err
            print(f"config error: record {p}: {detail}", file=sys.stderr)
            return EXIT_CONFIG
        records.append(record)
    try:
        rows = harness.compare(records)
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    print(harness.format_compare_table(rows))
    if args.csv:
        harness.write_compare_csv(rows, args.csv)
        print(f"summary written: {args.csv}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        base = harness.load_config(args.config)
    except harness.ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        values = [json.loads(v) for v in args.values.split(",")]
    except json.JSONDecodeError as err:
        print(f"config error: --values must be JSON scalars: {err}", file=sys.stderr)
        return EXIT_CONFIG

    configs = []
    for value in values:  # every value is checked before any runs
        doc = copy.deepcopy(base.to_dict())
        _set_dotted(doc, args.param, value)
        try:
            configs.append((value, harness.ExperimentConfig.from_dict(doc)))
        except harness.ConfigError as err:
            print(f"config error at {args.param}={value!r}: {err}", file=sys.stderr)
            return EXIT_CONFIG

    rows = []
    failed = False
    for value, cfg in configs:
        record, code = _run(cfg, f" at {args.param}={value!r}")
        if code == EXIT_CONFIG:
            return code
        if record is None:
            failed = True
            continue
        failed = failed or harness.method_failed(record)
        metrics = [entry["metrics"] for entry in record["per_seed"]]
        losses = [m["loss"] for m in metrics if m.get("loss") is not None]
        rows.append({
            "value": value,
            "mean_loss": sum(losses) / len(losses) if losses else "",
            "success_rate": sum(bool(m.get("success")) for m in metrics) / len(metrics),
            "record": record["path"],
        })
        print(f"{args.param}={value}: mean_loss={rows[-1]['mean_loss']} "
              f"success_rate={rows[-1]['success_rate']}")

    out_dir = Path(base.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    sweep_path = out_dir / f"sweep_{args.param.replace('.', '_')}_{stamp}.csv"
    with open(sweep_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "mean_loss", "success_rate", "record"])
        for row in rows:
            writer.writerow([row["value"], row["mean_loss"],
                             row["success_rate"], row["record"]])
    print(f"sweep summary written: {sweep_path}")
    return EXIT_METHOD if failed else EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    return _cmd_sweep(args)


if __name__ == "__main__":
    sys.exit(main())
