"""Command-line interface.

Subcommands:
  run       execute one run-config file, write a results JSON
  sweep-mu  run the default protocol grid (baselines + chosen mus) on one problem
  table     aggregate results files into a Markdown or CSV table
  check     run the named invariant/oracle self-checks

Results land in --out when given, else in $ADAFAMILY_OUT_DIR, else ./results.
Every failure exits nonzero with a message naming the offending path.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .checks import run_checks
from .harness import (
    DESK_BATCH_SIZE,
    DESK_EPOCHS,
    RunConfig,
    _read_json_file,
    _write_json_file,
    aggregate_result_files,
    problem_names,
    run_configs,
    run_grid,
    save_results,
    sweep_mu_configs,
    write_text_atomic,
)
from .tables import FORMATS, emit_table

OUT_DIR_ENV = "ADAFAMILY_OUT_DIR"
CONFIG_VERSION = 1


def _default_out_dir() -> Path:
    return Path(os.environ.get(OUT_DIR_ENV, "results"))


def _slug(label: str) -> str:
    return (
        label.lower()
        .replace("(", "-")
        .replace(")", "")
        .replace(" ", "")
    )


def _results_filename(config: RunConfig) -> str:
    return f"{config.problem}--{_slug(config.optimizer.label)}.json"


def load_run_config_file(path: str | Path) -> RunConfig:
    payload = _read_json_file(path, CONFIG_VERSION)
    try:
        return RunConfig.from_dict(payload["run"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed run config ({exc})") from None


def save_run_config_file(path: str | Path, config: RunConfig) -> None:
    _write_json_file(path, {"version": CONFIG_VERSION, "run": config.to_dict()})


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_run_config_file(args.config)
    out_dir = Path(args.out) if args.out else _default_out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    results = run_configs([config])[0]
    out_path = out_dir / _results_filename(config)
    save_results(out_path, config, results)
    divergent = sum(r.diverged for r in results)
    print(f"wrote {out_path} ({len(results)} runs, {divergent} divergent)")
    return 0


def _cmd_sweep_mu(args: argparse.Namespace) -> int:
    try:
        mus = [float(x) for x in args.mus.split(",") if x.strip() != ""]
    except ValueError:
        raise ValueError(f"--mus must be a comma-separated float list, got {args.mus!r}")
    if not mus:
        raise ValueError("--mus is empty")
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    configs = sweep_mu_configs(
        mus,
        args.problem,
        seeds=range(args.seeds),
        epochs=args.epochs,
        batch_size=args.batch_size,
    )
    out_dir = Path(args.out) if args.out else _default_out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    aggregates, cells = run_grid(configs)
    for config in configs:
        # each config of the sweep is a cell of its own
        path = out_dir / _results_filename(config)
        save_results(path, config, cells[config.optimizer.label, config.problem])
    table = emit_table(aggregates, args.format)
    table_path = out_dir / f"sweep_{args.problem}.{args.format}"
    write_text_atomic(table_path, table)
    print(table, end="")
    print(f"\nwrote {len(configs)} results files and {table_path}", file=sys.stderr)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    aggregates = aggregate_result_files(args.files)
    print(emit_table(aggregates, args.format), end="")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    return 0 if run_checks(args.filter) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adafamily",
        description="Blended Adam-family optimizer benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run-config file")
    p_run.add_argument("--config", required=True, help="path to a run-config JSON")
    p_run.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or ./results)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep-mu", help="run baselines plus AdaFamily at each mu on one problem"
    )
    p_sweep.add_argument("--mus", required=True, help="comma-separated mu values")
    p_sweep.add_argument(
        "--problem", required=True, choices=problem_names(), help="registered problem"
    )
    p_sweep.add_argument(
        "--seeds", type=int, default=10, help="number of seeds (0..N-1, default 10)"
    )
    p_sweep.add_argument("--epochs", type=int, default=DESK_EPOCHS)
    p_sweep.add_argument("--batch-size", type=int, default=DESK_BATCH_SIZE)
    p_sweep.add_argument("--format", choices=FORMATS, default="md")
    p_sweep.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or ./results)")
    p_sweep.set_defaults(func=_cmd_sweep_mu)

    p_table = sub.add_parser("table", help="aggregate results files into a table")
    p_table.add_argument("--format", choices=FORMATS, default="md")
    p_table.add_argument("files", nargs="+", help="results JSON files")
    p_table.set_defaults(func=_cmd_table)

    p_check = sub.add_parser("check", help="run the invariant/oracle self-checks")
    p_check.add_argument("--filter", help="only checks whose name contains this")
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
