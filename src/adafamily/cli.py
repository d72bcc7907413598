"""Command-line interface.

Subcommands:
  run       execute one run-config file, write a results JSON
  sweep-mu  run baselines + chosen mus on one problem, write results and a Markdown table
  table     aggregate results files into a Markdown or CSV table
  check     run the named invariant/oracle self-checks

Results land in --out when given, else in ./results.
Every failure exits nonzero with a message naming the offending path.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checks import run_checks
from .harness import (
    DESK_BATCH_SIZE,
    DESK_EPOCHS,
    DESK_SEEDS,
    aggregate_result_files,
    load_run_config_file,
    problem_names,
    results_filename,
    run_configs,
    run_grid,
    save_results,
    sweep_mu_configs,
    write_text_atomic,
)
from .tables import FORMATS, emit_table


def _out_dir(out: str | None) -> Path:
    """The output directory: ``out``, else ./results.

    A non-directory at that path or above it is refused, since no directory
    could be made there.  Commands resolve it before anything trains and
    make the directory only when results are written, so a refused run
    leaves nothing behind.
    """
    out_dir = Path(out or "results")
    for path in (out_dir, *out_dir.parents):
        if path.exists() and not path.is_dir():
            raise NotADirectoryError(f"{path}: not a directory")
    return out_dir


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_run_config_file(args.config)
    out_dir = _out_dir(args.out)
    results = run_configs([config])[0]
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / results_filename(config)
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
    for i, mu in enumerate(mus):
        if mu in mus[:i]:
            raise ValueError(f"--mus repeats {mu}")
    if args.seeds is not None and args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    configs = sweep_mu_configs(
        mus,
        args.problem,
        seeds=None if args.seeds is None else range(args.seeds),
        epochs=args.epochs,
        batch_size=args.batch_size,
    )
    out_dir = _out_dir(args.out)
    cells = run_grid(configs)
    out_dir.mkdir(parents=True, exist_ok=True)
    for config in configs:
        # each config of the sweep is a cell of its own
        path = out_dir / results_filename(config)
        save_results(path, config, cells[config.optimizer.label, config.problem])
    table = emit_table(cells)
    table_path = out_dir / f"sweep_{args.problem}.md"
    write_text_atomic(table_path, table)
    _print_table(table)
    print(f"\nwrote {len(configs)} results files and {table_path}", file=sys.stderr)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    _print_table(emit_table(aggregate_result_files(args.files), args.format))
    return 0


def _print_table(table: str) -> None:
    """Print ``table`` as UTF-8 whatever the locale, whose encoding may lack
    the divergence dagger; a stream without a byte buffer takes the text."""
    sys.stdout.flush()
    if hasattr(sys.stdout, "buffer"):
        sys.stdout.buffer.write(table.encode("utf-8"))
    else:
        sys.stdout.write(table)


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
    p_run.add_argument("--out", help="output directory (default ./results)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep-mu", help="run baselines plus AdaFamily at each mu on one problem"
    )
    p_sweep.add_argument("--mus", required=True, help="comma-separated mu values")
    p_sweep.add_argument(
        "--problem", required=True, choices=problem_names(), help="registered problem"
    )
    p_sweep.add_argument(
        "--seeds",
        type=int,
        help=f"seeds 0..N-1 (default {len(DESK_SEEDS)}, or for a problem that takes "
        "no batches, those of them whose start differs)",
    )
    p_sweep.add_argument("--epochs", type=int, default=DESK_EPOCHS)
    p_sweep.add_argument(
        "--batch-size",
        type=int,
        help=f"rows per mini-batch (default {DESK_BATCH_SIZE}); an analytic problem takes none",
    )
    p_sweep.add_argument("--out", help="output directory (default ./results)")
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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
