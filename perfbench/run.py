"""Benchmark entry point: repeated `adafamily sweep-mu` passes of one workload.

    python3 perfbench/run.py --workload protocol-mlp1 --seed 0 --seconds 40 --trace 0

Run from the repository root.  Every pass runs in a fresh child process
(`child.py`) with BLAS threading pinned to one thread.  Passes repeat
until the next one would end after --seconds; the pass timings are means
over the run's passes, set-up time is a median.  With --trace 1, untraced
and traced passes alternate and the per-layer metrics come from the
traced ones.

Every pass is checked: its results files and table must be well formed
and hash to the same digest (elapsed_seconds removed) as every other
pass, traced or not, and the counts that the code fixes (runs, steps,
calls, results bytes) must repeat exactly.  At seed 0 the protocol-mlp1
table must equal the README's.  A failed check fails every run of its
pass, and the command exits 1.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics (see README.md in this
directory).  Reports and spans land in .perfbench_out/ at the root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = 1
BLAS_ENV = {
    var: str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
MIN_UNTRACED_PASSES = 3
# set-up-only children before each untraced pass, so that set-up samples
# spread over the whole run as the host's speed changes
SETUP_ONLY_PER_PASS = 1
MIN_TRACED_PAIRS = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s
STEP_BYTES_PER_PARAM = 56  # params, grad, m, v read; m, v, params written; 8 B each
EXPECTED_TABLES = {("protocol-mlp1", 0): HERE / "expected" / "protocol-mlp1-seed0.md"}

END_TO_END_UNITS = {
    "grid_s": "s",
    "cpu_s": "s",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "runs_ok_frac": "frac",
}
CALLS_AND_SELF = (
    "problems.loss_grad",
    "optim.step",
    "data.batches",
    "rng.permutation",
    "problems.predict",
    "problems.loss",
    "harness.run_single",
)
SELF_ONLY = (
    "harness.save_results",
    "harness.load_results",
    "harness.aggregate_result_files",
    "tables.emit_table",
    "cli.main",
)
ALGORITHMS = ("Adam", "AdamW", "AdaBelief", "AdaMomentum", "AdaFamily")


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in CALLS_AND_SELF:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
        if span in ("problems.loss_grad", "optim.step"):
            units[f"{span}.us_p50"] = "us"
            units[f"{span}.us_p99"] = "us"
    units.update({f"optim.step.{a}.us_p50": "us" for a in ALGORITHMS})
    units["optim.step.computed_bytes"] = "B"
    units.update({f"{span}.self_s": "s" for span in SELF_ONLY})
    units["harness.save_results.bytes"] = "B"
    units["harness.runs_diverged_frac"] = "frac"
    units["trace.overhead_frac"] = "frac"
    return units


def machine_block() -> dict:
    import numpy as np

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "blas_env": BLAS_ENV,
    }


def run_pass(args, traced: bool, work: Path, started: float, setup_only=False) -> dict:
    """One child pass; returns its report, or {"errors": [...]} if it crashed."""
    out_dir = work / f"pass-{time.monotonic_ns()}"
    out_dir.mkdir(parents=True)
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(int(traced)),
        "--out", str(out_dir),
        "--spans-file", str(spans_file),
    ] + (["--setup-only"] if setup_only else [])
    timeout = max(5.0, RUN_LIMIT_S - (time.monotonic() - started))
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            command + ["--spawned-at", repr(spawned_at)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return {"traced": traced, "errors": [f"pass timed out after {timeout:.0f} s"]}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    wall = time.monotonic() - spawned_at
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"traced": traced, "wall": wall,
                "errors": [f"pass exited {proc.returncode}: " + " | ".join(tail)]}
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report.update(traced=traced, wall=wall)
    return report


def run_passes(args, work: Path) -> tuple[list[dict], list[dict]]:
    """Rounds until the next one would end after --seconds.  A round is
    set-up-only children and an untraced pass, or with --trace 1 an
    untraced and a traced pass."""
    started = time.monotonic()
    deadline = started + args.seconds
    kinds = (False, True) if args.trace else (False,)
    minimum = MIN_TRACED_PAIRS if args.trace else MIN_UNTRACED_PASSES
    setups: list[dict] = []
    passes: list[dict] = []
    rounds = 0
    while True:
        for _ in range(0 if args.trace else SETUP_ONLY_PER_PASS):
            setups.append(run_pass(args, False, work, started, setup_only=True))
            if setups[-1]["errors"]:
                return setups, passes
        for traced in kinds:
            passes.append(run_pass(args, traced, work, started))
            if passes[-1]["errors"]:
                return setups, passes
        rounds += 1
        round_s = (time.monotonic() - started) / rounds
        if rounds >= minimum and time.monotonic() + round_s > deadline:
            return setups, passes


def check_passes(args, passes: list[dict]) -> None:
    """Add cross-pass errors: digests, exact-repeat counts, expected tables."""
    good = [p for p in passes if not p["errors"]]
    if not good:
        return
    first = good[0]
    expected = EXPECTED_TABLES.get((args.workload, args.seed))
    expected_table = expected.read_text() if expected else None
    exact = ("runs_attempted", "runs_diverged", "results_bytes", "steps", "dim")
    first_traced = next((p for p in good if p["traced"]), None)
    for p in good:
        if p["digest"] != first["digest"]:
            p["errors"].append(f"results digest {p['digest'][:12]} != {first['digest'][:12]}")
        for key in exact:
            if p[key] != first[key]:
                p["errors"].append(f"{key} {p[key]} != {first[key]} in the first pass")
        if expected_table is not None and p["table"] != expected_table:
            p["errors"].append(f"table differs from {expected.relative_to(ROOT)}")
        if p["traced"]:
            if p["calls"] != first_traced["calls"] or p["spans"] != first_traced["spans"]:
                p["errors"].append("span call counts differ between traced passes")
            if p["runs_diverged"] == 0 and p["calls"]["optim.step"] != p["steps"]:
                p["errors"].append(
                    f"{p['calls']['optim.step']} steps traced, {p['steps']} expected"
                )


def end_to_end_metrics(
    setups: list[dict], passes: list[dict], attempted: int, failed: int
) -> dict:
    ok = [p for p in passes if not p["errors"]]
    if not ok:
        return {}
    # On a shared host, other tenants slow passes for stretches of tens of
    # seconds, so a run's pass times fall into a fast and a slow group.  The
    # median jumps between the groups with the share of slow passes; the
    # mean, the run's total sweep time over its passes, moves in proportion.
    grid_s = statistics.fmean(p["grid_s"] for p in ok)
    return {
        "grid_s": grid_s,
        "cpu_s": statistics.fmean(p["cpu_s"] for p in ok),
        "steps_per_s": ok[0]["steps"] / grid_s,
        "setup_s": statistics.median(p["setup_s"] for p in setups + ok),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in ok),
        "runs_ok_frac": (attempted - failed) / attempted,
    }


def per_layer_metrics(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"] and not p["errors"]]
    untraced = [p for p in passes if not p["traced"] and not p["errors"]]
    if not traced or not untraced:
        return {}

    def median(get) -> float:
        return statistics.median(get(p) for p in traced)

    def count(get) -> int:
        # counts repeat exactly across traced passes (check_passes)
        return get(traced[0])

    metrics = {}
    for span in CALLS_AND_SELF:
        metrics[f"{span}.calls"] = count(lambda p: p["calls"].get(span, 0))
        metrics[f"{span}.self_s"] = median(lambda p: p["self_s"].get(span, 0.0))
        if span in ("problems.loss_grad", "optim.step"):
            for q in ("p50", "p99"):
                metrics[f"{span}.us_{q}"] = median(lambda p: p["durations_us"][span][q])
    for a in ALGORITHMS:
        metrics[f"optim.step.{a}.us_p50"] = median(
            lambda p: p["durations_us"][f"optim.step.{a}"]["p50"]
        )
    metrics["optim.step.computed_bytes"] = count(
        lambda p: p["calls"]["optim.step"] * p["dim"] * STEP_BYTES_PER_PARAM
    )
    for span in SELF_ONLY:
        metrics[f"{span}.self_s"] = median(lambda p: p["self_s"].get(span, 0.0))
    metrics["harness.save_results.bytes"] = count(lambda p: p["results_bytes"])
    metrics["harness.runs_diverged_frac"] = count(
        lambda p: p["runs_diverged"] / p["runs_attempted"]
    )
    metrics["trace.overhead_frac"] = (
        statistics.fmean(p["grid_s"] for p in traced)
        / statistics.fmean(p["grid_s"] for p in untraced)
        - 1.0
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "adafamily" / "__init__.py").is_file():
        print(f"error: no adafamily sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    workload = workloads.WORKLOADS[args.workload]
    runs_per_pass = workloads.ROWS * workload.seeds

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        setups, passes = run_passes(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check_passes(args, passes)
    # a failed set-up-only child stands for the pass it would have preceded
    failed_passes = [p for p in setups + passes if p["errors"]]
    attempted = runs_per_pass * (len(passes) + sum(bool(p["errors"]) for p in setups))
    failed = runs_per_pass * len(failed_passes)
    if args.trace:
        metrics, units = per_layer_metrics(passes), per_layer_units()
    else:
        metrics, units = end_to_end_metrics(setups, passes, attempted, failed), END_TO_END_UNITS

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_block(),
        "setups": setups,
        "passes": [{k: v for k, v in p.items() if k != "table"} for p in passes],
        "metrics": metrics,
    }
    report_path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    for p in failed_passes:
        print(f"pass failed: {'; '.join(p['errors'])}", file=sys.stderr)
    kind = "traced and untraced" if args.trace else "untraced"
    digest = passes[0].get("digest", "-") if passes else "-"
    print(f"{args.workload} seed {args.seed}: {len(passes)} {kind} passes, "
          f"digest {digest[:16]}, report {report_path.relative_to(ROOT)}")
    print("machine " + json.dumps(report["machine"]))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed_passes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if failed_passes else 0


if __name__ == "__main__":
    sys.exit(main())
