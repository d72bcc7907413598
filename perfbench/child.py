"""One sweep pass of one workload in a fresh process.

Run by `run.py`, never by hand: it expects BLAS threading pinned through
the environment and `src` on PYTHONPATH.  It imports the package,
registers and builds the workload's problem (the set-up), optionally
installs the span tracer, runs `adafamily.cli.main(["sweep-mu", ...])`,
checks and hashes what the sweep wrote, and prints one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

import workloads

# per-call duration percentiles are reported for these spans
TIMED_SPANS = ("problems.loss_grad", "optim.step")


def results_digest(out_dir: Path) -> tuple[str, int, int, int, list[str]]:
    """Hash the results files without elapsed_seconds, plus the table file.

    Returns (digest, runs attempted, runs diverged, results bytes, errors).
    Results bytes are the files' sizes less the text of their
    elapsed_seconds values, the one field whose length varies run to run.
    """
    digest = hashlib.sha256()
    attempted = diverged = size = 0
    errors = []
    for path in sorted(out_dir.glob("*.json")):
        text = path.read_text()
        payload = json.loads(text)
        size += len(text.encode())
        config = payload["config"]
        if len(payload["results"]) != len(config["seeds"]):
            errors.append(f"{path.name}: {len(payload['results'])} results for "
                          f"{len(config['seeds'])} seeds")
        for result in payload["results"]:
            size -= len(json.dumps(result.pop("elapsed_seconds")))
            attempted += 1
            diverged += bool(result["diverged"])
            complete = len(result["train_loss"]) == config["epochs"]
            finite = result["final_metric"] is not None and math.isfinite(result["final_metric"])
            if not result["diverged"] and not (complete and finite):
                errors.append(f"{path.name}: seed {result['seed']} is neither "
                              "diverged nor complete and finite")
        digest.update(path.name.encode() + b"\0")
        digest.update(json.dumps(payload, sort_keys=True).encode() + b"\0")
    for path in sorted(out_dir.glob("sweep_*")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest(), attempted, diverged, size, errors


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="empty directory for the sweep")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before spawning")
    parser.add_argument("--spans-file", help="where a traced pass saves its spans")
    parser.add_argument("--setup-only", action="store_true",
                        help="report the set-up time and exit before the sweep")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]

    # set-up: package import, registration and problem build
    from adafamily import cli, harness, optim

    name = workloads.register(workload, args.seed)
    setup = harness.build_problem(name)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "errors": []}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install({a: i for i, a in enumerate(optim.Algorithm)})

    out_dir = Path(args.out)
    argv = workload.sweep_argv(args.seed, str(out_dir))
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        exit_code = cli.main(argv)
    grid_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    # summarise before the checks below call traced functions themselves
    layers = None
    if tracer is not None:
        layers = _layer_summary(tracer)
        if args.spans_file:
            tracer.save(args.spans_file)

    errors = [] if exit_code == 0 else [f"sweep-mu exited {exit_code}: {err.getvalue().strip()}"]
    digest, attempted, diverged, results_bytes, found = results_digest(out_dir)
    errors += found
    table = (out_dir / f"sweep_{name}.md").read_text() if exit_code == 0 else ""
    batches_per_epoch = math.ceil(setup.train.n / workloads.BATCH_SIZE)
    steps = workloads.ROWS * workload.seeds * workload.epochs * batches_per_epoch
    if attempted != workloads.ROWS * workload.seeds:
        errors.append(f"{attempted} runs written, expected {workloads.ROWS * workload.seeds}")
    if args.seed == 0:
        reference = harness.build_problem(workload.frozen_problem)
        if not workloads.same_inputs(workloads.build_setup(workload, 0), reference):
            errors.append("seed 0 does not reproduce the registered problem's inputs")

    report = {
        "setup_s": setup_s,
        "grid_s": grid_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest,
        "table": table,
        "runs_attempted": attempted,
        "runs_diverged": diverged,
        "results_bytes": results_bytes,
        "steps": steps,
        "dim": setup.problem.dim,
        "errors": errors,
    }
    if layers is not None:
        report.update(layers)
    print(json.dumps(report))
    return 0


def _layer_summary(tracer) -> dict:
    summary = tracer.summary(TIMED_SPANS)
    durations_us = {span: _percentiles(d) for span, (d, _) in summary["durations"].items()}
    step_us, step_tags = summary["durations"]["optim.step"]
    for i, algorithm in enumerate(tracer.tag_names):
        durations_us[f"optim.step.{algorithm}"] = _percentiles(step_us[step_tags == i])
    return {
        "spans": summary["spans"],
        "calls": summary["calls"],
        "self_s": summary["self_s"],
        "durations_us": durations_us,
    }


def _percentiles(values: np.ndarray) -> dict:
    if values.size == 0:
        return {"n": 0, "p50": 0.0, "p99": 0.0}
    p50, p99 = np.percentile(values, [50, 99])
    return {"n": int(values.size), "p50": float(p50), "p99": float(p99)}


if __name__ == "__main__":
    sys.exit(main())
