"""Regenerate the committed fixtures under fixtures/.

Run from the repository root:

    python3 tools/regen_fixtures.py

Outputs:
  fixtures/quadratic_run.json    example run-config file for `adafamily run`
  fixtures/smoke/*.json          results of a small 9-algorithm grid on
                                 blobs-logreg and on blobs-mlp1
  fixtures/golden_table.csv      byte-exact `table --format csv` over smoke/
  fixtures/reference_runs.json   reference Adam runs that fixed the
                                 convergence thresholds (1e-6 quadratic gap,
                                 0.95 blobs-logreg train accuracy)

Only elapsed_seconds fields change across regenerations; every numeric
result is deterministic.
"""

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from adafamily import rng
from adafamily.data import BatchPlan, batches
from adafamily.harness import (
    DESK_SCHEDULE,
    RunConfig,
    aggregate_result_files,
    build_problem,
    default_lineup,
    results_filename,
    run_configs,
    save_results,
    save_run_config_file,
)
from adafamily.optim import Algorithm, OptimizerConfig, init_state, step
from adafamily.tables import emit_table

FIXTURES = ROOT / "fixtures"

SMOKE_PROBLEMS = ("blobs-logreg", "blobs-mlp1")
SMOKE_SEEDS = (0, 1, 2)
SMOKE_EPOCHS = 5


def write_example_config() -> None:
    config = RunConfig(
        problem="quadratic",
        optimizer=OptimizerConfig(algorithm=Algorithm.ADAFAMILY, mu=0.5),
        epochs=50,
        schedule=((10, 0.5), (20, 0.5)),
        seeds=(0, 1, 2),
    )
    save_run_config_file(FIXTURES / "quadratic_run.json", config)


def write_smoke_results() -> list[Path]:
    smoke = FIXTURES / "smoke"
    smoke.mkdir(parents=True, exist_ok=True)
    for stale in smoke.glob("*.json"):
        stale.unlink()
    paths = []
    for problem in SMOKE_PROBLEMS:
        for optimizer in default_lineup():
            config = RunConfig(
                problem=problem,
                optimizer=optimizer,
                epochs=SMOKE_EPOCHS,
                batch_plan=BatchPlan(batch_size=32, shuffle_seed=12345),
                schedule=((2, 0.5),),
                seeds=SMOKE_SEEDS,
            )
            path = smoke / results_filename(config)
            save_results(path, config, run_configs([config])[0])
            paths.append(path)
    return paths


def write_golden_table(paths: list[Path]) -> None:
    table = emit_table(aggregate_result_files(sorted(paths)), "csv")
    (FIXTURES / "golden_table.csv").write_text(table, encoding="utf-8")


def reference_quadratic() -> dict:
    setup = build_problem("quadratic")
    problem = setup.problem
    config = OptimizerConfig(algorithm=Algorithm.ADAM)
    state = init_state(problem.dim)
    params = problem.init_params(0)
    first_below = None
    threshold = 1e-6
    for t in range(1, 20001):
        loss, grad = problem.loss_grad(params)
        params = step(state, params, grad, config)
        if first_below is None and problem.loss(params) - problem.min_loss < threshold:
            first_below = t
    return {
        "problem": "quadratic",
        "algorithm": config.label,
        "steps": 20000,
        "threshold_gap": threshold,
        "first_step_below_threshold": first_below,
        "final_gap": problem.loss(params) - problem.min_loss,
        "min_loss": problem.min_loss,
    }


def reference_blobs_logreg() -> dict:
    setup = build_problem("blobs-logreg")
    problem, train = setup.problem, setup.train
    config = OptimizerConfig(algorithm=Algorithm.ADAM)
    state = init_state(problem.dim)
    params = problem.init_params(0)
    plan = BatchPlan(batch_size=32, shuffle_seed=rng.derive_key(12345, 0))
    steps, epoch = 0, 0
    while steps < 500:
        for batch in batches(train, plan, epoch):
            if steps >= 500:
                break
            _, grad = problem.loss_grad(params, batch)
            params = step(state, params, grad, config)
            steps += 1
        epoch += 1
    accuracy = float(np.mean(problem.predict(params, train.features) == train.labels))
    return {
        "problem": "blobs-logreg",
        "algorithm": config.label,
        "steps": 500,
        "threshold_train_accuracy": 0.95,
        "train_accuracy": accuracy,
    }


def write_reference_runs() -> None:
    payload = {
        "version": 1,
        "quadratic": reference_quadratic(),
        "blobs_logreg": reference_blobs_logreg(),
    }
    (FIXTURES / "reference_runs.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    write_example_config()
    paths = write_smoke_results()
    write_golden_table(paths)
    write_reference_runs()
    print(f"regenerated fixtures under {FIXTURES}")


if __name__ == "__main__":
    main()
