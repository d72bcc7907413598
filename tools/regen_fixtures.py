"""Regenerate the committed fixtures under fixtures/.

Run from the repository root:

    python3 tools/regen_fixtures.py

Outputs:
  fixtures/quadratic_run.json    example run-config file for `adafamily run`
  fixtures/smoke/*.json          results of a small 9-algorithm grid on
                                 blobs-logreg and on blobs-mlp1
  fixtures/golden_table.csv      byte-exact `table --format csv` over smoke/
  fixtures/reference_runs.json   the convergence criterion's inputs: the
                                 reference Adam run on quadratic (first step
                                 below a 1e-6 gap, final gap) and the
                                 blobs-logreg step budget and 0.95 train
                                 accuracy bar

Only elapsed_seconds fields change across regenerations; every numeric
result is deterministic.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from adafamily.data import BatchPlan
from adafamily.harness import (
    DESK_BATCH_SIZE,
    DESK_SHUFFLE_SEED,
    RunConfig,
    aggregate_result_files,
    build_problem,
    default_lineup,
    results_filename,
    run_configs,
    save_results,
    save_run_config_file,
)
from adafamily.optim import Algorithm, OptimizerConfig
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
    configs = [
        RunConfig(
            problem=problem,
            optimizer=optimizer,
            epochs=SMOKE_EPOCHS,
            batch_plan=BatchPlan(batch_size=DESK_BATCH_SIZE, shuffle_seed=DESK_SHUFFLE_SEED),
            schedule=((2, 0.5),),
            seeds=SMOKE_SEEDS,
        )
        for problem in SMOKE_PROBLEMS
        for optimizer in default_lineup()
    ]
    paths = [smoke / results_filename(config) for config in configs]
    for path, config, results in zip(paths, configs, run_configs(configs)):
        save_results(path, config, results)
    return paths


def write_golden_table(paths: list[Path]) -> None:
    table = emit_table(aggregate_result_files(sorted(paths)), "csv")
    (FIXTURES / "golden_table.csv").write_text(table, encoding="utf-8")


def reference_quadratic() -> dict:
    min_loss = build_problem("quadratic").problem.min_loss
    config = OptimizerConfig(algorithm=Algorithm.ADAM)
    threshold = 1e-6
    # an analytic epoch is one full-gradient step: eval_metric[t] is the
    # loss after t + 1 updates
    ((run,),) = run_configs([RunConfig("quadratic", config, epochs=20000)])
    gaps = [loss - min_loss for loss in run.eval_metric]
    return {
        "problem": "quadratic",
        "algorithm": config.label,
        "steps": 20000,
        "threshold_gap": threshold,
        "first_step_below_threshold": next(
            (t + 1 for t, gap in enumerate(gaps) if gap < threshold), None
        ),
        "final_gap": gaps[-1],
        "min_loss": min_loss,
    }


def write_reference_runs() -> None:
    payload = {
        "version": 1,
        "quadratic": reference_quadratic(),
        # the criterion trains every lineup row for `steps` and asks each
        # to reach the bar; no number here comes from a run
        "blobs_logreg": {
            "problem": "blobs-logreg",
            "steps": 500,
            "threshold_train_accuracy": 0.95,
        },
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
