"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Each test measures what it claims (tolerances, runtimes, reproducibility)
and reports a single verdict line through the session report, echoed in
the terminal summary.  Thresholds for the convergence criterion come from
the committed reference fixture, not from constants in this file.
"""

import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import bitwise

from adafamily.checks import (
    CHECKS,
    check_gradients,
    check_normalization_endpoints,
    check_normalization_symmetry,
    check_state_size,
    check_v_lower_bound,
)
from adafamily.data import BatchPlan, batches
from adafamily.harness import (
    DESK_BATCH_SIZE,
    DESK_SHUFFLE_SEED,
    MU_GRID,
    RunResult,
    build_problem,
    default_lineup,
    run_grid,
    sweep_mu_configs,
)
from adafamily.optim import init_state, step
from adafamily.problems import default_problems_for_gradcheck
from adafamily.rng import derive_key
from adafamily.tables import emit_table

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
LINEUP_LABELS = [
    "Adam",
    "AdamW",
    "AdaBelief",
    "AdaMomentum",
    "AdaFamily(0.0)",
    "AdaFamily(0.25)",
    "AdaFamily(0.5)",
    "AdaFamily(0.75)",
    "AdaFamily(1.0)",
]
# each row's first update count with a quadratic loss gap below 1e-6, which
# demos/05_quadratic_race.py reaches through the harness
QUADRATIC_FIRST_HITS = dict(
    zip(LINEUP_LABELS, [7624, 7624, 3753, 7553, 7820, 6910, 3753, 6472, 7553])
)


def _finish(report, name, passed, detail):
    line = f"{'PASS' if passed else 'FAIL'} {name}: {detail}"
    report.append(line)
    print(line)
    assert passed, line


def _reference():
    return json.loads((FIXTURES / "reference_runs.json").read_text())


def test_criterion_normalization_factor(acceptance_report):
    ok_end, detail_end = check_normalization_endpoints()
    ok_sym, detail_sym = check_normalization_symmetry()
    _finish(
        acceptance_report,
        "normalization-factor",
        ok_end and ok_sym,
        f"{detail_end}; {detail_sym}",
    )


def test_criterion_endpoint_oracle_equivalence(acceptance_report):
    start = time.perf_counter()
    endpoints = ["endpoint-adamomentum", "endpoint-adam-eps-in-v", "endpoint-adabelief-eps-in-v"]
    results = [dict(CHECKS)[name]() for name in endpoints]
    elapsed = time.perf_counter() - start
    ok = all(r[0] for r in results) and elapsed < 1.0
    detail = "; ".join(r[1] for r in results) + f"; {elapsed:.2f}s (budget 1s)"
    _finish(acceptance_report, "endpoint-oracle-equivalence", ok, detail)


def test_criterion_second_moment_lower_bound(acceptance_report):
    ok, detail = check_v_lower_bound()
    _finish(acceptance_report, "second-moment-lower-bound", ok, detail)


def test_criterion_gradient_oracle(acceptance_report):
    kinds = []
    draws = 0
    for problem, evals in default_problems_for_gradcheck():
        evals = list(evals)
        kinds.append(problem.kind)
        draws += len(evals)
    start = time.perf_counter()
    ok, detail = check_gradients()
    elapsed = time.perf_counter() - start
    structure_ok = sorted(kinds) == ["logreg", "mlp1", "quadratic", "rosenbrock"] and draws >= 80
    passed = ok and structure_ok and elapsed < 10.0
    _finish(
        acceptance_report,
        "gradient-oracle",
        passed,
        f"{detail}; {draws} draws over {len(kinds)} kinds; {elapsed:.2f}s (budget 10s)",
    )


def _quadratic_first_hits(threshold):
    """Per-lineup-row first update count with loss gap below threshold."""
    setup = build_problem("quadratic")
    problem = setup.problem
    hits = {}
    adam_final_gap = None
    for config in default_lineup(weight_decay=0.0):
        state = init_state(problem.dim)
        params = problem.init_params(0)
        first = None
        for t in range(1, 20001):
            loss, grad = problem.loss_grad(params)
            if first is None and loss - problem.min_loss < threshold:
                first = t - 1  # updates already applied
                if config.label != "Adam":
                    break
            params = step(state, params, grad, config)
        hits[config.label] = first
        if config.label == "Adam":
            adam_final_gap = problem.loss_grad(params)[0] - problem.min_loss
    return hits, adam_final_gap, problem.min_loss


def _blobs_first_hits(threshold, max_steps):
    """Per-lineup-row first step count reaching the train-accuracy bar."""
    setup = build_problem("blobs-logreg")
    problem, train = setup.problem, setup.train
    plan = BatchPlan(batch_size=DESK_BATCH_SIZE, shuffle_seed=derive_key(DESK_SHUFFLE_SEED, 0))
    hits = {}
    for config in default_lineup(weight_decay=0.0):
        state = init_state(problem.dim)
        params = problem.init_params(0)
        steps, epoch, first = 0, 0, None
        while steps < max_steps and first is None:
            for batch in batches(train, plan, epoch):
                if steps >= max_steps:
                    break
                _, grad = problem.loss_grad(params, batch)
                params = step(state, params, grad, config)
                steps += 1
                accuracy = np.mean(problem.predict(params, train.features) == train.labels)
                if accuracy >= threshold:
                    first = steps
                    break
            epoch += 1
        hits[config.label] = first
    return hits


@pytest.mark.host_kernels
def test_criterion_convergence_reference_problems(acceptance_report):
    reference = _reference()
    quad_ref, blobs_ref = reference["quadratic"], reference["blobs_logreg"]

    hits, adam_final_gap, min_loss = _quadratic_first_hits(quad_ref["threshold_gap"])
    quad_ok = hits == QUADRATIC_FIRST_HITS and all(
        first <= quad_ref["steps"] for first in hits.values()
    )
    fixture_ok = (
        hits["Adam"] == quad_ref["first_step_below_threshold"]
        and math.isclose(adam_final_gap, quad_ref["final_gap"], rel_tol=1e-6)
        and math.isclose(min_loss, quad_ref["min_loss"], rel_tol=1e-12)
    )

    blob_hits = _blobs_first_hits(
        blobs_ref["threshold_train_accuracy"], blobs_ref["steps"]
    )
    blobs_ok = all(first is not None for first in blob_hits.values())

    worst_quad = max(hits.values())
    worst_blob = max(first or 10**9 for first in blob_hits.values())
    detail = (
        f"quadratic gap<{quad_ref['threshold_gap']:g} by step {worst_quad} of "
        f"{quad_ref['steps']} for all 9 rows (Adam {hits['Adam']}, fixture "
        f"{quad_ref['first_step_below_threshold']}); blobs-logreg accuracy>="
        f"{blobs_ref['threshold_train_accuracy']} by step {worst_blob} of "
        f"{blobs_ref['steps']} for all 9 rows"
    )
    _finish(
        acceptance_report,
        "convergence-reference-problems",
        quad_ok and fixture_ok and blobs_ok,
        detail,
    )


def test_criterion_protocol_reproduction(acceptance_report):
    configs = sweep_mu_configs(MU_GRID, "blobs-mlp1")
    start = time.perf_counter()
    cells_a = run_grid(configs)
    elapsed = time.perf_counter() - start
    cells_b = run_grid(configs)
    reproducible = bitwise(cells_a) == bitwise(cells_b)
    table = emit_table(cells_a, format="md")
    rows = [line for line in table.splitlines() if line.startswith("| Ada")]
    labels = [label for label, _ in cells_a]
    shape_ok = labels == LINEUP_LABELS and len(rows) == 9
    marks_ok = table.count("**") == 2 and "*" in table.replace("**", "")
    seeds_ok = all(len(runs) == 10 for runs in cells_a.values())
    within_budget = elapsed < 600.0
    # the committed copies of this table: perfbench's expected seed-0 table
    # and the README's typical sweep table
    expected = (ROOT / "perfbench/expected/protocol-mlp1-seed0.md").read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (readme_table,) = re.findall(r"A typical sweep table.*?```\n(.*?)```", readme, re.DOTALL)
    committed_ok = table == expected == readme_table
    passed = (
        reproducible and shape_ok and marks_ok and seeds_ok and within_budget and committed_ok
    )
    _finish(
        acceptance_report,
        "protocol-reproduction",
        passed,
        f"9 algorithms x 10 seeds x 30 epochs in {elapsed:.1f}s (budget 600s); "
        f"two grid runs bitwise identical: {reproducible}; "
        f"equal to the committed tables: {committed_ok}",
    )


def test_criterion_state_size_parity(acceptance_report):
    ok, detail = check_state_size()
    _finish(acceptance_report, "state-size-parity", ok, detail)


def test_criterion_table_emitter_fidelity(acceptance_report):
    column = [12.89, 13.27, 12.70, 14.11, 12.69, 12.71, 12.65, 13.79, 14.56]
    cells = {
        (label, "resnet"): [
            RunResult(seed=s, train_loss=[0.0], eval_metric=[mean], elapsed_seconds=0.0)
            for s in range(10)
        ]
        for label, mean in zip(LINEUP_LABELS, column)
    }
    table = emit_table(cells, format="md")
    best_ok = "| AdaFamily(0.5) | **12.65** |" in table
    second_ok = "| AdaFamily(0.0) | *12.69* |" in table
    exclusive_ok = table.count("**") == 2
    _finish(
        acceptance_report,
        "table-emitter-fidelity",
        best_ok and second_ok and exclusive_ok,
        "best cell 12.65 bold, second-best 12.69 italic, no other marks",
    )
