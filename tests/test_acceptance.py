"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Each test measures what it claims (tolerances, runtimes, reproducibility)
and reports a single verdict line through the session report, echoed in
the terminal summary.  Thresholds for the convergence criterion come from
the committed reference fixture, not from constants in this file.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from adafamily.checks import (
    check_endpoint_adabelief_eps_in_v,
    check_endpoint_adam_eps_in_v,
    check_endpoint_adamomentum,
    check_gradients,
    check_normalization_endpoints,
    check_normalization_symmetry,
    check_state_size,
    check_v_lower_bound,
)
from adafamily.data import BatchPlan, batches
from adafamily.harness import (
    MU_GRID,
    build_problem,
    default_lineup,
    run_grid,
    sweep_mu_configs,
)
from adafamily.optim import init_state, step
from adafamily.problems import default_problems_for_gradcheck
from adafamily.rng import derive_key
from adafamily.tables import emit_table

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
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
    results = [
        check_endpoint_adamomentum(),
        check_endpoint_adam_eps_in_v(),
        check_endpoint_adabelief_eps_in_v(),
    ]
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
    plan = BatchPlan(batch_size=32, shuffle_seed=derive_key(12345, 0))
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


def test_criterion_convergence_reference_problems(acceptance_report):
    reference = _reference()
    quad_ref, blobs_ref = reference["quadratic"], reference["blobs_logreg"]

    hits, adam_final_gap, min_loss = _quadratic_first_hits(quad_ref["threshold_gap"])
    quad_ok = set(hits) == set(LINEUP_LABELS) and all(
        first is not None and first <= quad_ref["steps"] for first in hits.values()
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
    aggregates_a, raw_a = run_grid(configs)
    elapsed = time.perf_counter() - start
    aggregates_b, raw_b = run_grid(configs)

    def _payload(raw):
        return {
            key: [(r.seed, r.train_loss, r.eval_metric, r.final_metric, r.diverged) for r in rs]
            for key, rs in raw.items()
        }

    reproducible = _payload(raw_a) == _payload(raw_b)
    table = emit_table(aggregates_a, format="md")
    rows = [line for line in table.splitlines() if line.startswith("| Ada")]
    labels = [agg.label for agg in aggregates_a]
    shape_ok = labels == LINEUP_LABELS and len(rows) == 9
    marks_ok = table.count("**") == 2 and "*" in table.replace("**", "")
    seeds_ok = all(
        agg.seeds_per_problem["blobs-mlp1"] == 10 for agg in aggregates_a
    )
    within_budget = elapsed < 600.0
    passed = reproducible and shape_ok and marks_ok and seeds_ok and within_budget
    _finish(
        acceptance_report,
        "protocol-reproduction",
        passed,
        f"9 algorithms x 10 seeds x 30 epochs in {elapsed:.1f}s (budget 600s); "
        f"two grid runs bitwise identical: {reproducible}",
    )


def test_criterion_state_size_parity(acceptance_report):
    ok, detail = check_state_size()
    _finish(acceptance_report, "state-size-parity", ok, detail)


def test_criterion_table_emitter_fidelity(acceptance_report):
    column = [12.89, 13.27, 12.70, 14.11, 12.69, 12.71, 12.65, 13.79, 14.56]
    from adafamily.harness import AggregateResult

    rows = []
    for label, mean in zip(LINEUP_LABELS, column):
        agg = AggregateResult(label=label)
        agg.means["resnet"] = mean
        agg.divergent["resnet"] = 0
        agg.seeds_per_problem["resnet"] = 10
        rows.append(agg)
    table = emit_table(rows, format="md")
    best_ok = "| AdaFamily(0.5) | **12.65** |" in table
    second_ok = "| AdaFamily(0.0) | *12.69* |" in table
    exclusive_ok = table.count("**") == 2
    _finish(
        acceptance_report,
        "table-emitter-fidelity",
        best_ok and second_ok and exclusive_ok,
        "best cell 12.65 bold, second-best 12.69 italic, no other marks",
    )
