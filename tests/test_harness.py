"""Tests for the benchmark harness: schedules, runs, grids, persistence."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import bitwise

from adafamily import harness
from adafamily.data import BatchPlan, Dataset
from adafamily.harness import (
    DESK_BATCH_SIZE,
    DESK_SCHEDULE,
    DESK_SEEDS,
    MU_GRID,
    ProblemSetup,
    RunConfig,
    RunResult,
    aggregate_result_files,
    build_problem,
    default_lineup,
    load_results,
    lr_scale_sequence,
    problem_names,
    register_problem,
    run_configs,
    run_grid,
    save_results,
    sweep_mu_configs,
)
from adafamily.optim import Algorithm, OptimizerConfig
from adafamily.problems import MLP1, Problem, Quadratic, Rosenbrock2D
from adafamily.tables import emit_table


def _quad_config(**overrides):
    base = dict(
        problem="quadratic",
        optimizer=OptimizerConfig(algorithm=Algorithm.ADAM),
        epochs=3,
        batch_plan=None,
        schedule=(),
        seeds=(0,),
    )
    base.update(overrides)
    return RunConfig(**base)


def _blobs_config(**overrides):
    base = dict(
        problem="blobs-logreg",
        optimizer=OptimizerConfig(algorithm=Algorithm.ADAM),
        epochs=2,
        batch_plan=BatchPlan(batch_size=32, shuffle_seed=12345),
        schedule=(),
        seeds=(0,),
    )
    base.update(overrides)
    return RunConfig(**base)


@contextlib.contextmanager
def _fails_after(seconds):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass, so
    a check that scales with a claimed size fails fast instead of running on."""

    def expire(signum, frame):
        raise TimeoutError(f"took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# learning-rate schedule


def test_lr_scale_sequence_worked_example():
    # milestones fire at the start of their epoch: epochs 0,1 run at 1.0,
    # epochs 2,3 at 0.5
    assert lr_scale_sequence(((2, 0.5),), 4) == [1.0, 1.0, 0.5, 0.5]


def test_lr_scale_sequence_is_product_of_passed_milestones():
    seq = lr_scale_sequence(((2, 0.5), (5, 0.2)), 8)
    assert seq == [1.0, 1.0, 0.5, 0.5, 0.5, 0.1, 0.1, 0.1]


def test_lr_scale_sequence_matches_per_epoch_closed_form():
    # a factor above 1 raises the scale again
    seq = lr_scale_sequence(((1, 0.5), (4, 0.25), (6, 2.0)), 9)
    assert seq == [1.0, 0.5, 0.5, 0.5, 0.125, 0.125, 0.25, 0.25, 0.25]


def test_desk_schedule_halves_twice():
    seq = lr_scale_sequence(DESK_SCHEDULE, 30)
    assert seq[9] == 1.0 and seq[10] == 0.5 and seq[19] == 0.5 and seq[20] == 0.25
    assert seq[29] == 0.25


def test_empty_schedule_is_constant():
    assert lr_scale_sequence((), 5) == [1.0] * 5


# ---------------------------------------------------------------------------
# RunConfig validation and serialization


def test_run_config_rejects_unsorted_milestones():
    with pytest.raises(ValueError):
        _quad_config(epochs=10, schedule=((5, 0.5), (3, 0.5)))


def test_run_config_rejects_duplicate_milestones():
    with pytest.raises(ValueError):
        _quad_config(epochs=10, schedule=((5, 0.5), (5, 0.2)))


def test_run_config_rejects_milestone_at_or_past_epochs():
    with pytest.raises(ValueError):
        _quad_config(epochs=10, schedule=((10, 0.5),))
    with pytest.raises(ValueError):
        _quad_config(epochs=10, schedule=((-1, 0.5),))


def test_run_config_rejects_nonpositive_factor():
    with pytest.raises(ValueError):
        _quad_config(epochs=10, schedule=((5, 0.0),))


@pytest.mark.parametrize("factor", [math.nan, math.inf])
def test_run_config_rejects_nonfinite_factor(factor):
    with pytest.raises(ValueError, match=rf"finite and > 0, got {factor}"):
        _quad_config(epochs=10, schedule=((5, factor),))


def test_run_config_rejects_scale_that_underflows():
    # every factor is finite and > 0, but their product reaches 0.0
    with pytest.raises(ValueError, match=r"epoch 2 must be finite and > 0, got 0.0"):
        _quad_config(epochs=3, schedule=((1, 1e-200), (2, 1e-200)))


def test_run_config_rejects_scale_that_overflows():
    with pytest.raises(ValueError, match=r"epoch 2 must be finite and > 0, got inf"):
        _quad_config(epochs=3, schedule=((1, 1e200), (2, 1e200)))


def test_run_config_rejects_repeated_seed():
    with pytest.raises(ValueError, match="seed 0 repeats"):
        _quad_config(seeds=(0, 1, 0))


def test_run_config_checks_many_distinct_seeds_at_once():
    seeds = tuple(range(200_000))
    with _fails_after(2.0):
        assert _quad_config(seeds=seeds).seeds == seeds
        with pytest.raises(ValueError, match="seed 7 repeats"):
            _quad_config(seeds=seeds + (7, 3))


@pytest.mark.parametrize("seed", ["0", 0.5, -1, 2**64, True, None])
def test_run_config_rejects_seeds_it_cannot_run(seed):
    # -1 and 2**64 would fold into the same 64-bit keys as 2**64 - 1 and 0
    with pytest.raises(ValueError, match=rf"integers in \[0, 2\*\*64\), got {seed!r}"):
        _quad_config(seeds=(1, seed))
    assert _quad_config(seeds=(0, 2**64 - 1)).seeds == (0, 2**64 - 1)


def test_run_config_rejects_bad_epochs_and_seeds():
    with pytest.raises(ValueError):
        _quad_config(epochs=0)
    for epochs in (True, 2.0, 2.5, "2"):
        with pytest.raises(ValueError, match=rf"epochs must be an integer >= 1, got {epochs!r}"):
            _quad_config(epochs=epochs)
    with pytest.raises(ValueError):
        _quad_config(seeds=())


def test_run_config_dict_roundtrip_through_json():
    config = _blobs_config(
        epochs=7,
        schedule=((2, 0.5), (5, 0.2)),
        seeds=(0, 3, 9),
        optimizer=OptimizerConfig(
            algorithm=Algorithm.ADAFAMILY,
            mu=0.75,
            weight_decay=1e-4,
        ),
    )
    wire = json.loads(json.dumps(config.to_dict()))
    assert RunConfig.from_dict(wire) == config


@pytest.mark.parametrize(
    "entry", [[2.7, 0.5], [2, "0.5"], ["2", 0.5], [True, 0.5], [2, True], [2, None]]
)
def test_run_config_refuses_schedule_entries_of_the_wrong_type(entry):
    d = _quad_config(epochs=5).to_dict()
    d["schedule"] = [entry]
    with pytest.raises(ValueError, match="integer milestone, number factor"):
        RunConfig.from_dict(d)
    with pytest.raises(ValueError, match="integer milestone, number factor"):
        _quad_config(epochs=5, schedule=(tuple(entry),))


def test_from_dict_reads_an_integer_factor_as_a_float():
    d = _quad_config(epochs=20).to_dict()
    d["schedule"] = [[10, 1]]
    config = RunConfig.from_dict(d)
    assert config.schedule == ((10, 1.0),) and type(config.schedule[0][1]) is float
    assert json.dumps(config.to_dict()["schedule"]) == "[[10, 1.0]]"


def test_run_config_analytic_roundtrip_keeps_none_plan():
    config = _quad_config()
    assert RunConfig.from_dict(config.to_dict()).batch_plan is None


def _family(**hyper):
    return dict(optimizer=OptimizerConfig(algorithm=Algorithm.ADAFAMILY, **hyper))


# ways code may build a config; each builds fresh, so a generator is unread
_CONSTRUCTION_FORMS = {
    "seeds-list": lambda: dict(seeds=[0, 1]),
    "seeds-range": lambda: dict(seeds=range(3)),
    "seeds-generator": lambda: dict(seeds=(s for s in (2, 5))),
    "seeds-tuple": lambda: dict(seeds=(0, 1)),
    "schedule-lists-int-factor": lambda: dict(schedule=[[1, 1], [2, 0.5]]),
    "schedule-float64-factor": lambda: dict(schedule=((1, np.float64(0.5)),)),
    "mu-int": lambda: _family(mu=1),
    "mu-float64": lambda: _family(mu=np.float64(0.25)),
    "alpha-int": lambda: _family(alpha=1),
    "alpha-float64": lambda: _family(alpha=np.float64(1e-3)),
    "weight_decay-int": lambda: _family(weight_decay=0),
    "weight_decay-float64": lambda: _family(weight_decay=np.float64(1e-4)),
}


@pytest.mark.parametrize("form", list(_CONSTRUCTION_FORMS))
def test_a_config_built_in_any_form_is_the_config_its_file_decodes_to(form):
    config = _quad_config(**_CONSTRUCTION_FORMS[form]())
    hash(config)
    text = json.dumps(config.to_dict(), allow_nan=False)
    decoded = RunConfig.from_dict(json.loads(text))
    assert decoded == config and bitwise(decoded) == bitwise(config)
    # the config holds its file's form from construction
    assert type(config.seeds) is tuple and config.seeds
    assert all(type(m) is int and type(f) is float for m, f in config.schedule)
    assert type(config.schedule) is tuple and all(type(pair) is tuple for pair in config.schedule)
    assert all(type(v) is float for k, v in vars(config.optimizer).items() if k != "algorithm")


def test_a_config_refuses_a_number_it_cannot_write_at_construction():
    with pytest.raises(ValueError, match=r"^alpha must be a number, got "):
        OptimizerConfig(algorithm=Algorithm.ADAM, alpha=np.float32(1e-3))
    with pytest.raises(ValueError, match=r"^seeds must be integers in \[0, 2\*\*64\), got "):
        _quad_config(seeds=np.arange(3))


# ---------------------------------------------------------------------------
# problem registry


def test_problem_names_cover_builtins():
    names = problem_names()
    for name in ("quadratic", "rosenbrock", "blobs-logreg", "blobs-mlp1"):
        assert name in names


def test_build_problem_unknown_name():
    with pytest.raises(ValueError, match="no-such-problem"):
        build_problem("no-such-problem")


def test_build_problem_is_cached():
    assert build_problem("quadratic") is build_problem("quadratic")


def test_register_problem_rejects_duplicate_name():
    with pytest.raises(ValueError):
        register_problem("quadratic", lambda: None)


@pytest.mark.parametrize("name", ["blobs/mlp1", "blobs|mlp1", "blobs\tmlp1", 5, ""])
def test_register_problem_refuses_a_name_no_config_can_hold(temporary_problem, name):
    # a registered name is offered by sweep-mu, so it must be one a config can hold
    with pytest.raises(ValueError) as config_refused:
        _quad_config(problem=name)
    before = problem_names()
    with pytest.raises(ValueError) as registry_refused:
        temporary_problem(name, lambda: build_problem("blobs-mlp1"))
    assert str(registry_refused.value) == str(config_refused.value)
    assert problem_names() == before


def test_run_config_refuses_an_empty_problem_name():
    # an empty name would write results files named '--adam.json', and a
    # table with an empty column header
    with pytest.raises(ValueError, match=r"^problem '' is empty$"):
        RunConfig("", OptimizerConfig(algorithm=Algorithm.ADAM), epochs=1)


def test_builtin_setups_have_expected_shape():
    quad = build_problem("quadratic")
    assert not quad.problem.requires_batch and quad.train is None and quad.test is None
    blobs = build_problem("blobs-logreg")
    assert blobs.train.n > 0 and blobs.test.n > 0
    assert blobs.problem.requires_batch


# ---------------------------------------------------------------------------
# single runs


def _only_run(config):
    """The one run of a one-seed config."""
    [[result]] = run_configs([config])
    return result


def test_analytic_run_takes_one_step_per_epoch():
    result = _only_run(_quad_config(epochs=1))
    assert len(result.train_loss) == 1
    longer = _only_run(_quad_config(epochs=4))
    assert len(longer.train_loss) == 4
    # no batching: the first epoch's loss is identical regardless of horizon
    assert longer.train_loss[0] == result.train_loss[0]


def test_quadratic_run_decreases_loss():
    result = _only_run(_quad_config(epochs=50))
    assert result.train_loss[-1] < result.train_loss[0]
    assert not result.diverged
    assert result.final_metric == result.eval_metric[-1]


def test_single_run_is_deterministic_excluding_elapsed():
    a = _only_run(_blobs_config(epochs=3, seeds=(1,)))
    b = _only_run(_blobs_config(epochs=3, seeds=(1,)))
    assert bitwise(a) == bitwise(b)


def test_run_seed_changes_trajectory():
    a = _only_run(_blobs_config(epochs=2))
    b = _only_run(_blobs_config(epochs=2, seeds=(1,)))
    assert a.train_loss != b.train_loss


def test_blobs_run_improves_top1_error():
    result = _only_run(_blobs_config(epochs=10))
    assert result.eval_metric[-1] < result.eval_metric[0]
    # Top-1 error is a percentage
    assert 0.0 <= result.eval_metric[-1] <= 100.0


def test_from_dict_loads_a_stored_metric_and_drop_last_only_where_derived():
    # before the metric was derived, a missing metric read as final_loss and a
    # missing drop_last as false; exactly the configs whose stored values meant
    # what is now derived still load, written back with the derived values
    loads = {
        ("drop_last false", "top1_error"),
        ("drop_last absent", "top1_error"),
        ("no plan", "final_loss"),
        ("no plan", None),
    }
    for plan in ("drop_last true", "drop_last false", "drop_last absent", "no plan"):
        config = _quad_config() if plan == "no plan" else _blobs_config()
        assert config.metric == ("final_loss" if plan == "no plan" else "top1_error")
        for metric in ("top1_error", "final_loss", "top5_error", None):
            d = json.loads(json.dumps(config.to_dict()))
            if plan != "no plan":
                del d["batch_plan"]["drop_last"]
                if plan != "drop_last absent":
                    d["batch_plan"]["drop_last"] = plan == "drop_last true"
            del d["metric"]
            if metric is not None:
                d["metric"] = metric
            if (plan, metric) in loads:
                assert RunConfig.from_dict(d) == config
                assert RunConfig.from_dict(d).to_dict() == config.to_dict()
                continue
            if plan == "drop_last true":
                expected = r"drop_last True is not false"
            else:
                stored = f"metric '{metric}'" if metric else r"no metric \(read as 'final_loss'\)"
                expected = rf"{stored} does not fit .* which evaluates '{config.metric}'"
            with pytest.raises(ValueError, match=expected):
                RunConfig.from_dict(d)
    # false means False itself: a falsy value of another type is refused
    for value in (0, None, "", [], 0.0):
        d = json.loads(json.dumps(_blobs_config().to_dict()))
        d["batch_plan"]["drop_last"] = value
        with pytest.raises(ValueError) as refused:
            RunConfig.from_dict(d)
        assert str(refused.value).startswith(f"drop_last {value!r} is not false")


@pytest.mark.parametrize(
    "problem, train, test, message",
    [
        ("blobs-mlp1", None, "test", "mlp1 needs non-empty train and test splits"),
        ("blobs-mlp1", "train", None, "mlp1 needs non-empty train and test splits"),
        ("blobs-mlp1", "train", "empty", "mlp1 needs non-empty train and test splits"),
        ("quadratic", "train", "test", "quadratic is analytic and takes no data"),
    ],
    ids=["mlp1-no-train", "mlp1-no-test", "mlp1-empty-test", "quadratic-given-data"],
)
def test_problem_setup_refuses_data_that_contradicts_its_problem(problem, train, test, message):
    blobs = build_problem("blobs-mlp1")
    splits = {
        None: None,
        "train": blobs.train,
        "test": blobs.test,
        "empty": Dataset(np.zeros((0, 8)), np.zeros(0, dtype=np.int64), num_classes=3),
    }
    with pytest.raises(ValueError, match=message):
        ProblemSetup(build_problem(problem).problem, train=splits[train], test=splits[test])


def test_dataset_problem_requires_batch_plan():
    with pytest.raises(ValueError, match="batch"):
        _only_run(_blobs_config(batch_plan=None))


def test_analytic_problem_rejects_batch_plan():
    plan = BatchPlan(batch_size=8, shuffle_seed=1)
    with pytest.raises(ValueError, match="batch"):
        _only_run(_quad_config(batch_plan=plan))


def test_schedule_scales_realized_updates():
    # train_loss logs pre-step losses, so the factor-0.5 milestone at epoch 1
    # first shows in the post-step eval metric of that epoch
    flat = _only_run(_quad_config(epochs=2))
    stepped = _only_run(_quad_config(epochs=2, schedule=((1, 0.5),)))
    assert flat.eval_metric[0] == stepped.eval_metric[0]
    assert flat.eval_metric[1] != stepped.eval_metric[1]


# ---------------------------------------------------------------------------
# divergence handling


class _CliffProblem(Problem):
    """Linear slope that turns NaN once the iterate crosses a threshold.

    Past the cliff the gradient is NaN, and so is the loss unless
    ``finite_loss`` is set.
    """

    kind = "cliff"
    dim = 1
    requires_batch = False

    def __init__(self, cliff, finite_loss=False):
        self.cliff = float(cliff)
        self.finite_loss = finite_loss

    def init_params(self, seed):
        return np.zeros(1)

    def _loss_grad(self, stack, batch):
        past = stack[:, 0] > self.cliff
        losses = np.where(past & (not self.finite_loss), np.nan, -stack[:, 0])
        return losses, np.where(past, np.nan, -1.0)[:, None]


def _register_cliff(register, name, cliff, finite_loss=False):
    register(name, lambda: ProblemSetup(problem=_CliffProblem(cliff, finite_loss)))


def _assert_aborts_in_epoch(register, name, finite_loss, epoch, tmp_path):
    # Adam walks +alpha per step up the slope; with alpha=1e-3 the step of
    # epoch 2 crosses 2.5e-3 (steps land near 1e-3, 2e-3, 3e-3, ...)
    _register_cliff(register, name, cliff=2.5e-3, finite_loss=finite_loss)
    config = _quad_config(problem=name, epochs=10)
    result = _only_run(config)
    assert result.diverged
    assert result.divergence_epoch == epoch
    assert len(result.train_loss) == epoch  # aborted, no post-divergence epochs
    assert len(result.eval_metric) == epoch
    assert all(math.isfinite(v) for v in result.train_loss + result.eval_metric)
    assert result.final_metric is None
    path = tmp_path / "cliff.json"
    save_results(path, config, [result])
    assert load_results(path) == (config, [result])


def test_divergent_run_flags_epoch_and_aborts(temporary_problem, tmp_path):
    # the NaN loss past the cliff shows in epoch 2's evaluation
    _assert_aborts_in_epoch(temporary_problem, "cliff-a", False, epoch=2, tmp_path=tmp_path)


def test_nan_gradient_with_finite_loss_diverges_the_same_way(temporary_problem, tmp_path):
    # only the optimizer's gradient scan can catch this one, at the next step
    _assert_aborts_in_epoch(temporary_problem, "cliff-c", True, epoch=3, tmp_path=tmp_path)


def _stepped_rows(monkeypatch):
    """A list that gets, for every call of the harness's `step`, the rows it
    steps: ``params.shape[0]`` for a 2-D call, else 1.  A refused step
    counts, so the list counts every row offered a step."""
    rows = []
    real = harness.step

    def step(state, params, *args, **kwargs):
        rows.append(params.shape[0] if params.ndim == 2 else 1)
        return real(state, params, *args, **kwargs)

    monkeypatch.setattr(harness, "step", step)
    return rows


def test_a_run_whose_step_was_refused_is_never_stepped_again(temporary_problem, monkeypatch):
    rows = _stepped_rows(monkeypatch)
    _register_cliff(temporary_problem, "cliff-d", cliff=2.5e-3, finite_loss=True)
    # alpha=1e-4 walks about 1e-3 in ten steps, short of the cliff
    slow = OptimizerConfig(algorithm=Algorithm.ADAMW, alpha=1e-4)
    stays = _quad_config(problem="cliff-d", epochs=10, optimizer=slow)
    (fell,), (stayed,) = run_configs([_quad_config(problem="cliff-d", epochs=10), stays])
    assert fell.divergence_epoch == 3 and not stayed.diverged
    # three steps and the refused fourth, then nothing; the other run takes all ten
    assert sum(rows) == 4 + 10
    # refused mid-epoch, a run sits out the epoch's remaining batches too
    rows.clear()
    _blobs_cliff(temporary_problem, "cliff-e", nan_loss=False, nan_grad=True)
    fast = OptimizerConfig(algorithm=Algorithm.ADAM, alpha=0.05)
    falls = _blobs_config(problem="cliff-e", epochs=3, optimizer=fast)
    (fell,), (stayed,) = run_configs([falls, _blobs_config(problem="cliff-e", epochs=3)])
    assert fell.divergence_epoch == 1 and not stayed.diverged
    refused = build_problem("cliff-e").problem.first_cliff_call
    assert sum(rows) == refused + 1 + 3 * 15


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_eval_diverges_the_run(tmp_path):
    # one step of alpha=1e200 leaves a finite iterate whose loss overflows
    config = _quad_config(
        epochs=1, optimizer=OptimizerConfig(algorithm=Algorithm.ADAM, alpha=1e200)
    )
    cells = run_grid([config])
    (result,) = cells[("Adam", "quadratic")]
    assert result.diverged and result.divergence_epoch == 0
    assert result.train_loss == [] and result.eval_metric == []
    assert result.final_metric is None
    assert "† Adam on quadratic: 1 of 1 runs diverged" in emit_table(cells)
    path = tmp_path / "r.json"
    save_results(path, config, [result])
    json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(f"wrote {c}"))
    assert load_results(path) == (config, [result])


def test_rosenbrock_overflow_diverges_instead_of_raising():
    config = _quad_config(
        problem="rosenbrock",
        epochs=3,
        optimizer=OptimizerConfig(algorithm=Algorithm.ADAM, alpha=1e80),
    )
    ok = _quad_config(problem="rosenbrock", epochs=3)
    overflow, fine = run_configs([config, ok])
    assert overflow[0].diverged and overflow[0].final_metric is None
    assert not fine[0].diverged


def test_divergent_runs_excluded_from_means(temporary_problem):
    name = "cliff-b"
    _register_cliff(temporary_problem, name, cliff=2.5e-3)
    # alpha=1e-3 stays below the cliff for 2 epochs; alpha=1.0 jumps
    # straight past it, so the AdaBelief row diverges on its only seed
    ok = _quad_config(problem=name, epochs=2)
    bad = _quad_config(
        problem=name,
        epochs=2,
        optimizer=OptimizerConfig(algorithm=Algorithm.ADABELIEF, alpha=1.0),
    )
    cells = run_grid([ok, bad])
    rows = csv.DictReader(io.StringIO(emit_table(cells, "csv")))
    by_label = {row["algorithm"]: row for row in rows}
    assert by_label["Adam"][f"{name}_diverged"] == "0"
    assert by_label["Adam"][name] != ""
    assert by_label["AdaBelief"][f"{name}_diverged"] == "1"
    assert len(cells[("AdaBelief", name)]) == 1
    assert by_label["AdaBelief"][name] == ""
    assert cells[("AdaBelief", name)][0].diverged


# ---------------------------------------------------------------------------
# lineup and sweep configs


def test_default_lineup_order_and_modes():
    lineup = default_lineup()
    labels = [c.label for c in lineup]
    assert labels == [
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
    assert lineup[0].decay_mode == "coupled"
    for config in lineup[1:]:
        assert config.decay_mode == "decoupled"
    for config in lineup:
        assert config.weight_decay == pytest.approx(1e-4)
        assert config.alpha == pytest.approx(1e-3)


def test_default_lineup_zero_decay_uses_no_decay_mode():
    for config in default_lineup(weight_decay=0.0):
        assert config.weight_decay == 0.0
        assert config.decay_mode == "none"


def test_sweep_mu_configs_cover_baselines_and_grid():
    configs = sweep_mu_configs(MU_GRID, "blobs-mlp1")
    assert len(configs) == 4 + len(MU_GRID)
    assert all(c.problem == "blobs-mlp1" for c in configs)
    assert all(c.seeds == DESK_SEEDS for c in configs)
    assert all(c.schedule == DESK_SCHEDULE for c in configs)
    assert all(c.metric == "top1_error" for c in configs)
    assert all(c.batch_plan is not None for c in configs)


def test_sweep_mu_configs_on_analytic_problem():
    configs = sweep_mu_configs((0.5,), "quadratic", seeds=(0,), epochs=5)
    assert len(configs) == 5
    assert all(c.batch_plan is None for c in configs)
    assert all(c.metric == "final_loss" for c in configs)


def test_sweep_mu_configs_give_a_batch_size_only_to_a_problem_that_takes_batches():
    for given, size in ((None, DESK_BATCH_SIZE), (7, 7)):
        configs = sweep_mu_configs((0.5,), "blobs-logreg", batch_size=given)
        assert {c.batch_plan.batch_size for c in configs} == {size}
    for size in (7, DESK_BATCH_SIZE):
        message = f"quadratic is analytic and takes no --batch-size, got {size}"
        with pytest.raises(ValueError, match=message):
            sweep_mu_configs((0.5,), "quadratic", batch_size=size)


def test_sweep_mu_configs_default_seeds_follow_the_start():
    # quadratic and rosenbrock start every seed at one point and take no
    # batches, so a second seed would repeat the first run
    for problem in ("quadratic", "rosenbrock"):
        assert [c.seeds for c in sweep_mu_configs(MU_GRID, problem)] == [(0,)] * 9
    given = sweep_mu_configs(MU_GRID, "quadratic", seeds=range(3))
    assert all(c.seeds == (0, 1, 2) for c in given)


def test_sweep_mu_configs_read_a_one_shot_seed_iterable_once():
    # every lineup row holds every seed, not only the first row
    configs = sweep_mu_configs([0.5], "blobs-logreg", seeds=(s for s in range(2)), epochs=2)
    assert len(configs) == 5
    assert all(c.seeds == (0, 1) for c in configs)


class _SeededRosenbrock(Rosenbrock2D):
    """Rosenbrock whose start moves with ``seed % period``."""

    def __init__(self, period):
        self.period = period

    def init_params(self, seed):
        return np.array(self.START) + seed % self.period


@pytest.mark.parametrize("period,seeds", [(10, DESK_SEEDS), (4, (0, 1, 2, 3))])
def test_sweep_mu_configs_default_seeds_keep_each_distinct_start(
    temporary_problem, period, seeds
):
    temporary_problem("seeded-start", lambda: ProblemSetup(_SeededRosenbrock(period)))
    assert all(c.seeds == seeds for c in sweep_mu_configs(MU_GRID, "seeded-start"))


def test_grid_and_files_order_rows_by_lineup_whatever_the_config_order(tmp_path):
    lineup = default_lineup()
    shuffled = [lineup[i] for i in (8, 2, 5, 0, 7, 3, 1, 6, 4)]
    configs = [_quad_config(epochs=1, optimizer=opt) for opt in shuffled]
    expected = [opt.label for opt in lineup]
    assert [label for label, _ in run_grid(configs)] == expected
    paths = []
    for i, config in enumerate(configs):
        paths.append(tmp_path / f"{i}.json")
        save_results(paths[-1], config, run_configs([config])[0])
    assert [label for label, _ in aggregate_result_files(paths)] == expected


# ---------------------------------------------------------------------------
# run_grid cells


def _table_ranks(cells, problem):
    rows = csv.DictReader(io.StringIO(emit_table(cells, "csv")))
    return [int(row[f"{problem}_rank"]) for row in rows]


def test_run_grid_nine_rows_ranks_are_permutation():
    configs = sweep_mu_configs(MU_GRID, "quadratic", seeds=(0,), epochs=3)
    cells = run_grid(configs)
    assert len(cells) == 9
    assert sorted(_table_ranks(cells, "quadratic")) == list(range(1, 10))


def test_run_grid_mean_matches_independent_average():
    config = _quad_config(epochs=4, seeds=(0, 1, 2))
    cells = run_grid([config])
    results = cells[("Adam", "quadratic")]
    expected = sum(r.final_metric for r in results) / len(results)
    (row,) = csv.DictReader(io.StringIO(emit_table(cells, "csv")))
    assert row["quadratic"] == f"{expected:.2f}"
    assert len(results) == 3


def test_run_grid_rejects_duplicate_algorithms():
    # `table` refuses the files of these two runs, so the grid refuses them too
    config = _quad_config(epochs=2)
    with pytest.raises(
        ValueError, match=r"config 1: seed 0 of Adam on quadratic repeats one from config 0"
    ):
        run_grid([config, config])


def test_run_grid_identical_behavior_ties_break_by_row_order():
    # AdamW with zero decay is bitwise Adam, so the two rows tie on the mean
    adam = _quad_config(epochs=3)
    adamw = _quad_config(
        epochs=3, optimizer=OptimizerConfig(algorithm=Algorithm.ADAMW)
    )
    cells = run_grid([adam, adamw])
    assert list(cells) == [("Adam", "quadratic"), ("AdamW", "quadratic")]
    adam_runs, adamw_runs = cells.values()
    assert [r.final_metric for r in adam_runs] == [r.final_metric for r in adamw_runs]
    assert _table_ranks(cells, "quadratic") == [1, 2]


def test_run_grid_merges_configs_differing_only_in_seeds_in_seed_order():
    cells = run_grid(
        [_quad_config(epochs=2, seeds=(3, 1)), _quad_config(epochs=2, seeds=(2, 0))]
    )
    assert list(cells) == [("Adam", "quadratic")]
    assert [r.seed for r in cells[("Adam", "quadratic")]] == [0, 1, 2, 3]


def test_run_grid_rejects_empty():
    with pytest.raises(ValueError):
        run_grid([])


def test_run_config_runs_all_seeds_in_order():
    results = run_configs([_quad_config(epochs=2, seeds=(2, 0, 1))])[0]
    assert [r.seed for r in results] == [2, 0, 1]


# ---------------------------------------------------------------------------
# persistence


def test_save_load_results_roundtrip(tmp_path):
    config = _blobs_config(epochs=2, seeds=(0, 1))
    results = run_configs([config])[0]
    path = tmp_path / "cell.json"
    save_results(path, config, results)
    loaded_config, loaded_results = load_results(path)
    assert loaded_config == config
    assert len(loaded_results) == 2
    for orig, loaded in zip(results, loaded_results):
        assert loaded.seed == orig.seed
        assert loaded.train_loss == orig.train_loss
        assert loaded.eval_metric == orig.eval_metric
        assert loaded.final_metric == orig.final_metric
        assert loaded.diverged == orig.diverged


def test_saved_results_are_versioned_json(tmp_path):
    config = _quad_config(epochs=1)
    path = tmp_path / "cell.json"
    save_results(path, config, run_configs([config])[0])
    payload = json.loads(path.read_text())
    assert payload["version"] == 1
    assert "config" in payload and "results" in payload


def test_load_results_missing_file_names_path(tmp_path):
    path = tmp_path / "absent.json"
    with pytest.raises(FileNotFoundError, match="absent.json"):
        load_results(path)


def test_load_results_rejects_bad_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="junk.json"):
        load_results(path)


def test_load_results_rejects_wrong_version(tmp_path):
    config = _quad_config(epochs=1)
    path = tmp_path / "cell.json"
    save_results(path, config, run_configs([config])[0])
    payload = json.loads(path.read_text())
    for version in (999, True, 1.0):
        payload["version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            load_results(path)


def test_load_results_rejects_missing_fields(tmp_path):
    path = tmp_path / "hollow.json"
    path.write_text(json.dumps({"version": 1}))
    with pytest.raises(ValueError, match="hollow.json"):
        load_results(path)


# what load_results' refusal of cell.json reads before the rule it breaks
_MALFORMED = r"cell.json: malformed results file \("


@pytest.mark.parametrize(
    "diverged, eval_metric, final_metric",
    [
        (True, [1.0], 1.0),
        (False, [1.0], None),
        (False, [1.0, 2.0], 1.0),
        (False, [], 1.0),
        (False, [math.inf], math.inf),
        (False, [1.0], "1.0"),
        (False, [1.0], True),
    ],
    ids=["diverged", "null", "not-last", "no-eval", "inf", "string", "bool"],
)
def test_load_results_refuses_inconsistent_final_metric(
    tmp_path, diverged, eval_metric, final_metric
):
    config = _quad_config(epochs=2, seeds=(0, 1))
    path = tmp_path / "cell.json"
    save_results(path, config, run_configs([config])[0])
    payload = json.loads(path.read_text())
    payload["results"][1].update(
        diverged=diverged, eval_metric=eval_metric, final_metric=final_metric
    )
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=_MALFORMED + r"seed 1: final_metric"):
        load_results(path)


_CONTRADICTIONS = {
    "cut-short": (
        lambda run: dict(
            train_loss=run["train_loss"][:1],
            eval_metric=run["eval_metric"][:1],
            final_metric=run["eval_metric"][0],
        ),
        r"hold 1 and 1 epochs, not 3",
    ),
    "unequal-lists": (lambda run: dict(train_loss=run["train_loss"][:2]), "hold 2 and 3"),
    "completed-with-epoch": (lambda run: dict(divergence_epoch=7), "7 of a completed run"),
    "diverged-without-epoch": (
        lambda run: dict(diverged=True, final_metric=None),
        r"None of a diverged run is not in \[0, 3\)",
    ),
    "diverged-past-end": (
        lambda run: dict(diverged=True, final_metric=None, divergence_epoch=3),
        "3 of a diverged run",
    ),
    "diverged-negative": (
        lambda run: dict(diverged=True, final_metric=None, divergence_epoch=-1),
        "-1 of a diverged run",
    ),
    "diverged-float-epoch": (
        lambda run: dict(diverged=True, final_metric=None, divergence_epoch=1.0),
        "1.0 of a diverged run",
    ),
    "diverged-bool-epoch": (
        lambda run: dict(diverged=True, final_metric=None, divergence_epoch=True),
        "True of a diverged run",
    ),
    "diverged-after-every-epoch": (
        lambda run: dict(diverged=True, final_metric=None, divergence_epoch=1),
        "hold 3 and 3 epochs, not 1",
    ),
    "inf-train-loss": (lambda run: dict(train_loss=[math.inf] * 3), "only finite numbers"),
    "nan-eval": (
        lambda run: dict(eval_metric=[math.nan] + run["eval_metric"][1:]),
        "only finite numbers",
    ),
    "string-train-loss": (lambda run: dict(train_loss=["1.0"] * 3), "only finite numbers"),
    "bool-train-loss": (lambda run: dict(train_loss=[True] * 3), "only finite numbers"),
    "string-elapsed": (lambda run: dict(elapsed_seconds="fast"), "elapsed_seconds 'fast' is not"),
    "negative-elapsed": (lambda run: dict(elapsed_seconds=-1.5), "elapsed_seconds -1.5 is not"),
    "nan-elapsed": (lambda run: dict(elapsed_seconds=math.nan), "elapsed_seconds nan is not"),
    # written as Infinity, which reads as inf, as 1e999 does
    "inf-elapsed": (lambda run: dict(elapsed_seconds=math.inf), "elapsed_seconds inf is not"),
    "bool-elapsed": (lambda run: dict(elapsed_seconds=True), "elapsed_seconds True is not"),
}


@pytest.mark.parametrize("diverged", [0, None, "false"])
def test_load_results_refuses_a_diverged_flag_that_is_no_bool(tmp_path, diverged):
    config = _quad_config(epochs=2, seeds=(0, 1))
    path = tmp_path / "cell.json"
    save_results(path, config, run_configs([config])[0])
    payload = json.loads(path.read_text())
    payload["results"][1]["diverged"] = diverged
    path.write_text(json.dumps(payload))
    refused = _MALFORMED + rf"seed 1: diverged {diverged!r} is not a bool"
    with pytest.raises(ValueError, match=refused):
        load_results(path)


@pytest.mark.parametrize("case", _CONTRADICTIONS)
def test_load_results_refuses_runs_that_contradict_the_config(tmp_path, case):
    edit, message = _CONTRADICTIONS[case]
    config = _quad_config(epochs=3, seeds=(0, 1))
    path = tmp_path / "cell.json"
    save_results(path, config, run_configs([config])[0])
    payload = json.loads(path.read_text())
    payload["results"][1].update(edit(payload["results"][1]))
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=_MALFORMED + rf"seed 1: .*{message}"):
        load_results(path)


def test_load_results_refuses_a_trillion_epochs_on_the_lists_at_once(tmp_path):
    # the config is checked at its milestones, not per claimed epoch
    config = _quad_config(epochs=2, schedule=((1, 0.5),))
    path = tmp_path / "cell.json"
    save_results(path, config, run_configs([config])[0])
    payload = json.loads(path.read_text())
    payload["config"]["epochs"] = 10**12
    path.write_text(json.dumps(payload))
    with _fails_after(2.0):
        with pytest.raises(ValueError, match=r"hold 2 and 2 epochs, not 1000000000000\)$"):
            load_results(path)


def test_aggregate_result_files_merges_seed_batches(tmp_path):
    config_a = _quad_config(epochs=2, seeds=(0,))
    config_b = _quad_config(epochs=2, seeds=(1,))
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    save_results(path_a, config_a, run_configs([config_a])[0])
    save_results(path_b, config_b, run_configs([config_b])[0])
    merged = aggregate_result_files([path_a, path_b])
    assert list(merged) == [("Adam", "quadratic")]
    assert [r.seed for r in merged[("Adam", "quadratic")]] == [0, 1]


def test_load_results_rejects_seeds_other_than_the_configs(tmp_path):
    config = _quad_config(epochs=1, seeds=(0, 1))
    path = tmp_path / "cell.json"
    save_results(path, config, run_configs([config])[0][:1])
    with pytest.raises(ValueError, match=_MALFORMED + r"result seeds \[0\] are not the config's"):
        load_results(path)
    save_results(path, dataclasses.replace(config, seeds=(0, 2)), run_configs([config])[0])
    with pytest.raises(ValueError, match=r"seeds \[0, 1\] are not the config's seeds \[0, 2\]"):
        load_results(path)


def test_run_grid_aggregates_equal_those_of_its_saved_files(tmp_path):
    # the split Adam cell comes in the grid's config order (seeds 3, 0, 1,
    # 5, 2, 4) and in the files' (0, 1, 3, 2, 4, 5); folding in seed order
    # makes every order give the grid's cells, whose means the table then
    # sums in that one order
    plan = BatchPlan(batch_size=32, shuffle_seed=12345)
    split_cell = dict(problem="blobs-mlp1", epochs=2)
    family = OptimizerConfig(algorithm=Algorithm.ADAFAMILY, mu=0.5)
    configs = [
        _blobs_config(seeds=(3, 0, 1), **split_cell),
        _quad_config(epochs=2, seeds=(2, 0, 1)),
        _blobs_config(seeds=(5, 2, 4), **split_cell),
        _blobs_config(optimizer=family, seeds=(1, 0), batch_plan=plan),
    ]
    cells = run_grid(configs)
    paths = []
    for i, (config, results) in enumerate(zip(configs, run_configs(configs))):
        paths.append(tmp_path / f"{i}.json")
        save_results(paths[-1], config, results)
    assert bitwise(aggregate_result_files(paths)) == bitwise(cells)
    assert bitwise(aggregate_result_files(paths[::-1])) == bitwise(cells)
    split = [paths[0], paths[2]]
    assert aggregate_result_files(split) == aggregate_result_files(split[::-1])
    for runs in cells.values():
        assert [r.seed for r in runs] == sorted(r.seed for r in runs)
    assert [r.seed for r in cells[("Adam", "blobs-mlp1")]] == [0, 1, 2, 3, 4, 5]


def test_aggregate_result_files_rejects_repeated_seed(tmp_path):
    config = _quad_config(epochs=2, seeds=(0, 1))
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    save_results(path_a, config, run_configs([config])[0])
    save_results(path_b, dataclasses.replace(config, seeds=(1,)), run_configs([config])[0][1:])
    with pytest.raises(ValueError, match="seed 1 of Adam on quadratic") as info:
        aggregate_result_files([path_a, path_b])
    assert "a.json" in str(info.value) and "b.json" in str(info.value)
    with pytest.raises(ValueError, match="seed 0"):
        aggregate_result_files([path_a, path_a])


def test_aggregate_result_files_rejects_configs_differing_beyond_seeds(tmp_path):
    short = _quad_config(epochs=2, seeds=(0,))
    long = _quad_config(epochs=50, seeds=(1,))
    path_a, path_b = tmp_path / "short.json", tmp_path / "long.json"
    save_results(path_a, short, run_configs([short])[0])
    save_results(path_b, long, run_configs([long])[0])
    with pytest.raises(ValueError, match="Adam on quadratic differs") as info:
        aggregate_result_files([path_a, path_b])
    assert "short.json" in str(info.value) and "long.json" in str(info.value)
    assert "in epochs" in str(info.value)


def test_save_results_writes_strict_json_only(tmp_path):
    config = _quad_config(epochs=1)
    bad = RunResult(seed=0, train_loss=[1.0], eval_metric=[math.inf], elapsed_seconds=0.0)
    path = tmp_path / "r.json"
    with pytest.raises(ValueError, match="JSON compliant"):
        save_results(path, config, [bad])
    assert list(tmp_path.iterdir()) == []


def test_save_results_leaves_no_temporary_file(tmp_path):
    config = _quad_config(epochs=2)
    path = tmp_path / "r.json"
    path.write_text("old")
    save_results(path, config, run_configs([config])[0])
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]
    assert load_results(path)[0] == config


def test_save_results_keeps_the_old_file_when_the_replace_fails(tmp_path, monkeypatch):
    # readers see the old file or the new one: a failed rename leaves the
    # old bytes and takes the written temporary file away
    config = _quad_config(epochs=2)
    results = run_configs([config])[0]
    path = tmp_path / "r.json"
    path.write_bytes(b"old")
    tried = []

    def refuse(src, dst):
        tried.append((src.name, src.exists()))
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        save_results(path, config, results)
    assert tried == [(f".r.json.{os.getpid()}.tmp", True)]
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


def test_aggregate_result_files_rejects_empty():
    with pytest.raises(ValueError):
        aggregate_result_files([])


def test_run_result_dict_roundtrip():
    result = RunResult(
        seed=4,
        train_loss=[1.0, 0.5],
        eval_metric=[10.0, 5.0],
        elapsed_seconds=0.25,
        divergence_epoch=None,
    )
    assert RunResult.from_dict(result.to_dict(), epochs=2) == result


# ---------------------------------------------------------------------------
# lockstep groups: stacked runs give the numbers each run gives alone


class _CliffMLP(MLP1):
    """MLP1 whose stacked rows turn non-finite once a parameter passes ``cliff``.

    Past the cliff the loss is NaN if ``nan_loss`` is set, and the gradient
    if ``nan_grad`` is.  Records the 0-based index of the first call with
    such a row.
    """

    def __init__(self, cliff, nan_loss, nan_grad):
        super().__init__(8, 3, hidden=4)
        self.cliff = cliff
        self.nan_loss = nan_loss
        self.nan_grad = nan_grad
        self.calls = 0
        self.first_cliff_call = None

    def loss_grad(self, params, batch=None):
        losses, grads = super().loss_grad(params, batch)
        past = np.abs(params).max(axis=1) > self.cliff
        if past.any() and self.first_cliff_call is None:
            self.first_cliff_call = self.calls
        self.calls += 1
        if self.nan_grad:
            grads[past] = np.nan
        if self.nan_loss:
            losses[past] = np.nan
        return losses, grads


def _blobs_cliff(register, name, nan_loss, nan_grad):
    base = build_problem("blobs-mlp1")
    register(
        name,
        lambda: ProblemSetup(
            problem=_CliffMLP(cliff=1.5, nan_loss=nan_loss, nan_grad=nan_grad),
            train=base.train,
            test=base.test,
        ),
    )


def test_run_configs_payloads_equal_runs_alone_for_every_problem_kind(temporary_problem):
    # (nan_loss, nan_grad) past the cliff; a NaN loss with a finite gradient
    # shows only in the epoch's mean training loss
    modes = {
        "cliff-nan-loss": (True, True),
        "cliff-nan-grad": (False, True),
        "cliff-nan-loss-only": (True, False),
    }
    names = tuple(modes)
    for name, (nan_loss, nan_grad) in modes.items():
        _blobs_cliff(temporary_problem, name, nan_loss=nan_loss, nan_grad=nan_grad)
    plan = BatchPlan(batch_size=32, shuffle_seed=99)
    fast = OptimizerConfig(algorithm=Algorithm.ADAM, alpha=0.05)
    belief = OptimizerConfig(algorithm=Algorithm.ADABELIEF)
    family = OptimizerConfig(algorithm=Algorithm.ADAFAMILY, mu=0.25)
    configs = [
        _quad_config(epochs=3, seeds=(1, 0)),
        _quad_config(epochs=2, optimizer=family, schedule=((1, 0.5),)),
        _quad_config(problem="rosenbrock", epochs=4, optimizer=belief, seeds=(0, 3)),
        _blobs_config(epochs=2, seeds=(0, 1, 2)),
        _blobs_config(epochs=3, optimizer=family, seeds=(2, 0), schedule=((1, 0.5),)),
        _blobs_config(problem="blobs-mlp1", epochs=2, seeds=(0, 1)),
        _blobs_config(problem="blobs-mlp1", epochs=2, batch_plan=plan, seeds=(4,)),
    ]
    for name in names:
        # the fast row crosses the cliff mid-epoch, its neighbours never do
        configs += [
            _blobs_config(problem=name, epochs=3, seeds=(0, 1)),
            _blobs_config(problem=name, epochs=3, optimizer=fast, seeds=(0, 1)),
            _blobs_config(problem=name, epochs=3, optimizer=family, seeds=(1,)),
        ]
    # same-label configs differ in epochs and plans here, which the
    # grid's cell rule refuses, so this runs them through run_configs
    raw, alone = {}, {}
    for config, results in zip(configs, run_configs(configs)):
        key = (config.optimizer.label, config.problem)
        raw.setdefault(key, []).extend(results)
        for seed in config.seeds:
            one = dataclasses.replace(config, seeds=(seed,))
            alone.setdefault(key, []).append(_only_run(one))
    assert bitwise(raw) == bitwise(alone)
    for name in names:
        fast_runs = raw[("Adam", name)][2:]
        assert all(r.diverged and r.divergence_epoch == 1 for r in fast_runs)
        assert all(len(r.train_loss) == 1 for r in fast_runs)
        assert not any(r.diverged for r in raw[("AdaFamily(0.25)", name)])
        problem = build_problem(name).problem
        # 15 steps per epoch: the first bad call is inside epoch 1, not at its start
        assert 15 < problem.first_cliff_call < 30


class _CountingMLP(MLP1):
    def __init__(self, hidden):
        super().__init__(8, 3, hidden=hidden)
        self.heights = []

    def loss_grad(self, params, batch=None):
        self.heights.append(len(params))
        return super().loss_grad(params, batch)


def _counting(register, name, hidden):
    base = build_problem("blobs-mlp1")
    register(
        name,
        lambda: ProblemSetup(problem=_CountingMLP(hidden), train=base.train, test=base.test),
    )
    return build_problem(name).problem


def test_runs_of_a_problem_share_one_loss_grad_call_per_step(temporary_problem):
    narrow = _counting(temporary_problem, "count-narrow", hidden=16)  # dim 195: 42 runs per stack
    wide = _counting(temporary_problem, "count-wide", hidden=600)  # dim 7,203: one run per stack
    lineup = sweep_mu_configs(MU_GRID, "count-narrow", seeds=range(5), epochs=2)
    results = run_configs(lineup)
    # 45 runs: a stack of 42 then one of 3, 15 steps per epoch each
    assert narrow.heights == [42] * 30 + [3] * 30
    elapsed = [r.elapsed_seconds for rs in results for r in rs]
    assert len(set(elapsed)) == 2
    run_configs(sweep_mu_configs((0.5,), "count-wide", seeds=range(2), epochs=1))
    assert wide.heights == [1] * 5 * 2 * 15


def test_an_integer_past_the_float_range_is_refused_by_its_field():
    with pytest.raises(ValueError) as refused:
        OptimizerConfig(algorithm=Algorithm.ADAM, alpha=10**400)
    assert str(refused.value) == "alpha is an integer past the float range"
    with pytest.raises(ValueError) as refused:
        _quad_config(schedule=[(2, 10**400)])
    assert str(refused.value) == "schedule factor at epoch 2 is an integer past the float range"


def test_run_configs_trains_one_group_per_protocol(temporary_problem):
    counting = _counting(temporary_problem, "count-protocols", hidden=16)
    family = OptimizerConfig(algorithm=Algorithm.ADAFAMILY, mu=0.25)
    three = _blobs_config(problem="count-protocols", epochs=3, seeds=(0, 1))
    configs = [
        _blobs_config(problem="count-protocols", epochs=2, seeds=(0,)),
        three,
        dataclasses.replace(three, schedule=((1, 0.5),), seeds=(0, 1, 2)),
        # another optimizer on the same protocol shares its group
        dataclasses.replace(three, optimizer=family, seeds=(2, 3)),
    ]
    results = run_configs(configs)
    # 15 steps per epoch: 1 row for 2 epochs, 2 + 2 rows for 3, 3 rows for 3
    assert counting.heights == [1] * 30 + [4] * 45 + [3] * 45
    alone = [
        [_only_run(dataclasses.replace(config, seeds=(seed,))) for seed in config.seeds]
        for config in configs
    ]
    assert bitwise(results) == bitwise(alone)


def test_a_sweep_steps_every_row_once_per_batch(temporary_problem, monkeypatch):
    _counting(temporary_problem, "count-steps", hidden=16)
    rows = _stepped_rows(monkeypatch)
    run_configs(sweep_mu_configs(MU_GRID, "count-steps", seeds=range(5), epochs=2))
    # 45 runs x 2 epochs x 15 batches, however the calls group the rows
    assert sum(rows) == 45 * 2 * 15


def test_run_grid_rejects_a_bad_grid_before_any_loss_grad_call(temporary_problem):
    counting = _counting(temporary_problem, "count-rule", hidden=16)
    base = _blobs_config(problem="count-rule", seeds=(0, 1))
    family = _blobs_config(optimizer=OptimizerConfig(algorithm=Algorithm.ADAFAMILY))
    repeat = dataclasses.replace(base, seeds=(2, 1))
    longer = dataclasses.replace(base, epochs=3, seeds=(2,))
    with pytest.raises(ValueError, match="config 2: seed 1 of Adam on count-rule "
                       "repeats one from config 0"):
        run_grid([base, family, repeat])
    with pytest.raises(ValueError, match="config 1: config of Adam on count-rule "
                       "differs from config 0 in epochs"):
        run_grid([base, longer])
    n = build_problem("count-rule").train.n
    whole = dataclasses.replace(family, problem="count-rule", batch_plan=BatchPlan(n, 1))
    too_big = dataclasses.replace(whole, batch_plan=BatchPlan(n + 1, 1))
    with pytest.raises(ValueError, match=f"batch_size {n + 1} exceeds the {n} training"):
        run_grid([base, too_big])
    assert counting.heights == []
    run_grid([whole])
    assert counting.heights == [1, 1]


# ---------------------------------------------------------------------------
# a power-of-two scale symmetry of harness, problem and step together

# the power of 2^k by which a row's eps scales with a 2^k-scaled gradient:
# eps in the denominator scales as sqrt(v), eps inside v as v itself
_EPS_POWER = {
    Algorithm.ADAM: 1,
    Algorithm.ADAMW: 1,
    Algorithm.ADAMOMENTUM: 2,
    Algorithm.ADAFAMILY: 2,
}


def _scaled(optimizer, k, eps_power):
    """``optimizer`` for a gradient scaled by 2^k: eps x 2^(k*eps_power), and
    Adam's coupled decay, which adds to the gradient, x 2^k."""
    decay = optimizer.weight_decay * (2.0**k if optimizer.algorithm is Algorithm.ADAM else 1.0)
    return dataclasses.replace(
        optimizer, epsilon=optimizer.epsilon * 2.0 ** (k * eps_power), weight_decay=decay
    )


@pytest.mark.parametrize("k", [-9, 12])
def test_a_2k_scaled_quadratic_trains_every_row_but_adabelief_to_2k_times_the_loss(
    temporary_problem, k
):
    # scaling by a power of two commutes with every correctly rounded
    # operation and with any summation order, so this holds on every host
    base = build_problem("quadratic").problem
    name = f"quadratic-scaled{k}"
    temporary_problem(
        name, lambda: ProblemSetup(Quadratic(base.matrix * 2.0**k, base.rhs * 2.0**k))
    )
    lineup = default_lineup(weight_decay=1e-4)
    protocol = dict(epochs=400, schedule=((100, 0.5),))
    plain = run_configs([RunConfig("quadratic", opt, **protocol) for opt in lineup])
    for opt, [run] in zip(lineup, plain):
        powers = [_EPS_POWER[opt.algorithm]] if opt.algorithm in _EPS_POWER else [1, 2]
        scaled = [RunConfig(name, _scaled(opt, k, p), **protocol) for p in powers]
        expected = bitwise([loss * 2.0**k for loss in run.train_loss])
        got = [bitwise(r.train_loss) for [r] in run_configs(scaled)]
        if opt.algorithm is Algorithm.ADABELIEF:
            # its eps sits both inside v and in the denominator
            assert expected not in got, opt.label
        else:
            assert got == [expected], opt.label


@pytest.mark.parametrize(
    "setting", ["NPY_DISABLE_CPU_FEATURES=X86_V4", "OPENBLAS_CORETYPE=Haswell"]
)
def test_a_2k_scaled_quadratic_trains_alike_under_emulated_kernels(setting):
    # the symmetry holds on any kernel, so it must hold on these too
    name, value = setting.split("=")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **{name: value})
    test = (
        "tests/test_harness.py::"
        "test_a_2k_scaled_quadratic_trains_every_row_but_adabelief_to_2k_times_the_loss"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
        cwd=root, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0 and "\n2 passed in " in proc.stdout, proc.stdout + proc.stderr
