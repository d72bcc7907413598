"""Config-driven experiment runner: algorithm grid x problems x seeds.

A run trains one optimizer configuration on one registered problem for a
fixed number of epochs under a step-decay schedule, evaluating a metric
each epoch.  Grids aggregate many runs into per-algorithm rows with
per-problem means; :mod:`adafamily.tables` ranks them.  Everything is
deterministic given the config: datasets, parameter inits, and epoch
shuffles all derive from integer seeds through :mod:`adafamily.rng`, and
a run seed only enters through `init_params` and the per-run shuffle key.

Desk-scale defaults mirror a common image-classification protocol shape
at 1/5 size: 30 epochs, batch 32, learning rate halved after epochs 10
and 20, seeds 0..9, alpha 1e-3, beta1 0.9, beta2 0.999, eps 1e-8, weight
decay 1e-4 (coupled for Adam, decoupled elsewhere).
"""

from __future__ import annotations

import dataclasses
import enum
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import rng
from .data import Batch, BatchPlan, Dataset, batches, gen_gaussian_blobs, split
from .optim import (
    Algorithm,
    NonFiniteGradientError,
    OptimizerConfig,
    OptimizerState,
    init_state,
    step,
)
from .problems import LogisticRegression, MLP1, Problem, Rosenbrock2D, spd_quadratic

log = logging.getLogger(__name__)

RESULTS_VERSION = 1

# frozen desk-scale protocol constants
DESK_EPOCHS = 30
DESK_BATCH_SIZE = 32
DESK_SCHEDULE = ((10, 0.5), (20, 0.5))
DESK_SEEDS = tuple(range(10))
DESK_SHUFFLE_SEED = 12345
DESK_WEIGHT_DECAY = 1e-4
MU_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

# frozen problem-instance constants
QUADRATIC_GEN_SEED = 1009
QUADRATIC_DIM = 10
QUADRATIC_COND = 100.0
BLOBS_DATA_SEED = 7919
BLOBS_N_PER_CLASS = 200
BLOBS_DIM = 8
BLOBS_CLASSES = 3
BLOBS_SPREAD = 0.2
MLP_BLOBS_SPREAD = 0.45
BLOBS_SPLIT_FRACTION = 0.2
BLOBS_SPLIT_SEED = 331
MLP_HIDDEN = 16


class Metric(enum.Enum):
    """What to evaluate each epoch.

    TOP1_ERROR is the percentage (0..100) of test examples whose argmax
    prediction is wrong; FINAL_LOSS is the raw objective value (test-set
    loss for dataset problems, the plain loss for analytic ones).
    """

    TOP1_ERROR = "top1_error"
    FINAL_LOSS = "final_loss"


@dataclass(frozen=True)
class ProblemSetup:
    """A problem plus its train/test data (None for analytic objectives)."""

    problem: Problem
    train: Dataset | None = None
    test: Dataset | None = None

    @property
    def has_data(self) -> bool:
        return self.train is not None


def _build_quadratic() -> ProblemSetup:
    return ProblemSetup(
        problem=spd_quadratic(QUADRATIC_GEN_SEED, QUADRATIC_DIM, QUADRATIC_COND)
    )


def _build_rosenbrock() -> ProblemSetup:
    return ProblemSetup(problem=Rosenbrock2D())


def _blobs_splits(spread: float) -> tuple[Dataset, Dataset]:
    ds = gen_gaussian_blobs(
        BLOBS_DATA_SEED, BLOBS_N_PER_CLASS, BLOBS_DIM, BLOBS_CLASSES, spread
    )
    return split(ds, BLOBS_SPLIT_FRACTION, seed=BLOBS_SPLIT_SEED)


def _build_blobs_logreg() -> ProblemSetup:
    # tight clusters: a convex warm-up task every algorithm nails quickly
    train, test = _blobs_splits(BLOBS_SPREAD)
    return ProblemSetup(
        problem=LogisticRegression(BLOBS_DIM, BLOBS_CLASSES), train=train, test=test
    )


def _build_blobs_mlp1() -> ProblemSetup:
    # wider clusters: nonzero irreducible error, so algorithm rows separate
    train, test = _blobs_splits(MLP_BLOBS_SPREAD)
    return ProblemSetup(
        problem=MLP1(BLOBS_DIM, BLOBS_CLASSES, hidden=MLP_HIDDEN), train=train, test=test
    )


_PROBLEM_BUILDERS: dict[str, Callable[[], ProblemSetup]] = {
    "quadratic": _build_quadratic,
    "rosenbrock": _build_rosenbrock,
    "blobs-logreg": _build_blobs_logreg,
    "blobs-mlp1": _build_blobs_mlp1,
}


def problem_names() -> list[str]:
    return list(_PROBLEM_BUILDERS)


def register_problem(name: str, builder: Callable[[], ProblemSetup]) -> None:
    """Add a problem to the registry (builders must be deterministic)."""
    if name in _PROBLEM_BUILDERS:
        raise ValueError(f"problem {name!r} already registered")
    _PROBLEM_BUILDERS[name] = builder


@lru_cache(maxsize=None)
def build_problem(name: str) -> ProblemSetup:
    """Build (and cache) the named problem setup."""
    try:
        builder = _PROBLEM_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(_PROBLEM_BUILDERS))
        raise ValueError(f"unknown problem {name!r}; known: {known}") from None
    return builder()


@dataclass(frozen=True)
class RunConfig:
    """One cell of a grid: problem x optimizer x protocol."""

    problem: str
    optimizer: OptimizerConfig
    epochs: int
    batch_plan: BatchPlan | None = None
    schedule: tuple[tuple[int, float], ...] = ()
    seeds: tuple[int, ...] = (0,)
    metric: Metric = Metric.FINAL_LOSS

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        repeated = [s for i, s in enumerate(self.seeds) if s in self.seeds[:i]]
        if repeated:
            raise ValueError(f"seed {repeated[0]} repeats in seeds {list(self.seeds)}")
        milestones = [m for m, _ in self.schedule]
        if any(m2 <= m1 for m1, m2 in zip(milestones, milestones[1:])):
            raise ValueError(f"milestones must be strictly increasing: {milestones}")
        if any(m < 0 or m >= self.epochs for m in milestones):
            raise ValueError(
                f"milestones must lie in [0, epochs={self.epochs}): {milestones}"
            )
        # every factor's milestone lies in [0, epochs), so a bad factor shows
        # in the sequence, as does a product that underflows or overflows
        for epoch, scale in enumerate(lr_scale_sequence(self.schedule, self.epochs)):
            if not 0.0 < scale < math.inf:
                raise ValueError(
                    f"lr scale at epoch {epoch} must be finite and > 0, got {scale}"
                )

    def to_dict(self) -> dict:
        return {
            "problem": self.problem,
            "optimizer": self.optimizer.to_dict(),
            "epochs": self.epochs,
            "batch_plan": None
            if self.batch_plan is None
            else {
                "batch_size": self.batch_plan.batch_size,
                "shuffle_seed": self.batch_plan.shuffle_seed,
                "drop_last": self.batch_plan.drop_last,
            },
            "schedule": [list(pair) for pair in self.schedule],
            "seeds": list(self.seeds),
            "metric": self.metric.value,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        plan = d.get("batch_plan")
        return cls(
            problem=d["problem"],
            optimizer=OptimizerConfig.from_dict(d["optimizer"]),
            epochs=d["epochs"],
            batch_plan=None
            if plan is None
            else BatchPlan(
                batch_size=plan["batch_size"],
                shuffle_seed=plan["shuffle_seed"],
                drop_last=plan.get("drop_last", False),
            ),
            schedule=tuple((int(m), float(f)) for m, f in d.get("schedule", [])),
            seeds=tuple(d.get("seeds", [0])),
            metric=Metric(d.get("metric", "final_loss")),
        )


@dataclass
class RunResult:
    """Outcome of a single (config, seed) training run."""

    seed: int
    train_loss: list[float]
    eval_metric: list[float]
    final_metric: float | None
    elapsed_seconds: float
    diverged: bool = False
    divergence_epoch: int | None = None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "train_loss": self.train_loss,
            "eval_metric": self.eval_metric,
            "final_metric": self.final_metric,
            "elapsed_seconds": self.elapsed_seconds,
            "diverged": self.diverged,
            "divergence_epoch": self.divergence_epoch,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunResult":
        return cls(
            seed=d["seed"],
            train_loss=list(d["train_loss"]),
            eval_metric=list(d["eval_metric"]),
            final_metric=d["final_metric"],
            elapsed_seconds=d["elapsed_seconds"],
            diverged=d.get("diverged", False),
            divergence_epoch=d.get("divergence_epoch"),
        )


@dataclass
class AggregateResult:
    """One table row: an algorithm's mean metric per problem."""

    label: str
    means: dict[str, float | None] = field(default_factory=dict)
    divergent: dict[str, int] = field(default_factory=dict)
    seeds_per_problem: dict[str, int] = field(default_factory=dict)


def lr_scale_sequence(
    schedule: Sequence[tuple[int, float]], epochs: int
) -> list[float]:
    """The realized scale per epoch, multiplying factors as milestones pass."""
    out = []
    scale = 1.0
    due = sorted(schedule)
    for epoch in range(epochs):
        while due and due[0][0] <= epoch:
            scale *= due.pop(0)[1]
        out.append(scale)
    return out


def _evaluate(setup: ProblemSetup, params: np.ndarray, metric: Metric) -> np.ndarray:
    """The metric of every row of an (R, dim) parameter stack, in one call."""
    data = setup.test if setup.test is not None and setup.test.n else setup.train
    if metric is Metric.TOP1_ERROR:
        predicted = setup.problem.predict(params, data.features)
        return 100.0 * np.mean(predicted != data.labels, axis=-1)
    if setup.has_data:
        return setup.problem.loss(
            params, Batch(features=data.features, labels=data.labels)
        )
    return setup.problem.loss(params)


def _check_runnable(config: RunConfig, setup: ProblemSetup) -> None:
    if config.metric is Metric.TOP1_ERROR and not setup.has_data:
        raise ValueError(
            f"metric {config.metric.value} needs a dataset problem, "
            f"{config.problem} is analytic"
        )
    if setup.has_data and config.batch_plan is None:
        raise ValueError(f"problem {config.problem} needs a batch_plan")
    if not setup.has_data and config.batch_plan is not None:
        raise ValueError(
            f"problem {config.problem} is analytic and takes no batch_plan"
        )


# runs share a stack while (runs x problem dim) stays within this many
# parameters: wide problems run alone and peak memory stays flat
_STACK_PARAMS = 8192


@dataclass
class _Run:
    """The training state of one (config, seed) run inside a group."""

    config: RunConfig
    seed: int
    state: OptimizerState
    scales: list[float]
    plan: BatchPlan | None
    train_loss: list[float] = field(default_factory=list)
    eval_metric: list[float] = field(default_factory=list)
    divergence_epoch: int | None = None

    @property
    def diverged(self) -> bool:
        return self.divergence_epoch is not None

    def result(self, elapsed_seconds: float) -> RunResult:
        return RunResult(
            seed=self.seed,
            train_loss=self.train_loss,
            eval_metric=self.eval_metric,
            final_metric=None if self.diverged else self.eval_metric[-1],
            elapsed_seconds=elapsed_seconds,
            diverged=self.diverged,
            divergence_epoch=self.divergence_epoch,
        )


def _start_run(config: RunConfig, seed: int, dim: int) -> _Run:
    # the run seed folds into the shuffle stream once, so two seeds of the
    # same config see different batch orders but each is reproducible
    plan = None
    if config.batch_plan is not None:
        plan = dataclasses.replace(
            config.batch_plan,
            shuffle_seed=rng.derive_key(config.batch_plan.shuffle_seed, seed),
        )
    return _Run(
        config=config,
        seed=seed,
        state=init_state(config.optimizer, dim),
        scales=lr_scale_sequence(config.schedule, config.epochs),
        plan=plan,
    )


def _train_group(
    setup: ProblemSetup, members: Sequence[tuple[RunConfig, int]]
) -> list[RunResult]:
    """Train (config, seed) runs of one problem and metric in lockstep.

    Every step evaluates the whole stack in one `loss_grad` call and then
    steps each run on its own row; every epoch evaluates the stack in one
    call.  Rows never mix, so each run's numbers equal a group of one.  A
    run whose loss or gradient turns non-finite is marked divergent and
    leaves the stack at the end of that epoch, and so does a run whose
    evaluation or mean training loss for the epoch is non-finite; a run
    that completes its epochs leaves after its last evaluation.
    """
    start = time.perf_counter()
    problem = setup.problem
    metric = members[0][0].metric
    runs = [_start_run(config, seed, problem.dim) for config, seed in members]
    stack = runs
    params = np.stack([problem.init_params(seed) for _, seed in members])
    for epoch in range(max(config.epochs for config, _ in members)):
        epoch_batches = (
            batches(setup.train, [run.plan for run in stack], epoch)
            if setup.has_data
            else [None]
        )
        steppers = [
            (run, run.state, run.config.optimizer, run.scales[epoch]) for run in stack
        ]
        loss_rows = []
        for batch in epoch_batches:
            losses, grads = problem.loss_grad(params, batch)
            loss_rows.append(losses)
            for r, ((run, state, optimizer, scale), loss) in enumerate(
                zip(steppers, losses.tolist())
            ):
                if run.diverged:
                    continue
                if not math.isfinite(loss):
                    run.divergence_epoch = epoch
                    continue
                # step scans the gradient and raises before touching any state
                try:
                    params[r] = step(state, params[r], grads[r], optimizer, lr_scale=scale)
                except NonFiniteGradientError:
                    run.divergence_epoch = epoch
        # one contiguous (runs, batches) row per run: np.mean sums each row
        # exactly as it would sum that run's losses on their own
        stack, params, epoch_losses = _leave(
            stack, lambda run: not run.diverged, params, np.stack(loss_rows, axis=1)
        )
        if not stack:
            break
        train_losses = np.mean(epoch_losses, axis=1).tolist()
        values = _evaluate(setup, params, metric).tolist()
        for run, value, train_loss in zip(stack, values, train_losses):
            if not (math.isfinite(value) and math.isfinite(train_loss)):
                run.divergence_epoch = epoch
                continue
            run.train_loss.append(train_loss)
            run.eval_metric.append(value)
        stack, params = _leave(
            stack, lambda r: not r.diverged and len(r.train_loss) < r.config.epochs, params
        )
        if not stack:
            break

    elapsed = (time.perf_counter() - start) / len(runs)
    for run in runs:
        log.info(
            "run %s/%s seed=%d: lr scales %s, %s",
            run.config.problem,
            run.config.optimizer.label,
            run.seed,
            run.scales,
            "diverged at epoch %s" % run.divergence_epoch if run.diverged else "ok",
        )
    return [run.result(elapsed) for run in runs]


def _leave(stack: list[_Run], stays: Callable[[_Run], bool], *rows: np.ndarray):
    """The runs that stay in the stack, then their rows of each array."""
    keep = [r for r, run in enumerate(stack) if stays(run)]
    if len(keep) == len(stack):
        return (stack, *rows)
    return ([stack[r] for r in keep], *(a[keep] for a in rows))


def run_configs(configs: Sequence[RunConfig]) -> list[list[RunResult]]:
    """Every seed of every config: one result list per config, in seed order.

    Runs that share a problem, metric and batch shape train together in
    lockstep groups (see `_train_group`), as many per group as fit in
    `_STACK_PARAMS` parameters.  Each result is deterministic given its
    (config, seed) except its elapsed time, which is the group's wall
    time divided by the number of runs in the group.
    """
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for i, config in enumerate(configs):
        _check_runnable(config, build_problem(config.problem))
        plan = config.batch_plan
        key = (
            config.problem,
            config.metric,
            None if plan is None else (plan.batch_size, plan.drop_last),
        )
        groups.setdefault(key, []).extend((i, j) for j in range(len(config.seeds)))
    results: list[list[RunResult | None]] = [[None] * len(c.seeds) for c in configs]
    for (problem, _, _), members in groups.items():
        setup = build_problem(problem)
        # seed-major order, so a group's runs share few shuffle permutations
        members.sort(key=lambda ij: configs[ij[0]].seeds[ij[1]])
        size = max(1, _STACK_PARAMS // setup.problem.dim)
        for start in range(0, len(members), size):
            chunk = members[start : start + size]
            group = [(configs[i], configs[i].seeds[j]) for i, j in chunk]
            for (i, j), result in zip(chunk, _train_group(setup, group)):
                results[i][j] = result
    return results


def default_lineup(
    alpha: float = 1e-3,
    weight_decay: float = DESK_WEIGHT_DECAY,
    mus: Sequence[float] = MU_GRID,
) -> list[OptimizerConfig]:
    """The 9-row comparison: 4 baselines plus the blend at each mu."""
    rows = [
        OptimizerConfig(algorithm=a, alpha=alpha, weight_decay=weight_decay)
        for a in (
            Algorithm.ADAM,
            Algorithm.ADAMW,
            Algorithm.ADABELIEF,
            Algorithm.ADAMOMENTUM,
        )
    ]
    rows.extend(
        OptimizerConfig(
            algorithm=Algorithm.ADAFAMILY, mu=mu, alpha=alpha, weight_decay=weight_decay
        )
        for mu in mus
    )
    return rows


def default_metric_for(problem: str) -> Metric:
    return Metric.TOP1_ERROR if build_problem(problem).has_data else Metric.FINAL_LOSS


def sweep_mu_configs(
    mus: Sequence[float],
    problem: str,
    seeds: Sequence[int] = DESK_SEEDS,
    epochs: int = DESK_EPOCHS,
    batch_size: int = DESK_BATCH_SIZE,
) -> list[RunConfig]:
    """Grid configs for the default protocol on one problem."""
    setup = build_problem(problem)
    plan = (
        BatchPlan(batch_size=batch_size, shuffle_seed=DESK_SHUFFLE_SEED)
        if setup.has_data
        else None
    )
    # short runs keep only the milestones they actually reach
    schedule = tuple((m, f) for m, f in DESK_SCHEDULE if m < epochs)
    return [
        RunConfig(
            problem=problem,
            optimizer=opt,
            epochs=epochs,
            batch_plan=plan,
            schedule=schedule,
            seeds=tuple(seeds),
            metric=default_metric_for(problem),
        )
        for opt in default_lineup(mus=mus)
    ]


def canonical_row_key(label: str) -> tuple:
    """Sort key giving the fixed lineup order: baselines, then mu ascending."""
    baseline_order = {"Adam": 0, "AdamW": 1, "AdaBelief": 2, "AdaMomentum": 3}
    if label in baseline_order:
        return (0, baseline_order[label], 0.0, label)
    if label.startswith("AdaFamily(") and label.endswith(")"):
        try:
            return (1, 0, float(label[10:-1]), label)
        except ValueError:
            pass
    return (2, 0, 0.0, label)


def _check_cells(configs: Sequence[RunConfig], sources: Sequence[str]) -> None:
    """The cell rule: configs of one (label, problem) cell may differ only
    in `seeds`, and no seed repeats within a cell.

    A violation raises ValueError naming both configs by their ``sources``.
    """
    first: dict[tuple[str, str], tuple[dict, str]] = {}
    origin: dict[tuple[str, str, int], str] = {}
    for config, source in zip(configs, sources):
        label, problem = config.optimizer.label, config.problem
        protocol = {k: v for k, v in config.to_dict().items() if k != "seeds"}
        cell_protocol, cell_source = first.setdefault((label, problem), (protocol, source))
        if protocol != cell_protocol:
            fields = sorted(k for k in protocol if protocol[k] != cell_protocol[k])
            raise ValueError(
                f"{source}: config of {label} on {problem} differs from "
                f"{cell_source} in {', '.join(fields)}"
            )
        for seed in config.seeds:
            if (label, problem, seed) in origin:
                raise ValueError(
                    f"{source}: seed {seed} of {label} on {problem} "
                    f"repeats one from {origin[label, problem, seed]}"
                )
            origin[label, problem, seed] = source


def _fold(
    configs: Sequence[RunConfig], results: Sequence[Sequence[RunResult]]
) -> tuple[list[AggregateResult], dict[tuple[str, str], list[RunResult]]]:
    """Table rows in `canonical_row_key` order, and each cell's runs.

    Each (label, problem) cell's runs are sorted by seed before they are
    averaged, so no mean depends on the order of the configs or files.
    """
    cells: dict[tuple[str, str], list[RunResult]] = {}
    for config, runs in zip(configs, results):
        cells.setdefault((config.optimizer.label, config.problem), []).extend(runs)
    rows: dict[str, AggregateResult] = {}
    for label, problem in sorted(cells, key=lambda c: (canonical_row_key(c[0]), c[1])):
        runs = cells[label, problem] = sorted(cells[label, problem], key=lambda r: r.seed)
        good = [r.final_metric for r in runs if not r.diverged]
        agg = rows.setdefault(label, AggregateResult(label=label))
        agg.means[problem] = float(np.mean(good)) if good else None
        agg.divergent[problem] = sum(r.diverged for r in runs)
        agg.seeds_per_problem[problem] = len(runs)
    return list(rows.values()), cells


def run_grid(
    configs: Sequence[RunConfig], seeds: Sequence[int] | None = None
) -> tuple[list[AggregateResult], dict[tuple[str, str], list[RunResult]]]:
    """Run every config and aggregate into canonical table rows.

    The grid must obey the cell rule of `_check_cells`, checked before
    anything trains (`run_configs` runs any configs).  Returns (aggregates,
    raw) where raw maps (label, problem) to the cell's runs in seed order.
    Means cover only non-divergent seeds; the per-cell exclusion count
    lands in `divergent`.
    """
    if not configs:
        raise ValueError("no configs to run")
    if seeds is not None:
        configs = [dataclasses.replace(c, seeds=tuple(seeds)) for c in configs]
    _check_cells(configs, [f"config {i}" for i in range(len(configs))])
    return _fold(configs, run_configs(configs))


def save_results(path: str | Path, config: RunConfig, results: Sequence[RunResult]) -> None:
    """Write one config's runs as a versioned, self-describing JSON file.

    The JSON is strict: a non-finite number raises ValueError and nothing
    is written.
    """
    payload = {
        "version": RESULTS_VERSION,
        "config": config.to_dict(),
        "results": [r.to_dict() for r in sorted(results, key=lambda r: r.seed)],
    }
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    write_text_atomic(path, text + "\n")


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` so that a crash never leaves it truncated.

    The text goes to a temporary file in the same directory, which then
    replaces ``path`` in one `os.replace`; readers see the old file or the
    new one, never a part.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_results(path: str | Path) -> tuple[RunConfig, list[RunResult]]:
    """Read a results file; its runs must be exactly its config's seeds.

    Each run's `final_metric` must be null when it diverged, else its last
    `eval_metric` entry, a finite number.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"results file not found: {path}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict) or "version" not in payload:
        raise ValueError(f"{path}: missing version field")
    if payload["version"] != RESULTS_VERSION:
        raise ValueError(
            f"{path}: results version {payload['version']} unsupported "
            f"(expected {RESULTS_VERSION})"
        )
    try:
        config = RunConfig.from_dict(payload["config"])
        results = [RunResult.from_dict(r) for r in payload["results"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed results file ({exc})") from None
    seeds = sorted(r.seed for r in results)
    if seeds != sorted(config.seeds):
        raise ValueError(
            f"{path}: result seeds {seeds} are not the config's seeds {list(config.seeds)}"
        )
    for r in results:
        final = r.final_metric
        if r.diverged:
            consistent = final is None
        else:
            consistent = (
                isinstance(final, (int, float))
                and not isinstance(final, bool)
                and math.isfinite(final)
                and r.eval_metric[-1:] == [final]
            )
        if not consistent:
            expected = "null, the run diverged" if r.diverged else "its last eval_metric"
            raise ValueError(f"{path}: seed {r.seed}: final_metric {final!r} is not {expected}")
    return config, results


def aggregate_result_files(paths: Sequence[str | Path]) -> list[AggregateResult]:
    """Aggregate saved per-config results files into table rows.

    The files obey the cell rule of `run_grid` (see `_check_cells`), so a
    config run over two seed batches aggregates into a single row; an
    error names both files.
    """
    if not paths:
        raise ValueError("no results files given")
    configs, results = zip(*(load_results(path) for path in paths))
    _check_cells(configs, [str(path) for path in paths])
    return _fold(configs, results)[0]
