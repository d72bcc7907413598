"""Config-driven experiment runner: algorithm grid x problems x seeds.

A run trains one optimizer configuration on one registered problem for a
fixed number of epochs under a step-decay schedule, evaluating a metric
each epoch.  Grids aggregate many runs into per-algorithm rows with
per-problem means and ranks.  Everything is deterministic given the
config: datasets, parameter inits, and epoch shuffles all derive from
integer seeds through :mod:`adafamily.rng`, and a run seed only enters
through `init_params` and the per-run shuffle key.

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
    DecayMode,
    NonFiniteGradientError,
    OptimizerConfig,
    init_state,
    step,
)
from .problems import LogisticRegression, MLP1, Problem, Rosenbrock2D, spd_quadratic
from .tables import ordinal_ranks

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
        milestones = [m for m, _ in self.schedule]
        if any(m2 <= m1 for m1, m2 in zip(milestones, milestones[1:])):
            raise ValueError(f"milestones must be strictly increasing: {milestones}")
        if any(m < 0 or m >= self.epochs for m in milestones):
            raise ValueError(
                f"milestones must lie in [0, epochs={self.epochs}): {milestones}"
            )
        if any(f <= 0.0 for _, f in self.schedule):
            raise ValueError("schedule factors must be > 0")

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
    """One table row: an algorithm's mean metric and rank per problem."""

    label: str
    means: dict[str, float | None] = field(default_factory=dict)
    ranks: dict[str, int] = field(default_factory=dict)
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


def _evaluate(setup: ProblemSetup, params: np.ndarray, metric: Metric) -> float:
    if metric is Metric.TOP1_ERROR:
        data = setup.test if setup.test is not None and setup.test.n else setup.train
        predicted = setup.problem.predict(params, data.features)
        return 100.0 * float(np.mean(predicted != data.labels))
    if setup.has_data:
        data = setup.test if setup.test is not None and setup.test.n else setup.train
        return setup.problem.loss(
            params, Batch(features=data.features, labels=data.labels)
        )
    return setup.problem.loss(params)


def run_single(config: RunConfig, seed: int) -> RunResult:
    """Train one run; deterministic given (config, seed) except elapsed time."""
    setup = build_problem(config.problem)
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

    start = time.perf_counter()
    problem = setup.problem
    params = problem.init_params(seed)
    state = init_state(config.optimizer, problem.dim)

    # the run seed folds into the shuffle stream once, so two seeds of the
    # same config see different batch orders but each is reproducible
    plan = None
    if setup.has_data:
        plan = dataclasses.replace(
            config.batch_plan,
            shuffle_seed=rng.derive_key(config.batch_plan.shuffle_seed, seed),
        )

    scales = lr_scale_sequence(config.schedule, config.epochs)
    train_loss: list[float] = []
    eval_metric: list[float] = []
    diverged = False
    divergence_epoch: int | None = None

    for epoch, scale in enumerate(scales):
        losses: list[float] = []
        epoch_batches = (
            batches(setup.train, plan, epoch) if setup.has_data else [None]
        )
        for batch in epoch_batches:
            loss, grad = problem.loss_grad(params, batch)
            if not math.isfinite(loss):
                diverged = True
                break
            # step scans the gradient and raises before touching any state
            try:
                params = step(state, params, grad, config.optimizer, lr_scale=scale)
            except NonFiniteGradientError:
                diverged = True
                break
            losses.append(loss)
        if diverged:
            divergence_epoch = epoch
            break
        train_loss.append(float(np.mean(losses)))
        eval_metric.append(_evaluate(setup, params, config.metric))

    log.info(
        "run %s/%s seed=%d: lr scales %s, %s",
        config.problem,
        config.optimizer.label,
        seed,
        scales,
        "diverged at epoch %s" % divergence_epoch if diverged else "ok",
    )

    return RunResult(
        seed=seed,
        train_loss=train_loss,
        eval_metric=eval_metric,
        final_metric=None if diverged else eval_metric[-1],
        elapsed_seconds=time.perf_counter() - start,
        diverged=diverged,
        divergence_epoch=divergence_epoch,
    )


def run_config(config: RunConfig) -> list[RunResult]:
    """All seeds of one config, in seed order."""
    return [run_single(config, seed) for seed in config.seeds]


def default_lineup(
    alpha: float = 1e-3,
    weight_decay: float = DESK_WEIGHT_DECAY,
    mus: Sequence[float] = MU_GRID,
) -> list[OptimizerConfig]:
    """The 9-row comparison: 4 baselines plus the blend at each mu."""
    def mode(algorithm: Algorithm) -> DecayMode:
        if weight_decay == 0.0:
            return DecayMode.NONE
        return DecayMode.COUPLED if algorithm is Algorithm.ADAM else DecayMode.DECOUPLED

    rows = [
        OptimizerConfig(
            algorithm=a, alpha=alpha, weight_decay=weight_decay, decay_mode=mode(a)
        )
        for a in (
            Algorithm.ADAM,
            Algorithm.ADAMW,
            Algorithm.ADABELIEF,
            Algorithm.ADAMOMENTUM,
        )
    ]
    rows.extend(
        OptimizerConfig(
            algorithm=Algorithm.ADAFAMILY,
            mu=mu,
            alpha=alpha,
            weight_decay=weight_decay,
            decay_mode=mode(Algorithm.ADAFAMILY),
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


def _aggregate_cells(
    cells: dict[tuple[str, int, str], list[RunResult]], problems: Sequence[str]
) -> list[AggregateResult]:
    """Fold per-cell run lists into canonical, ranked table rows.

    Cell keys are (label, occurrence, problem); occurrence separates rows
    when the same algorithm appears twice in a grid, so duplicates show
    up as adjacent identical rows rather than being merged.
    """
    rows = sorted(
        {(label, occ) for label, occ, _ in cells},
        key=lambda pair: (canonical_row_key(pair[0]), pair[1]),
    )
    aggregates = [AggregateResult(label=label) for label, _ in rows]
    by_row = dict(zip(rows, aggregates))
    for (label, occ, problem), results in cells.items():
        agg = by_row[(label, occ)]
        good = [r.final_metric for r in results if not r.diverged]
        agg.means[problem] = float(np.mean(good)) if good else None
        agg.divergent[problem] = sum(r.diverged for r in results)
        agg.seeds_per_problem[problem] = len(results)
    for problem in problems:
        column = [by_row[row].means.get(problem) for row in rows]
        for row, rank in zip(rows, ordinal_ranks(column)):
            by_row[row].ranks[problem] = rank
    return aggregates


def run_grid(
    configs: Sequence[RunConfig], seeds: Sequence[int] | None = None
) -> tuple[list[AggregateResult], dict[tuple[str, str], list[RunResult]]]:
    """Run every config and aggregate into canonical table rows.

    Returns (aggregates, raw) where raw maps (label, problem) to the run
    results behind each cell (duplicate-label runs are concatenated
    there).  Means cover only non-divergent seeds; the per-cell exclusion
    count lands in `divergent`.
    """
    if not configs:
        raise ValueError("no configs to run")
    cells: dict[tuple[str, int, str], list[RunResult]] = {}
    raw: dict[tuple[str, str], list[RunResult]] = {}
    problems: list[str] = []
    seen: dict[tuple[str, str], int] = {}
    for config in configs:
        if seeds is not None:
            config = dataclasses.replace(config, seeds=tuple(seeds))
        label = config.optimizer.label
        occ = seen.get((label, config.problem), 0)
        seen[(label, config.problem)] = occ + 1
        results = run_config(config)
        cells[(label, occ, config.problem)] = results
        raw.setdefault((label, config.problem), []).extend(results)
        if config.problem not in problems:
            problems.append(config.problem)
    return _aggregate_cells(cells, problems), raw


def aggregates_to_dicts(aggregates: Sequence[AggregateResult]) -> list[dict]:
    return [
        {
            "label": a.label,
            "means": a.means,
            "ranks": a.ranks,
            "divergent": a.divergent,
            "seeds_per_problem": a.seeds_per_problem,
        }
        for a in aggregates
    ]


def save_results(path: str | Path, config: RunConfig, results: Sequence[RunResult]) -> None:
    """Write one config's runs as a versioned, self-describing JSON file."""
    payload = {
        "version": RESULTS_VERSION,
        "config": config.to_dict(),
        "results": [r.to_dict() for r in sorted(results, key=lambda r: r.seed)],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_results(path: str | Path) -> tuple[RunConfig, list[RunResult]]:
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
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed results file ({exc})") from None
    return config, results


def aggregate_result_files(paths: Sequence[str | Path]) -> list[AggregateResult]:
    """Aggregate saved per-config results files into table rows.

    Files sharing (label, problem) merge into one cell, so a config run
    over two seed batches aggregates into a single row.  A seed that
    appears twice in one cell is rejected, naming both files.
    """
    if not paths:
        raise ValueError("no results files given")
    cells: dict[tuple[str, int, str], list[RunResult]] = {}
    problems: list[str] = []
    origin: dict[tuple[str, str, int], str | Path] = {}
    for path in paths:
        config, results = load_results(path)
        label = config.optimizer.label
        for result in results:
            seed_key = (label, config.problem, result.seed)
            if seed_key in origin:
                raise ValueError(
                    f"{path}: seed {result.seed} of {label} on {config.problem} "
                    f"repeats one from {origin[seed_key]}"
                )
            origin[seed_key] = path
        key = (label, 0, config.problem)
        cells.setdefault(key, []).extend(results)
        if config.problem not in problems:
            problems.append(config.problem)
    return _aggregate_cells(cells, problems)
