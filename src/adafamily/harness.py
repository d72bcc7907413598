"""Config-driven experiment runner: algorithm grid x problems x seeds.

A run trains one optimizer configuration on one registered problem for a
fixed number of epochs under a step-decay schedule, evaluating a metric
each epoch.  Grids fold many runs into (label, problem) cells, each a
list of runs in seed order; :mod:`adafamily.tables` averages and ranks
them.  Everything is deterministic given the config: datasets, parameter
inits, and epoch shuffles all derive from integer seeds through
:mod:`adafamily.rng`, and a run seed only enters through `init_params`
and the per-run shuffle key.

Desk-scale defaults mirror a common image-classification protocol shape
at 1/5 size: 30 epochs, batch 32, learning rate halved after epochs 10
and 20, seeds 0..9, alpha 1e-3, beta1 0.9, beta2 0.999, eps 1e-8, weight
decay 1e-4 (coupled for Adam, decoupled elsewhere).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import rng
from .data import BatchPlan, Dataset, batches, gen_gaussian_blobs, split
from .optim import (
    Algorithm,
    NonFiniteGradientError,
    OptimizerConfig,
    init_state,
    step,
)
from .problems import LogisticRegression, MLP1, Problem, Rosenbrock2D, spd_quadratic

RESULTS_VERSION = 1
CONFIG_VERSION = 1

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


@dataclass(frozen=True)
class ProblemSetup:
    """A problem plus its train/test data: non-empty splits for a problem
    that takes batches, none for an analytic objective."""

    problem: Problem
    train: Dataset | None = None
    test: Dataset | None = None

    def __post_init__(self) -> None:
        splits = (self.train, self.test)
        if not self.problem.requires_batch and any(s is not None for s in splits):
            raise ValueError(f"{self.problem.kind} is analytic and takes no data")
        if self.problem.requires_batch and not all(s is not None and s.n for s in splits):
            raise ValueError(f"{self.problem.kind} needs non-empty train and test splits")


def _blobs_setup(spread: float, problem: Problem) -> ProblemSetup:
    """``problem`` on the frozen blobs drawn at ``spread``, split the frozen way."""
    blobs = gen_gaussian_blobs(BLOBS_DATA_SEED, BLOBS_N_PER_CLASS, BLOBS_DIM, BLOBS_CLASSES, spread)
    return ProblemSetup(problem, *split(blobs, BLOBS_SPLIT_FRACTION, seed=BLOBS_SPLIT_SEED))


_PROBLEM_BUILDERS: dict[str, Callable[[], ProblemSetup]] = {
    "quadratic": lambda: ProblemSetup(
        spd_quadratic(QUADRATIC_GEN_SEED, QUADRATIC_DIM, QUADRATIC_COND)
    ),
    "rosenbrock": lambda: ProblemSetup(Rosenbrock2D()),
    # tight clusters: a convex warm-up task every algorithm nails quickly
    "blobs-logreg": lambda: _blobs_setup(
        BLOBS_SPREAD, LogisticRegression(BLOBS_DIM, BLOBS_CLASSES)
    ),
    # wider clusters: nonzero irreducible error, so algorithm rows separate
    "blobs-mlp1": lambda: _blobs_setup(
        MLP_BLOBS_SPREAD, MLP1(BLOBS_DIM, BLOBS_CLASSES, hidden=MLP_HIDDEN)
    ),
}


def _check_problem_name(name) -> None:
    if type(name) is not str:
        raise ValueError(f"problem must be a string, got {name!r}")
    # the name is part of a results file name and a cell of the Markdown table
    if not name or any(ch in "/|" or ch < " " for ch in name):
        what = "holds '/', '|' or a control character" if name else "is empty"
        raise ValueError(f"problem {name!r} {what}")


def problem_names() -> list[str]:
    return list(_PROBLEM_BUILDERS)


def register_problem(name: str, builder: Callable[[], ProblemSetup]) -> None:
    """Add a problem to the registry (builders must be deterministic) under
    a name a `RunConfig` can hold."""
    _check_problem_name(name)
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


def _fields(section: str, d) -> dict:
    """A copy of a file section's keys, refused unless it is a JSON object.
    A section decodes through its dataclass, so an unknown key is refused."""
    if not isinstance(d, dict):
        raise TypeError(f"{section} must be a JSON object, got {d!r}")
    return dict(d)


@dataclass(frozen=True)
class RunConfig:
    """One cell of a grid: problem x optimizer x protocol."""

    problem: str
    optimizer: OptimizerConfig
    epochs: int
    batch_plan: BatchPlan | None = None
    schedule: tuple[tuple[int, float], ...] = ()
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        _check_problem_name(self.problem)
        if type(self.epochs) is not int or self.epochs < 1:
            raise ValueError(f"epochs must be an integer >= 1, got {self.epochs!r}")
        # tuples from here on, so a one-shot iterable is read once
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "schedule", tuple(tuple(pair) for pair in self.schedule))
        if not self.seeds:
            raise ValueError("need at least one seed")
        for s in self.seeds:
            if not rng.is_seed(s):
                raise ValueError(f"seeds must be integers in [0, 2**64), got {s!r}")
        seen = set()
        for s in self.seeds:
            if s in seen:
                raise ValueError(f"seed {s} repeats in seeds {list(self.seeds)}")
            seen.add(s)
        if any(type(m) is not int or type(f) not in (int, float) for m, f in self.schedule):
            raise ValueError(f"schedule takes [integer milestone, number factor]: {self.schedule}")
        milestones = [m for m, _ in self.schedule]
        if any(m2 <= m1 for m1, m2 in zip(milestones, milestones[1:])):
            raise ValueError(f"milestones must be strictly increasing: {milestones}")
        if any(m < 0 or m >= self.epochs for m in milestones):
            raise ValueError(f"milestones must lie in [0, epochs={self.epochs}): {milestones}")
        # the scale changes only at milestones, each in [0, epochs): the running
        # product there meets a bad factor, underflow or overflow first
        scale = 1.0
        for epoch, factor in self.schedule:
            scale *= factor
            if not 0.0 < scale < math.inf:
                raise ValueError(f"lr scale at epoch {epoch} must be finite and > 0, got {scale}")
        # the form its file writes: every factor a float
        object.__setattr__(self, "schedule", tuple((m, float(f)) for m, f in self.schedule))

    @property
    def metric(self) -> str:
        """What each epoch evaluates: 'top1_error', the percentage of wrong
        argmax predictions, for a dataset problem (one with a batch plan),
        else 'final_loss', the objective."""
        return "final_loss" if self.batch_plan is None else "top1_error"

    def to_dict(self) -> dict:
        plan = self.batch_plan
        return {
            **vars(self),
            "optimizer": self.optimizer.to_dict(),
            "batch_plan": None if plan is None else {**vars(plan), "drop_last": False},
            "schedule": [list(pair) for pair in self.schedule],
            "seeds": list(self.seeds),
            "metric": self.metric,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Inverse of to_dict: each key but a derived one is a field.  A
        stored metric (absent reads as 'final_loss') must be the derived one,
        and a stored drop_last must be false."""
        fields = _fields("a run config", d)
        stored = fields.pop("metric", "final_loss")
        fields["optimizer"] = OptimizerConfig.from_dict(_fields("optimizer", fields["optimizer"]))
        plan = fields.get("batch_plan")
        if plan is not None:
            plan = _fields("batch_plan", plan)
            drop_last = plan.pop("drop_last", False)
            if drop_last is not False:
                raise ValueError(
                    f"drop_last {drop_last!r} is not false; every epoch keeps "
                    "its short last batch"
                )
            fields["batch_plan"] = BatchPlan(**plan)
        config = cls(**fields)
        if stored != config.metric:
            given = f"metric {stored!r}" if "metric" in d else "no metric (read as 'final_loss')"
            raise ValueError(
                f"{given} does not fit a config {'without' if plan is None else 'with'} "
                f"a batch_plan, which evaluates {config.metric!r}"
            )
        return config


@dataclass
class RunResult:
    """Outcome of a single (config, seed) training run; its final_metric is
    its last eval_metric, or None when it has a divergence_epoch."""

    seed: int
    train_loss: list[float]
    eval_metric: list[float]
    elapsed_seconds: float
    divergence_epoch: int | None = None

    @property
    def diverged(self) -> bool:
        return self.divergence_epoch is not None

    @property
    def final_metric(self) -> float | None:
        return None if self.diverged else self.eval_metric[-1]

    def to_dict(self) -> dict:
        return {**vars(self), "final_metric": self.final_metric, "diverged": self.diverged}

    @classmethod
    def from_dict(cls, d: dict) -> "RunResult":
        """Inverse of to_dict, but for the derived diverged and final_metric,
        which `load_results` checks."""
        fields = _fields("a results entry", d)
        fields.pop("diverged", None)
        fields.pop("final_metric", None)
        return cls(**fields)


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


def _evaluate(setup: ProblemSetup, params: np.ndarray) -> np.ndarray:
    """The metric of every row of an (R, dim) parameter stack, in one call:
    top-1 error on the test split, or the loss of an analytic problem."""
    if not setup.problem.requires_batch:
        return setup.problem.loss_grad(params)[0]
    predicted = setup.problem.predict(params, setup.test.features)
    return 100.0 * np.mean(predicted != setup.test.labels, axis=-1)


def _check_runnable(config: RunConfig, setup: ProblemSetup) -> None:
    if setup.problem.requires_batch and config.batch_plan is None:
        raise ValueError(f"problem {config.problem} needs a batch_plan")
    if not setup.problem.requires_batch and config.batch_plan is not None:
        raise ValueError(f"problem {config.problem} is analytic and takes no batch_plan")
    if setup.problem.requires_batch and config.batch_plan.batch_size > setup.train.n:
        raise ValueError(
            f"batch_size {config.batch_plan.batch_size} exceeds the "
            f"{setup.train.n} training samples of problem {config.problem}"
        )


# runs share a stack while (runs x problem dim) stays within this many
# parameters: wide problems run alone and peak memory stays flat
_STACK_PARAMS = 8192


def _train_group(
    setup: ProblemSetup, members: Sequence[tuple[RunConfig, int]]
) -> list[RunResult]:
    """Train (config, seed) runs of one problem in lockstep.

    Every step evaluates the whole stack in one `loss_grad` call and then
    steps each run on its own row; every epoch evaluates the stack in one
    call.  Rows never mix, so each run's numbers equal a group of one.  A
    run diverges in the epoch where `step` refuses its gradient as
    non-finite, or where its mean training loss or its evaluation is
    non-finite (a non-finite loss shows in that mean).  Once per epoch,
    after the evaluation, diverged runs leave the stack, and so do runs
    that have completed their epochs.
    """
    start = time.perf_counter()
    problem = setup.problem
    configs = [config for config, _ in members]
    results = [RunResult(seed, [], [], 0.0) for _, seed in members]
    states = [init_state(problem.dim) for _ in members]
    scales = [lr_scale_sequence(config.schedule, config.epochs) for config in configs]
    # the run seed folds into the shuffle stream once, so two seeds of the
    # same config see different batch orders but each is reproducible
    plans = [
        None if (plan := config.batch_plan) is None
        else dataclasses.replace(plan, shuffle_seed=rng.derive_key(plan.shuffle_seed, seed))
        for config, seed in members
    ]
    # live[r] is the member on stack row r
    live = list(range(len(members)))
    params = np.stack([problem.init_params(seed) for _, seed in members])
    for epoch in range(max(config.epochs for config in configs)):
        epoch_batches = (
            batches(setup.train, [plans[i] for i in live], epoch)
            if problem.requires_batch
            else [None]
        )
        steppers = [
            (results[i], states[i], configs[i].optimizer, scales[i][epoch]) for i in live
        ]
        loss_rows = []
        for batch in epoch_batches:
            losses, grads = problem.loss_grad(params, batch)
            loss_rows.append(losses)
            for r, (result, state, optimizer, scale) in enumerate(steppers):
                if result.diverged:
                    continue
                # step scans the gradient and raises before touching any state
                try:
                    params[r] = step(state, params[r], grads[r], optimizer, lr_scale=scale)
                except NonFiniteGradientError:
                    result.divergence_epoch = epoch
        # one contiguous (runs, batches) row per run: np.mean sums each row
        # exactly as it would sum that run's losses on their own
        train_losses = np.mean(np.stack(loss_rows, axis=1), axis=1).tolist()
        values = _evaluate(setup, params).tolist()
        keep = []
        for r, (i, value, train_loss) in enumerate(zip(live, values, train_losses)):
            result = results[i]
            if result.diverged:
                continue
            if not (math.isfinite(value) and math.isfinite(train_loss)):
                result.divergence_epoch = epoch
                continue
            result.train_loss.append(train_loss)
            result.eval_metric.append(value)
            if len(result.train_loss) < configs[i].epochs:
                keep.append(r)
        if not keep:
            break
        live, params = [live[r] for r in keep], params[keep]

    elapsed = (time.perf_counter() - start) / len(members)
    for result in results:
        result.elapsed_seconds = elapsed
    return results


def run_configs(configs: Sequence[RunConfig]) -> list[list[RunResult]]:
    """Every seed of every config: one result list per config, in seed order.

    Runs that share a problem and batch size train together in
    lockstep groups (see `_train_group`), as many per group as fit in
    `_STACK_PARAMS` parameters.  Each result is deterministic given its
    (config, seed) except its elapsed time, which is the group's wall
    time divided by the number of runs in the group.
    """
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for i, config in enumerate(configs):
        _check_runnable(config, build_problem(config.problem))
        plan = config.batch_plan
        key = (config.problem, None if plan is None else plan.batch_size)
        groups.setdefault(key, []).extend((i, j) for j in range(len(config.seeds)))
    results: list[list[RunResult | None]] = [[None] * len(c.seeds) for c in configs]
    for (problem, _), members in groups.items():
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


_BASELINES = (Algorithm.ADAM, Algorithm.ADAMW, Algorithm.ADABELIEF, Algorithm.ADAMOMENTUM)


def default_lineup(
    weight_decay: float = DESK_WEIGHT_DECAY, mus: Sequence[float] = MU_GRID
) -> list[OptimizerConfig]:
    """The 9-row comparison: 4 baselines plus the blend at each mu."""
    baselines = [OptimizerConfig(algorithm=a, weight_decay=weight_decay) for a in _BASELINES]
    return baselines + [
        OptimizerConfig(algorithm=Algorithm.ADAFAMILY, mu=mu, weight_decay=weight_decay)
        for mu in mus
    ]


def sweep_mu_configs(
    mus: Sequence[float],
    problem: str,
    seeds: Iterable[int] | None = None,
    epochs: int = DESK_EPOCHS,
    batch_size: int | None = None,
) -> list[RunConfig]:
    """Grid configs for the default protocol on one problem.

    Without ``seeds``, a problem that takes batches runs `DESK_SEEDS`.  An
    analytic one depends on its seed only through `init_params`, so it runs
    the `DESK_SEEDS` whose start differs from every earlier seed's.
    A problem that takes batches runs ``batch_size`` rows per batch,
    `DESK_BATCH_SIZE` when it is None; an analytic one refuses any value.
    """
    setup = build_problem(problem)
    if batch_size is None:
        batch_size = DESK_BATCH_SIZE
    elif not setup.problem.requires_batch:
        raise ValueError(
            f"problem {problem} is analytic and takes no --batch-size, got {batch_size}"
        )
    if seeds is None and setup.problem.requires_batch:
        seeds = DESK_SEEDS
    elif seeds is None:
        starts: dict[bytes, int] = {}
        for seed in DESK_SEEDS:
            starts.setdefault(setup.problem.init_params(seed).tobytes(), seed)
        seeds = starts.values()
    seeds = tuple(seeds)
    plan = (
        BatchPlan(batch_size=batch_size, shuffle_seed=DESK_SHUFFLE_SEED)
        if setup.problem.requires_batch
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
            seeds=seeds,
        )
        for opt in default_lineup(mus=mus)
    ]


def _cell_key(config: RunConfig) -> tuple:
    """Lineup order: `_BASELINES` in turn, then AdaFamily by ascending mu;
    within a row, problems by name."""
    opt = config.optimizer
    row = (_BASELINES + (Algorithm.ADAFAMILY,)).index(opt.algorithm)
    return row, opt.mu, opt.label, config.problem


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


Cells = dict[tuple[str, str], list[RunResult]]


def _fold(configs: Sequence[RunConfig], results: Sequence[Sequence[RunResult]]) -> Cells:
    """Each (label, problem) cell's runs, cells in lineup order.

    Each cell's runs are sorted by seed, so neither a cell nor the cell
    order depends on the order of the configs or files.
    """
    cells: Cells = {}
    for config, runs in sorted(zip(configs, results), key=lambda pair: _cell_key(pair[0])):
        cells.setdefault((config.optimizer.label, config.problem), []).extend(runs)
    for runs in cells.values():
        runs.sort(key=lambda r: r.seed)
    return cells


def run_grid(configs: Sequence[RunConfig]) -> Cells:
    """Run every config and fold the runs into table cells (see `_fold`).

    The grid must obey the cell rule of `_check_cells`, checked before
    anything trains (`run_configs` runs any configs).
    """
    if not configs:
        raise ValueError("no configs to run")
    _check_cells(configs, [f"config {i}" for i in range(len(configs))])
    return _fold(configs, run_configs(configs))


def results_filename(config: RunConfig) -> str:
    """The name of a config's results file, e.g. 'quadratic--adafamily-0.5.json'."""
    slug = config.optimizer.label.lower().replace("(", "-").replace(")", "").replace(" ", "")
    return f"{config.problem}--{slug}.json"


def load_run_config_file(path: str | Path) -> RunConfig:
    """The run config in ``path``, refused (naming the path) unless runnable."""
    payload = _read_json_file(path, CONFIG_VERSION)
    try:
        _refuse_unknown_keys(payload, "run")
        config = RunConfig.from_dict(payload["run"])
        _check_runnable(config, build_problem(config.problem))
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed run config ({exc})") from None
    return config


def save_run_config_file(path: str | Path, config: RunConfig) -> None:
    """Write ``config`` as a versioned run-config file, as `save_results` writes."""
    _write_json_file(path, {"version": CONFIG_VERSION, "run": config.to_dict()})


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
    _write_json_file(path, payload)


def _write_json_file(path: str | Path, payload: dict) -> None:
    """Write strict JSON, sorted keys, indent 2, final newline, atomically."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    write_text_atomic(path, text + "\n")


def _read_json_file(path: str | Path, version: int) -> dict:
    """The JSON object in ``path``, whose "version" must be ``version``.

    A missing file raises FileNotFoundError; anything else that is not such
    an object (an OSError, bad UTF-8 or JSON, a key repeated in one object)
    raises ValueError naming the path.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
        payload = json.loads(text, object_pairs_hook=_without_repeats)
    except FileNotFoundError:
        raise FileNotFoundError(f"{path}: no such file") from None
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: cannot read JSON ({exc})") from None
    stored = payload.get("version") if isinstance(payload, dict) else None
    if type(stored) is not int or stored != version:
        raise ValueError(f"{path}: expected a JSON object with version {version}")
    return payload


def _without_repeats(pairs: list) -> dict:
    """A JSON object's pairs as a dict, refused when a key repeats (plain
    `json` would keep its last value)."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"key {key!r} repeats")
        out[key] = value
    return out


def _refuse_unknown_keys(payload: dict, *sections: str) -> None:
    """Refuse a file whose top level holds a key besides version and ``sections``."""
    unknown = sorted(set(payload) - {"version", *sections})
    if unknown:
        raise ValueError(f"unknown top-level key {unknown[0]!r}")


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` so that a crash never leaves it truncated.

    The text goes to a temporary file in the same directory, which then
    replaces ``path`` in one `os.replace`; readers see the old file or the
    new one, never a part.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_results(path: str | Path) -> tuple[RunConfig, list[RunResult]]:
    """Read a results file; its runs must be exactly its config's seeds.

    Each run must agree with itself and with the config's epochs, by the
    load rules of `docs/schemas.md`.
    """
    payload = _read_json_file(path, RESULTS_VERSION)
    try:
        _refuse_unknown_keys(payload, "config", "results")
        config = RunConfig.from_dict(payload["config"])
        results = [RunResult.from_dict(r) for r in payload["results"]]
        stored = [(r.get("diverged", False), r["final_metric"]) for r in payload["results"]]
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed results file ({exc})") from None
    for r, (diverged, final) in zip(results, stored):
        contradiction = _contradiction(r, diverged, final, config.epochs)
        if contradiction:
            raise ValueError(f"{path}: seed {r.seed!r}: {contradiction}")
    seeds = sorted(r.seed for r in results)
    if seeds != sorted(config.seeds):
        raise ValueError(
            f"{path}: result seeds {seeds} are not the config's seeds {list(config.seeds)}"
        )
    return config, results


def _is_finite_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _contradiction(r: RunResult, diverged, final, epochs: int) -> str | None:
    """How a loaded run, stored with ``diverged`` and ``final``, contradicts
    itself or its config's epochs, if it does."""
    if not rng.is_seed(r.seed):
        return "not an integer in [0, 2**64)"
    if not _is_finite_number(r.elapsed_seconds) or r.elapsed_seconds < 0:
        return f"elapsed_seconds {r.elapsed_seconds!r} is not a finite number >= 0"
    if type(r.train_loss) is not list or type(r.eval_metric) is not list:
        return "train_loss and eval_metric must be lists"
    stop = r.divergence_epoch
    if type(diverged) is not bool:
        return f"diverged {diverged!r} is not a bool"
    if diverged:
        if final is not None:
            return f"final_metric {final!r} is not null, the run diverged"
        if isinstance(stop, bool) or not isinstance(stop, int) or not 0 <= stop < epochs:
            return f"divergence_epoch {stop!r} of a diverged run is not in [0, {epochs})"
    else:
        if not _is_finite_number(final) or r.eval_metric[-1:] != [final]:
            return f"final_metric {final!r} is not its last eval_metric"
        if stop is not None:
            return f"divergence_epoch {stop!r} of a completed run is not null"
    recorded = stop if diverged else epochs
    if not len(r.train_loss) == len(r.eval_metric) == recorded:
        return (
            f"train_loss and eval_metric hold {len(r.train_loss)} and "
            f"{len(r.eval_metric)} epochs, not {recorded}"
        )
    if not all(map(_is_finite_number, r.train_loss + r.eval_metric)):
        return "train_loss and eval_metric must hold only finite numbers"
    return None


def aggregate_result_files(paths: Sequence[str | Path]) -> Cells:
    """Fold saved per-config results files into the cells `run_grid` gives.

    The files obey the cell rule of `run_grid` (see `_check_cells`), so a
    config run over two seed batches folds into a single cell; an error
    names both files.
    """
    if not paths:
        raise ValueError("no results files given")
    configs, results = zip(*(load_results(path) for path in paths))
    _check_cells(configs, [str(path) for path in paths])
    return _fold(configs, results)
