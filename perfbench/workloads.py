"""The benchmark's workloads and the problems they build from a seed.

Every workload is one `adafamily sweep-mu` pass over the 9-row lineup
(four baselines plus AdaFamily at five mus).  The workload seed picks the
problem instance: the blob data seed and split seed.  Seed 0 is the
default and gives the frozen constants of the package's registered
problems, so at seed 0 a workload whose base problem is registered runs
that registered problem.

This module imports adafamily only inside functions: the parent process
reads the workload table without importing the package.
"""

from __future__ import annotations

from dataclasses import dataclass

MUS = "0,0.25,0.5,0.75,1"
ROWS = 9  # four baselines plus one AdaFamily row per mu
BATCH_SIZE = 32

# the frozen instance constants of the registered problems
BLOBS_DATA_SEED = 7919
BLOBS_N_PER_CLASS = 200
BLOBS_DIM = 8
BLOBS_CLASSES = 3
MLP_BLOBS_SPREAD = 0.45
BLOBS_SPLIT_FRACTION = 0.2
BLOBS_SPLIT_SEED = 331


@dataclass(frozen=True)
class Workload:
    name: str
    base_problem: str  # problem name at seed 0; other seeds append -s<seed>
    frozen_problem: str  # registered problem whose inputs seed 0 reproduces
    seeds: int
    epochs: int
    hidden: int  # MLP hidden width

    def problem_name(self, seed: int) -> str:
        return self.base_problem if seed == 0 else f"{self.base_problem}-s{seed}"

    def sweep_argv(self, seed: int, out_dir: str) -> list[str]:
        return [
            "sweep-mu",
            "--mus", MUS,
            "--problem", self.problem_name(seed),
            "--seeds", str(self.seeds),
            "--epochs", str(self.epochs),
            "--batch-size", str(BATCH_SIZE),
            "--out", out_dir,
        ]


# README.md in this directory gives the reason for each workload
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="protocol-mlp1",
            base_problem="blobs-mlp1",
            frozen_problem="blobs-mlp1",
            seeds=10,
            epochs=30,
            hidden=16,
        ),
        Workload(
            name="wide-mlp",
            base_problem="blobs-mlp1-h1024",
            frozen_problem="blobs-mlp1",
            seeds=3,
            epochs=10,
            hidden=1024,
        ),
    )
}


def build_setup(workload: Workload, seed: int):
    """The workload's ProblemSetup for ``seed`` from public adafamily functions."""
    from adafamily import data, harness, problems

    blobs = data.gen_gaussian_blobs(
        BLOBS_DATA_SEED + seed, BLOBS_N_PER_CLASS, BLOBS_DIM, BLOBS_CLASSES, MLP_BLOBS_SPREAD
    )
    train, test = data.split(blobs, BLOBS_SPLIT_FRACTION, seed=BLOBS_SPLIT_SEED + seed)
    return harness.ProblemSetup(
        problem=problems.MLP1(BLOBS_DIM, BLOBS_CLASSES, hidden=workload.hidden),
        train=train,
        test=test,
    )


def register(workload: Workload, seed: int) -> str:
    """Register the workload's problem unless it is already registered.

    Returns the problem name the sweep runs.
    """
    from adafamily import harness

    name = workload.problem_name(seed)
    if name not in harness.problem_names():
        harness.register_problem(name, lambda: build_setup(workload, seed))
    return name


def same_inputs(a, b) -> bool:
    """Bitwise equality of two setups' train and test data."""
    pairs = [
        (getattr(x, field), getattr(y, field))
        for x, y in ((a.train, b.train), (a.test, b.test))
        for field in ("features", "labels")
    ]
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in pairs)

