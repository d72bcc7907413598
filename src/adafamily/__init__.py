"""Blended Adam-family optimizers with a deterministic benchmark harness."""

from .data import (
    Batch,
    BatchPlan,
    Dataset,
    batches,
    gen_gaussian_blobs,
    split,
)
from .harness import (
    ProblemSetup,
    RunConfig,
    RunResult,
    build_problem,
    default_lineup,
    lr_scale_sequence,
    register_problem,
    run_grid,
    sweep_mu_configs,
)
from .optim import (
    Algorithm,
    BufferMismatchError,
    NonFiniteGradientError,
    OptimizerConfig,
    OptimizerState,
    init_state,
    normalization_factor,
    step,
)
from .problems import (
    LogisticRegression,
    MLP1,
    Problem,
    Quadratic,
    Rosenbrock2D,
    finite_diff_grad,
    relative_error,
    spd_quadratic,
)
from .tables import emit_table

__all__ = [
    "Algorithm",
    "Batch",
    "BatchPlan",
    "BufferMismatchError",
    "Dataset",
    "LogisticRegression",
    "MLP1",
    "NonFiniteGradientError",
    "OptimizerConfig",
    "OptimizerState",
    "Problem",
    "ProblemSetup",
    "Quadratic",
    "Rosenbrock2D",
    "RunConfig",
    "RunResult",
    "batches",
    "build_problem",
    "default_lineup",
    "emit_table",
    "finite_diff_grad",
    "gen_gaussian_blobs",
    "init_state",
    "lr_scale_sequence",
    "normalization_factor",
    "register_problem",
    "relative_error",
    "run_grid",
    "spd_quadratic",
    "split",
    "step",
    "sweep_mu_configs",
]

__version__ = "0.1.0"
