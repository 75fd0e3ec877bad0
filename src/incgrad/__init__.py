"""Variance-reduced incremental gradient solvers for composite finite sums.

The package bundles a family of stored-gradient methods sharing one
state representation, a lagged-update engine for sparse problems with
an explicit L2 term, a numerical certification kit for the methods'
convergence theory, and a benchmark harness with a CLI.
"""

from .cscmat import CscMatrix
from .errors import (
    ConfigError,
    DivergenceError,
    InconsistentReferenceError,
    OptimumError,
    ProxSolveError,
)
from .objectives import (
    Dataset,
    FiniteSumObjective,
    LogisticLoss,
    LossModel,
    ProblemConstants,
    Regularizer,
    SquaredLoss,
    estimate_constants,
    make_loss,
    scalar_loss_prox,
)
from .solvers import (
    METHODS,
    GradientTable,
    RunResult,
    SagaState,
    StepSizePolicy,
    TraceRecord,
    check_method,
    prox_gradient_optimum,
    run,
    step_size,
)

__version__ = "0.1.0"

__all__ = [
    "CscMatrix",
    "ConfigError",
    "Dataset",
    "DivergenceError",
    "FiniteSumObjective",
    "GradientTable",
    "InconsistentReferenceError",
    "LogisticLoss",
    "LossModel",
    "METHODS",
    "OptimumError",
    "ProblemConstants",
    "ProxSolveError",
    "Regularizer",
    "RunResult",
    "SagaState",
    "SquaredLoss",
    "StepSizePolicy",
    "TraceRecord",
    "check_method",
    "estimate_constants",
    "make_loss",
    "prox_gradient_optimum",
    "run",
    "scalar_loss_prox",
    "step_size",
]
