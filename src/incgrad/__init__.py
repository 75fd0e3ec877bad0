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
    GradientTable,
    METHOD_INFO,
    RunResult,
    SagaState,
    StepSizePolicy,
    TraceRecord,
    prox_gradient_optimum,
    run,
    saga_chains,
    step_size,
    svrg_run,
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
    "METHOD_INFO",
    "OptimumError",
    "ProblemConstants",
    "ProxSolveError",
    "Regularizer",
    "RunResult",
    "SagaState",
    "SquaredLoss",
    "StepSizePolicy",
    "TraceRecord",
    "estimate_constants",
    "make_loss",
    "prox_gradient_optimum",
    "run",
    "saga_chains",
    "scalar_loss_prox",
    "step_size",
    "svrg_run",
]
