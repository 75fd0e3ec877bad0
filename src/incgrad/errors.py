"""Exception types shared across the library."""


class ConfigError(ValueError):
    """Invalid problem or run configuration (bad sizes, unsupported combination)."""


class DivergenceError(RuntimeError):
    """An iterate became non-finite or left the trust region during a run."""

    def __init__(self, step, detail=""):
        self.step = step
        msg = f"solver diverged at step {step}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class ProxSolveError(RuntimeError):
    """The inner 1-D proximal solve did not reach its residual tolerance."""

    def __init__(self, residual, iterations):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"scalar prox solve stopped after {iterations} iterations "
            f"with residual {residual:.3e}"
        )


class InconsistentReferenceError(RuntimeError):
    """A run went below the reference optimum F* by more than rounding."""

    def __init__(self, subopt):
        self.subopt = subopt
        super().__init__(
            f"suboptimality {subopt:.3e} below tolerance; "
            "reference optimum is inconsistent"
        )


class OptimumError(RuntimeError):
    """Reference-optimum computation hit its iteration cap, or a
    non-finite value (``non_finite`` names it) at iteration ``iterations``."""

    def __init__(self, residual, iterations, solver="proximal gradient",
                 non_finite=None):
        self.residual = residual
        self.iterations = iterations
        if non_finite:
            msg = (f"{solver} reached a non-finite {non_finite} "
                   f"at iteration {iterations}")
        else:
            msg = (f"{solver} did not converge within {iterations} "
                   f"iterations; final fixed-point residual {residual:.3e}")
        super().__init__(msg)
