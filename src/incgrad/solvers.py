"""Incremental gradient solvers sharing a stored-gradient table.

All methods here minimise a composite finite sum F = (1/n) sum f_i + h
by drawing one component per step and correcting the stochastic
direction with remembered per-component gradients.  They differ only in
how the correction is weighted and where the remembered points live,
so they share the :class:`GradientTable` state (with a compact scalar
representation when every f_i is a pure linear-predictor loss), and a
single :func:`run` driver handles sampling, tracing and bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, OptimumError
from .objectives import (
    FiniteSumObjective,
    ProblemConstants,
    estimate_constants,
    scalar_loss_prox,
)

DIVERGENCE_SQNORM = 1e24  # |x|^2 guard, i.e. |x| > 1e12

# scalar tables step on the support only below this density, from this
# many coordinates on (see GradientTable)
SUPPORT_DENSITY = 0.1
SUPPORT_MIN_D = 1000


def _check_iterate(x, k):
    s = float(x @ x)
    if not (s < DIVERGENCE_SQNORM):
        raise DivergenceError(k, detail="non-finite or oversized iterate")


# ---------------------------------------------------------------------------
# gradient table

class GradientTable:
    """Per-component stored gradients f_i'(phi_i) plus their running mean.

    ``dense`` mode keeps one d-vector per component.  ``scalar`` mode
    keeps a single weight c_i = psi_i'(a_i' phi_i) per component, valid
    only when split_l2 = 0 so that f_i'(phi_i) = c_i a_i.  The mean is
    maintained incrementally and can be recomputed from scratch with
    :meth:`resync` to shed accumulated rounding.

    On sparse data (density below ``SUPPORT_DENSITY``, d at least
    ``SUPPORT_MIN_D``; below that the indexing costs what it saves) a
    scalar table sets ``support``: updates and steps touch only the
    nonzeros of a_i, with the bits of the dense form, whose
    c * 0 - c_old * 0 = +-0 off the support is exact.
    """

    def __init__(self, obj: FiniteSumObjective, mode: str, coeffs=None,
                 vecs=None, avg=None):
        if mode not in ("scalar", "dense"):
            raise ConfigError(f"unknown table mode {mode!r}")
        if mode == "scalar" and obj.split_l2 != 0.0:
            raise ConfigError("scalar gradient storage requires split_l2 = 0")
        self.obj = obj
        self.mode = mode
        self.support = (mode == "scalar" and obj.d >= SUPPORT_MIN_D and
                        obj.dataset.features.nnz < SUPPORT_DENSITY * obj.n * obj.d)
        self.coeffs = coeffs
        self.vecs = vecs
        self.avg = avg

    @classmethod
    def at_point(cls, obj: FiniteSumObjective, x, mode: str | None = None):
        """Fill the table with f_i'(x) for every i (one full pass)."""
        x = np.asarray(x, float)
        if mode is None:
            mode = "scalar" if obj.split_l2 == 0.0 else "dense"
        if mode == "scalar":
            coeffs = np.array(obj.loss_coeffs(x), dtype=float)
            avg = (obj.points.T @ coeffs) / obj.n
            return cls(obj, "scalar", coeffs=coeffs, avg=avg)
        vecs = obj.component_gradients(x).copy()
        return cls(obj, "dense", vecs=vecs, avg=vecs.mean(axis=0))

    @classmethod
    def zeros(cls, obj: FiniteSumObjective, mode: str):
        if mode == "scalar":
            return cls(obj, "scalar", coeffs=np.zeros(obj.n),
                       avg=np.zeros(obj.d))
        return cls(obj, "dense", vecs=np.zeros((obj.n, obj.d)),
                   avg=np.zeros(obj.d))

    def gradient(self, i) -> np.ndarray:
        """Stored f_i'(phi_i), reconstructed in scalar mode."""
        if self.mode == "scalar":
            return self.coeffs[i] * self.obj.points[i]
        return self.vecs[i].copy()

    def update(self, i, new):
        """Replace entry i (a weight in scalar mode, a vector otherwise)
        and fold the change into the running mean."""
        n = self.obj.n
        if self.mode == "scalar":
            delta = new - self.coeffs[i]
            if self.support:
                idx, vals = self.obj.dataset.point(i)
                self.avg[idx] += (delta / n) * vals
            else:
                self.avg += (delta / n) * self.obj.points[i]
            self.coeffs[i] = new
        else:
            self.avg += (new - self.vecs[i]) / n
            self.vecs[i] = new

    def set_raw(self, i, new):
        """Overwrite entry i without touching the mean (bulk fills)."""
        if self.mode == "scalar":
            self.coeffs[i] = new
        else:
            self.vecs[i] = new

    def sum(self) -> np.ndarray:
        return self.avg * self.obj.n

    def resync(self) -> float:
        """Recompute the mean from the entries; returns the drift shed."""
        if self.mode == "scalar":
            fresh = (self.obj.points.T @ self.coeffs) / self.obj.n
        else:
            fresh = self.vecs.mean(axis=0)
        drift = float(np.linalg.norm(fresh - self.avg))
        self.avg = fresh
        return drift


# ---------------------------------------------------------------------------
# per-method state

@dataclass
class SagaState:
    x: np.ndarray
    table: GradientTable
    k: int = 0


@dataclass
class SagaUState:
    """``x`` is the iterate u - gamma * sum_i f_i'(phi_i), kept current by
    :func:`saga_u_step`; set it with :func:`saga_u_reconstruct` after
    changing the table by other means."""

    u: np.ndarray
    table: GradientTable
    x: np.ndarray = None
    k: int = 0


@dataclass
class FinitoState:
    phi: np.ndarray            # (n, d) stored points
    table: GradientTable
    phi_mean: np.ndarray
    x: np.ndarray = None
    k: int = 0


@dataclass
class SdcaState:
    x: np.ndarray
    table: GradientTable
    mu: float = 0.0
    k: int = 0


def saga_init(obj, x0, mode=None) -> SagaState:
    x0 = np.array(x0, dtype=float)
    return SagaState(x=x0, table=GradientTable.at_point(obj, x0, mode))


def saga_u_init(obj, x0, gamma) -> SagaUState:
    """u0 = x0 + gamma * sum_i f_i'(x0), paired with a table at x0."""
    x0 = np.array(x0, dtype=float)
    table = GradientTable.at_point(obj, x0)
    state = SagaUState(u=x0 + gamma * table.sum(), table=table)
    state.x = saga_u_reconstruct(state, gamma)
    return state


def finito_init(obj, x0) -> FinitoState:
    x0 = np.array(x0, dtype=float)
    phi = np.tile(x0, (obj.n, 1))
    table = GradientTable.at_point(obj, x0, mode="dense")
    return FinitoState(phi=phi, table=table, phi_mean=x0.copy(), x=x0.copy())


def sdca_init(obj, x0, mu) -> SdcaState:
    """Table at x0; the iterate is the table-implied point -(1/mu n) sum."""
    if mu <= 0:
        raise ConfigError("sdca requires a separate L2 regulariser mu > 0")
    if obj.split_l2 != 0.0:
        raise ConfigError("sdca works on loss-only components (split_l2 = 0)")
    x0 = np.array(x0, dtype=float)
    table = GradientTable.at_point(obj, x0, mode="dense")
    x = -(1.0 / (mu * obj.n)) * table.sum()
    return SdcaState(x=x, table=table, mu=mu)


# ---------------------------------------------------------------------------
# step size policies

@dataclass(frozen=True)
class StepSizePolicy:
    """Step-size selection rule.

    ``strongly_convex`` -> 1/(2(mu n + L)); ``average_sc`` ->
    1/(3(mu n + L)); ``adaptive`` -> 1/(3L), needing no mu; ``manual``
    passes gamma through.
    """

    mode: str
    gamma: float | None = None

    def __post_init__(self):
        if self.mode not in ("strongly_convex", "average_sc", "adaptive", "manual"):
            raise ConfigError(f"unknown step size mode {self.mode!r}")
        if self.mode == "manual" and (self.gamma is None or self.gamma <= 0):
            raise ConfigError("manual step size requires gamma > 0")


def step_size(policy: StepSizePolicy, consts: ProblemConstants) -> float:
    if policy.mode == "manual":
        return float(policy.gamma)
    if policy.mode == "adaptive":
        return 1.0 / (3.0 * consts.L)
    if consts.mu <= 0:
        raise ConfigError(
            f"step size mode {policy.mode!r} needs mu > 0; "
            "use the adaptive mode 1/(3L) instead"
        )
    if policy.mode == "strongly_convex":
        return 1.0 / (2.0 * (consts.mu * consts.n + consts.L))
    return 1.0 / (3.0 * (consts.mu * consts.n + consts.L))


def _policy_gamma(policy, consts: ProblemConstants) -> float:
    """Step of ``policy``; without one, 1/(2(mu n + L)) when mu > 0 and
    1/(3L) otherwise."""
    if policy is None:
        policy = StepSizePolicy("strongly_convex" if consts.mu > 0 else "adaptive")
    return step_size(policy, consts)


# ---------------------------------------------------------------------------
# single steps

def _new_gradient(obj, table, j, x):
    """(table entry value, gradient vector) of f_j at x."""
    if table.mode == "scalar":
        a = obj.points[j]
        c = obj.loss.deriv_scalar(float(a @ x), obj.labels[j])
        return c, c * a
    g = obj.component_gradient(j, x)
    return g, g


def _step_direction(obj, table, j, x, gamma, per_n=False):
    """(new entry j, gamma * (g_new - g_old + mean)) at x, with
    g_new - g_old divided by n if ``per_n`` (sag)."""
    if table.support:
        idx, a = obj.dataset.point(j)
        c = obj.loss.deriv_scalar(float(obj.points[j] @ x), obj.labels[j])
        diff = c * a - table.coeffs[j] * a
        if per_n:
            diff /= obj.n
        out = table.avg.copy()
        out[idx] = diff + out[idx]
        out *= gamma
        return c, out
    entry, g_new = _new_gradient(obj, table, j, x)
    diff = g_new - table.gradient(j)
    if per_n:
        diff /= obj.n
    return entry, gamma * (diff + table.avg)


def saga_step(state: SagaState, obj, j, gamma) -> SagaState:
    """One update: unbiased corrected direction, then the prox of h.

    w = x - gamma (f_j'(x) - f_j'(phi_j) + mean_i f_i'(phi_i)) and
    x <- prox_gamma^h(w); entry j is replaced by f_j'(x) (the new phi_j
    is the pre-step x and is never materialised).
    """
    entry, step = _step_direction(obj, state.table, j, state.x, gamma)
    w = state.x - step
    if obj.reg.kind != "none":
        w = obj.reg.prox(gamma, w)
    state.table.update(j, entry)
    state.x = w
    state.k += 1
    _check_iterate(state.x, state.k)
    return state


def sag_step(state: SagaState, obj, j, gamma) -> SagaState:
    """Biased 1/n-weighted variant of the same update, without prox."""
    if obj.reg.kind != "none":
        raise ConfigError("sag has no proximal support; use a smooth objective")
    entry, step = _step_direction(obj, state.table, j, state.x, gamma,
                                  per_n=True)
    state.x = state.x - step
    state.table.update(j, entry)
    state.k += 1
    _check_iterate(state.x, state.k)
    return state


def saga_step_explicit_l2(state: SagaState, obj, j, gamma, mu) -> SagaState:
    """Variant keeping the L2 term out of the table: the table stores
    loss-only gradients and the regulariser acts by scaling the iterate,
    x <- (1 - gamma mu) x - gamma (g_new - g_old + mean)."""
    if mu < 0:
        raise ConfigError("mu must be nonnegative")
    if gamma * mu >= 1.0:
        raise ConfigError("gamma * mu >= 1 would flip the iterate scaling")
    if obj.split_l2 != 0.0:
        raise ConfigError("explicit-L2 variant expects loss-only components")
    entry, step = _step_direction(obj, state.table, j, state.x, gamma)
    state.x = (1.0 - gamma * mu) * state.x - step
    state.table.update(j, entry)
    state.k += 1
    _check_iterate(state.x, state.k)
    return state


def saga_u_reconstruct(state: SagaUState, gamma) -> np.ndarray:
    """Current iterate x = u - gamma * sum_i f_i'(phi_i)."""
    return state.u - gamma * state.table.sum()


def saga_u_step(state: SagaUState, obj, j, gamma) -> SagaUState:
    """Reformulated update tracking u instead of x (non-composite only).

    x is reconstructed from u and the table sum, u moves a 1/n fraction
    towards x, and entry j is refreshed at x.  Eliminating u gives back
    exactly the plain update, so the x sequences coincide.  The
    reconstruction after the step is kept as ``state.x``, which the
    next step starts from.
    """
    if obj.reg.kind != "none":
        raise ConfigError("the u-form is only valid without a composite term")
    x = state.x
    state.u = state.u + (x - state.u) / obj.n
    entry, _ = _new_gradient(obj, state.table, j, x)
    state.table.update(j, entry)
    state.x = saga_u_reconstruct(state, gamma)
    state.k += 1
    _check_iterate(x, state.k)
    return state


def finito_step(state: FinitoState, obj, j, gamma) -> FinitoState:
    """x <- mean(phi) - gamma * sum_i f_i'(phi_i), then phi_j <- x."""
    x = state.phi_mean - gamma * state.table.sum()
    g_new = obj.component_gradient(j, x)
    state.table.update(j, g_new)
    state.phi_mean = state.phi_mean + (x - state.phi[j]) / obj.n
    state.phi[j] = x
    state.x = x
    state.k += 1
    _check_iterate(x, state.k)
    return state


def sdca_primal_step(state: SdcaState, obj, j, mu) -> SdcaState:
    """Primal-only dual coordinate step.

    With gamma = 1/(mu n), the leave-one-out point
    z = -gamma sum_{i != j} f_i'(phi_i) is proxed through f_j, the new
    gradient (z - phi_j)/gamma replaces entry j, and the iterate is kept
    at x = -gamma sum_i f_i'(phi_i).
    """
    gamma = 1.0 / (mu * obj.n)
    g_old = state.table.gradient(j)
    z = state.x + gamma * g_old
    phi_j, g_new = scalar_loss_prox(obj, j, gamma, z)
    state.table.update(j, g_new)
    state.x = state.x - gamma * (g_new - g_old)
    state.k += 1
    _check_iterate(state.x, state.k)
    return state


def _blend_entry(table: GradientTable, j, beta, g_at_x):
    """Stored gradient interpolation (1-beta) old + beta new."""
    old = table.gradient(j)
    table.update(j, (1.0 - beta) * old + beta * g_at_x)


def sdca_variant5_step(state: SdcaState, obj, j, mu, L) -> SdcaState:
    """Conjugate-free variant: blend the stored gradient towards
    f_j'(x^k) with weight beta = mu n / (L + mu n); phi_j itself is
    never formed."""
    beta = mu * obj.n / (L + mu * obj.n)
    gamma = 1.0 / (mu * obj.n)
    g_old = state.table.gradient(j)
    g_at_x = obj.component_gradient(j, state.x)
    _blend_entry(state.table, j, beta, g_at_x)
    state.x = state.x - gamma * (state.table.gradient(j) - g_old)
    state.k += 1
    _check_iterate(state.x, state.k)
    return state


def midpoint_step(state: FinitoState, obj, j, mu) -> FinitoState:
    """Leave-one-out prox step sitting between the dual-coordinate and
    stored-point methods.

    z averages the other points' linearisations, phi_j is the prox of
    f_j at z with weight 1/(mu (n-1)), and afterwards the new iterate
    satisfies x = mean(phi) - (1/(mu n)) sum_i f_i'(phi_i) exactly.
    """
    n = obj.n
    if n < 2:
        raise ConfigError("leave-one-out step needs n >= 2")
    gamma_p = 1.0 / (mu * (n - 1))
    sum_phi = state.phi_mean * n
    sum_g = state.table.sum()
    g_old = state.table.gradient(j)
    z = (sum_phi - state.phi[j]) / (n - 1) - (sum_g - g_old) / (mu * (n - 1))
    phi_j, g_new = scalar_loss_prox(obj, j, gamma_p, z)
    state.table.update(j, g_new)
    state.phi_mean = state.phi_mean + (phi_j - state.phi[j]) / n
    state.phi[j] = phi_j
    state.x = phi_j
    state.k += 1
    _check_iterate(phi_j, state.k)
    return state


def midpoint_identity_residual(state: FinitoState, mu) -> float:
    """|x - (mean(phi) - (1/(mu n)) sum f_i'(phi_i))|, zero after a step."""
    rhs = state.phi_mean - state.table.avg / mu
    return float(np.linalg.norm(state.x - rhs))


# ---------------------------------------------------------------------------
# traces and the run driver

@dataclass
class TraceRecord:
    """State snapshot taken at a trace boundary."""

    k: int
    grad_evals: float
    x: np.ndarray
    xbar: np.ndarray | None
    subopt: float | None = None
    subopt_avg: float | None = None
    dist_sq: float | None = None


@dataclass
class RunResult:
    method: str
    records: list
    x: np.ndarray
    xbar: np.ndarray | None
    grad_evals: float


METHOD_INFO = {
    # obj_form: how the harness should place an L2 term for this method
    "saga": dict(prox=True, needs_mu=False, obj_form="split"),
    "saga_u": dict(prox=False, needs_mu=False, obj_form="split"),
    "saga_explicit_l2": dict(prox=False, needs_mu=False, obj_form="explicit"),
    "saga_lazy": dict(prox=False, needs_mu=False, obj_form="explicit"),
    "sag": dict(prox=False, needs_mu=False, obj_form="split"),
    "svrg": dict(prox=True, needs_mu=False, obj_form="split"),
    "finito": dict(prox=False, needs_mu=True, obj_form="split"),
    "sdca": dict(prox=False, needs_mu=True, obj_form="separate"),
    "sdca_variant5": dict(prox=False, needs_mu=True, obj_form="separate"),
    "midpoint": dict(prox=False, needs_mu=True, obj_form="split"),
}

_PARAM_FREE = ("sdca", "sdca_variant5", "midpoint")


def _record(obj, k, evals, x, xbar, reference, extra_l2=0.0):
    # extra_l2 covers methods whose L2 term lives outside the objective
    sub = sub_avg = dist = None
    if reference is not None:
        x_star, f_star = reference

        def full_value(v):
            out = obj.value(v, composite=True)
            if extra_l2:
                out += 0.5 * extra_l2 * float(v @ v)
            return out

        sub = full_value(x) - f_star
        dist = float(np.sum((x - x_star) ** 2))
        if xbar is not None:
            sub_avg = full_value(xbar) - f_star
    return TraceRecord(k=k, grad_evals=evals, x=np.array(x),
                       xbar=None if xbar is None else np.array(xbar),
                       subopt=sub, subopt_avg=sub_avg, dist_sq=dist)


def svrg_run(obj, x0, gamma, m, epochs, rng, reference=None,
             trace_every=1) -> RunResult:
    """Outer/inner loop with a snapshot gradient.

    Each outer pass recalibrates: the snapshot moves to the current x
    and its full gradient is recomputed (n evaluations); every inner
    step then uses f_j'(x) - f_j'(snapshot) + full, costing 2
    evaluations, with the prox of h applied after the move.
    """
    if m < 1:
        raise ConfigError("svrg needs at least one inner step per pass")
    x = np.array(x0, dtype=float)
    xsum = np.zeros_like(x)
    k = 0
    evals = 0.0
    records = [_record(obj, 0, 0.0, x, x, reference)]
    has_prox = obj.reg.kind != "none"
    for outer in range(epochs):
        snap = x.copy()
        g_full = obj.full_gradient(snap)
        evals += obj.n
        for _ in range(m):
            j = int(rng.integers(0, obj.n))
            g = obj.component_gradient(j, x) - obj.component_gradient(j, snap) + g_full
            w = x - gamma * g
            x = obj.reg.prox(gamma, w) if has_prox else w
            evals += 2.0
            k += 1
            xsum += x
            _check_iterate(x, k)
        if (outer + 1) % trace_every == 0 or outer == epochs - 1:
            records.append(_record(obj, k, evals, x, xsum / k, reference))
    xbar = xsum / k if k else x.copy()
    return RunResult("svrg", records, x, xbar, evals)


def _resolve_constants(method, obj, consts, explicit_l2):
    if consts is not None:
        return consts
    base = estimate_constants(obj)
    if method in ("saga_explicit_l2", "saga_lazy"):
        # equivalent split-form constants for the explicit regulariser
        return ProblemConstants(n=base.n, d=base.d, L=base.L + explicit_l2,
                                mu=explicit_l2)
    if method in ("sdca", "sdca_variant5"):
        return ProblemConstants(n=base.n, d=base.d, L=base.L, mu=obj.reg.l2)
    return base


def _validate_method(method, obj, mu):
    if method not in METHOD_INFO:
        raise ConfigError(f"unknown method {method!r}")
    reg = obj.reg.kind
    if method in ("saga_u", "sag", "finito", "midpoint",
                  "saga_explicit_l2", "saga_lazy") and reg != "none":
        raise ConfigError(f"{method} does not support a composite regulariser")
    if method in ("sdca", "sdca_variant5"):
        if reg != "l2" or obj.reg.l2 <= 0 or obj.split_l2 != 0.0:
            raise ConfigError(
                f"{method} needs loss-only components plus a separate L2 "
                "regulariser with positive strength"
            )
    if method in ("finito", "midpoint") and mu <= 0:
        raise ConfigError(f"{method} requires strong convexity (mu > 0)")
    if method == "midpoint" and obj.n < 2:
        raise ConfigError("midpoint requires n >= 2")
    if method in ("saga_explicit_l2", "saga_lazy") and obj.split_l2 != 0.0:
        raise ConfigError(f"{method} expects loss-only components")
    if method == "saga_lazy" and obj.loss.kind != "squared":
        raise ConfigError("the lazy sparse engine only covers squared loss")


def run(method, obj, x0, *, epochs, policy=None, seed=0, rng=None,
        trace_every=1, reference=None, consts=None, init="full",
        sampling="iid", explicit_l2=0.0, inner_steps=None) -> RunResult:
    """Run a method for a number of epochs of n steps each.

    The gradient table (or stored points) is initialised with a full
    pass at x0, charged n gradient evaluations, unless
    ``init='one_by_one'`` asks for the warm-up pass where epoch 0 sweeps
    the data in order, each step moving along the average of the
    gradients stored so far.  ``sampling`` picks components iid
    uniformly, or epoch-wise without replacement when set to ``'perm'``.
    A trace row is taken before any work and after every ``trace_every``
    epochs; when ``reference=(x_star, F_star)`` is given the rows carry
    suboptimality and squared distance, both for the iterate and for the
    running average iterate.
    """
    if epochs < 0:
        raise ConfigError("epochs must be nonnegative")
    if trace_every < 1:
        raise ConfigError("trace_every must be >= 1")
    if rng is None:
        rng = np.random.default_rng(seed)
    x0 = np.asarray(x0, dtype=float)
    consts = _resolve_constants(method, obj, consts, explicit_l2)
    mu = consts.mu
    _validate_method(method, obj, mu)

    if method in _PARAM_FREE:
        if policy is not None:
            raise ConfigError(f"{method} is parameter free; drop the step policy")
        gamma = None
    elif method == "finito":
        if policy is not None and policy.mode == "manual":
            gamma = policy.gamma
        elif policy is None:
            gamma = 1.0 / (2.0 * mu * obj.n)
        else:
            raise ConfigError("finito accepts only a manual step size override")
    else:
        gamma = _policy_gamma(policy, consts)

    if init not in ("full", "one_by_one"):
        raise ConfigError(f"unknown init mode {init!r}")
    if sampling not in ("iid", "perm"):
        raise ConfigError(f"unknown sampling mode {sampling!r}")
    heuristic = init == "one_by_one"
    if heuristic and method not in ("saga", "sag"):
        raise ConfigError("the one-by-one warm start is only wired for saga/sag")

    if method == "svrg":
        if sampling != "iid":
            raise ConfigError("svrg samples its inner steps iid only")
        m = obj.n if inner_steps is None else int(inner_steps)
        return svrg_run(obj, x0, gamma, m, epochs, rng,
                        reference=reference, trace_every=trace_every)
    if method == "saga_lazy":
        if sampling != "iid":
            raise ConfigError("the lazy engine samples iid only")
        from .lazy import sparse_saga_lstsq_run
        return sparse_saga_lstsq_run(
            obj, gamma, explicit_l2, epochs, rng, x0=x0,
            reference=reference, trace_every=trace_every)

    n = obj.n
    evals = 0.0
    if method in ("saga", "sag", "saga_explicit_l2"):
        if heuristic:
            state = SagaState(x=np.array(x0),
                              table=GradientTable.zeros(
                                  obj, "scalar" if obj.split_l2 == 0 else "dense"))
        else:
            state = saga_init(obj, x0)
            evals += n
    elif method == "saga_u":
        state = saga_u_init(obj, x0, gamma)
        evals += n
    elif method in ("finito", "midpoint"):
        state = finito_init(obj, x0)
        evals += n
    else:  # sdca variants
        state = sdca_init(obj, x0, mu)
        evals += n

    step, *params = {
        "saga": (saga_step, gamma),
        "sag": (sag_step, gamma),
        "saga_explicit_l2": (saga_step_explicit_l2, gamma, explicit_l2),
        "saga_u": (saga_u_step, gamma),
        "finito": (finito_step, gamma),
        "sdca": (sdca_primal_step, mu),
        "sdca_variant5": (sdca_variant5_step, mu, consts.L),
        "midpoint": (midpoint_step, mu),
    }[method]
    extra_l2 = explicit_l2 if method == "saga_explicit_l2" else 0.0
    records = [_record(obj, 0, 0.0, x0, x0, reference, extra_l2=extra_l2)]
    xsum = np.zeros_like(x0)
    steps = 0

    for ep in range(epochs):
        if heuristic and ep == 0:
            order = np.arange(n)
            gsum = np.zeros(obj.d)
            for m_seen, j in enumerate(order, start=1):
                entry, g_new = _new_gradient(obj, state.table, j, state.x)
                gsum += g_new
                state.table.set_raw(j, entry)
                w = state.x - gamma * (gsum / m_seen)
                if method == "saga" and obj.reg.kind != "none":
                    w = obj.reg.prox(gamma, w)
                state.x = w
                state.k += 1
                evals += 1.0
                steps += 1
                xsum += state.x
                _check_iterate(state.x, state.k)
            state.table.avg = gsum / n
        else:
            if sampling == "perm":
                order = rng.permutation(n)
            else:
                order = rng.integers(0, n, size=n)
            for j in order.tolist():
                step(state, obj, j, *params)
                evals += 1.0
                steps += 1
                xsum += state.x
        state.table.resync()
        if method in ("sdca", "sdca_variant5"):
            state.x = -(1.0 / (mu * n)) * state.table.sum()
        elif method in ("finito", "midpoint"):
            state.phi_mean = state.phi.mean(axis=0)
        elif method == "saga_u":
            state.x = saga_u_reconstruct(state, gamma)
        if (ep + 1) % trace_every == 0 or ep == epochs - 1:
            records.append(_record(obj, steps, evals, state.x,
                                   xsum / steps, reference, extra_l2=extra_l2))

    xbar = xsum / steps if steps else np.array(x0)
    return RunResult(method, records, np.array(state.x), xbar, evals)


def saga_chains(obj, x0, *, epochs, seeds, policy=None, reference=None) -> list:
    """One ``saga`` chain per seed, advanced in lockstep as one batch.

    Chain i is ``run("saga", obj, x0, epochs=epochs, seed=seeds[i],
    policy=policy, reference=reference)``: the same full-pass table at
    x0, the same index stream (each chain owns ``default_rng(seed)`` and
    draws an epoch at a time, as ``run`` does), the same update, resync,
    divergence guard and a trace row after every epoch.  The S iterates
    form one (S, d) array and the S tables one array whose row i*n + j
    is chain i's entry j, so a step costs a handful of numpy calls for
    all chains instead of a few per chain.  Margins come from a row-wise
    product that need not round like ``run``'s ``a @ x``, so chains
    match ``run`` to rounding (about 1e-15 relative), not bit for bit:
    use this for statistics over seeds, and ``run`` where output bytes
    matter.  A chain failing the guard raises :class:`DivergenceError`
    at the first step any chain fails, naming that chain's seed.
    Returns one :class:`RunResult` per seed.
    """
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("saga_chains needs at least one seed")
    if epochs < 0:
        raise ConfigError("epochs must be nonnegative")
    x0 = np.asarray(x0, dtype=float)
    consts = _resolve_constants("saga", obj, None, 0.0)
    _validate_method("saga", obj, consts.mu)
    gamma = _policy_gamma(policy, consts)

    n, S = obj.n, len(seeds)
    points, labels, deriv = obj.points, obj.labels, obj.loss.deriv
    split, prox = obj.split_l2, obj.reg.prox if obj.reg.kind != "none" else None
    table = GradientTable.at_point(obj, x0)
    scalar = table.mode == "scalar"
    entries = (np.tile(table.coeffs, S) if scalar
               else np.tile(table.vecs, (S, 1)))
    avg = np.tile(table.avg, (S, 1))
    x = np.tile(x0, (S, 1))
    xsum = np.zeros_like(x)
    base = np.arange(S) * n
    rngs = [np.random.default_rng(seed) for seed in seeds]
    records = [[_record(obj, 0, 0.0, x0, x0, reference)] for _ in seeds]
    steps = 0

    for ep in range(epochs):
        order = np.stack([rng.integers(0, n, size=n) for rng in rngs], axis=1)
        for js in order:
            a = points[js]
            c = deriv(np.einsum("ij,ij->i", a, x), labels[js])
            rows = base + js
            g_new = c[:, None] * a
            if scalar:
                c_old = entries[rows]
                g_old = c_old[:, None] * a
            else:  # a dense table means split_l2 > 0
                g_new += split * x
                g_old = entries[rows]
            w = x - gamma * (g_new - g_old + avg)
            if prox is not None:
                w = prox(gamma, w)
            if scalar:
                avg += ((c - c_old) / n)[:, None] * a
                entries[rows] = c
            else:
                avg += (g_new - g_old) / n
                entries[rows] = g_new
            x = w
            steps += 1
            ok = np.einsum("ij,ij->i", x, x) < DIVERGENCE_SQNORM
            if not ok.all():
                raise DivergenceError(
                    steps, detail="non-finite or oversized iterate in the "
                    f"chain of seed {seeds[int(np.argmin(ok))]}")
            xsum += x
        avg = (entries.reshape(S, n) @ points / n if scalar
               else entries.reshape(S, n, -1).mean(axis=1))
        for i, chain in enumerate(records):
            chain.append(_record(obj, steps, float(n + steps), x[i],
                                 xsum[i] / steps, reference))

    return [RunResult("saga", chain, x[i].copy(),
                      xsum[i] / steps if steps else x0.copy(), float(n + steps))
            for i, chain in enumerate(records)]


def _smooth_lipschitz(obj, max_lipschitz):
    """Estimate of L_f = kappa lambda_max(A'A / n) + split_l2, the
    smoothness of the averaged loss, capped at ``max_lipschitz``.

    Matrix-free power iteration (A'A is never formed) from a fixed
    seeded start, stopped once the estimate changes by at most 1%.  A
    Rayleigh quotient never exceeds lambda_max, so the estimate can be
    low, never high; the caller's backtracking covers a low one, which
    is cheaper than iterating on: the spectra of normalized data have
    small gaps, and each iteration costs as much as a full gradient.
    """
    points = obj.points
    v = np.random.default_rng(0).standard_normal(obj.d)
    lip = 0.0
    for _ in range(100):
        av = points @ (v / np.linalg.norm(v))
        lip_new = (obj.loss.curvature_bound * float(av @ av) / obj.n
                   + obj.split_l2)
        if abs(lip_new - lip) <= 1e-2 * lip_new:
            break
        lip = lip_new
        v = points.T @ av
    if not lip_new > 0:
        return max_lipschitz
    return min(lip_new, max_lipschitz)


def prox_gradient_optimum(obj, tol=1e-12, max_iter=1_000_000, x0=None,
                          consts=None):
    """Accelerated proximal gradient run to a certified fixed point.

    Stopping contract: with L_max = ``consts.L`` and the operator
    T(y) = prox_{1/L_max}^h(y - f'(y) / L_max), the run stops at the
    first tested point y with |T(y) - y| <= ``tol`` and returns
    (T(y), F(T(y))); :class:`OptimumError` is raised if ``max_iter``
    full gradients pass first.  This is the residual test of plain
    proximal gradient at step 1/L_max, so a returned point carries the
    same certificate; acceleration only changes which points y get
    tested.

    Algorithm: FISTA (Beck & Teboulle 2009) with gradient-based adaptive
    restart (O'Donoghue & Candes 2015).  Each iteration spends one full
    gradient at the extrapolated point y, which serves both the stopping
    test and the step x+ = prox_{1/L}^h(y - f'(y) / L).  L starts from a
    power-iteration estimate of the smoothness of the averaged loss,
    L_f = kappa lambda_max(A'A / n) + split_l2, and doubles while the
    sufficient-decrease test f(x+) <= f(y) + f'(y)'(x+ - y) + L/2 |x+ - y|^2
    fails (with a relative slack of 1e-15 |f(y)| for rounding).  Since
    lambda_max of the average of the a_i a_i' is at most the average of
    the |a_i|^2, L_f is at most the mean component constant and so at
    most L_max: the step 1/L_max always passes the test.  L is capped
    there, where the step is T(y) itself, so a low estimate costs a few
    doublings, never convergence.  Momentum restarts whenever
    (y - x+)'(x+ - x) > 0.
    """
    if consts is None:
        consts = estimate_constants(obj)
    l_max = consts.L
    lip = _smooth_lipschitz(obj, l_max)
    prox = obj.reg.prox if obj.reg.kind != "none" else (lambda gamma, w: w)
    points = obj.points
    x = np.zeros(obj.d) if x0 is None else np.array(x0, dtype=float)
    mx = points @ x
    y, my = x, mx
    t = 1.0
    residual = math.inf
    for _ in range(max_iter):
        g = obj.full_gradient(y)
        ty = prox(1.0 / l_max, y - g / l_max)
        residual = float(np.linalg.norm(ty - y))
        if residual <= tol:
            return ty, obj.value(ty, composite=True)
        fy = obj.smooth_value(y, margins=my)
        while True:
            x_new = ty if lip == l_max else prox(1.0 / lip, y - g / lip)
            m_new = points @ x_new
            dx = x_new - y
            bound = fy + float(g @ dx) + 0.5 * lip * float(dx @ dx)
            if (lip == l_max or obj.smooth_value(x_new, margins=m_new)
                    <= bound + 1e-15 * abs(fy)):
                break
            lip = min(2.0 * lip, l_max)
        if float((y - x_new) @ (x_new - x)) > 0.0:
            t = 1.0
            y, my = x_new, m_new
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_new
            y = x_new + beta * (x_new - x)
            my = m_new + beta * (m_new - mx)
            t = t_new
        x, mx = x_new, m_new
    raise OptimumError(residual=residual, iterations=max_iter)
