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
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import lazy
from .errors import ConfigError, DivergenceError, OptimumError
from .objectives import (
    FiniteSumObjective,
    ProblemConstants,
    estimate_constants,
    scalar_loss_prox,
)

DIVERGENCE_SQNORM = 1e24  # |x|^2 guard, i.e. |x| > 1e12
_DIVERGED = "non-finite or oversized iterate"


def _check_iterate(x, k):
    s = float(x @ x)
    if not (s < DIVERGENCE_SQNORM):
        raise DivergenceError(k, detail=_DIVERGED)


# ---------------------------------------------------------------------------
# gradient table

class GradientTable:
    """Per-component stored gradients f_i'(phi_i) plus their running mean.

    ``dense`` mode keeps one d-vector per component.  ``scalar`` mode
    keeps a single weight c_i = psi_i'(a_i' phi_i) per component, valid
    only when split_l2 = 0 so that f_i'(phi_i) = c_i a_i.  The mean is
    maintained incrementally and can be recomputed from scratch with
    :meth:`resync` to shed accumulated rounding.

    On sparse data (``FiniteSumObjective.sparse``) a scalar table sets
    ``support``: updates and steps touch only the nonzeros of a_i, with
    the bits of the dense form, whose c * 0 - c_old * 0 = +-0 off the
    support is exact.
    """

    def __init__(self, obj: FiniteSumObjective, mode: str, coeffs=None,
                 vecs=None, avg=None):
        if mode not in ("scalar", "dense"):
            raise ConfigError(f"unknown table mode {mode!r}")
        if mode == "scalar" and obj.split_l2 != 0.0:
            raise ConfigError("scalar gradient storage requires split_l2 = 0")
        self.obj = obj
        self.mode = mode
        self.support = mode == "scalar" and obj.sparse
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
            coeffs = obj.loss_coeffs(x)
            avg = obj.point_sum(coeffs) / obj.n
            return cls(obj, "scalar", coeffs=coeffs, avg=avg)
        vecs = obj.component_gradients(x)
        return cls(obj, "dense", vecs=vecs, avg=vecs.mean(axis=0))

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

    def sum(self) -> np.ndarray:
        return self.avg * self.obj.n

    def resync(self) -> float:
        """Recompute the mean from the entries; returns the drift shed."""
        if self.mode == "scalar":
            fresh = self.obj.point_sum(self.coeffs) / self.obj.n
        else:
            fresh = self.vecs.mean(axis=0)
        drift = float(np.linalg.norm(fresh - self.avg))
        self.avg = fresh
        return drift


# ---------------------------------------------------------------------------
# per-method state

@dataclass
class SagaState:
    """State of every table method: the iterate and the table, plus
    ``u`` for saga_u (reset x with :func:`saga_u_reconstruct` after
    changing the table by other means) and the stored points ``phi``
    and their mean for finito and midpoint."""

    x: np.ndarray
    table: GradientTable
    u: np.ndarray | None = None
    phi: np.ndarray | None = None
    phi_mean: np.ndarray | None = None


def saga_init(obj, x0) -> SagaState:
    x0 = np.array(x0, dtype=float)
    return SagaState(x=x0, table=GradientTable.at_point(obj, x0))


def saga_u_init(obj, x0, gamma) -> SagaState:
    """u0 = x0 + gamma * sum_i f_i'(x0), paired with a table at x0."""
    x0 = np.array(x0, dtype=float)
    table = GradientTable.at_point(obj, x0)
    state = SagaState(x=None, table=table, u=x0 + gamma * table.sum())
    state.x = saga_u_reconstruct(state, gamma)
    return state


def finito_init(obj, x0) -> SagaState:
    x0 = np.array(x0, dtype=float)
    table = GradientTable.at_point(obj, x0, mode="dense")
    return SagaState(x=x0.copy(), table=table, phi=np.tile(x0, (obj.n, 1)),
                     phi_mean=x0.copy())


def sdca_init(obj, x0, mu) -> SagaState:
    """Table at x0; the iterate is the table-implied point -(1/mu n) sum.
    Needs mu > 0 and loss-only components (see :func:`check_method`)."""
    x0 = np.array(x0, dtype=float)
    table = GradientTable.at_point(obj, x0, mode="dense")
    return SagaState(x=-(1.0 / (mu * obj.n)) * table.sum(), table=table)


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
        if self.mode == "manual" and not (
                self.gamma is not None and 0 < self.gamma < math.inf):
            raise ConfigError("manual step size requires a finite gamma > 0")

    def check_mu(self, mu):
        """ConfigError if this mode needs mu > 0 and ``mu`` is not."""
        if self.mode in ("strongly_convex", "average_sc") and not mu > 0:
            raise ConfigError(f"step size mode {self.mode!r} needs mu > 0; "
                              "use the adaptive mode 1/(3L) instead")


def step_size(policy: StepSizePolicy, consts: ProblemConstants) -> float:
    policy.check_mu(consts.mu)
    if policy.mode == "manual":
        return float(policy.gamma)
    if policy.mode == "adaptive":
        return 1.0 / (3.0 * consts.L)
    if policy.mode == "strongly_convex":
        return 1.0 / (2.0 * (consts.mu * consts.n + consts.L))
    return 1.0 / (3.0 * (consts.mu * consts.n + consts.L))


# ---------------------------------------------------------------------------
# single steps: each updates the state in place and checks nothing; the
# rules are checked once, before any table is built (see _setup)

def _new_gradient(obj, table, j, x):
    """(table entry value, gradient vector) of f_j at x."""
    if table.mode == "scalar":
        a = obj.points[j]
        c = obj.loss.deriv_scalar(float(np.vdot(a, x)), obj.labels[j])
        return c, c * a
    g = obj.component_gradient(j, x)
    return g, g


def saga_step(state: SagaState, obj, j, gamma, per_n=False, mu=0.0):
    """One update of the saga family: x <- prox_gamma^h(w) with
    w = (1 - gamma mu) x - gamma (f_j'(x) - f_j'(phi_j) + mean_i f_i'(phi_i)),
    and entry j replaced by f_j'(x) (phi_j, the pre-step x, is never
    formed).  ``per_n`` divides the difference by n, the biased sag
    direction; ``mu`` is an L2 term kept out of the table (the explicit
    form), and its scaling is skipped when mu = 0."""
    table, x = state.table, state.x
    if table.support:
        idx, a = obj.dataset.point(j)
        entry = obj.loss.deriv_scalar(float(np.vdot(obj.points[j], x)),
                                      obj.labels[j])
        diff = entry * a - table.coeffs[j] * a
        if per_n:
            diff /= obj.n
        step = table.avg.copy()
        step[idx] = diff + step[idx]
        step *= gamma
    else:
        entry, g_new = _new_gradient(obj, table, j, x)
        diff = g_new - (table.vecs[j] if table.mode == "dense"
                        else table.gradient(j))
        if per_n:
            diff /= obj.n
        step = gamma * (diff + table.avg)
    w = ((1.0 - gamma * mu) * x if mu else x) - step
    state.x = obj.reg.prox(gamma, w) if obj.reg.l1 or obj.reg.l2 else w
    table.update(j, entry)


def warm_step(state: SagaState, obj, j, gamma):
    """Step j of the one-by-one warm start of saga and sag: entry j is
    set to f_j'(x) and x <- prox_gamma^h(x - gamma * the mean of the j + 1
    gradients stored so far).  Points are visited in order from an empty
    table whose ``avg`` holds their running sum until the pass-end
    resync."""
    table = state.table
    entry, g_new = _new_gradient(obj, table, j, state.x)
    table.avg += g_new
    (table.coeffs if table.mode == "scalar" else table.vecs)[j] = entry
    w = state.x - gamma * (table.avg / (j + 1))
    state.x = obj.reg.prox(gamma, w) if obj.reg.l1 or obj.reg.l2 else w


def saga_u_reconstruct(state: SagaState, gamma) -> np.ndarray:
    """Current iterate x = u - gamma * sum_i f_i'(phi_i)."""
    return state.u - gamma * state.table.sum()


def saga_u_step(state: SagaState, obj, j, gamma):
    """Reformulated update tracking u instead of x (non-composite only).

    x is reconstructed from u and the table sum, u moves a 1/n fraction
    towards x, and entry j is refreshed at x.  Eliminating u gives back
    exactly the plain update, so the x sequences coincide.  The
    reconstruction after the step is kept as ``state.x``, which the
    next step starts from.
    """
    x = state.x
    state.u = state.u + (x - state.u) / obj.n
    entry, _ = _new_gradient(obj, state.table, j, x)
    state.table.update(j, entry)
    state.x = saga_u_reconstruct(state, gamma)


def finito_step(state: SagaState, obj, j, gamma):
    """x <- mean(phi) - gamma * sum_i f_i'(phi_i), then phi_j <- x."""
    x = state.phi_mean - gamma * state.table.sum()
    g_new = obj.component_gradient(j, x)
    state.table.update(j, g_new)
    state.phi_mean = state.phi_mean + (x - state.phi[j]) / obj.n
    state.phi[j] = x
    state.x = x


def sdca_primal_step(state: SagaState, obj, j, mu):
    """Primal-only dual coordinate step.

    With gamma = 1/(mu n), the leave-one-out point
    z = -gamma sum_{i != j} f_i'(phi_i) is proxed through f_j, the new
    gradient (z - phi_j)/gamma replaces entry j, and the iterate is kept
    at x = -gamma sum_i f_i'(phi_i).
    """
    gamma = 1.0 / (mu * obj.n)
    g_old = state.table.vecs[j]  # read in place, so diff before update
    z = state.x + gamma * g_old
    phi_j, g_new = scalar_loss_prox(obj, j, gamma, z)
    diff = g_new - g_old
    state.table.update(j, g_new)
    state.x = state.x - gamma * diff


def sdca_variant5_step(state: SagaState, obj, j, mu, L):
    """Conjugate-free variant: blend the stored gradient towards
    f_j'(x^k) with weight beta = mu n / (L + mu n); phi_j itself is
    never formed."""
    beta = mu * obj.n / (L + mu * obj.n)
    gamma = 1.0 / (mu * obj.n)
    g_old = state.table.vecs[j]  # read in place, so diff before update
    new = (1.0 - beta) * g_old + beta * obj.component_gradient(j, state.x)
    diff = new - g_old
    state.table.update(j, new)
    state.x = state.x - gamma * diff


def midpoint_step(state: SagaState, obj, j, mu):
    """Leave-one-out prox step sitting between the dual-coordinate and
    stored-point methods.

    z averages the other points' linearisations, phi_j is the prox of
    f_j at z with weight 1/(mu (n-1)), and afterwards the new iterate
    satisfies x = mean(phi) - (1/(mu n)) sum_i f_i'(phi_i) exactly.
    """
    n = obj.n
    gamma_p = 1.0 / (mu * (n - 1))
    sum_phi = state.phi_mean * n
    sum_g = state.table.sum()
    z = ((sum_phi - state.phi[j]) / (n - 1)
         - (sum_g - state.table.vecs[j]) / (mu * (n - 1)))
    phi_j, g_new = scalar_loss_prox(obj, j, gamma_p, z)
    state.table.update(j, g_new)
    state.phi_mean = state.phi_mean + (phi_j - state.phi[j]) / n
    state.phi[j] = phi_j
    state.x = phi_j


# table methods with a compiled pass, and their codes (see _kernel.table_pass)
COMPILED_STEPS = {"saga_u": 0, "finito": 1, "sdca_variant5": 2, "sag": 3,
                  "midpoint": 4, "saga_explicit_l2": 5}


# ---------------------------------------------------------------------------
# methods and their rules

@dataclass(frozen=True)
class Method:
    """What a method asks of its problem.  ``form`` is where the L2 term
    goes in the objective ``harness.method_objective`` builds: "split"
    into every component, "separate" into the regulariser of loss-only
    components, or "explicit" out of it, as ``run``'s ``explicit_l2``.
    ``prox``: it applies the prox of the regulariser, so it takes an L1
    term; ``needs_mu``: it needs mu > 0; ``param_free``: no step size."""

    form: str
    prox: bool = False
    needs_mu: bool = False
    param_free: bool = False


METHODS = {
    "saga": Method("split", prox=True),
    "saga_u": Method("split"),
    "sag": Method("split"),
    "svrg": Method("split", prox=True),
    "finito": Method("split", needs_mu=True),
    "sdca": Method("separate", needs_mu=True, param_free=True),
    "sdca_variant5": Method("separate", needs_mu=True, param_free=True),
    "midpoint": Method("split", needs_mu=True, param_free=True),
    "saga_explicit_l2": Method("explicit"),
    "saga_lazy": Method("explicit"),
}


def method_info(name) -> Method:
    """The record of method ``name``; ConfigError if there is none."""
    info = METHODS.get(name) if isinstance(name, str) else None
    if info is None:
        raise ConfigError(f"unknown method {name!r}")
    return info


def _check_scaling(gamma, l2):
    """The explicit form scales the iterate by 1 - gamma * l2 each step."""
    if not (l2 >= 0 and (gamma is None or gamma * l2 < 1.0)):
        raise ConfigError("the explicit form needs explicit_l2 >= 0 and "
                          "gamma * explicit_l2 < 1")


def check_method(name, *, loss, l1, mu, policy=None, n=None, init="full",
                 sampling="iid", inner_steps=None) -> Method:
    """Every rule that ties a method to its problem and run options:
    ``loss`` is the loss kind, ``l1`` the L1 strength, ``mu`` the L2
    strength wherever the method's form puts it, ``n`` the number of
    points, if known, and ``inner_steps`` svrg's steps per pass, if
    given.  Returns the method's record."""
    info = method_info(name)
    if l1 > 0 and not info.prox:
        raise ConfigError(f"{name} has no proximal support and cannot take "
                          "an L1 regulariser")
    if info.needs_mu and not mu > 0:
        raise ConfigError(f"{name} requires an L2 strength > 0 (mu > 0)")
    if info.form == "explicit":
        _check_scaling(policy.gamma if policy is not None else None, mu)
    if name == "midpoint" and n is not None and n < 2:
        raise ConfigError("midpoint requires n >= 2")
    if name == "saga_lazy" and loss != "squared":
        raise ConfigError("the lazy sparse engine only covers squared loss")
    if policy is not None and info.param_free:
        raise ConfigError(f"{name} is parameter free; drop the step policy")
    if policy is not None and name == "finito" and policy.mode != "manual":
        raise ConfigError("finito accepts only a manual step size override")
    if policy is not None:
        policy.check_mu(mu)
    if init not in ("full", "one_by_one") or sampling not in ("iid", "perm"):
        raise ConfigError(f"unknown init or sampling mode {init!r}, {sampling!r}")
    if init != "full" and name not in ("saga", "sag"):
        raise ConfigError("the one-by-one warm start is only wired for saga/sag")
    if sampling != "iid" and name in ("svrg", "saga_lazy"):
        raise ConfigError(f"{name} samples iid only")
    if inner_steps is not None and name != "svrg":
        raise ConfigError(f"{name} takes no inner_steps; only svrg has "
                          "inner steps")
    if inner_steps is not None and not (
            isinstance(inner_steps, numbers.Integral) and inner_steps >= 1):
        raise ConfigError("svrg needs a whole number of inner steps per "
                          f"pass, at least one, got {inner_steps!r}")
    return info


def _setup(method, obj, consts=None, explicit_l2=0.0, policy=None,
           init="full", sampling="iid", inner_steps=None):
    """Check a run of ``method`` on ``obj``, which must be in the
    method's form, before any work.  Returns the record, the constants
    (estimated, with mu the form's L2 strength, unless given) and the
    step of ``policy``: None when the method is parameter free, and
    without a policy 1/(2 mu n) for finito, otherwise 1/(2(mu n + L))
    when mu > 0 and 1/(3L) when not."""
    info = method_info(method)
    split, h_l2 = obj.split_l2 != 0.0, obj.reg.l2 != 0.0
    if not {"split": not h_l2, "separate": h_l2 and not split,
            "explicit": not (h_l2 or split)}[info.form]:
        raise ConfigError(f"{method} needs its objective in the {info.form} "
                          "form of harness.method_objective")
    if explicit_l2 != 0.0 and info.form != "explicit":
        raise ConfigError(f"{method} takes no explicit_l2: its L2 term is "
                          f"in its objective ({info.form} form)")
    if consts is None:
        consts = estimate_constants(obj)
        if info.form == "explicit":  # split-form constants of the scaling
            consts = replace(consts, L=consts.L + explicit_l2, mu=explicit_l2)
        elif info.form == "separate":
            consts = replace(consts, mu=obj.reg.l2)
    check_method(method, loss=obj.loss.kind, l1=obj.reg.l1,
                 mu=explicit_l2 if info.form == "explicit" else consts.mu,
                 policy=policy, n=obj.n, init=init, sampling=sampling,
                 inner_steps=inner_steps)
    if info.param_free:
        gamma = None
    elif policy is None and method == "finito":
        gamma = 1.0 / (2.0 * consts.mu * consts.n)
    else:
        gamma = step_size(policy or StepSizePolicy(
            "strongly_convex" if consts.mu > 0 else "adaptive"), consts)
    if info.form == "explicit":
        _check_scaling(gamma, explicit_l2)
    return info, consts, gamma


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


def _record(obj, k, evals, x, xbar, reference, extra_l2=0.0):
    # extra_l2 covers methods whose L2 term lives outside the objective
    sub = sub_avg = dist = None
    if reference is not None:
        x_star, f_star = reference

        def full_value(v):
            out = obj.value(v)
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
    ``svrg`` takes ``inner_steps`` steps per pass (default n) after a
    full gradient at its snapshot, and ``saga_lazy`` runs the lagged
    sparse engine of :mod:`incgrad.lazy` from the origin.
    A trace row is taken before any work and after every ``trace_every``
    epochs; when ``reference=(x_star, F_star)`` is given the rows carry
    suboptimality and squared distance, both for the iterate and for the
    running average iterate (``saga_lazy`` keeps no average).

    Each engine is a plain iterator of (k, evals, x, xsum): once after
    its set-up and once after every pass, with x the true iterate, which
    ``run`` checks against the divergence guard.  The result is built
    from the last tuple, so it is the last pass's x and xsum.
    """
    for name, count, least in (("epochs", epochs, 0),
                               ("trace_every", trace_every, 1)):
        if not (isinstance(count, numbers.Integral) and count >= least):
            raise ConfigError(f"{name} must be an integer >= {least}, "
                              f"got {count!r}")
    if rng is None:
        rng = np.random.default_rng(seed)
    x0 = np.asarray(x0, dtype=float)
    _, consts, gamma = _setup(method, obj, consts, explicit_l2, policy,
                              init, sampling, inner_steps)
    if method == "svrg":
        m = obj.n if inner_steps is None else int(inner_steps)
        passes = _svrg_passes(obj, x0, gamma, m, epochs, rng)
    elif method == "saga_lazy":
        passes = lazy.lazy_passes(obj, x0, gamma, explicit_l2, epochs, rng)
    else:
        passes = _table_passes(method, obj, x0, gamma, consts.mu, consts.L,
                               explicit_l2, epochs, rng, init, sampling)
    k, evals, x, xsum = next(passes)
    records = [_record(obj, 0, 0.0, x0, None if xsum is None else x0,
                       reference, explicit_l2)]
    for ep, (k, evals, x, xsum) in enumerate(passes, 1):
        _check_iterate(x, k)
        if ep % trace_every == 0 or ep == epochs:
            records.append(_record(obj, k, evals, x,
                                   None if xsum is None else xsum / k,
                                   reference, explicit_l2))
    xbar = None if xsum is None else (xsum / k if k else np.array(x0))
    return RunResult(method, records, np.array(x), xbar, evals)


def _table_passes(method, obj, x0, gamma, mu, L, explicit_l2, epochs, rng,
                  init, sampling):
    """Engine of the table methods (see :func:`run`)."""
    n = obj.n
    heuristic = init == "one_by_one"
    if method == "saga_u":
        state, step, args = saga_u_init(obj, x0, gamma), saga_u_step, (gamma,)
    elif method == "finito":
        state, step, args = finito_init(obj, x0), finito_step, (gamma,)
    elif method == "midpoint":
        state, step, args = finito_init(obj, x0), midpoint_step, (mu,)
    elif method == "sdca":
        state, step, args = sdca_init(obj, x0, mu), sdca_primal_step, (mu,)
    elif method == "sdca_variant5":
        state, step, args = sdca_init(obj, x0, mu), sdca_variant5_step, (mu, L)
    else:  # saga, sag and saga_explicit_l2
        step, args = saga_step, (gamma, method == "sag", explicit_l2)
        if heuristic:  # an empty table, filled by warm_step in epoch 0
            scalar = obj.split_l2 == 0
            state = SagaState(x=np.array(x0), table=GradientTable(
                obj, "scalar" if scalar else "dense", avg=np.zeros(obj.d),
                coeffs=np.zeros(n) if scalar else None,
                vecs=None if scalar else np.zeros((n, obj.d))))
        else:
            state = saga_init(obj, x0)
    evals = 0.0 if heuristic else float(n)  # the full pass at x0
    xsum = np.zeros_like(x0)
    kernel_pass = None
    if method in COMPILED_STEPS:  # the explicit form scales by explicit_l2
        from . import _kernel  # which loads the library only for a pass
        kernel_pass = _kernel.table_pass(
            COMPILED_STEPS[method], obj, state, xsum, gamma=gamma, L=L,
            mu=explicit_l2 if method == "saga_explicit_l2" else mu)
    steps = 0
    yield 0, evals, state.x, xsum

    for ep in range(epochs):
        if heuristic and ep == 0:
            fn, fn_args, order = warm_step, (gamma,), np.arange(n)
        else:
            fn, fn_args = step, args
            order = (rng.permutation(n) if sampling == "perm"
                     else rng.integers(0, n, size=n))
        if kernel_pass is not None and fn is step:  # warm_step stays numpy
            state.x = state.x.copy()  # the kernel works in place; yielded x stay
            steps += kernel_pass(order, state.x, state.table.avg,
                                 state.phi_mean)
        else:
            for j in order.tolist():
                fn(state, obj, j, *fn_args)
                steps += 1
                _check_iterate(state.x, steps)
                xsum += state.x
        state.table.resync()
        if method in ("sdca", "sdca_variant5"):
            state.x = -(1.0 / (mu * n)) * state.table.sum()
        elif method in ("finito", "midpoint"):
            state.phi_mean = state.phi.mean(axis=0)
        elif method == "saga_u":
            state.x = saga_u_reconstruct(state, gamma)
        yield steps, evals + steps, state.x, xsum


def _svrg_passes(obj, x0, gamma, m, epochs, rng):
    """Engine of ``svrg``: an outer/inner loop with a snapshot gradient.

    Each outer pass recalibrates: the snapshot moves to the current x
    and its full gradient is recomputed (n evaluations); every inner
    step then uses f_j'(x) - f_j'(snapshot) + full, costing 2
    evaluations, with the prox of h applied after the move.
    """
    x = np.array(x0, dtype=float)
    xsum = np.zeros_like(x)
    k = 0
    evals = 0.0
    has_prox = obj.reg.l1 or obj.reg.l2
    yield 0, evals, x, xsum
    from . import _kernel  # built or loaded by the first compiled run only
    kernel_pass = _kernel.svrg_pass(obj, gamma)
    for _ in range(epochs):
        snap = x.copy()
        g_full = obj.full_gradient(snap)
        evals += obj.n
        order = rng.integers(0, obj.n, size=m)
        if kernel_pass is not None:
            x = snap.copy()  # the kernel works in place; yielded x stay
            steps = kernel_pass(order, snap, g_full, x, xsum)
            k += steps
            evals += 2.0 * steps
        else:  # the same steps in numpy
            for j in order.tolist():
                g = obj.component_gradient(j, x) - obj.component_gradient(j, snap) + g_full
                w = x - gamma * g
                x = obj.reg.prox(gamma, w) if has_prox else w
                evals += 2.0
                k += 1
                xsum += x
                _check_iterate(x, k)
        yield k, evals, x, xsum


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
    v = np.random.default_rng(0).standard_normal(obj.d)
    lip = 0.0
    for _ in range(100):
        av = obj.margins(v / np.linalg.norm(v))
        lip_new = (obj.loss.curvature_bound * float(av @ av) / obj.n
                   + obj.split_l2)
        if abs(lip_new - lip) <= 1e-2 * lip_new:
            break
        lip = lip_new
        v = obj.point_sum(av)
    if not lip_new > 0:
        return max_lipschitz
    return min(lip_new, max_lipschitz)


def prox_gradient_optimum(obj, tol=1e-12, max_iter=1_000_000, x0=None):
    """Accelerated proximal gradient run to a certified fixed point.

    Stopping contract: with L_max = ``estimate_constants(obj).L`` and
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
    l_max = estimate_constants(obj).L
    lip = _smooth_lipschitz(obj, l_max)
    prox = obj.reg.prox if obj.reg.l1 or obj.reg.l2 else (lambda gamma, w: w)
    x = np.zeros(obj.d) if x0 is None else np.array(x0, dtype=float)
    mx = obj.margins(x)
    # exact: margins(y) as full_gradient forms it, else None; fy: f(y)
    y, my, exact, fy = x, mx, mx, None
    t = 1.0
    residual = math.inf
    for _ in range(max_iter):
        g = obj.full_gradient(y, margins=exact)
        ty = prox(1.0 / l_max, y - g / l_max)
        r = ty - y
        residual = math.sqrt(float(r @ r))  # np.linalg.norm's formula
        if residual <= tol:
            return ty, obj.value(ty)
        if fy is None and lip < l_max:
            fy = obj.smooth_value(y, margins=my)
        while True:
            x_new = ty if lip == l_max else prox(1.0 / lip, y - g / lip)
            m_new = obj.margins(x_new)
            dx = x_new - y
            f_new = None
            if lip == l_max:  # the step 1/L_max needs no test
                break
            f_new = obj.smooth_value(x_new, margins=m_new)
            if (f_new <= fy + float(g @ dx) + 0.5 * lip * float(dx @ dx)
                    + 1e-15 * abs(fy)):
                break
            lip = min(2.0 * lip, l_max)
        step = x_new - x
        if float(dx @ step) < 0.0:  # (y - x_new)'(x_new - x) > 0
            t = 1.0
            y, my, exact, fy = x_new, m_new, m_new, f_new
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_new
            y = x_new + beta * step
            my = m_new + beta * (m_new - mx)
            exact = fy = None
            t = t_new
        x, mx = x_new, m_new
    raise OptimumError(residual=residual, iterations=max_iter)
