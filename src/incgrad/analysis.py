"""Numerical certification of the solvers' convergence theory.

Everything here checks an inequality by evaluating both sides exactly:
expectations over the sampled component are enumerated (n terms), never
sampled, so each check is deterministic given its inputs.  The pieces
are the control-variate estimator algebra, four convexity lemmas, the
Lyapunov single-step contraction, and the closed-form convergence
bounds that the benchmark harness tracks along trajectories.  The
contraction checks solve each optimum by Newton, certified by |F'|/mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, OptimumError
from .objectives import (
    Dataset,
    FiniteSumObjective,
    ProblemConstants,
    Regularizer,
    estimate_constants,
    make_loss,
    sigmoid,
)
from .solvers import StepSizePolicy, prox_gradient_optimum, step_size

MAX_ENUMERABLE_N = 10_000
NEWTON_MAX_STEPS = 20


# ---------------------------------------------------------------------------
# Lyapunov function

@dataclass(frozen=True)
class LyapunovParams:
    """Constants (gamma, c, kappa, beta) entering the contraction check."""

    gamma: float
    c: float
    kappa: float
    beta: float

    @property
    def contraction(self) -> float:
        return 1.0 - 1.0 / self.kappa

    @classmethod
    def strongly_convex(cls, consts: ProblemConstants) -> "LyapunovParams":
        """gamma = 1/(2(mu n + L)), c = 1/(2 gamma (1-gamma mu) n),
        kappa = 1/(gamma mu), beta = (2 mu n + L)/L."""
        if consts.mu <= 0:
            raise ConfigError("the strongly convex preset needs mu > 0")
        gamma = step_size(StepSizePolicy("strongly_convex"), consts)
        c = 1.0 / (2.0 * gamma * (1.0 - gamma * consts.mu) * consts.n)
        kappa = 1.0 / (gamma * consts.mu)
        beta = (2.0 * consts.mu * consts.n + consts.L) / consts.L
        return cls(gamma=gamma, c=c, kappa=kappa, beta=beta)

    @classmethod
    def adaptive(cls, consts: ProblemConstants) -> "LyapunovParams":
        """gamma = 1/(3L) without using mu in the step; the contraction
        rate 1/kappa = min(1/(4n), mu/(3L)) still reflects any strong
        convexity actually present, with beta = 2 and the same c."""
        gamma = step_size(StepSizePolicy("adaptive"), consts)
        c = 1.0 / (2.0 * gamma * (1.0 - gamma * consts.mu) * consts.n)
        rate = min(1.0 / (4.0 * consts.n), consts.mu / (3.0 * consts.L))
        kappa = math.inf if rate == 0 else 1.0 / rate
        return cls(gamma=gamma, c=c, kappa=kappa, beta=2.0)


@dataclass
class ProblemSnapshot:
    """A frozen solver state (x, stored points phi, reference optimum)."""

    x: np.ndarray
    phi: np.ndarray
    x_star: np.ndarray
    consts: ProblemConstants


def _surplus(obj, phi, xs, g_star):
    """(T - c|x-x*|^2, f_i(phi_i), <f_i'(x*), phi_i - x*>), given the
    g_star = f_i'(x*) (see :func:`lyapunov_value`)."""
    f_phi = obj.values_at_points(phi)
    ip_phi = np.einsum("ij,ij->i", g_star, phi - xs)
    surplus = float(np.mean(f_phi)) - obj.smooth_value(xs) - float(np.mean(ip_phi))
    return surplus, f_phi, ip_phi


def _table_gradients(obj, x, phi):
    """(f_j'(x), f_j'(phi_j), their mean over j): saga's direction terms."""
    g_phi = obj.gradients_at_points(phi)
    return obj.component_gradients(x), g_phi, g_phi.mean(axis=0)


def lyapunov_value(snap: ProblemSnapshot, obj, c: float) -> float:
    """T = mean f_i(phi_i) - f(x*) - mean <f_i'(x*), phi_i - x*> + c|x-x*|^2."""
    xs = snap.x_star
    surplus = _surplus(obj, snap.phi, xs, obj.component_gradients(xs))[0]
    return surplus + c * float(np.sum((snap.x - xs) ** 2))


def expected_lyapunov_next(snap: ProblemSnapshot, obj,
                           params: LyapunovParams) -> float:
    """Exact expectation of T after one step, enumerating all n choices.

    For each candidate component j the step is simulated (the stored
    point j moves to the current x, the iterate takes the corrected
    prox step) and the resulting T values are averaged with equal
    weights.
    """
    n = obj.n
    if n > MAX_ENUMERABLE_N:
        raise ConfigError(f"refusing to enumerate n = {n} branches")
    x, phi, xs = snap.x, snap.phi, snap.x_star
    gamma, c = params.gamma, params.c

    g_x, g_phi, gbar = _table_gradients(obj, x, phi)
    w = x[None, :] - gamma * (g_x - g_phi + gbar[None, :])
    x_next = obj.reg.prox(gamma, w) if obj.reg.l1 or obj.reg.l2 else w
    dist = np.sum((x_next - xs[None, :]) ** 2, axis=1)

    g_star = obj.component_gradients(xs)
    base, f_phi, ip_phi = _surplus(obj, phi, xs, g_star)
    f_x = obj.component_values(x)
    ip_x = g_star @ (x - xs)
    t_next = base + (f_x - f_phi) / n - (ip_x - ip_phi) / n + c * dist
    return float(np.mean(t_next))


# ---------------------------------------------------------------------------
# control-variate estimator algebra

@dataclass(frozen=True)
class EstimatorSpec:
    """Paired random variables (X, Y) on a finite sample space, plus the
    interpolation weight alpha of theta = alpha (X - Y) + E[Y]."""

    xs: np.ndarray
    ys: np.ndarray
    probs: np.ndarray
    alpha: float

    def __post_init__(self):
        xs = np.asarray(self.xs, float)
        ys = np.asarray(self.ys, float)
        p = np.asarray(self.probs, float)
        if not (xs.shape == ys.shape == p.shape) or xs.ndim != 1:
            raise ConfigError("xs, ys, probs must be equal-length vectors")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ConfigError("probs must be a distribution")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")


def theta_estimator_stats(spec: EstimatorSpec):
    """Exact (bias, variance) of the interpolated estimator.

    bias = (alpha - 1)(E[X] - E[Y]) and
    var = alpha^2 (var X + var Y - 2 cov(X, Y)); alpha trades the bias
    against the variance, alpha = 1 being the unbiased corner.
    """
    xs, ys, p = (np.asarray(spec.xs, float), np.asarray(spec.ys, float),
                 np.asarray(spec.probs, float))
    ex, ey = float(p @ xs), float(p @ ys)
    vx = float(p @ (xs - ex) ** 2)
    vy = float(p @ (ys - ey) ** 2)
    cov = float(p @ ((xs - ex) * (ys - ey)))
    bias = (spec.alpha - 1.0) * (ex - ey)
    variance = spec.alpha**2 * (vx + vy - 2.0 * cov)
    return bias, variance


# ---------------------------------------------------------------------------
# lemma gaps (all oriented so the lemma asserts gap >= 0)

def _component_value_gradient_ld(obj, i, x):
    """f_i value and gradient in extended precision.

    The strong-convexity lower bound is an equality for quadratics, and
    its 1/(2(L-mu)) coefficient blows up for weakly curved components,
    so double-precision cancellation alone can push the gap past 1e-12;
    the whole evaluation therefore runs in long double.
    """
    ld = np.longdouble
    a = obj.points[i].astype(ld)
    b = ld(obj.labels[i])
    sig = ld(obj.split_l2)
    x = np.asarray(x, dtype=ld)
    t = a @ x
    if obj.loss.kind == "squared":
        val = ld(0.5) * (t - b) ** 2
        coef = t - b
    else:
        u = -b * t
        val = np.logaddexp(ld(0), u)
        e = np.exp(-np.abs(u))
        s = 1.0 / (1.0 + e) if u >= 0 else e / (1.0 + e)
        coef = -b * s
    val += ld(0.5) * sig * (x @ x)
    return val, coef * a + sig * x


def lemma_strong_lb_gap(obj, i, x, y, mu, L) -> float:
    """Quadratic-plus-gradient lower bound for a single mu-strongly
    convex, L-smooth component."""
    if L <= mu:
        raise ConfigError("the bound needs L > mu")
    ld = np.longdouble
    mu, L = ld(mu), ld(L)
    x = np.asarray(x, dtype=ld)
    y = np.asarray(y, dtype=ld)
    fx, gx = _component_value_gradient_ld(obj, i, x)
    fy, gy = _component_value_gradient_ld(obj, i, y)
    rhs = fy
    rhs += gy @ (x - y)
    rhs += np.sum((gx - gy) ** 2) / (2 * (L - mu))
    rhs += mu * L / (2 * (L - mu)) * np.sum((y - x) ** 2)
    rhs += mu / (L - mu) * ((gx - gy) @ (y - x))
    return float(fx - rhs)


def lemma_ip_bound_gap(obj, x, x_star, mu, L) -> float:
    """Inner-product bound <f'(x), x*-x> <= averaged component bound."""
    x = np.asarray(x, float)
    xs = np.asarray(x_star, float)
    g = obj.full_gradient(x)
    gs = obj.full_gradient(xs)
    lhs = float(g @ (xs - x))
    comp_sq = float(np.mean(
        np.sum((obj.component_gradients(xs) - obj.component_gradients(x)) ** 2,
               axis=1)))
    rhs = (L - mu) / L * (obj.smooth_value(xs) - obj.smooth_value(x))
    rhs -= 0.5 * mu * float(np.sum((xs - x) ** 2))
    rhs -= comp_sq / (2.0 * L)
    rhs -= mu / L * float(gs @ (x - xs))
    return rhs - lhs


def lemma_grad_diff_gap(obj, phi, x_star, L) -> float:
    """Mean squared stored-gradient deviation against 2L times the
    linearisation surplus at the stored points."""
    phi = np.asarray(phi, float)
    xs = np.asarray(x_star, float)
    g_star = obj.component_gradients(xs)
    lhs = float(np.mean(np.sum((obj.gradients_at_points(phi) - g_star) ** 2,
                               axis=1)))
    return 2.0 * L * _surplus(obj, phi, xs, g_star)[0] - lhs


def lemma_wchange_gap(obj, x, phi, x_star, gamma, beta) -> float:
    """Second moment of the pre-prox move, split by a beta-weighted
    Young inequality; the expectation over the sampled component is
    enumerated exactly.  ``beta`` may be a sequence: the gap is then the
    smallest over its values, all from one set of gradients."""
    betas = [beta] if np.ndim(beta) == 0 else list(beta)
    if not betas or any(b <= 0 for b in betas):
        raise ConfigError("beta must be positive")
    x = np.asarray(x, float)
    phi = np.asarray(phi, float)
    xs = np.asarray(x_star, float)
    g_x, g_phi, gbar = _table_gradients(obj, x, phi)
    g_star = obj.component_gradients(xs)
    gs_full = obj.full_gradient(xs)
    w = x[None, :] - gamma * (g_x - g_phi + gbar[None, :])
    lhs = float(np.mean(np.sum((w - x[None, :] + gamma * gs_full) ** 2, axis=1)))
    t_phi = float(np.mean(np.sum((g_phi - g_star) ** 2, axis=1)))
    t_x = float(np.mean(np.sum((g_x - g_star) ** 2, axis=1)))
    g_dev = float(np.sum((obj.full_gradient(x) - gs_full) ** 2))
    return min(gamma**2 * ((1.0 + 1.0 / b) * t_phi + (1.0 + b) * t_x
                           - b * g_dev) - lhs for b in betas)


_LEMMAS = {
    "strong_lb": lemma_strong_lb_gap,
    "ip_bound": lemma_ip_bound_gap,
    "grad_diff": lemma_grad_diff_gap,
    "wchange": lemma_wchange_gap,
}


def lemma_gap(kind: str, **inputs) -> float:
    """RHS - LHS of the named inequality; nonnegative when it holds."""
    try:
        fn = _LEMMAS[kind]
    except KeyError:
        raise ConfigError(f"unknown lemma id {kind!r}") from None
    return fn(**inputs)


# ---------------------------------------------------------------------------
# convergence bounds

def bound_value(kind: str, obj, consts: ProblemConstants, x0, x_star, k: int,
                allow_unverified: bool = False) -> float:
    """Closed-form bound after k steps from x0.

    ``corollary_sc`` and ``adaptive`` bound E|x^k - x*|^2 under steps
    1/(2(mu n+L)) and 1/(3L) respectively; ``nonsc`` bounds
    E[F(xbar^k)] - F* for merely convex components under 1/(3L).  The
    ``average_sc`` rate (strong convexity holding only on average, step
    1/(3(mu n+L))) is stated without an accompanying argument, so it is
    locked behind ``allow_unverified``.
    """
    x0 = np.asarray(x0, float)
    xs = np.asarray(x_star, float)
    n, L, mu = consts.n, consts.L, consts.mu
    d0 = float(np.sum((x0 - xs) ** 2))
    bracket = obj.smooth_value(x0) - float(obj.full_gradient(xs) @ (x0 - xs)) \
        - obj.smooth_value(xs)
    if kind == "corollary_sc":
        if mu <= 0:
            raise ConfigError("corollary_sc requires mu > 0")
        rate = 1.0 - mu / (2.0 * (mu * n + L))
        return rate**k * (d0 + n / (mu * n + L) * bracket)
    if kind == "adaptive":
        rate = 1.0 - min(1.0 / (4.0 * n), mu / (3.0 * L))
        return rate**k * (d0 + 2.0 * n / (3.0 * L) * bracket)
    if kind == "nonsc":
        if k < 1:
            raise ConfigError("the averaged-iterate bound needs k >= 1")
        return (4.0 * n / k) * ((2.0 * L / n) * d0 + bracket)
    if kind == "average_sc":
        if not allow_unverified:
            raise ConfigError(
                "the average-strong-convexity rate is unverified; "
                "pass allow_unverified=True to evaluate it anyway")
        if mu <= 0:
            raise ConfigError("average_sc requires mu > 0")
        gamma = step_size(StepSizePolicy("average_sc"), consts)
        rate = 1.0 - mu / (6.0 * (mu * n + L))
        return rate**k * (d0 + 2.0 * gamma * (1.0 - gamma * mu) * n * bracket)
    raise ConfigError(f"unknown bound kind {kind!r}")


# ---------------------------------------------------------------------------
# random instances for certification

def random_strongly_convex_objective(rng, kind=None):
    """Random small dense problem whose components are strongly convex
    through a split-in L2 term sized relative to the loss curvature."""
    n = int(rng.integers(2, 51))
    d = int(rng.integers(1, 11))
    if kind is None:
        kind = "squared" if rng.random() < 0.5 else "logistic"
    pts = rng.standard_normal((n, d)) / math.sqrt(d)
    loss = make_loss(kind)
    w = rng.standard_normal(d)
    margins = pts @ w
    if kind == "squared":
        labels = margins + 0.3 * rng.standard_normal(n)
    else:
        labels = np.where(rng.random(n) < sigmoid(margins), 1.0, -1.0)
    ds = Dataset.from_dense(pts, labels)
    l_loss = loss.curvature_bound * float(ds.sqnorms().max())
    split = float(rng.uniform(0.05, 1.0)) * l_loss
    return FiniteSumObjective(ds, loss, split_l2=split)


def random_snapshot(rng, obj, x_star, consts) -> ProblemSnapshot:
    scale = 10.0 ** rng.uniform(-3, 0.5)
    x = x_star + scale * rng.standard_normal(obj.d)
    phi = x_star[None, :] + scale * rng.standard_normal((obj.n, obj.d))
    return ProblemSnapshot(x=x, phi=phi, x_star=x_star, consts=consts)


# ---------------------------------------------------------------------------
# certification battery

@dataclass
class PropertyResult:
    name: str
    passed: bool
    worst: float
    detail: str


def _newton_optimum(obj):
    """Newton from 0 to |F'(x)| <= 1e-12 on a smooth dense F with
    mu = split_l2 > 0 (with labels +-1, the logistic psi'' is
    sigmoid(m) sigmoid(-m)); returns x and its certified distance
    |F'(x)|/mu >= |x - x*| (Nesterov 2004, sec. 2.1.3)."""
    a, mu, x = obj.points, obj.split_l2, np.zeros(obj.d)
    for _ in range(NEWTON_MAX_STEPS + 1):
        m = obj.margins(x)
        g = obj.full_gradient(x, margins=m)
        residual = math.sqrt(float(g @ g))
        if residual <= 1e-12:
            return x, residual / mu
        h = sigmoid(m) * sigmoid(-m) if obj.loss.kind == "logistic" else 1.0
        hess = (a.T * h) @ a / obj.n + mu * np.eye(obj.d)
        x = x - np.linalg.solve(hess, g)
    raise OptimumError(residual, NEWTON_MAX_STEPS, solver="Newton's method")


def _check_contraction(rng, instances, preset):
    worst = -math.inf
    for _ in range(instances):
        obj = random_strongly_convex_objective(rng)
        consts = estimate_constants(obj)
        x_star, _ = _newton_optimum(obj)
        snap = random_snapshot(rng, obj, x_star, consts)
        params = (LyapunovParams.strongly_convex(consts) if preset == "sc"
                  else LyapunovParams.adaptive(consts))
        t0 = lyapunov_value(snap, obj, params.c)
        t1 = expected_lyapunov_next(snap, obj, params)
        worst = max(worst, t1 - params.contraction * t0)
    return worst


def _check_lemmas(rng, instances):
    worst = {kind: math.inf for kind in _LEMMAS}
    for _ in range(instances):
        obj = random_strongly_convex_objective(rng)
        consts = estimate_constants(obj)
        n, d = obj.n, obj.d
        x = rng.standard_normal(d)
        y = rng.standard_normal(d)
        phi = rng.standard_normal((n, d))
        i = int(rng.integers(0, n))
        l_i = obj.loss.curvature_bound * float(obj.dataset.sqnorms()[i]) \
            + obj.split_l2
        worst["strong_lb"] = min(worst["strong_lb"], lemma_gap(
            "strong_lb", obj=obj, i=i, x=x, y=y, mu=consts.mu, L=l_i))
        worst["ip_bound"] = min(worst["ip_bound"], lemma_gap(
            "ip_bound", obj=obj, x=x, x_star=y, mu=consts.mu, L=consts.L))
        worst["grad_diff"] = min(worst["grad_diff"], lemma_gap(
            "grad_diff", obj=obj, phi=phi, x_star=y, L=consts.L))
        params = LyapunovParams.strongly_convex(consts)
        worst["wchange"] = min(worst["wchange"], lemma_gap(
            "wchange", obj=obj, x=x, phi=phi, x_star=y, gamma=params.gamma,
            beta=(0.5, 1.0, 2.0, params.beta)))
    return worst


def _check_estimator(rng):
    worst = 0.0
    for _ in range(200):
        size = int(rng.integers(2, 12))
        xs = rng.standard_normal(size)
        ys = 0.7 * xs + 0.3 * rng.standard_normal(size)
        p = rng.random(size)
        p /= p.sum()
        alpha = float(rng.random())
        spec = EstimatorSpec(xs=xs, ys=ys, probs=p, alpha=alpha)
        bias, var = theta_estimator_stats(spec)
        theta = alpha * (xs - ys) + float(p @ ys)
        bf_bias = float(p @ theta) - float(p @ xs)
        bf_var = float(p @ (theta - p @ theta) ** 2)
        worst = max(worst, abs(bias - bf_bias), abs(var - bf_var))
    return worst


def _check_moreau(rng):
    worst = 0.0
    lam, mu = 0.7, 1.3
    gamma = 0.9
    v = 3.0 * rng.standard_normal(1000)
    l1 = Regularizer(l1=lam)
    resid = (v - l1.prox(gamma, v)) - np.clip(v, -gamma * lam, gamma * lam)
    worst = max(worst, float(np.abs(resid).max()))
    l2 = Regularizer(l2=mu)
    resid = (v - l2.prox(gamma, v)) - v * (gamma * mu / (1.0 + gamma * mu))
    worst = max(worst, float(np.abs(resid).max()))
    return worst


def _check_unbiasedness(rng):
    worst_saga = worst_sag = 0.0
    for _ in range(100):
        obj = random_strongly_convex_objective(rng)
        x = rng.standard_normal(obj.d)
        phi = rng.standard_normal((obj.n, obj.d))
        g_x, g_phi, gbar = _table_gradients(obj, x, phi)
        full = obj.full_gradient(x)
        saga_mean = (g_x - g_phi + gbar).mean(axis=0)
        worst_saga = max(worst_saga, float(np.abs(saga_mean - full).max()))
        n = obj.n
        sag_mean = ((g_x - g_phi) / n + gbar).mean(axis=0)
        expected = full / n + (1.0 - 1.0 / n) * gbar
        worst_sag = max(worst_sag, float(np.abs(sag_mean - expected).max()))
    return worst_saga, worst_sag


def _check_bound_dominance(seed, seeds):
    """Mean squared distance along seeded ``saga_u`` runs (saga's
    iterates, through the compiled table pass) against twice the
    closed-form geometric bound, on a small ridge problem."""
    from .datasets import generate_synthetic
    from .solvers import run

    ds = generate_synthetic("ridge", n=40, d=8, density=1.0, noise=0.4,
                            seed=seed, normalize=True)
    l_loss = 1.0
    mu = l_loss / (ds.n - 1)
    obj = FiniteSumObjective(ds, make_loss("squared"), split_l2=mu)
    consts = estimate_constants(obj)
    x_star, f_star = prox_gradient_optimum(obj)
    x0 = np.zeros(obj.d)
    epochs = 15
    reference = (x_star, f_star)
    runs = (run("saga_u", obj, x0, epochs=epochs, seed=s, reference=reference)
            for s in range(1000, 1000 + seeds))
    mean = sum(np.array([r.dist_sq for r in res.records])
               for res in runs) / seeds
    ks = [r.k for r in run("saga", obj, x0, epochs=epochs, seed=0,
                           reference=reference).records]
    worst = -math.inf
    for k, m in zip(ks, mean):
        bound = bound_value("corollary_sc", obj, consts, x0, x_star, k)
        worst = max(worst, m - 2.0 * bound)
    return worst


def certify(seed=0, instances=1000, lemma_instances=1000, traj_seeds=200,
            include_trajectory=True):
    """Run the full property battery; returns a list of PropertyResult.

    Raises :class:`ConfigError` for a negative seed, or when a battery
    would be empty: fewer than one instance, lemma instance, or (with
    the trajectory check) trajectory seed.
    """
    if seed < 0:
        raise ConfigError(f"'seed' must be nonnegative, got {seed}")
    sizes = {"instances": instances, "lemma_instances": lemma_instances}
    if include_trajectory:
        sizes["traj_seeds"] = traj_seeds
    for name, size in sizes.items():
        if size < 1:
            raise ConfigError(f"{name} must be at least 1, got {size}")
    rng, inf = np.random.default_rng(seed), math.inf
    # (name, worst, (lo, hi), detail), in the order the checks draw from
    # rng; a property passes when lo <= worst <= hi
    contraction = f"max E[T1] - (1-1/kappa) T0 over {instances} instances"
    table = [(f"lyapunov_contraction_{name}",
              _check_contraction(rng, instances, preset), (-inf, 1e-10),
              contraction)
             for name, preset in (("strongly_convex", "sc"),
                                  ("adaptive", "adaptive"))]
    table += [(f"lemma_{kind}", gap, (-1e-12, inf),
               f"min gap over {lemma_instances} instances")
              for kind, gap in _check_lemmas(rng, lemma_instances).items()]
    table += [("estimator_algebra", _check_estimator(rng), (-inf, 1e-14),
               "max |closed form - brute force| for bias and variance"),
              ("moreau_decomposition", _check_moreau(rng), (-inf, 1e-12),
               "max residual of v - prox(v) against the conjugate prox")]
    w_saga, w_sag = _check_unbiasedness(rng)
    table += [("direction_unbiasedness", w_saga, (-inf, 1e-12),
               "max |mean_j direction - f'(x)|"),
              ("sag_bias_structure", w_sag, (-inf, 1e-12),
               "max |mean_j direction - (f'(x)/n + (1-1/n) mean)|")]
    if include_trajectory:
        table.append(("bound_dominance_trajectory",
                      _check_bound_dominance(seed, traj_seeds), (-inf, 0.0),
                      f"max mean dist^2 - 2x bound over {traj_seeds} seeds"))
    return [PropertyResult(name, lo <= worst <= hi, worst, detail)
            for name, worst, (lo, hi), detail in table]


def format_report(results) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:42s} worst={r.worst: .3e}  ({r.detail})")
    return "\n".join(lines)
