"""Finite-sum composite objectives over linear predictors.

The smooth part is an average of per-point terms

    f(x) = (1/n) sum_i f_i(x),    f_i(x) = psi_i(a_i' x) + (split_l2/2) |x|^2,

where ``psi_i`` is a scalar loss tied to label b_i.  A nonsmooth (or
simply separate) regulariser h enters through its proximal operator,
giving the full objective F = f + h.  Folding an L2 term into every
f_i via ``split_l2`` makes each component strongly convex, which is
what the linear-rate solvers rely on; keeping it in h instead leaves
the components merely convex.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cscmat import CscMatrix
from .errors import ConfigError, ProxSolveError


def is_real(value):
    """True for a real number other than a bool: a string or True is no
    strength or step."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def sigmoid(u):
    """Numerically stable logistic function, elementwise."""
    u = np.asarray(u, dtype=float)
    e = np.exp(-np.abs(u))
    d = 1.0 + e
    return np.where(u >= 0, 1.0 / d, e / d)


def _sigmoid_scalar(u: float) -> float:
    """The logistic function on one Python float, same branches as
    :func:`sigmoid`; ``math.exp`` never overflows on either branch."""
    if u >= 0:
        return 1.0 / (1.0 + math.exp(-u))
    e = math.exp(u)
    return e / (1.0 + e)


class Dataset:
    """n labelled points in d dimensions, one CSC column per point."""

    def __init__(self, features: CscMatrix, labels):
        labels = np.ascontiguousarray(labels, dtype=np.float64)
        if labels.ndim != 1 or labels.shape[0] != features.ncols:
            raise ConfigError("labels must be a vector with one entry per point")
        if not (np.isfinite(labels).all() and np.isfinite(features.data).all()):
            raise ConfigError("labels and feature values must be finite")
        self.features = features
        self.labels = labels
        self._dense = None
        self._sqnorms = None

    @classmethod
    def from_dense(cls, points, labels) -> "Dataset":
        """Build from a dense (n, d) row-per-point array."""
        points = np.asarray(points, dtype=np.float64)
        return cls(CscMatrix.from_dense(points.T), labels)

    @property
    def n(self) -> int:
        return self.features.ncols

    @property
    def d(self) -> int:
        return self.features.nrows

    def point(self, i):
        """(coordinate indices, values) of point i."""
        return self.features.column(i)

    def dense_points(self) -> np.ndarray:
        """Dense (n, d) array of the points, cached; no copy is made of
        the array ``to_dense`` fills."""
        if self._dense is None:
            self._dense = np.ascontiguousarray(self.features.to_dense().T)
        return self._dense

    def sqnorms(self) -> np.ndarray:
        if self._sqnorms is None:
            self._sqnorms = self.features.col_sqnorms()
        return self._sqnorms


class LossModel:
    """Scalar loss psi_i(t) on the margin t = a_i' x, with label b_i."""

    kind = "abstract"
    curvature_bound = float("nan")

    def value(self, t, b):
        raise NotImplementedError

    def deriv(self, t, b):
        raise NotImplementedError

    def check_labels(self, labels):
        pass


class SquaredLoss(LossModel):
    kind = "squared"
    curvature_bound = 1.0

    def value(self, t, b):
        r = np.asarray(t, float) - b
        return 0.5 * r * r

    def deriv(self, t, b):
        return np.asarray(t, float) - b

    def deriv_scalar(self, t, b):
        return t - b


class LogisticLoss(LossModel):
    kind = "logistic"
    curvature_bound = 0.25

    def value(self, t, b):
        return np.logaddexp(0.0, -b * np.asarray(t, float))

    def deriv(self, t, b):
        return -b * sigmoid(-b * np.asarray(t, float))

    def deriv_scalar(self, t, b):
        return -b * _sigmoid_scalar(-b * t)

    def check_labels(self, labels):
        if not np.all(np.abs(labels) == 1.0):
            raise ConfigError("logistic loss requires labels in {-1, +1}")


_LOSSES = {"squared": SquaredLoss, "logistic": LogisticLoss}


def make_loss(kind: str) -> LossModel:
    try:
        return _LOSSES[kind]()
    except KeyError:
        raise ConfigError(f"unknown loss kind {kind!r}") from None


@dataclass(frozen=True)
class Regularizer:
    """Closed-form-prox regulariser: (l2/2)|x|^2 + l1*|x|_1.

    Both strengths zero means no regulariser; one of them zero gives the
    plain L2 / L1 cases, both positive the elastic combination.
    """

    l2: float = 0.0
    l1: float = 0.0

    def __post_init__(self):
        if not all(is_real(s) and 0 <= s < math.inf for s in (self.l2, self.l1)):
            raise ConfigError("regulariser strengths must be finite and nonnegative")

    def value(self, x):
        x = np.asarray(x, float)
        out = 0.0
        if self.l2:
            out += 0.5 * self.l2 * float(np.sum(x * x))
        if self.l1:
            out += self.l1 * float(np.sum(np.abs(x)))
        return out

    def prox(self, gamma: float, y):
        """argmin_x h(x) + |x - y|^2 / (2 gamma), elementwise.

        Soft-threshold for the L1 part, multiplicative shrinkage for the
        L2 part; the two compose in that order for the elastic case.
        """
        if gamma <= 0:
            raise ValueError("prox step weight gamma must be positive")
        out = np.asarray(y, float)
        if self.l1:
            thr = gamma * self.l1
            out = np.sign(out) * np.maximum(np.abs(out) - thr, 0.0)
        if self.l2:
            out = out / (1.0 + gamma * self.l2)
        return out


@dataclass(frozen=True)
class ProblemConstants:
    """Component-level smoothness/strong-convexity constants."""

    n: int
    d: int
    L: float
    mu: float

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ConfigError("need n >= 1 and d >= 1")
        if not (self.L >= self.mu >= 0):
            raise ConfigError(f"need L >= mu >= 0, got L={self.L}, mu={self.mu}")
        if self.L <= 0:
            raise ConfigError("L must be positive (no valid step size otherwise)")


# below this density, from this many coordinates on, whole-data products
# run over the nonzeros and scalar tables step on the support (see
# solvers.GradientTable); elsewhere the indexing costs what it saves
SUPPORT_DENSITY = 0.1
SUPPORT_MIN_D = 1000


class FiniteSumObjective:
    """Dataset + loss + optional split-in L2 term + prox regulariser.

    On sparse data (density below ``SUPPORT_DENSITY``, d at least
    ``SUPPORT_MIN_D``) ``sparse`` is set, and :meth:`margins` and
    :meth:`point_sum`, which every whole-data product goes through, sum
    over the nonzeros; otherwise they are the dense BLAS products.
    """

    def __init__(self, dataset: Dataset, loss: LossModel, split_l2: float = 0.0,
                 reg: Regularizer | None = None):
        if not (is_real(split_l2) and 0 <= split_l2 < math.inf):
            raise ConfigError("split_l2 must be finite and nonnegative")
        loss.check_labels(dataset.labels)
        self.dataset = dataset
        self.loss = loss
        self.split_l2 = float(split_l2)
        self.reg = reg if reg is not None else Regularizer()
        # plain attributes: the step kernels read these on every step
        self.n = dataset.n
        self.d = dataset.d
        self.labels = dataset.labels
        self.sparse = (self.d >= SUPPORT_MIN_D and dataset.features.nnz
                       < SUPPORT_DENSITY * self.n * self.d)

    @cached_property
    def points(self) -> np.ndarray:
        """Dense (n, d) row-per-point array, densified on first use."""
        return self.dataset.dense_points()

    # -- smooth part -------------------------------------------------

    def margins(self, x) -> np.ndarray:
        """a_i' x for every i: ``points @ x``."""
        if self.sparse:
            return self.dataset.features.rmatvec(x)
        return self.points @ x

    def point_sum(self, c) -> np.ndarray:
        """sum_i c_i a_i: ``points.T @ c``."""
        if self.sparse:
            return self.dataset.features.matvec(c)
        return self.points.T @ c

    def loss_coeffs(self, x) -> np.ndarray:
        """psi_i'(a_i' x) for every i; the scalar gradient weights."""
        return self.loss.deriv(self.margins(x), self.labels)

    def smooth_value(self, x, margins=None) -> float:
        """f(x); ``margins`` may pass a precomputed ``margins(x)``."""
        x = np.asarray(x, float)
        if margins is None:
            margins = self.margins(x)
        # np.mean's own sum and division, without its per-call checks
        vals = self.loss.value(margins, self.labels)
        val = float(np.add.reduce(vals) / self.n)
        if self.split_l2:
            val += 0.5 * self.split_l2 * float(x @ x)
        return val

    def value(self, x) -> float:
        """F(x) = f(x) + h(x)."""
        return self.smooth_value(x) + self.reg.value(x)

    def full_gradient(self, x, margins=None) -> np.ndarray:
        """f'(x); ``margins`` may pass a precomputed ``margins(x)``."""
        x = np.asarray(x, float)
        if not np.isfinite(x).all():
            raise ValueError("x must be finite")
        if margins is None:
            margins = self.margins(x)
        g = self.point_sum(self.loss.deriv(margins, self.labels)) / self.n
        if self.split_l2:
            g = g + self.split_l2 * x
        return g

    def component_gradient(self, i: int, x) -> np.ndarray:
        """f_i'(x) = psi_i'(a_i' x) a_i + split_l2 * x."""
        self._check_index(i)
        x = np.asarray(x, float)
        a = self.points[i]
        # the margin checks x: the dot product does not skip zeros and
        # 0 * inf is nan, so any non-finite coordinate makes t non-finite
        # (a finite x whose margin overflows is rejected as well); vdot
        # rounds like a @ x but, unlike the ufunc, warns about neither
        t = float(np.vdot(a, x))
        if not math.isfinite(t):
            raise ValueError("x must be finite")
        c = self.loss.deriv_scalar(t, self.labels[i])
        g = c * a
        if self.split_l2:
            g = g + self.split_l2 * x
        return g

    def _check_index(self, i):
        if not 0 <= i < self.n:
            raise IndexError(f"component index {i} out of range [0, {self.n})")

    # -- batched forms used by the analysis kit ----------------------

    def component_values(self, x) -> np.ndarray:
        """Vector of f_i(x) for all i at a common point."""
        x = np.asarray(x, float)
        vals = self.loss.value(self.margins(x), self.labels)
        if self.split_l2:
            vals = vals + 0.5 * self.split_l2 * float(x @ x)
        return vals

    def component_gradients(self, x) -> np.ndarray:
        """(n, d) matrix whose row i is f_i'(x)."""
        x = np.asarray(x, float)
        g = self.loss_coeffs(x)[:, None] * self.points
        if self.split_l2:
            g += self.split_l2 * x
        return g

    def values_at_points(self, phi) -> np.ndarray:
        """f_i(phi_i) for a separate point per component; phi is (n, d)."""
        phi = np.asarray(phi, float)
        t = np.einsum("ij,ij->i", self.points, phi)
        vals = self.loss.value(t, self.labels)
        if self.split_l2:
            vals = vals + 0.5 * self.split_l2 * np.einsum("ij,ij->i", phi, phi)
        return vals

    def gradients_at_points(self, phi) -> np.ndarray:
        """(n, d) matrix whose row i is f_i'(phi_i)."""
        phi = np.asarray(phi, float)
        t = np.einsum("ij,ij->i", self.points, phi)
        g = self.loss.deriv(t, self.labels)[:, None] * self.points
        if self.split_l2:
            g += self.split_l2 * phi
        return g


def estimate_constants(obj: FiniteSumObjective) -> ProblemConstants:
    """Exact component constants for the supported losses.

    L is the worst-case component smoothness max_i kappa * |a_i|^2
    plus the split-in L2 strength; the only strong convexity certified
    at the component level is the split-in term itself.
    """
    sq = obj.dataset.sqnorms()
    L = float(obj.loss.curvature_bound * sq.max()) + obj.split_l2
    return ProblemConstants(n=obj.n, d=obj.d, L=L, mu=obj.split_l2)


# where scalar_loss_prox's margin solve stops; the compiled midpoint pass too
_PROX_TOL = 1e-12


def scalar_loss_prox(obj: FiniteSumObjective, i: int, gamma: float, z,
                     max_iter: int | None = None):
    """Proximal step on a single component f_i.

    Solves phi = argmin_x f_i(x) + |x - z|^2 / (2 gamma) by reducing to
    the margin t = a_i' phi: the minimiser moves from z only along a_i
    (after the uniform shrink from any split-in L2 term), so t solves

        (1 + gamma*split) t + gamma |a_i|^2 psi_i'(t) = a_i' z.

    Squared loss gives t in closed form; logistic uses safeguarded
    Newton with a bisection fallback on a bracket that is guaranteed to
    contain the root, for at most ``max_iter`` iterations (default: the
    bound of :func:`_solve_margin`).  Returns (phi, stored_gradient) where
    stored_gradient = (z - phi)/gamma = f_i'(phi).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    obj._check_index(i)
    z = np.asarray(z, float)
    a = obj.points[i]
    b = float(obj.labels[i])
    q = float(obj.dataset.sqnorms()[i])
    sig = obj.split_l2
    az = float(np.vdot(a, z))
    shrink = 1.0 + gamma * sig

    if obj.loss.kind == "squared":
        t = (az + gamma * q * b) / (shrink + gamma * q)
    else:
        t = _solve_margin(b, shrink, gamma * q, az, _PROX_TOL, max_iter)

    coef = obj.loss.deriv_scalar(t, b)
    phi = (z - gamma * coef * a) / shrink
    stored = (z - phi) / gamma
    return phi, stored


def _solve_margin(b, shrink, gq, az, tol, max_iter=None):
    """Root of g(t) = shrink*t + gq*psi'(t) - az, strictly increasing,
    for the logistic psi'(t) = -b sigmoid(-b t).  Runs on Python floats:
    every argument is a scalar, and numpy's per-call cost on 0-d arrays
    is most of the time of a scalar iteration.

    Safeguarded Newton: the step bisects the bracket instead whenever
    the Newton point leaves it, or |g| is not below half the smallest
    |g| of the earlier iterates (the ``rtsafe`` safeguard of Numerical
    Recipes section 9.4, measured against the best iterate so that
    Newton cannot cycle inside a bracket that no longer shrinks).
    Iteration bound, in exact arithmetic: every Newton step after the
    first halves the smallest |g|, which starts at most gq, and every
    bisection halves the bracket, which starts 2 gq / shrink wide and
    on which |g| is at most (shrink + gq/4) times its width.  So at most

        2 + log2(gq / tol) + ceil(log2(2 gq (1 + gq / (4 shrink)) / tol))

    iterations are needed: 85.6 at gq = 1.7, shrink = 1 and tol = 1e-12,
    and 203.7 at gq = 2e12.  Rounded down, and with the logarithms split
    so that no term overflows, this is the cap unless ``max_iter`` sets
    one; a gq that is not finite gets the cap 0.  In practice Newton's
    quadratic convergence needs far fewer: at most 46 on a grid of gq in
    [1e-8, 1e3] and az in [-60, 60].  Where the doubles near the root
    lie too far apart for |g| to reach tol, the bracket closes instead:
    once no double lies strictly between its ends, the solve returns
    the end with the smaller |g|: each end is the latest iterate on its
    side of the root, or an initial end.
    """
    if gq == 0.0:
        return az / shrink
    if max_iter is None:  # the bound above, rounded down; 0 for gq = inf
        lg, lt = math.log2(gq), math.log2(tol)
        max_iter = 0 if not gq < math.inf else math.floor(2 + lg - lt + math.ceil(
            1 + lg + math.log2(1 + gq / (4 * shrink)) - lt))
    # |psi'| <= 1 for logistic, so the root lies in this bracket
    lo = (az - gq) / shrink
    hi = (az + gq) / shrink
    t = az / shrink
    best = math.inf
    for _ in range(max_iter):
        s = _sigmoid_scalar(-b * t)
        g = shrink * t + gq * (-b * s) - az
        size = abs(g)
        if size <= tol:
            return t
        if g > 0:
            hi = t
        else:
            lo = t
        dg = shrink + gq * s * (1.0 - s)
        t_new = t - g / dg
        if not (lo < t_new < hi and size < 0.5 * best):
            if (size < math.inf and math.nextafter(lo, math.inf) >= hi
                    and math.nextafter(hi, math.inf) >= lo):
                # no double lies strictly between lo and hi (t is one of
                # them), so the iterates can only revisit them; an initial
                # end may not have been evaluated yet
                g_lo, g_hi = (
                    abs(shrink * e + gq * (-b * _sigmoid_scalar(-b * e)) - az)
                    for e in (lo, hi))
                return lo if g_lo <= g_hi else hi
            t_new = 0.5 * (lo + hi)
        if size < best:
            best = size
        t = t_new
    s = _sigmoid_scalar(-b * t)
    g = shrink * t + gq * (-b * s) - az
    if abs(g) <= tol:
        return t
    raise ProxSolveError(residual=abs(g), iterations=max_iter)
