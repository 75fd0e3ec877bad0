"""Just-in-time lagged updates for sparse least squares with explicit L2.

Between two touches of a coordinate, every step would have applied the
same dense pieces of the update: a share of the stored-gradient mean
and the (1 - reg*gamma) iterate scaling.  Both can be deferred: the
scaling moves into a scalar beta (the true iterate is beta * x), and a
missed span of m mean-gradient applications collapses to the partial
geometric sum s[m] = sum_{t<m} rho^t with ratio rho = 1 - reg*gamma.
Each step then only touches the nonzero coordinates of the sampled
column: catch the touched coordinates up, take the sparse part of the
step, and account for the step's own mean-gradient share right away so
the mean can be modified afterwards.  Under ``solvers.run`` every pass
ends flushed, on the true iterate, so no gap exceeds the n steps of a
pass and the scaling table has n + 1 entries, whatever the run length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError

BETA_RENORM_THRESHOLD = 1e-280
_GAP = "lag gap exceeds the scaling table; size it to the full step budget"
_NON_FINITE = "non-finite step"


@dataclass
class LagScalingTable:
    """Partial geometric sums s[0..K] with s[0]=0, s[1]=1."""

    entries: np.ndarray


def build_lag_scaling(rho: float, length: int) -> LagScalingTable:
    """Table covering lag gaps up to ``length`` (length+1 entries)."""
    if not 0.0 <= rho <= 1.0:
        raise ConfigError(
            f"lag scaling ratio {rho} outside [0, 1]; is reg * gamma >= 1?")
    if length < 1:
        raise ConfigError("scaling table length must be >= 1")
    powers = rho ** np.arange(length, dtype=float)
    entries = np.concatenate(([0.0], np.cumsum(powers)))
    return LagScalingTable(entries=entries)


@dataclass
class LaggedIterate:
    """Scaled iterate with per-coordinate staleness counters.

    The true iterate is beta * x once all lags are flushed; ``lag[i]``
    is the step at which coordinate i was last brought current.
    """

    x: np.ndarray
    lag: np.ndarray
    beta: float = 1.0
    k: int = 0
    touches: int = 0

    @classmethod
    def zeros(cls, d: int) -> "LaggedIterate":
        return cls(x=np.zeros(d), lag=np.zeros(d, dtype=np.int64))


def lagged_update(it: LaggedIterate, g, touched, table: LagScalingTable, a: float):
    """Apply the deferred updates x[i] += s[k - lag[i]] * a * g[i] to the
    touched coordinates (an index array or a slice) and mark them
    current."""
    gaps = it.k - it.lag[touched]
    if gaps.size and int(gaps.max()) >= table.entries.shape[0]:
        raise ConfigError(_GAP)
    it.x[touched] += table.entries[gaps] * (a * g[touched])
    it.lag[touched] = it.k
    it.touches += int(gaps.size)


def flush_lags(it: LaggedIterate, g, table: LagScalingTable, a: float) -> np.ndarray:
    """Catch every coordinate up and return the true iterate beta * x.

    Idempotent: a second flush at the same step is a no-op since s[0]=0.
    All coordinates are touched through a slice, so the catch-up reads
    and writes views instead of gathered copies.
    """
    lagged_update(it, g, slice(None), table, a)
    return it.beta * it.x


def _renormalize(it: LaggedIterate, g, table: LagScalingTable, gamma: float):
    """Fold beta back into x.  All lags are flushed first so that no
    pending gap spans the rescaling."""
    flush_lags(it, g, table, -gamma / it.beta)
    it.x *= it.beta
    it.beta = 1.0


def sparse_saga_lstsq_epoch(data, it: LaggedIterate, c, g_avg, gamma, reg, rng,
                            scaling: LagScalingTable):
    """One pass of n lagged steps for squared loss with explicit L2.

    ``c[i]`` stores the margin a_i' (beta x) from the last visit of
    point i, so the stored gradient is (c[i] - b[i]) a_i (b, the labels,
    enter through ``g_avg``) and a single scalar per point suffices.  The
    first pass (it.k < n on entry) sweeps the points in order; later
    passes sample uniformly from rng.  State (it, c, g_avg) is mutated
    in place.  The caller keeps reg * gamma < 1 and builds ``scaling``
    for rho = 1 - reg * gamma, covering every gap since the last flush.
    Raises :class:`DivergenceError` at the first step whose margin or
    step coefficient is not finite, and ConfigError at a gap past
    ``scaling``.  The pass runs in one call of the compiled library when
    it loads (see ``_kernel.lazy_pass``), with the same bytes, state and
    errors as this loop.
    """
    d, n = data.shape
    rho = 1.0 - reg * gamma
    order = np.arange(n) if it.k < n else rng.integers(0, n, size=n)
    threshold = BETA_RENORM_THRESHOLD  # the module value at call time
    from . import _kernel  # built or loaded by the first lazy pass only
    kernel_pass = _kernel.lazy_pass(data)
    if kernel_pass is not None:
        kernel_pass(order, it, c, g_avg, gamma, rho, threshold, scaling)
        return
    for i in order.tolist():
        idx, vals = data.column(i)
        # missed updates for the touched coordinates, then the sparse step
        lagged_update(it, g_avg, idx, scaling, -gamma / it.beta)
        # Python floats and vdot: a margin or coefficient that overflows
        # is caught here, before any numpy operation can warn about it
        aix = it.beta * float(np.vdot(vals, it.x[idx]))
        cchange = aix - float(c[i])
        c[i] = aix
        it.beta *= rho
        coef = -cchange * gamma / it.beta
        if not math.isfinite(coef):
            raise DivergenceError(it.k + 1, detail=_NON_FINITE)
        it.x[idx] += coef * vals
        it.touches += idx.size
        it.k += 1
        # this step's own mean-gradient share, before the mean changes:
        # a gap of exactly 1, whose factor s[1] = rho**0 = 1.0 is exact
        it.x[idx] += (-gamma / it.beta) * g_avg[idx]
        it.lag[idx] = it.k
        g_avg[idx] += (cchange / n) * vals
        it.touches += 2 * idx.size
        if it.beta < threshold:
            _renormalize(it, g_avg, scaling, gamma)


def lazy_passes(obj, x0, gamma, reg, epochs, rng):
    """Engine of ``saga_lazy`` for ``solvers.run``, flushing x at the end
    of every pass.  Starts from the origin: the scalar-storage
    initialisation c = 0 is exactly the gradient table at zero."""
    if np.any(x0 != 0):
        raise ConfigError("lazy engine starts at the origin")
    data = obj.dataset.features
    d, n = data.shape
    scaling = build_lag_scaling(1.0 - reg * gamma, n)
    it = LaggedIterate.zeros(d)
    c = np.zeros(n)
    # stored gradients at zero: (c_i - b_i) a_i with c = 0
    g_avg = obj.point_sum(-obj.labels) / n
    evals = n * 1.0
    yield 0, evals, it.x, None
    for _ in range(epochs):
        # it and the rest by keyword: the benchmark tracer reads `it` by name
        sparse_saga_lstsq_epoch(data, it=it, c=c, g_avg=g_avg, gamma=gamma,
                                reg=reg, rng=rng, scaling=scaling)
        evals += n
        yield it.k, evals, flush_lags(it, g_avg, scaling, -gamma / it.beta), None
