import numpy as np
import pytest

from incgrad import (
    Dataset,
    FiniteSumObjective,
    ProblemConstants,
    Regularizer,
    make_loss,
)
from incgrad import _kernel


@pytest.fixture(autouse=True, scope="session")
def kernel_cache(tmp_path_factory):
    """Build the compiled passes into a cache private to the session,
    not into the user's cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture
def kernel_paths(monkeypatch):
    """A function whose iterator yields "kernel" while the compiled
    engines run their compiled passes (unless the library cannot be built
    here), then "numpy" with the loader forced off until the test ends."""
    def paths():
        if _kernel.load() is not None:
            yield "kernel"
        monkeypatch.setattr(_kernel, "load", lambda: None)
        yield "numpy"
    return paths


@pytest.fixture
def two_quadratics():
    """n=2, d=1: components (x-1)^2/2 and (x+1)^2/2.

    Each component is exactly 1-strongly convex and 1-smooth, so the
    matching constants are supplied manually.
    """
    ds = Dataset.from_dense([[1.0], [1.0]], [1.0, -1.0])
    obj = FiniteSumObjective(ds, make_loss("squared"))
    consts = ProblemConstants(n=2, d=1, L=1.0, mu=1.0)
    return obj, consts


def make_random_objective(rng, kind="squared", n=12, d=4, split=0.3, l1=0.0):
    pts = rng.standard_normal((n, d)) / np.sqrt(d)
    w = rng.standard_normal(d)
    if kind == "squared":
        labels = pts @ w + 0.2 * rng.standard_normal(n)
    else:
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    reg = Regularizer(l1=l1) if l1 else None
    return FiniteSumObjective(Dataset.from_dense(pts, labels),
                              make_loss(kind), split_l2=split, reg=reg)


def midpoint_identity_residual(obj, state, mu) -> float:
    """|x - (mean(phi) - (1/(mu n)) sum f_i'(phi_i))|, zero after a
    midpoint step; both means are formed afresh from the points phi,
    whatever the state keeps beside them."""
    grads = obj.gradients_at_points(state.phi).mean(axis=0)
    rhs = state.phi.mean(axis=0) - grads / mu
    return float(np.linalg.norm(state.x - rhs))


def central_difference_gradient(fn, x, h=1e-6):
    """Independent finite-difference oracle for smooth gradients."""
    x = np.asarray(x, float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g
