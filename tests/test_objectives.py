import math
import tracemalloc

import numpy as np
import pytest

from incgrad import (
    ConfigError,
    Dataset,
    FiniteSumObjective,
    ProxSolveError,
    Regularizer,
    estimate_constants,
    make_loss,
    scalar_loss_prox,
)
from incgrad.datasets import generate_synthetic
from incgrad.objectives import _solve_margin, sigmoid
from conftest import central_difference_gradient, make_random_objective
from helpers import frozen_sigmoid


def component_value(obj, i, x) -> float:
    """f_i(x) = psi_i(a_i' x) + (split_l2/2) |x|^2."""
    x = np.asarray(x, float)
    val = float(obj.loss.value(float(obj.points[i] @ x), obj.labels[i]))
    if obj.split_l2:
        val += 0.5 * obj.split_l2 * float(x @ x)
    return val


# ---------------------------------------------------------------------------
# component and full gradients

def test_component_gradient_hand_values(two_quadratics):
    obj, _ = two_quadratics
    assert obj.component_gradient(0, np.array([1.0])) == pytest.approx([0.0])
    assert obj.component_gradient(1, np.array([1.0])) == pytest.approx([2.0])


def test_component_gradient_stationary_at_own_minimizer():
    rng = np.random.default_rng(0)
    for _ in range(5):
        b = float(rng.standard_normal())
        a = float(rng.uniform(0.5, 2.0))
        ds = Dataset.from_dense([[a]], [b])
        obj = FiniteSumObjective(ds, make_loss("squared"))
        x_min = np.array([b / a])
        assert abs(obj.component_gradient(0, x_min)[0]) < 1e-14


def test_component_gradient_input_validation(two_quadratics):
    obj, _ = two_quadratics
    for i in (2, -1):
        with pytest.raises(IndexError):
            obj.component_gradient(i, np.array([0.0]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            obj.component_gradient(0, np.array([bad]))
        with pytest.raises(ValueError):
            obj.full_gradient(np.array([bad]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_component_gradient_rejects_non_finite_where_point_is_zero(bad):
    # the check rides on the margin a_i' x, so it must see a non-finite
    # coordinate that the point multiplies by zero
    dense = Dataset.from_dense([[1.0, 0.0, 2.0, 0.0], [0.0, 3.0, 0.0, 0.0]],
                               [1.0, -1.0])
    sparse = generate_synthetic("ridge", n=20, d=300, density=0.01, seed=1)
    for ds, kind in ((dense, "logistic"), (sparse, "squared")):
        obj = FiniteSumObjective(ds, make_loss(kind), split_l2=0.1)
        points = obj.points
        for i in range(ds.n):
            for j in np.flatnonzero(points[i] == 0.0)[:5]:
                x = np.ones(ds.d)
                x[j] = bad
                with pytest.raises(ValueError, match="finite"):
                    obj.component_gradient(i, x)


def test_component_gradient_rejects_overflowing_margin():
    ds = Dataset.from_dense([[1e300, 1e300]], [1.0])
    obj = FiniteSumObjective(ds, make_loss("squared"))
    assert obj.component_gradient(0, np.array([1.0, -1.0])) == pytest.approx(
        [-1e300, -1e300])
    with pytest.raises(ValueError, match="finite"):
        obj.component_gradient(0, np.array([1e10, 1e10]))


@pytest.mark.parametrize("points,labels", [
    ([[1.0, 2.0], [0.5, -1.0]], [np.nan, 1.0]),
    ([[1.0, 2.0], [0.5, -1.0]], [1.0, -np.inf]),
    ([[1.0, np.inf], [0.5, -1.0]], [1.0, 1.0]),
    ([[1.0, 2.0], [np.nan, -1.0]], [1.0, 1.0])])
def test_dataset_refuses_non_finite_values(points, labels):
    # a NaN label ended in DivergenceError at saga's first step, an
    # infinite feature in "x must be finite" for a finite x, and a NaN
    # feature in "need L >= mu >= 0, got L=nan"
    with pytest.raises(ConfigError, match="must be finite"):
        Dataset.from_dense(points, labels)


def test_full_gradient_hand_values(two_quadratics):
    obj, _ = two_quadratics
    assert obj.full_gradient(np.array([1.0])) == pytest.approx([1.0])
    assert obj.full_gradient(np.array([0.0])) == pytest.approx([0.0])


@pytest.mark.parametrize("kind", ["squared", "logistic"])
def test_full_gradient_matches_finite_differences(kind):
    rng = np.random.default_rng(7)
    for _ in range(10):
        obj = make_random_objective(rng, kind=kind, split=float(rng.uniform(0, 1)))
        x = rng.standard_normal(obj.d)
        fd = central_difference_gradient(obj.smooth_value, x)
        g = obj.full_gradient(x)
        assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))


def test_gradient_correctness_property_100_pairs():
    rng = np.random.default_rng(21)
    for _ in range(100):
        kind = "squared" if rng.random() < 0.5 else "logistic"
        obj = make_random_objective(rng, kind=kind, n=int(rng.integers(2, 10)),
                                    d=int(rng.integers(1, 6)),
                                    split=float(rng.uniform(0, 0.5)))
        x = rng.standard_normal(obj.d)
        fd = central_difference_gradient(obj.smooth_value, x)
        g = obj.full_gradient(x)
        assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))


# ---------------------------------------------------------------------------
# objective values

@pytest.mark.parametrize("kind", ["squared", "logistic"])
def test_loss_models_keep_a_floating_margins_dtype(kind):
    # certify's long-double lemma forms f_i and f_i' through the loss
    # models: a long-double margin gives the bits of the lemma's own old
    # long-double forms, a float64 margin those of the float64-only
    # forms, and an integer margin still becomes float64
    loss = make_loss(kind)
    t = np.concatenate([[0.0, 709.0, 745.0, 800.0, -800.0],
                        np.linspace(-40, 40, 161)])
    b = np.where(np.arange(t.size) % 2, 1.0, -1.0)
    ld = t.astype(np.longdouble)
    if kind == "squared":
        old = (0.5 * (t - b) * (t - b), t - b)
        old_ld = (np.longdouble(0.5) * (ld - b) ** 2, ld - b)
    else:
        u = -b * ld
        e = np.exp(-np.abs(u))
        old = (np.logaddexp(0.0, -b * t), -b * frozen_sigmoid(-b * t))
        old_ld = (np.logaddexp(np.longdouble(0), u),
                  -b * np.where(u >= 0, 1.0 / (1.0 + e), e / (1.0 + e)))
    for fn, want, want_ld in zip((loss.value, loss.deriv), old, old_ld):
        assert np.array_equal(fn(t, b).view(np.int64), want.view(np.int64))
        got = fn(ld, b)
        assert got.dtype == np.longdouble
        assert np.array_equal(got, want_ld)
        assert fn(t.astype(int), b).dtype == np.float64
        assert np.asarray(fn(3, 1.0)).dtype == np.float64

def test_sigmoid_and_smooth_value_equal_their_old_formulas():
    # sigmoid divides once by 1 + e, after where() picks 1 or e, and the
    # mean is np.mean's own sum and division
    edges = np.array([0.0, 5e-324, 1e-300, 709.0, 710.0, 745.0, 745.2,
                      800.0, np.inf, np.nan])
    normals = np.random.default_rng(34).standard_normal(10_000)
    u = np.concatenate([edges, -edges, np.linspace(-40, 40, 2001), normals,
                        100.0 * normals])
    assert np.array_equal(sigmoid(u).view(np.int64),
                          frozen_sigmoid(u).view(np.int64))
    for v in u[:2 * edges.size]:
        assert (np.float64(sigmoid(v)).view(np.int64)
                == np.float64(frozen_sigmoid(v)).view(np.int64))
    rng = np.random.default_rng(37)
    for kind, split, n in (("squared", 0.0, 1), ("squared", 0.3, 257),
                           ("logistic", 0.0, 1000), ("logistic", 0.1, 13)):
        obj = make_random_objective(rng, kind=kind, n=n, d=7, split=split)
        x = 3.0 * rng.standard_normal(7)
        old = float(np.mean(obj.loss.value(obj.points @ x, obj.labels)))
        if split:
            old += 0.5 * split * float(x @ x)
        assert obj.smooth_value(x) == old
        g = obj.full_gradient(x)
        assert np.array_equal(obj.full_gradient(x, margins=obj.points @ x), g)


def test_objective_values(two_quadratics):
    obj, _ = two_quadratics
    assert obj.value(np.array([0.0])) == pytest.approx(0.5)
    l1_obj = FiniteSumObjective(obj.dataset, obj.loss, reg=Regularizer(l1=1.0))
    assert l1_obj.value(np.array([1.0])) == pytest.approx(2.0)


def test_composite_equals_smooth_without_regularizer():
    rng = np.random.default_rng(3)
    obj = make_random_objective(rng)
    x = rng.standard_normal(obj.d)
    assert obj.value(x) == obj.smooth_value(x)


# ---------------------------------------------------------------------------
# prox

@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, "1", True])
def test_strengths_must_be_finite_and_nonnegative(bad, two_quadratics):
    # "1" ended in a raw TypeError, and True weighed as 1
    obj, _ = two_quadratics
    for kwargs in ({"l1": bad}, {"l2": bad}):
        with pytest.raises(ConfigError, match="strengths must be finite"):
            Regularizer(**kwargs)
    with pytest.raises(ConfigError, match="split_l2 must be finite"):
        FiniteSumObjective(obj.dataset, obj.loss, split_l2=bad)


def grid_prox_oracle(reg, gamma, y, lo=-6.0, hi=6.0, num=2_000_001):
    """1-D brute-force minimiser of h(x) + (x-y)^2/(2 gamma)."""
    xs = np.linspace(lo, hi, num)
    vals = reg.value(xs.reshape(-1, 1)) if False else (
        reg.l1 * np.abs(xs) + 0.5 * reg.l2 * xs**2 + (xs - y) ** 2 / (2 * gamma))
    return xs[np.argmin(vals)]


def test_prox_l1_values():
    reg = Regularizer(l1=1.0)
    assert reg.prox(1.0, np.array([0.0])) == pytest.approx([0.0])
    assert reg.prox(1.0, np.array([3.0])) == pytest.approx([2.0])
    assert reg.prox(1.0, np.array([-0.5])) == pytest.approx([0.0])
    # independent grid oracle
    for y in (3.0, -0.5, 1.7):
        oracle = grid_prox_oracle(reg, 1.0, y)
        assert abs(float(reg.prox(1.0, np.array([y]))[0]) - oracle) < 1e-5


def test_prox_l2_value():
    reg = Regularizer(l2=1.0)
    assert reg.prox(1.0, np.array([2.0])) == pytest.approx([1.0])


def test_prox_rejects_bad_gamma():
    with pytest.raises(ValueError):
        Regularizer(l1=1.0).prox(0.0, np.array([1.0]))
    with pytest.raises(ValueError):
        Regularizer(l1=1.0).prox(-1.0, np.array([1.0]))


@pytest.mark.parametrize("reg", [Regularizer(l1=0.8), Regularizer(l2=1.5),
                                 Regularizer(l1=0.4, l2=0.7), Regularizer()])
def test_prox_optimality_against_random_perturbations(reg):
    rng = np.random.default_rng(11)
    gamma = 0.7
    y = rng.standard_normal(6)
    p = reg.prox(gamma, y)

    def objective(q):
        return reg.value(q) + float(np.sum((q - y) ** 2)) / (2 * gamma)

    base = objective(p)
    for _ in range(1000):
        q = p + rng.standard_normal(6) * 10.0 ** rng.uniform(-6, 0)
        assert base <= objective(q) + 1e-12


def test_moreau_decomposition_identities():
    rng = np.random.default_rng(5)
    gamma, lam, mu = 0.9, 0.7, 1.3
    v = 3.0 * rng.standard_normal(1000)
    l1 = Regularizer(l1=lam)
    assert np.allclose(v - l1.prox(gamma, v),
                       np.clip(v, -gamma * lam, gamma * lam), atol=1e-12)
    l2 = Regularizer(l2=mu)
    assert np.allclose(v - l2.prox(gamma, v),
                       v * gamma * mu / (1 + gamma * mu), atol=1e-12)


# ---------------------------------------------------------------------------
# scalar loss prox

def prox_point(obj, i, gamma, z):
    """(phi, f_i'(phi)) of the prox of f_i at z, formed from the
    coefficient of scalar_loss_prox as midpoint_step forms them."""
    a = obj.points[i]
    c = scalar_loss_prox(obj, i, gamma, float(np.vdot(a, z)))
    phi = (z - gamma * c * a) / (1.0 + gamma * obj.split_l2)
    return phi, (z - phi) / gamma


def test_scalar_loss_prox_squared_hand_value():
    ds = Dataset.from_dense([[1.0]], [1.0])
    obj = FiniteSumObjective(ds, make_loss("squared"))
    assert scalar_loss_prox(obj, 0, 1.0, 0.0) == pytest.approx(-0.5)
    phi, g = prox_point(obj, 0, 1.0, np.array([0.0]))
    assert phi == pytest.approx([0.5])
    assert g == pytest.approx([-0.5])


def test_scalar_loss_prox_fixes_minimizer():
    ds = Dataset.from_dense([[2.0]], [3.0])
    obj = FiniteSumObjective(ds, make_loss("squared"))
    # a'z = 3 = b, so the gradient vanishes at z
    assert scalar_loss_prox(obj, 0, 0.7, 3.0) == pytest.approx(0.0, abs=1e-15)
    z = np.array([1.5])
    phi, g = prox_point(obj, 0, 0.7, z)
    assert phi == pytest.approx(z)
    assert g == pytest.approx([0.0], abs=1e-15)


@pytest.mark.parametrize("kind,split", [("squared", 0.0), ("squared", 0.6),
                                        ("logistic", 0.0), ("logistic", 0.4)])
def test_scalar_loss_prox_optimality_identity(kind, split):
    rng = np.random.default_rng(17)
    for _ in range(20):
        obj = make_random_objective(rng, kind=kind, n=6, d=5, split=split)
        i = int(rng.integers(0, obj.n))
        gamma = float(10.0 ** rng.uniform(-1.5, 1.0))
        z = rng.standard_normal(obj.d)
        phi, g = prox_point(obj, i, gamma, z)
        # the stored value must be the actual component gradient at phi
        assert np.linalg.norm(g - obj.component_gradient(i, phi)) <= 1e-10
        c = scalar_loss_prox(obj, i, gamma, float(obj.points[i] @ z))
        assert np.linalg.norm(g - (c * obj.points[i] + split * phi)) <= 1e-10


@pytest.mark.parametrize("kind,split,d", [
    ("squared", 0.0, 5), ("squared", 0.6, 100), ("logistic", 0.0, 100),
    ("logistic", 0.4, 5)])
def test_scalar_loss_prox_equals_matmul_margin_formula(kind, split, d):
    # the caller's margin np.vdot(a, z) is bit for bit the matmul a @ z,
    # and the coefficient is psi'(t) at the margin formula's root
    rng = np.random.default_rng(19)
    obj = make_random_objective(rng, kind=kind, n=8, d=d, split=split)
    for i in range(obj.n):
        gamma = float(10.0 ** rng.uniform(-1.5, 1.0))
        z = rng.standard_normal(d)
        a, b = obj.points[i], float(obj.labels[i])
        q = float(obj.dataset.sqnorms()[i])
        az, shrink = float(a @ z), 1.0 + gamma * split
        assert float(np.vdot(a, z)).hex() == az.hex()
        t = ((az + gamma * q * b) / (shrink + gamma * q) if kind == "squared"
             else _solve_margin(b, shrink, gamma * q, az, 1e-12, 100))
        c = obj.loss.deriv_scalar(t, b)
        assert scalar_loss_prox(obj, i, gamma, az).hex() == c.hex()
        phi = (z - gamma * c * a) / shrink
        got_phi, got_g = prox_point(obj, i, gamma, z)
        assert np.array_equal(got_phi, phi)
        assert np.array_equal(got_g, (z - phi) / gamma)


def test_scalar_loss_prox_is_true_minimizer():
    rng = np.random.default_rng(23)
    obj = make_random_objective(rng, kind="logistic", n=4, d=3, split=0.2)
    gamma = 0.8
    z = rng.standard_normal(3)
    phi, _ = prox_point(obj, 0, gamma, z)

    def total(q):
        return component_value(obj, 0, q) + float(np.sum((q - z) ** 2)) / (2 * gamma)

    base = total(phi)
    for _ in range(300):
        q = phi + rng.standard_normal(3) * 10.0 ** rng.uniform(-5, 0)
        assert base <= total(q) + 1e-10


def _solve_margin_numpy(b, shrink, gq, az, tol, max_iter):
    """The margin solve on numpy 0-d arrays, with the same safeguard;
    the reference for the scalar version."""
    if gq == 0.0:
        return az / shrink
    lo = (az - gq) / shrink
    hi = (az + gq) / shrink
    t = az / shrink
    best = np.inf
    for _ in range(max_iter):
        s = sigmoid(np.array(-b * t))
        g = shrink * t + gq * (-b * float(s)) - az
        if abs(g) <= tol:
            return t
        if g > 0:
            hi = t
        else:
            lo = t
        dg = shrink + gq * float(s) * (1.0 - float(s))
        t_new = t - g / dg
        if not (lo < t_new < hi) or abs(g) >= 0.5 * best:
            t_new = 0.5 * (lo + hi)
        best = min(best, abs(g))
        t = t_new
    s = sigmoid(np.array(-b * t))
    g = shrink * t + gq * (-b * float(s)) - az
    if abs(g) <= tol:
        return t
    raise ProxSolveError(residual=abs(g), iterations=max_iter)


def test_solve_margin_matches_numpy_reference():
    tol = 1e-12
    psi = make_loss("logistic").deriv_scalar
    magnitudes = np.logspace(-3, 3, 19).tolist()
    azs = [-m for m in magnitudes] + [0.0] + magnitudes
    for shrink in (1.0, 1.7):
        for b in (1.0, -1.0):
            for az in azs:
                for gq in np.logspace(-8, 3, 23).tolist():
                    args = (b, shrink, gq, az, tol, 100)
                    try:
                        want = _solve_margin_numpy(*args)
                    except ProxSolveError:
                        with pytest.raises(ProxSolveError):
                            _solve_margin(*args)
                        continue
                    t = _solve_margin(*args)
                    assert abs(t - want) <= 1e-15 * abs(want)
                    assert abs(shrink * t + gq * psi(t, b) - az) <= tol


def test_solve_margin_converges_within_its_bound():
    # the Newton iteration alone cycles at shrink = 1.7, b = 1,
    # az = -5.623, gq = 31.62 (iterates near -3.1 and 6.9)
    tol = 1e-12
    psi = make_loss("logistic").deriv_scalar
    for shrink in (1.0, 1.7):
        for b in (1.0, -1.0):
            for az in [-5.623] + np.linspace(-60.0, 60.0, 97).tolist():
                for gq in [31.62] + np.logspace(-8, 3, 34).tolist():
                    bound = (2 + math.log2(gq / tol) + math.ceil(math.log2(
                        2 * gq * (1 + gq / (4 * shrink)) / tol)))
                    t = _solve_margin(b, shrink, gq, az, tol,
                                      min(100, math.floor(bound)))
                    assert abs(shrink * t + gq * psi(t, b) - az) <= tol


def test_solve_margin_raises_at_max_iter():
    for max_iter in (1, 2, 3):
        with pytest.raises(ProxSolveError):
            _solve_margin_numpy(1.0, 1.0, 100.0, 0.0, 1e-12, max_iter)
        with pytest.raises(ProxSolveError) as err:
            _solve_margin(1.0, 1.0, 100.0, 0.0, 1e-12, max_iter)
        assert err.value.iterations == max_iter
        assert err.value.residual > 1e-12


def test_scalar_loss_prox_reports_nonconvergence():
    # gq = 100 puts the root deep in the curved part of the logistic
    ds = Dataset.from_dense([[10.0]], [1.0])
    obj = FiniteSumObjective(ds, make_loss("logistic"))
    with pytest.raises(ProxSolveError) as err:
        scalar_loss_prox(obj, 0, 1.0, 0.0, max_iter=2)
    assert err.value.residual > 0


# ---------------------------------------------------------------------------
# constants

def test_estimate_constants_examples():
    ds = Dataset.from_dense([[2.0, 0.0]], [1.0])  # |a|^2 = 4
    sq = FiniteSumObjective(ds, make_loss("squared"))
    consts = estimate_constants(sq)
    assert consts.L == pytest.approx(4.0)
    assert consts.mu == 0.0

    lg = FiniteSumObjective(ds, make_loss("logistic"))
    assert estimate_constants(lg).L == pytest.approx(1.0)


def test_estimate_constants_zero_data():
    ds = Dataset(
        features=__import__("incgrad").CscMatrix(
            np.zeros(0), np.zeros(0, dtype=np.int64), np.array([0, 0]), (2, 1)),
        labels=[0.5])
    with pytest.raises(ConfigError):
        estimate_constants(FiniteSumObjective(ds, make_loss("squared")))
    with_split = FiniteSumObjective(ds, make_loss("squared"), split_l2=0.7)
    consts = estimate_constants(with_split)
    assert consts.L == pytest.approx(0.7)
    assert consts.mu == pytest.approx(0.7)


def test_mu_zero_without_split():
    rng = np.random.default_rng(2)
    obj = make_random_objective(rng, split=0.0)
    assert estimate_constants(obj).mu == 0.0


def test_strong_convexity_witness():
    rng = np.random.default_rng(31)
    for _ in range(30):
        mu = float(rng.uniform(0.1, 1.0))
        kind = "squared" if rng.random() < 0.5 else "logistic"
        obj = make_random_objective(rng, kind=kind, n=5, d=4, split=mu)
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        i = int(rng.integers(0, 5))
        lhs = component_value(obj, i, y)
        rhs = (component_value(obj, i, x)
               + float(obj.component_gradient(i, x) @ (y - x))
               + 0.5 * mu * float(np.sum((y - x) ** 2)))
        assert lhs - rhs >= -1e-12


def _objective_with_nnz(n, d, nnz, seed=0):
    """Squared-loss objective with exactly ``nnz`` nonzeros, none of them
    on coordinate 0."""
    rng = np.random.default_rng(seed)
    pts = np.zeros((n, d))
    flat = rng.permutation(np.arange(n * d).reshape(n, d)[:, 1:].ravel())
    pts.flat[flat[:nnz]] = rng.standard_normal(nnz)
    ds = Dataset.from_dense(pts, rng.standard_normal(n))
    return FiniteSumObjective(ds, make_loss("squared"), split_l2=0.1)


@pytest.mark.parametrize("n,d,nnz,sparse", [
    (10, 1000, 999, True),  # density just under SUPPORT_DENSITY
    (10, 1000, 1000, False),  # density at it
    (10, 999, 50, False),  # d just under SUPPORT_MIN_D
    (10, 1000, 10 * 999, False),  # every entry but coordinate 0
])
def test_whole_data_products_choose_kernel_by_density(n, d, nnz, sparse):
    from incgrad.solvers import GradientTable

    obj = _objective_with_nnz(n, d, nnz)
    assert obj.sparse is sparse
    scalar = FiniteSumObjective(obj.dataset, obj.loss)
    assert GradientTable.at_point(scalar, np.zeros(d)).support is sparse
    x = np.random.default_rng(1).standard_normal(d)
    c = np.random.default_rng(2).standard_normal(n)
    pts = obj.points
    want = (pts.T @ (pts @ x - obj.labels)) / n + 0.1 * x
    if sparse:
        tol = 1e-15 * np.linalg.norm(pts)
        assert np.all(np.abs(obj.margins(x) - pts @ x)
                      <= tol * np.linalg.norm(x))
        assert np.all(np.abs(obj.point_sum(c) - pts.T @ c)
                      <= tol * np.linalg.norm(c))
        err = np.linalg.norm(obj.full_gradient(x) - want)
        assert err <= 1e-14 * np.linalg.norm(want)
    else:  # the BLAS products, bit for bit
        assert np.array_equal(obj.margins(x), pts @ x)
        assert np.array_equal(obj.point_sum(c), pts.T @ c)
        assert np.array_equal(obj.full_gradient(x), want)
    obj.dataset.features.to_dense()
    obj.dataset.features.col_sqnorms()
    # only the products over the nonzeros keep the per-nonzero column ids
    assert (obj.dataset.features._col_of is not None) is sparse


def test_sparse_full_gradient_rejects_non_finite_x():
    obj = _objective_with_nnz(10, 1000, 300)
    assert obj.sparse
    for bad in (math.inf, math.nan):
        x = np.zeros(obj.d)
        x[0] = bad  # a coordinate no point touches
        with pytest.raises(ValueError, match="finite"):
            obj.full_gradient(x)


def test_split_gradient_arrays_are_built_in_the_array_they_return():
    from incgrad.solvers import GradientTable

    n, d = 400, 250
    ds = generate_synthetic("logistic", n, d, seed=0)
    obj = FiniteSumObjective(ds, make_loss("logistic"), split_l2=0.3)
    pts = obj.points  # the cached dense copy, made before tracing
    rng = np.random.default_rng(0)
    x = rng.standard_normal(d)
    phi = rng.standard_normal((n, d))
    tracemalloc.start()
    try:
        table = GradientTable.at_point(obj, x)
        table_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the table's one (n, d) array, plus vectors: no second n*d temporary
    assert table_peak < 1.3 * n * d * 8
    g_phi = obj.gradients_at_points(phi)
    want = obj.loss_coeffs(x)[:, None] * pts + 0.3 * x
    assert table.vecs.tobytes() == want.tobytes()
    assert table.avg.tobytes() == want.mean(axis=0).tobytes()
    t = np.einsum("ij,ij->i", pts, phi)
    want = obj.loss.deriv(t, obj.labels)[:, None] * pts + 0.3 * phi
    assert g_phi.tobytes() == want.tobytes()


def test_logistic_labels_validated():
    ds = Dataset.from_dense([[1.0], [1.0]], [1.0, 0.5])
    with pytest.raises(ConfigError):
        FiniteSumObjective(ds, make_loss("logistic"))
