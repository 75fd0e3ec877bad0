import math

import numpy as np
import pytest

from incgrad import (
    ConfigError,
    OptimumError,
    analysis,
    estimate_constants,
    prox_gradient_optimum,
)
from incgrad.analysis import (
    EstimatorSpec,
    LyapunovParams,
    ProblemSnapshot,
    bound_value,
    expected_lyapunov_next,
    lemma_gap,
    lyapunov_value,
    random_snapshot,
    random_strongly_convex_objective,
    theta_estimator_stats,
)
from conftest import make_random_objective
from helpers import fixed_point_residual, frozen_sigmoid


# ---------------------------------------------------------------------------
# Lyapunov values on the two-quadratic problem

@pytest.fixture
def q2_snapshot(two_quadratics):
    obj, consts = two_quadratics
    snap = ProblemSnapshot(x=np.array([1.0]), phi=np.ones((2, 1)),
                           x_star=np.array([0.0]), consts=consts)
    return obj, consts, snap


def test_lyapunov_constants_and_value(q2_snapshot):
    obj, consts, snap = q2_snapshot
    params = LyapunovParams.strongly_convex(consts)
    assert params.gamma == pytest.approx(1 / 6)
    assert params.c == pytest.approx(1.8)
    assert params.kappa == pytest.approx(6.0)
    assert params.beta == pytest.approx(5.0)  # (2 mu n + L)/L
    assert lyapunov_value(snap, obj, params.c) == pytest.approx(2.3)


def test_expected_next_lyapunov_hand_value(q2_snapshot):
    obj, consts, snap = q2_snapshot
    params = LyapunovParams.strongly_convex(consts)
    t1 = expected_lyapunov_next(snap, obj, params)
    assert t1 == pytest.approx(0.5 + 1.8 * 25 / 36)
    assert t1 <= params.contraction * 2.3


def test_lyapunov_zero_at_optimum(q2_snapshot):
    obj, consts, _ = q2_snapshot
    snap = ProblemSnapshot(x=np.zeros(1), phi=np.zeros((2, 1)),
                           x_star=np.zeros(1), consts=consts)
    params = LyapunovParams.strongly_convex(consts)
    assert lyapunov_value(snap, obj, params.c) == pytest.approx(0.0, abs=1e-15)
    assert expected_lyapunov_next(snap, obj, params) == pytest.approx(0.0, abs=1e-15)


def test_lyapunov_dominates_distance_term():
    rng = np.random.default_rng(50)
    for _ in range(50):
        obj = random_strongly_convex_objective(rng)
        consts = estimate_constants(obj)
        x_star, _ = prox_gradient_optimum(obj)
        snap = random_snapshot(rng, obj, x_star, consts)
        params = LyapunovParams.strongly_convex(consts)
        t = lyapunov_value(snap, obj, params.c)
        dist = params.c * float(np.sum((snap.x - x_star) ** 2))
        assert t >= dist - 1e-12


def test_contraction_on_random_snapshots_both_presets():
    rng = np.random.default_rng(51)
    for _ in range(100):
        obj = random_strongly_convex_objective(rng)
        consts = estimate_constants(obj)
        x_star, _ = prox_gradient_optimum(obj)
        snap = random_snapshot(rng, obj, x_star, consts)
        for preset in (LyapunovParams.strongly_convex, LyapunovParams.adaptive):
            params = preset(consts)
            t0 = lyapunov_value(snap, obj, params.c)
            t1 = expected_lyapunov_next(snap, obj, params)
            assert t1 <= params.contraction * t0 + 1e-10


def test_newton_optimum_is_within_its_certified_distance():
    # both points lie within |F'(x)|/mu of x*, so within the sum of
    # their bounds of each other
    rng = np.random.default_rng(52)
    for _ in range(200):
        obj = random_strongly_convex_objective(rng)
        x_newton, bound = analysis._newton_optimum(obj)
        x_fista, _ = prox_gradient_optimum(obj)
        g = obj.full_gradient(x_fista)
        assert bound <= 1e-12 / obj.split_l2
        assert (np.linalg.norm(x_newton - x_fista)
                <= bound + np.linalg.norm(g) / obj.split_l2)


def _frozen_newton_optimum(obj):
    """``_newton_optimum`` as it stood with the logistic weight formed
    as sigmoid(m) sigmoid(-m), by the two-division sigmoid, and mu I
    formed at every step; kept frozen as the reference for its bits."""
    a, mu, x = obj.points, obj.split_l2, np.zeros(obj.d)
    for _ in range(analysis.NEWTON_MAX_STEPS + 1):
        m = obj.margins(x)
        g = obj.full_gradient(x, margins=m)
        residual = math.sqrt(float(g @ g))
        if residual <= 1e-12:
            return x, residual / mu
        h = (frozen_sigmoid(m) * frozen_sigmoid(-m)
             if obj.loss.kind == "logistic" else 1.0)
        hess = (a.T * h) @ a / obj.n + mu * np.eye(obj.d)
        x = x - np.linalg.solve(hess, g)
    raise AssertionError("frozen loop did not converge")


@pytest.mark.parametrize("kind", ["logistic", "squared"])
def test_newton_optimum_bits_equal_the_frozen_loop(kind):
    rng = np.random.default_rng(34)
    for _ in range(50):
        obj = random_strongly_convex_objective(rng, kind=kind)
        x, bound = analysis._newton_optimum(obj)
        x_want, bound_want = _frozen_newton_optimum(obj)
        assert x.tobytes() == x_want.tobytes()
        assert np.float64(bound).tobytes() == np.float64(bound_want).tobytes()


def test_certify_solves_one_optimum_by_proximal_gradient(monkeypatch):
    # the contraction checks take Newton's optimum; only the trajectory
    # check's ridge problem keeps the proximal gradient solve
    calls = []

    def counted(obj, *args, **kwargs):
        calls.append(obj)
        return prox_gradient_optimum(obj, *args, **kwargs)

    monkeypatch.setattr(analysis, "prox_gradient_optimum", counted)
    results = analysis.certify(seed=0, instances=100, lemma_instances=100,
                               traj_seeds=20)
    assert all(r.passed for r in results)
    assert len(calls) == 1


@pytest.mark.parametrize("cap", [0, 1])
def test_newton_optimum_raises_at_its_step_cap(monkeypatch, cap):
    monkeypatch.setattr(analysis, "NEWTON_MAX_STEPS", cap)
    with pytest.raises(OptimumError, match="^Newton's method") as err:
        analysis._check_contraction(np.random.default_rng(0), 20, "sc")
    assert err.value.iterations == cap and err.value.residual > 1e-12


def validate_snapshot(obj, snap: ProblemSnapshot, tol: float = 1e-10):
    res = fixed_point_residual(obj, snap.x_star, snap.consts)
    if res > tol:
        raise ConfigError(
            f"snapshot reference point is not optimal: residual {res:.3e}")


def test_snapshot_validation_rejects_bad_reference(two_quadratics):
    obj, consts = two_quadratics
    snap = ProblemSnapshot(x=np.zeros(1), phi=np.zeros((2, 1)),
                           x_star=np.array([0.3]), consts=consts)
    with pytest.raises(ConfigError):
        validate_snapshot(obj, snap)
    good = ProblemSnapshot(x=np.zeros(1), phi=np.zeros((2, 1)),
                           x_star=np.zeros(1), consts=consts)
    validate_snapshot(obj, good)
    assert fixed_point_residual(obj, np.zeros(1), consts) == 0.0


# ---------------------------------------------------------------------------
# estimator algebra

def test_estimator_unbiased_at_alpha_one():
    spec = EstimatorSpec(xs=np.array([1.0, 3.0]), ys=np.array([0.5, 2.0]),
                         probs=np.array([0.4, 0.6]), alpha=1.0)
    bias, _ = theta_estimator_stats(spec)
    assert bias == pytest.approx(0.0)


def test_estimator_constant_at_alpha_zero():
    spec = EstimatorSpec(xs=np.array([1.0, 3.0]), ys=np.array([0.5, 2.0]),
                         probs=np.array([0.4, 0.6]), alpha=0.0)
    _, var = theta_estimator_stats(spec)
    assert var == pytest.approx(0.0)


def test_estimator_perfect_correlation():
    xs = np.array([0.3, -1.2, 2.0])
    spec = EstimatorSpec(xs=xs, ys=xs, probs=np.ones(3) / 3, alpha=0.7)
    bias, var = theta_estimator_stats(spec)
    assert var == pytest.approx(0.0)
    assert bias == pytest.approx(0.0)


def test_estimator_matches_brute_force():
    rng = np.random.default_rng(52)
    for _ in range(100):
        size = int(rng.integers(2, 10))
        xs = rng.standard_normal(size)
        ys = rng.standard_normal(size)
        p = rng.random(size)
        p /= p.sum()
        alpha = float(rng.random())
        spec = EstimatorSpec(xs=xs, ys=ys, probs=p, alpha=alpha)
        bias, var = theta_estimator_stats(spec)
        theta = alpha * (xs - ys) + float(p @ ys)
        assert abs(bias - (float(p @ theta) - float(p @ xs))) <= 1e-14
        assert abs(var - float(p @ (theta - p @ theta) ** 2)) <= 1e-14


@pytest.mark.parametrize("name,value", [
    ("seed", True), ("seed", 1.5), ("instances", 2.5), ("instances", True),
    ("lemma_instances", True), ("traj_seeds", True), ("traj_seeds", 2.0),
])
def test_certify_seed_and_sizes_are_integers(name, value):
    # a seed of True ran as seed 1 and traj_seeds=True as one seed; 1.5
    # and 2.5 ended in raw TypeErrors
    sizes = {"instances": 1, "lemma_instances": 1, "traj_seeds": 1}
    with pytest.raises(ConfigError,
                       match=f"^{name} must be an integer, got {value!r}$"):
        analysis.certify(**{**sizes, name: value})


def test_estimator_validates_inputs():
    with pytest.raises(ConfigError):
        EstimatorSpec(xs=np.ones(2), ys=np.ones(2),
                      probs=np.array([0.7, 0.7]), alpha=0.5)
    with pytest.raises(ConfigError):
        EstimatorSpec(xs=np.ones(2), ys=np.ones(2),
                      probs=np.array([0.5, 0.5]), alpha=1.5)


# ---------------------------------------------------------------------------
# lemma gaps

def test_lemma_gaps_vanish_at_degenerate_points():
    rng = np.random.default_rng(53)
    obj = make_random_objective(rng, split=0.4, n=6, d=3)
    consts = estimate_constants(obj)
    x = rng.standard_normal(3)
    assert lemma_gap("ip_bound", obj=obj, x=x, x_star=x,
                     mu=consts.mu, L=consts.L) == pytest.approx(0.0, abs=1e-14)
    phi = np.tile(x, (6, 1))
    assert lemma_gap("grad_diff", obj=obj, phi=phi, x_star=x,
                     L=consts.L) == pytest.approx(0.0, abs=1e-14)


def test_lemma_gaps_nonnegative_randomized():
    rng = np.random.default_rng(54)
    for _ in range(100):
        obj = random_strongly_convex_objective(rng)
        consts = estimate_constants(obj)
        x = rng.standard_normal(obj.d)
        y = rng.standard_normal(obj.d)
        phi = rng.standard_normal((obj.n, obj.d))
        i = int(rng.integers(0, obj.n))
        l_i = obj.loss.curvature_bound * float(obj.dataset.sqnorms()[i]) \
            + obj.split_l2
        assert lemma_gap("strong_lb", obj=obj, i=i, x=x, y=y,
                         mu=consts.mu, L=l_i) >= -1e-12
        assert lemma_gap("ip_bound", obj=obj, x=x, x_star=y,
                         mu=consts.mu, L=consts.L) >= -1e-12
        assert lemma_gap("grad_diff", obj=obj, phi=phi, x_star=y,
                         L=consts.L) >= -1e-12
        gamma = 1.0 / (2 * (consts.mu * obj.n + consts.L))
        for beta in (0.5, 1.0, 2.0, (2 * consts.mu * obj.n + consts.L) / consts.L):
            assert lemma_gap("wchange", obj=obj, x=x, phi=phi, x_star=y,
                             gamma=gamma, beta=beta) >= -1e-12


def test_wchange_beta_sequence_is_min_of_scalar_gaps():
    rng = np.random.default_rng(55)
    for _ in range(40):
        obj = random_strongly_convex_objective(rng)
        consts = estimate_constants(obj)
        x = rng.standard_normal(obj.d)
        y = rng.standard_normal(obj.d)
        phi = rng.standard_normal((obj.n, obj.d))
        gamma = 1.0 / (2 * (consts.mu * obj.n + consts.L))
        betas = (0.5, 1.0, 2.0, (2 * consts.mu * obj.n + consts.L) / consts.L)
        inputs = dict(obj=obj, x=x, phi=phi, x_star=y, gamma=gamma)
        gaps = [lemma_gap("wchange", beta=b, **inputs) for b in betas]
        assert all(type(g) is float for g in gaps)
        assert lemma_gap("wchange", beta=betas, **inputs) == min(gaps)
        assert lemma_gap("wchange", beta=np.array(betas), **inputs) == min(gaps)


def test_lemma_gap_input_validation(two_quadratics):
    obj, consts = two_quadratics
    with pytest.raises(ConfigError):
        lemma_gap("nope")
    for beta in (0.0, (1.0, -1.0), ()):
        with pytest.raises(ConfigError):
            lemma_gap("wchange", obj=obj, x=np.zeros(1), phi=np.zeros((2, 1)),
                      x_star=np.zeros(1), gamma=0.1, beta=beta)
    with pytest.raises(ConfigError):
        lemma_gap("strong_lb", obj=obj, i=0, x=np.zeros(1), y=np.ones(1),
                  mu=1.0, L=1.0)  # needs L > mu


# ---------------------------------------------------------------------------
# convergence bounds

def test_bound_values_hand_computed(two_quadratics):
    obj, consts = two_quadratics
    x0 = np.array([1.0])
    xs = np.array([0.0])
    assert bound_value("corollary_sc", obj, consts, x0, xs, 0) == pytest.approx(4 / 3)
    from incgrad import ProblemConstants
    c = ProblemConstants(n=10, d=1, L=10.0, mu=1.0)
    r0 = bound_value("corollary_sc", obj, c, x0, xs, 0)
    r1 = bound_value("corollary_sc", obj, c, x0, xs, 1)
    assert r1 / r0 == pytest.approx(0.975)
    a0 = bound_value("adaptive", obj, c, x0, xs, 0)
    a1 = bound_value("adaptive", obj, c, x0, xs, 1)
    assert a1 / a0 == pytest.approx(1 - 1 / 40)


def test_bound_validation(two_quadratics):
    obj, consts = two_quadratics
    x0, xs = np.ones(1), np.zeros(1)
    with pytest.raises(ConfigError):
        bound_value("nonsc", obj, consts, x0, xs, 0)
    with pytest.raises(ConfigError):
        bound_value("average_sc", obj, consts, x0, xs, 5)
    val = bound_value("average_sc", obj, consts, x0, xs, 5,
                      allow_unverified=True)
    assert val > 0
    from incgrad import ProblemConstants
    flat = ProblemConstants(n=2, d=1, L=1.0, mu=0.0)
    with pytest.raises(ConfigError):
        bound_value("corollary_sc", obj, flat, x0, xs, 1)


@pytest.mark.parametrize("kind", ["corollary_sc", "adaptive", "nonsc",
                                  "average_sc"])
@pytest.mark.parametrize("k", [-3, -1, 2.5, True, None, "3", np.float64(4)])
def test_bound_value_refuses_a_step_count_that_is_not_a_count(two_quadratics,
                                                              kind, k):
    obj, consts = two_quadratics
    with pytest.raises(ConfigError, match="^k must be a nonnegative integer"):
        bound_value(kind, obj, consts, np.ones(1), np.zeros(1), k,
                    allow_unverified=True)


@pytest.mark.parametrize("kind", ["corollary_sc", "adaptive", "nonsc",
                                  "average_sc"])
def test_bound_value_bits_do_not_depend_on_the_count_type(two_quadratics,
                                                          kind):
    # rate**k takes numpy's power for a numpy k, which rounds differently
    # at some k: corollary_sc's rate here is 5/6, and (5/6)**np.int64(3)
    # differs from (5/6)**3 in the last bit
    obj, consts = two_quadratics
    x0, xs = np.ones(1), np.zeros(1)
    for k in range(1, 200):
        want = bound_value(kind, obj, consts, x0, xs, k, allow_unverified=True)
        for count in (np.int64(k), np.int32(k)):
            got = bound_value(kind, obj, consts, x0, xs, count,
                              allow_unverified=True)
            assert type(got) is float and got.hex() == want.hex(), (k, count)


def test_nonsc_bound_decays_like_one_over_k(two_quadratics):
    obj, consts = two_quadratics
    x0, xs = np.ones(1), np.zeros(1)
    b1 = bound_value("nonsc", obj, consts, x0, xs, 10)
    b2 = bound_value("nonsc", obj, consts, x0, xs, 20)
    assert b2 == pytest.approx(b1 / 2)
