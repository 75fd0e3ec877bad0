import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from incgrad import (
    ConfigError,
    Dataset,
    DivergenceError,
    FiniteSumObjective,
    GradientTable,
    ProblemConstants,
    Regularizer,
    StepSizePolicy,
    estimate_constants,
    lazy,
    make_loss,
    prox_gradient_optimum,
    run,
    solvers,
    step_size,
)
from incgrad.solvers import (
    SagaState,
    _check_iterate,
    _check_scaling,
    _record,
    _smooth_lipschitz,
    _svrg_passes,
    _table_passes,
    check_method,
    finito_init,
    finito_step,
    method_info,
    midpoint_step,
    saga_init,
    saga_step,
    saga_u_init,
    saga_u_reconstruct,
    saga_u_step,
    sdca_init,
    sdca_primal_step,
    sdca_variant5_step,
)
from incgrad.harness import ExperimentConfig, canonical_objective
from incgrad.objectives import _solve_margin, scalar_loss_prox
from incgrad.datasets import generate_synthetic
from conftest import make_random_objective, midpoint_identity_residual
from helpers import fixed_point_residual, frozen_sigmoid, with_l2


# ---------------------------------------------------------------------------
# step sizes

def test_step_size_modes():
    consts = ProblemConstants(n=10, d=1, L=10.0, mu=1.0)
    assert step_size(StepSizePolicy("strongly_convex"), consts) == pytest.approx(1 / 40)
    assert step_size(StepSizePolicy("average_sc"), consts) == pytest.approx(1 / 60)
    assert step_size(StepSizePolicy("adaptive"), consts) == pytest.approx(1 / 30)
    assert step_size(StepSizePolicy("manual", gamma=0.1), consts) == 0.1


@pytest.mark.parametrize("gamma", [None, 0.0, -1.0, np.nan, np.inf, "0.5"])
def test_manual_step_size_must_be_finite_and_positive(gamma):
    # "0.5" ended in a raw TypeError
    with pytest.raises(ConfigError, match="finite gamma > 0"):
        StepSizePolicy("manual", gamma=gamma)


@pytest.mark.parametrize("gamma", [True, np.True_])
def test_manual_step_size_is_not_a_bool(gamma):
    # True stepped at 1.0
    with pytest.raises(ConfigError, match="finite gamma > 0"):
        StepSizePolicy("manual", gamma=gamma)


@pytest.mark.parametrize("mode", ["strongly_convex", "average_sc", "adaptive"])
def test_only_the_manual_step_takes_a_gamma(mode):
    # the gamma was kept and never read: the run stepped by the mode
    with pytest.raises(ConfigError, match=f"mode '{mode}' takes no gamma"):
        StepSizePolicy(mode, gamma=0.5)


def test_step_size_requires_mu():
    consts = ProblemConstants(n=10, d=1, L=10.0, mu=0.0)
    with pytest.raises(ConfigError, match="adaptive"):
        step_size(StepSizePolicy("strongly_convex"), consts)
    # the adaptive mode is exactly the escape hatch
    assert step_size(StepSizePolicy("adaptive"), consts) == pytest.approx(1 / 30)


# ---------------------------------------------------------------------------
# saga steps

def test_saga_step_hand_sequence(two_quadratics):
    obj, _ = two_quadratics
    st = saga_init(obj, np.array([1.0]))
    saga_step(st, obj, 0, 1 / 6)
    assert st.x == pytest.approx([5 / 6])
    saga_step(st, obj, 1, 1 / 6)
    assert st.x == pytest.approx([25 / 36])


def test_saga_fixed_point(two_quadratics):
    obj, _ = two_quadratics
    st = saga_init(obj, np.array([0.0]))  # table at the optimum
    for j in (0, 1, 0, 1):
        saga_step(st, obj, j, 1 / 6)
    assert st.x == pytest.approx([0.0], abs=1e-15)


def test_saga_prox_step_applies_regularizer(two_quadratics):
    obj, _ = two_quadratics
    l1_obj = FiniteSumObjective(obj.dataset, obj.loss, reg=Regularizer(l1=1.0))
    st = saga_init(l1_obj, np.array([1.0]))
    saga_step(st, l1_obj, 0, 1 / 6)
    # w = 5/6 as in the plain case, then soft-threshold by gamma*lam = 1/6
    assert st.x == pytest.approx([5 / 6 - 1 / 6])


def test_sag_vs_saga_direction_weighting(two_quadratics):
    obj, _ = two_quadratics
    stale = GradientTable(obj, "scalar", coeffs=np.zeros(2), avg=np.zeros(1))
    st = SagaState(x=np.array([1.0]), table=stale)
    saga_step(st, obj, 1, 1 / 6, per_n=True)
    assert st.x == pytest.approx([5 / 6])

    stale = GradientTable(obj, "scalar", coeffs=np.zeros(2), avg=np.zeros(1))
    st = SagaState(x=np.array([1.0]), table=stale)
    saga_step(st, obj, 1, 1 / 6)
    assert st.x == pytest.approx([2 / 3])


def test_sag_fresh_table_is_full_gradient_step():
    rng = np.random.default_rng(4)
    obj = make_random_objective(rng, split=0.2)
    x = rng.standard_normal(obj.d)
    st = saga_init(obj, x)
    g = obj.full_gradient(x)
    saga_step(st, obj, 3, 0.05, per_n=True)
    assert np.allclose(st.x, x - 0.05 * g, atol=1e-14)


def test_sag_rejects_composite(two_quadratics):
    obj, _ = two_quadratics
    l1_obj = FiniteSumObjective(obj.dataset, obj.loss, reg=Regularizer(l1=1.0))
    with pytest.raises(ConfigError):
        run("sag", l1_obj, np.array([1.0]), epochs=1,
            policy=StepSizePolicy("manual", gamma=1 / 6))


# ---------------------------------------------------------------------------
# explicit L2 variant

def test_explicit_l2_reduces_to_plain_saga_when_mu_zero():
    rng = np.random.default_rng(8)
    obj = make_random_objective(rng, split=0.0)
    x0 = rng.standard_normal(obj.d)
    a = saga_init(obj, x0)
    b = saga_init(obj, x0)
    for j in rng.integers(0, obj.n, size=30):
        saga_step(a, obj, int(j), 0.05)
        saga_step(b, obj, int(j), 0.05, mu=0.0)
    assert np.array_equal(a.x, b.x)


def test_explicit_l2_matches_split_form_for_one_step():
    # both forms agree while all stored points coincide (here: at x0)
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((6, 3))
    labels = pts @ rng.standard_normal(3)
    ds = Dataset.from_dense(pts, labels)
    mu = 0.4
    split_obj = FiniteSumObjective(ds, make_loss("squared"), split_l2=mu)
    loss_obj = FiniteSumObjective(ds, make_loss("squared"))
    x0 = rng.standard_normal(3)
    sa = saga_init(split_obj, x0)
    ex = saga_init(loss_obj, x0)
    gamma = 0.03
    saga_step(sa, split_obj, 2, gamma)
    saga_step(ex, loss_obj, 2, gamma, mu=mu)
    assert np.allclose(sa.x, ex.x, atol=1e-12)


def test_explicit_l2_origin_fixed_point():
    ds = Dataset.from_dense([[1.0], [2.0]], [0.0, 0.0])
    obj = FiniteSumObjective(ds, make_loss("squared"))
    st = saga_init(obj, np.array([0.0]))
    saga_step(st, obj, 0, 0.1, mu=0.5)
    assert st.x == pytest.approx([0.0], abs=1e-16)


def test_explicit_l2_rejects_degenerate_scaling(two_quadratics):
    obj, _ = two_quadratics
    with pytest.raises(ConfigError):
        run("saga_explicit_l2", with_l2(obj, 2.0), np.array([1.0]), epochs=1,
            policy=StepSizePolicy("manual", gamma=0.5))


def test_explicit_scaling_checked_on_the_computed_step(two_quadratics):
    # no manual step to check up front: the adaptive step 1/(3L) = 10/3
    # from these constants gives gamma * l2 >= 1, which run rejects
    # before the first step
    obj, _ = two_quadratics
    consts = ProblemConstants(n=2, d=1, L=0.1, mu=0.0)
    with pytest.raises(ConfigError):
        run("saga_explicit_l2", with_l2(obj, 1.0), np.array([1.0]), epochs=0,
            consts=consts, policy=StepSizePolicy("adaptive"))


# ---------------------------------------------------------------------------
# u-form reformulation

def test_u_form_initial_reconstruction(two_quadratics):
    obj, _ = two_quadratics
    x0 = np.array([0.7])
    st = saga_u_init(obj, x0, gamma=1 / 6)
    assert saga_u_reconstruct(st, 1 / 6) == pytest.approx(x0)


def test_u_form_matches_plain_saga_100_steps():
    rng = np.random.default_rng(12)
    obj = make_random_objective(rng, split=0.3, n=15, d=4)
    x0 = rng.standard_normal(4)
    gamma = 0.04
    plain = saga_init(obj, x0)
    uform = saga_u_init(obj, x0, gamma)
    js = rng.integers(0, obj.n, size=100)
    for j in js:
        saga_step(plain, obj, int(j), gamma)
        saga_u_step(uform, obj, int(j), gamma)
        assert np.linalg.norm(plain.x - saga_u_reconstruct(uform, gamma)) <= 1e-12


def test_u_form_single_component_averaging():
    ds = Dataset.from_dense([[1.0]], [2.0])
    obj = FiniteSumObjective(ds, make_loss("squared"))
    st = saga_u_init(obj, np.array([0.0]), gamma=0.1)
    x_before = saga_u_reconstruct(st, 0.1)
    saga_u_step(st, obj, 0, 0.1)
    # with n = 1 the averaging weight is 1, so u becomes the old iterate
    assert st.u == pytest.approx(x_before)


def test_u_form_guard_checks_the_new_iterate():
    # x_1 = 1.5e13 on this ridge, over the |x| <= 1e12 guard: the u-form
    # must stop at the same step as the plain update
    ds = Dataset.from_dense([[1.0], [1.0]], [1.0, 2.0])
    obj = FiniteSumObjective(ds, make_loss("squared"))
    policy = StepSizePolicy("manual", gamma=1e13)
    for method in ("saga", "saga_u"):
        with pytest.raises(DivergenceError) as err:
            run(method, obj, np.zeros(1), epochs=3, policy=policy)
        assert err.value.step == 1, method


def test_u_form_guard_checks_the_final_iterate():
    # one point, one epoch: the only step's result is the run's output
    ds = Dataset.from_dense([[1.0]], [3.0])
    obj = FiniteSumObjective(ds, make_loss("squared"))
    with pytest.raises(DivergenceError) as err:
        run("saga_u", obj, np.zeros(1), epochs=1,
            policy=StepSizePolicy("manual", gamma=2.2e13))
    assert err.value.step == 1


def test_u_form_rejects_composite(two_quadratics):
    obj, _ = two_quadratics
    l1_obj = FiniteSumObjective(obj.dataset, obj.loss, reg=Regularizer(l1=0.5))
    with pytest.raises(ConfigError):
        run("saga_u", l1_obj, np.array([1.0]), epochs=1,
            policy=StepSizePolicy("manual", gamma=0.1))


# ---------------------------------------------------------------------------
# svrg

def test_svrg_inner_step_at_snapshot_is_full_gradient_step(two_quadratics):
    obj, _ = two_quadratics
    x0 = np.array([1.0])
    res = run("svrg", obj, x0, epochs=1, inner_steps=1,
              policy=StepSizePolicy("manual", gamma=1 / 6),
              rng=np.random.default_rng(0))
    expected = x0 - (1 / 6) * obj.full_gradient(x0)
    assert res.x == pytest.approx(expected)


def test_svrg_m1_equals_proximal_gradient_descent():
    rng = np.random.default_rng(14)
    obj = make_random_objective(rng, split=0.2, l1=0.05, n=8, d=3)
    x0 = rng.standard_normal(3)
    gamma = 0.07
    res = run("svrg", obj, x0, epochs=12, inner_steps=1,
              policy=StepSizePolicy("manual", gamma=gamma),
              rng=np.random.default_rng(5))
    x = x0.copy()
    for rec in res.records[1:]:
        x = obj.reg.prox(gamma, x - gamma * obj.full_gradient(x))
        assert np.allclose(rec.x, x, atol=1e-12)


def test_svrg_eval_accounting_three_per_pass(two_quadratics):
    obj, _ = two_quadratics
    res = run("svrg", obj, np.array([1.0]), epochs=4, inner_steps=obj.n,
              policy=StepSizePolicy("manual", gamma=0.1),
              rng=np.random.default_rng(1))
    per_n = [r.grad_evals / obj.n for r in res.records]
    assert per_n == pytest.approx([0.0, 3.0, 6.0, 9.0, 12.0])


@pytest.mark.parametrize("n", [1, 2, 40, 50, 600, 10**5, 2**33])
def test_index_draws_per_pass_equal_scalar_draws(n):
    # the table, svrg and lazy engines draw a pass of indices at once;
    # that must give the stream and the generator state of scalar draws
    one, many = np.random.default_rng(n), np.random.default_rng(n)
    for size in (1, 7, 600):
        assert (one.integers(0, n, size=size).tolist()
                == [int(many.integers(0, n)) for _ in range(size)])
        assert one.bit_generator.state == many.bit_generator.state


def _svrg_scalar_draws(obj, x0, gamma, m, epochs, rng):
    """run("svrg") with one scalar rng.integers(0, n) per inner step;
    returns the iterate after each pass and the average iterate."""
    x, xs, xsum = np.array(x0, dtype=float), [], np.zeros(obj.d)
    for _ in range(epochs):
        snap = x.copy()
        g_full = obj.full_gradient(snap)
        for _ in range(m):
            j = int(rng.integers(0, obj.n))
            g = obj.component_gradient(j, x) - obj.component_gradient(j, snap) + g_full
            x = obj.reg.prox(gamma, x - gamma * g)
            xsum += x
        xs.append(x.copy())
    return xs, xsum / (m * epochs)


def _svrg_draw_cases():
    # the first six keep their ids: logistic, split 0.1, n = 12; at
    # l1 = 0.5 the soft threshold zeroes coordinates from both sides
    cases = [pytest.param("logistic", 0.1, l1, 12, m, id=f"{l1}-{m}")
             for l1 in (0.0, 0.02) for m in (7, 12, 30)]
    for kind in ("squared", "logistic"):
        for split in (0.0, 0.1):
            for l1 in (0.0, 0.5):
                for n, m in ((12, 7), (1, 3)):
                    if (kind, split, n) != ("logistic", 0.1, 12):
                        cases.append(pytest.param(
                            kind, split, l1, n, m,
                            id=f"{kind}-split{split}-l1{l1}-n{n}-m{m}"))
    return cases


@pytest.mark.parametrize("kind, split, l1, n, m", _svrg_draw_cases())
def test_svrg_equals_scalar_draw_loop(kind, split, l1, n, m, kernel_paths):
    # by bytes, so that -0.0 against +0.0 shows; on the compiled pass and
    # on the numpy loop
    rng = np.random.default_rng(16)
    obj = make_random_objective(rng, kind=kind, n=n, d=4, split=split, l1=l1)
    x0 = rng.standard_normal(4)
    want_rng = np.random.default_rng(3)
    xs, xbar = _svrg_scalar_draws(obj, x0, 0.3, m, 4, want_rng)
    for path in kernel_paths():
        got_rng = np.random.default_rng(3)
        res = run("svrg", obj, x0, epochs=4, inner_steps=m,
                  policy=StepSizePolicy("manual", gamma=0.3), rng=got_rng)
        assert [rec.x.tobytes() for rec in res.records[1:]] == [
            x.tobytes() for x in xs], path
        assert res.xbar.tobytes() == xbar.tobytes(), path
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_svrg_requires_inner_steps(two_quadratics):
    obj, _ = two_quadratics
    with pytest.raises(ConfigError):
        run("svrg", obj, np.array([1.0]), epochs=1, inner_steps=0,
            policy=StepSizePolicy("manual", gamma=0.1),
            rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# finito

def test_finito_single_component_is_gradient_step():
    ds = Dataset.from_dense([[1.0]], [2.0])
    obj = FiniteSumObjective(ds, make_loss("squared"), split_l2=0.1)
    st = finito_init(obj, np.array([0.0]))
    g = obj.component_gradient(0, np.array([0.0]))
    finito_step(st, obj, 0, gamma=0.2)
    assert st.x == pytest.approx(0.0 - 0.2 * 1 * g)


def test_finito_hand_value(two_quadratics):
    obj, _ = two_quadratics
    st = finito_init(obj, np.array([1.0]))
    finito_step(st, obj, 0, gamma=0.5)  # 1/(mu n) with mu = 1, n = 2
    assert st.x == pytest.approx([0.0], abs=1e-15)


def test_finito_mean_update_identity_in_expectation():
    rng = np.random.default_rng(19)
    obj = make_random_objective(rng, split=0.5, n=7, d=3)
    base = finito_init(obj, rng.standard_normal(3))
    # a few warm-up steps so the phi are not all equal
    for j in rng.integers(0, 7, size=10):
        finito_step(base, obj, int(j), 0.02)
    gamma = 0.02
    grads = obj.gradients_at_points(base.phi)
    x_next = base.phi_mean - gamma * grads.sum(axis=0)
    acc = np.zeros(3)
    for j in range(obj.n):
        st = finito_init(obj, np.zeros(3))
        st.phi = base.phi.copy()
        st.phi_mean = base.phi_mean.copy()
        st.table = GradientTable(obj, "scalar", coeffs=base.table.coeffs.copy(),
                                 avg=base.table.avg.copy())
        finito_step(st, obj, j, gamma)
        acc += st.phi_mean
    expected = base.phi_mean + (x_next - base.phi_mean) / obj.n
    assert np.linalg.norm(acc / obj.n - expected) <= 1e-12


def test_finito_requires_strong_convexity(two_quadratics):
    obj, _ = two_quadratics  # split_l2 = 0 here
    with pytest.raises(ConfigError):
        run("finito", obj, np.zeros(1), epochs=1)


# ---------------------------------------------------------------------------
# sdca

def _sdca_problem(rng, n=6, d=3, mu=0.5):
    pts = rng.standard_normal((n, d))
    labels = pts @ rng.standard_normal(d)
    ds = Dataset.from_dense(pts, labels)
    return FiniteSumObjective(ds, make_loss("squared"), reg=Regularizer(l2=mu))


def test_sdca_single_component_hand_value():
    ds = Dataset.from_dense([[1.0]], [1.0])
    obj = FiniteSumObjective(ds, make_loss("squared"), reg=Regularizer(l2=1.0))
    st = sdca_init(obj, np.array([0.0]), mu=1.0)
    sdca_primal_step(st, obj, 0, mu=1.0)
    # one exact coordinate step solves argmin (x-1)^2/2 + x^2/2
    assert st.x == pytest.approx([0.5])


def test_sdca_stored_gradient_identity():
    rng = np.random.default_rng(25)
    obj = _sdca_problem(rng)
    mu = 0.5
    gamma = 1.0 / (mu * obj.n)
    st = sdca_init(obj, rng.standard_normal(3), mu=mu)
    for j in rng.integers(0, obj.n, size=40):
        j = int(j)
        z = st.x + gamma * st.table.gradient(j)
        sdca_primal_step(st, obj, j, mu)
        phi_implied = z - gamma * st.table.gradient(j)
        assert np.linalg.norm(
            st.table.gradient(j) - obj.component_gradient(j, phi_implied)) <= 1e-10


def test_sdca_converges_to_primal_optimum():
    rng = np.random.default_rng(26)
    obj = _sdca_problem(rng, n=10, d=3, mu=0.8)
    x_star, _ = prox_gradient_optimum(obj)
    res = run("sdca", obj, np.zeros(3), epochs=200, seed=0)
    assert np.linalg.norm(res.x - x_star) <= 1e-9


def test_sdca_small_l2_completes():
    # gq = gamma |a_i|^2 = 1/(mu n) = 16.7 here, where the margin solve
    # used to cycle and raise ProxSolveError
    ds = generate_synthetic("logistic", n=600, d=100, seed=7, normalize=True)
    obj = FiniteSumObjective(ds, make_loss("logistic"),
                             reg=Regularizer(l2=1e-4))
    reference = prox_gradient_optimum(
        FiniteSumObjective(ds, make_loss("logistic"), split_l2=1e-4))
    res = run("sdca", obj, np.zeros(100), epochs=20, seed=0,
              reference=reference)
    assert res.records[-1].subopt <= 1e-4
    assert res.records[-2].subopt > 1e-4  # first reached at epoch 20


def test_variant5_blend_weights():
    # beta = mu n / (L + mu n): L = 0 gives beta = 1, which replaces
    # entry j by f_j'(x), and L = inf gives beta = 0, which keeps it
    rng = np.random.default_rng(27)
    obj = _sdca_problem(rng)
    mu = 0.5
    x0 = rng.standard_normal(3)
    for L, beta in ((0.0, 1.0), (np.inf, 0.0)):
        assert mu * obj.n / (L + mu * obj.n) == beta
        st = sdca_init(obj, x0, mu=mu)
        g_x = obj.component_gradient(2, st.x)
        old, x_old = st.table.gradient(2), st.x.copy()
        sdca_variant5_step(st, obj, 2, mu, L)
        want = g_x if beta == 1.0 else old
        assert np.array_equal(st.table.gradient(2), want)
        assert np.allclose(st.x, x_old - (want - old) / (mu * obj.n))


def _copying_steps(method, state, obj, js, mu, L):
    """sdca_primal_step, sdca_variant5_step and midpoint_step written
    with every stored entry read from a copy taken before the step: the
    coefficient array, and for midpoint's rows c_j a_j + split phi_j
    also the stored points."""
    n, table = obj.n, state.table
    for j in js:
        a = obj.points[j]
        if method == "sdca":
            gamma = 1.0 / (mu * n)
            c_old = float(table.coeffs.copy()[j])
            az = float(np.vdot(a, state.x)) + gamma * c_old * float(
                obj.dataset.sqnorms()[j])
            c_new = scalar_loss_prox(obj, j, gamma, az)
            table.update(j, c_new)
            state.x = state.x - (gamma * (c_new - c_old)) * a
        elif method == "sdca_variant5":
            beta = mu * n / (L + mu * n)
            c_old = float(table.coeffs.copy()[j])
            c_x = obj.loss.deriv_scalar(float(np.vdot(a, state.x)),
                                        obj.labels[j])
            table.update(j, (1.0 - beta) * c_old + beta * c_x)
            state.x = state.x - ((1.0 / (mu * n))
                                 * (table.coeffs.copy()[j] - c_old)) * a
        else:
            lam = obj.split_l2
            g_old = table.coeffs.copy()[j] * a + lam * state.phi.copy()[j]
            gamma_p = 1.0 / (mu * (n - 1))
            z = ((state.phi_mean * n - state.phi[j]) / (n - 1)
                 - ((table.avg + lam * state.phi_mean) * n - g_old)
                 / (mu * (n - 1)))
            c = scalar_loss_prox(obj, j, gamma_p, float(np.vdot(a, z)))
            phi_j = (z - gamma_p * c * a) / (1.0 + gamma_p * lam)
            table.update(j, c)
            state.phi_mean = state.phi_mean + (phi_j - state.phi[j]) / n
            state.phi[j] = phi_j
            state.x = phi_j


@pytest.mark.parametrize("method", ["sdca", "sdca_variant5", "midpoint"])
def test_in_place_row_reads_equal_copying_steps(method):
    rng = np.random.default_rng(31)
    mu = 0.05
    obj = make_random_objective(rng, kind="logistic", n=15, d=6, split=mu)
    if method != "midpoint":
        obj = FiniteSumObjective(obj.dataset, obj.loss, reg=Regularizer(l2=mu))
    L = estimate_constants(obj).L
    x0 = rng.standard_normal(6)
    init = (lambda: finito_init(obj, x0)) if method == "midpoint" else (
        lambda: sdca_init(obj, x0, mu))
    step = {"sdca": sdca_primal_step, "midpoint": midpoint_step,
            "sdca_variant5": lambda st, o, j, m: sdca_variant5_step(st, o, j, m, L)}
    got, want = init(), init()
    js = rng.integers(0, obj.n, size=60).tolist()
    for j in js:
        step[method](got, obj, j, mu)
    _copying_steps(method, want, obj, js, mu, L)
    assert np.array_equal(got.x, want.x)
    assert np.array_equal(got.table.coeffs, want.table.coeffs)
    assert np.array_equal(got.table.avg, want.table.avg)
    if method == "midpoint":
        assert np.array_equal(got.phi, want.phi)
        assert np.array_equal(got.phi_mean, want.phi_mean)


@pytest.mark.parametrize("method", ["sdca", "sdca_variant5"])
def test_sdca_tables_keep_one_scalar_per_point(method, monkeypatch):
    states = []

    def recorded(*args):
        states.append(sdca_init(*args))
        return states[-1]

    monkeypatch.setattr(solvers, "sdca_init", recorded)
    obj = _sdca_problem(np.random.default_rng(29), n=7, d=3)
    run(method, obj, np.zeros(3), epochs=1)
    [state] = states
    assert state.table.mode == "scalar"
    assert state.table.vecs is None
    assert state.table.coeffs.shape == (obj.n,)


@pytest.mark.parametrize("method", ["sdca", "sdca_variant5"])
def test_sdca_epoch_on_sparse_data_holds_no_n_by_d_table(method, kernel_paths):
    # an (n, d) table of f_i'(phi_i) is 12 MB here; the scalar table and
    # the run's d-vectors take about 0.4 MB
    ds = generate_synthetic("ridge", n=300, d=5000, density=2e-3, seed=3,
                            normalize=True)
    obj = FiniteSumObjective(ds, make_loss("squared"), reg=Regularizer(l2=0.1))
    assert obj.sparse
    obj.points  # the dense copy, charged before tracing
    assert max(_one_epoch_peaks(method, obj, kernel_paths)) < 1e6


def _one_epoch_peaks(method, obj, kernel_paths):
    """The traced peak of a one-epoch run of ``method`` from the origin on
    each path, after a first call's imports and loads."""
    x0, peaks = np.zeros(obj.d), []
    for _ in kernel_paths():
        run(method, obj, x0, epochs=0)
        tracemalloc.start()
        try:
            run(method, obj, x0, epochs=1, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def _frozen_dense_sdca(obj, x0, mu, js):
    """The iterates of sdca as it stepped on a dense table of rows
    f_j'(phi_j), kept frozen: the prox formed phi_j and the stored row
    (z - phi_j) / gamma from a_j' z, and x moved by the rows'
    difference."""
    n = obj.n
    gamma = 1.0 / (mu * n)
    table = GradientTable.at_point(obj, x0, mode="dense")
    x = -(1.0 / (mu * n)) * table.sum()
    xs = []
    for j in js:
        g_old = table.vecs[j]
        z = x + gamma * g_old
        a, b = obj.points[j], float(obj.labels[j])
        q = float(obj.dataset.sqnorms()[j])
        az = float(np.vdot(a, z))
        t = ((az + gamma * q * b) / (1.0 + gamma * q)
             if obj.loss.kind == "squared"
             else _solve_margin(b, 1.0, gamma * q, az, 1e-12))
        phi = (z - gamma * obj.loss.deriv_scalar(t, b) * a) / 1.0
        g_new = (z - phi) / gamma
        diff = g_new - g_old
        table.update(j, g_new)
        x = x - gamma * diff
        xs.append(x)
    return xs


@pytest.mark.parametrize("kind", ["squared", "logistic"])
def test_scalar_sdca_step_follows_the_dense_table_step(kind):
    rng = np.random.default_rng(30)
    mu = 0.05
    obj = make_random_objective(rng, kind=kind, n=25, d=8, split=0.0)
    obj = FiniteSumObjective(obj.dataset, obj.loss, reg=Regularizer(l2=mu))
    x0 = rng.standard_normal(8)
    js = rng.integers(0, obj.n, size=200).tolist()
    state = sdca_init(obj, x0, mu)
    for j, want in zip(js, _frozen_dense_sdca(obj, x0, mu, js)):
        sdca_primal_step(state, obj, j, mu)
        assert np.linalg.norm(state.x - want) <= 1e-13 * np.linalg.norm(want)


def test_variant5_converges():
    rng = np.random.default_rng(28)
    obj = _sdca_problem(rng, n=12, d=3, mu=0.7)
    x_star, _ = prox_gradient_optimum(obj)
    res = run("sdca_variant5", obj, np.zeros(3), epochs=400, seed=1)
    assert np.linalg.norm(res.x - x_star) <= 1e-8


# ---------------------------------------------------------------------------
# midpoint

def test_midpoint_hand_values(two_quadratics):
    obj, consts = two_quadratics
    st = finito_init(obj, np.array([1.0]))
    midpoint_step(st, obj, 0, mu=1.0)
    assert st.phi[0] == pytest.approx([0.0], abs=1e-14)
    assert st.x == pytest.approx([0.0], abs=1e-14)
    assert midpoint_identity_residual(obj, st, 1.0) <= 1e-14


def test_midpoint_identity_along_random_run():
    rng = np.random.default_rng(33)
    obj = make_random_objective(rng, split=0.6, n=9, d=4)
    st = finito_init(obj, rng.standard_normal(4))
    for j in rng.integers(0, 9, size=60):
        midpoint_step(st, obj, int(j), mu=0.6)
        assert midpoint_identity_residual(obj, st, 0.6) <= 1e-10


def test_midpoint_zero_gradient_leave_one_out():
    # second point at its own minimiser with zero stored gradients:
    # the leave-one-out centre collapses onto phi_2
    ds = Dataset.from_dense([[1.0], [2.0]], [1.0, 3.0])
    obj = FiniteSumObjective(ds, make_loss("squared"))
    st = finito_init(obj, np.array([1.5]))  # a_2' x = 3 = b_2
    assert np.allclose(st.table.gradient(1), 0.0)
    mu = 1.0
    sum_phi = st.phi_mean * 2
    z = (sum_phi - st.phi[0]) / 1 - (st.table.sum() - st.table.gradient(0)) / mu
    assert z == pytest.approx(st.phi[1])


@pytest.mark.parametrize("method", ["finito", "midpoint"])
def test_stored_point_methods_hold_one_n_by_d_array(method, kernel_paths):
    # phi is the one (n, d) array of these runs: the table beside it keeps
    # one coefficient per point, not a second n x d table of rows
    n, d = 200, 2000
    ds = generate_synthetic("logistic", n=n, d=d, seed=2, normalize=True)
    obj = FiniteSumObjective(ds, make_loss("logistic"), split_l2=0.1)
    obj.points, obj.dataset.sqnorms()  # cached, charged before tracing
    assert max(_one_epoch_peaks(method, obj, kernel_paths)) < 1.5 * n * d * 8


def test_midpoint_needs_two_components():
    ds = Dataset.from_dense([[1.0]], [1.0])
    obj = FiniteSumObjective(ds, make_loss("squared"), split_l2=1.0)
    with pytest.raises(ConfigError):
        run("midpoint", obj, np.array([0.0]), epochs=1)


# ---------------------------------------------------------------------------
# direction structure (exact enumeration)

def test_saga_direction_unbiased_and_sag_interpolation():
    rng = np.random.default_rng(40)
    obj = make_random_objective(rng, split=0.3, n=11, d=5)
    x = rng.standard_normal(5)
    phi = rng.standard_normal((11, 5))
    g_x = obj.component_gradients(x)
    g_phi = obj.gradients_at_points(phi)
    gbar = g_phi.mean(axis=0)
    full = obj.full_gradient(x)
    saga_dir = (g_x - g_phi + gbar).mean(axis=0)
    assert np.abs(saga_dir - full).max() <= 1e-12
    sag_dir = ((g_x - g_phi) / obj.n + gbar).mean(axis=0)
    target = full / obj.n + (1 - 1 / obj.n) * gbar
    assert np.abs(sag_dir - target).max() <= 1e-12

    # on the two-quadratic problem at x = 1 with a fresh table both
    # branch directions equal the full gradient value 1
    ds = Dataset.from_dense([[1.0], [1.0]], [1.0, -1.0])
    q2 = FiniteSumObjective(ds, make_loss("squared"))
    gq = q2.component_gradients(np.array([1.0]))
    dirs = gq - gq + gq.mean(axis=0)
    assert np.allclose(dirs, 1.0)


# ---------------------------------------------------------------------------
# gradient table

def test_table_incremental_average_drift():
    rng = np.random.default_rng(41)
    for mode_split in (0.0, 0.4):
        obj = make_random_objective(rng, split=mode_split, n=50, d=6)
        table = GradientTable.at_point(obj, rng.standard_normal(6))
        for j in rng.integers(0, 50, size=50):
            x = rng.standard_normal(6)
            if table.mode == "scalar":
                a = obj.points[int(j)]
                table.update(int(j), obj.loss.deriv_scalar(
                    float(a @ x), obj.labels[int(j)]))
            else:
                table.update(int(j), obj.component_gradient(int(j), x))
        assert table.resync() <= 1e-9


@pytest.mark.parametrize("density,support", [(0.01, True), (1.0, False)])
def test_table_scalar_update_matches_dense_formula(density, support):
    ds = generate_synthetic("logistic", n=30, d=1200, density=density,
                            seed=4, normalize=True)
    obj = FiniteSumObjective(ds, make_loss("logistic"))
    rng = np.random.default_rng(8)
    table = GradientTable.at_point(obj, rng.standard_normal(obj.d))
    assert table.support is support
    coeffs, avg = table.coeffs.copy(), table.avg.copy()
    for j in rng.integers(0, obj.n, size=60).tolist():
        new = float(rng.standard_normal())
        avg += ((new - coeffs[j]) / obj.n) * obj.points[j]
        coeffs[j] = new
        table.update(j, new)
        assert np.array_equal(table.avg, avg)
    assert np.array_equal(table.coeffs, coeffs)


def test_table_scalar_mode_with_a_split_holds_the_loss_part():
    # f_i'(phi_i) = c_i a_i + split phi_i: the table keeps c_i and the
    # mean of the c_i a_i, and a state keeping phi adds the rest
    rng = np.random.default_rng(42)
    obj = make_random_objective(rng, split=0.5)
    x = rng.standard_normal(obj.d)
    table = GradientTable.at_point(obj, x, mode="scalar")
    assert table.vecs is None
    assert np.array_equal(table.coeffs, obj.loss_coeffs(x))
    want = obj.component_gradients(x).mean(axis=0)
    assert np.allclose(table.avg + obj.split_l2 * x, want, rtol=0, atol=1e-15)


def test_sdca_iterate_stays_consistent_with_table():
    rng = np.random.default_rng(43)
    obj = _sdca_problem(rng, n=15, d=4, mu=0.6)
    gamma = 1.0 / (0.6 * obj.n)
    st = sdca_init(obj, rng.standard_normal(4), mu=0.6)
    for j in rng.integers(0, obj.n, size=200):
        sdca_primal_step(st, obj, int(j), 0.6)
        assert np.linalg.norm(st.x + gamma * st.table.sum()) <= 1e-9


def test_finito_mean_stays_consistent_with_points():
    rng = np.random.default_rng(48)
    obj = make_random_objective(rng, split=0.4, n=20, d=4)
    st = finito_init(obj, rng.standard_normal(4))
    for j in rng.integers(0, obj.n, size=300):
        finito_step(st, obj, int(j), 0.02)
    assert np.linalg.norm(st.phi_mean - st.phi.mean(axis=0)) <= 1e-9


def _reference_optimum(obj):
    """Plain proximal gradient at step 1/L_max until the fixed-point
    residual |x+ - x| drops to 1e-12; returns (x_star, F_star, number
    of full gradients)."""
    step = 1.0 / estimate_constants(obj).L
    x = np.zeros(obj.d)
    for k in range(1, 1_000_001):
        nxt = obj.reg.prox(step, x - step * obj.full_gradient(x))
        if np.linalg.norm(nxt - x) <= 1e-12:
            return nxt, obj.value(nxt), k
        x = nxt
    raise AssertionError("reference optimum did not converge")


def _count_full_gradients(obj):
    calls = []
    full_gradient = obj.full_gradient

    def counted(x, **kwargs):
        calls.append(1)
        return full_gradient(x, **kwargs)

    obj.full_gradient = counted
    return calls


# (split-in L2, prox regulariser): none, L1, elastic and split L2, plus
# the mu = 0 lasso, which has no L2 term anywhere
OPTIMUM_CASES = [
    ("squared", 0.0, Regularizer()),
    ("squared", 0.0, Regularizer(l1=0.05)),
    ("squared", 0.0, Regularizer(l2=0.1, l1=0.05)),
    ("squared", 0.1, Regularizer()),
    ("squared", 0.1, Regularizer(l1=0.05)),
    ("logistic", 0.0, Regularizer()),
    ("logistic", 0.0, Regularizer(l2=0.1, l1=0.02)),
    ("logistic", 0.1, Regularizer()),
    ("logistic", 0.01, Regularizer(l1=0.02)),
]


@pytest.mark.parametrize("case", range(len(OPTIMUM_CASES)))
def test_prox_gradient_optimum_matches_reference(case):
    kind, split, reg = OPTIMUM_CASES[case]
    rng = np.random.default_rng(100 + case)
    obj = make_random_objective(rng, kind=kind, n=40, d=5, split=split)
    obj = FiniteSumObjective(obj.dataset, obj.loss, split_l2=split, reg=reg)
    x_ref, f_ref, _ = _reference_optimum(obj)
    x_star, f_star = prox_gradient_optimum(obj)
    assert abs(f_star - f_ref) <= 1e-13 * max(1.0, abs(f_ref))
    assert np.linalg.norm(x_star - x_ref) <= 1e-8
    assert fixed_point_residual(obj, x_star) <= 1e-12
    # a warm start at the optimum is certified by its first full gradient
    calls = _count_full_gradients(obj)
    x_again, f_again = prox_gradient_optimum(obj, x0=x_star)
    assert len(calls) == 1
    assert np.linalg.norm(x_again - x_star) <= 1e-12
    assert abs(f_again - f_star) <= 1e-13 * max(1.0, abs(f_star))


def _frozen_smooth_value(obj, x, margins):
    val = float(np.mean(obj.loss.value(margins, obj.labels)))
    if obj.split_l2:
        val += 0.5 * obj.split_l2 * float(x @ x)
    return val


def _frozen_full_gradient(obj, x):
    m, b = obj.margins(x), obj.labels
    c = m - b if obj.loss.kind == "squared" else -b * frozen_sigmoid(-b * m)
    g = obj.point_sum(c) / obj.n
    return g + obj.split_l2 * x if obj.split_l2 else g


def _frozen_fista(obj, tol=1e-12):
    """The accelerated loop as it stood before f(y), the restart product
    and exact margins were reused, with the value, gradient and sigmoid
    formulas of that time: every quantity is formed afresh in every
    iteration.  Returns (x_star, F_star, number of full gradients).
    The whole-data products are the objective's own (``margins``,
    ``point_sum``): this pins the loop, not the product kernels."""

    l_max = estimate_constants(obj).L
    lip = _smooth_lipschitz(obj, l_max)
    prox = obj.reg.prox if obj.reg.l1 or obj.reg.l2 else (lambda gamma, w: w)
    x = np.zeros(obj.d)
    mx = obj.margins(x)
    y, my = x, mx
    t = 1.0
    for k in range(1, 1_000_001):
        g = _frozen_full_gradient(obj, y)
        ty = prox(1.0 / l_max, y - g / l_max)
        if float(np.linalg.norm(ty - y)) <= tol:
            f_star = _frozen_smooth_value(obj, ty, obj.margins(ty))
            return ty, f_star + obj.reg.value(ty), k
        fy = _frozen_smooth_value(obj, y, my)
        while True:
            x_new = ty if lip == l_max else prox(1.0 / lip, y - g / lip)
            m_new = obj.margins(x_new)
            dx = x_new - y
            bound = fy + float(g @ dx) + 0.5 * lip * float(dx @ dx)
            if (lip == l_max or _frozen_smooth_value(obj, x_new, m_new)
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
    raise AssertionError("frozen loop did not converge")


def _assert_optimum_bits_equal_frozen(obj):
    x_want, f_want, k_want = _frozen_fista(obj)
    calls = _count_full_gradients(obj)
    x_star, f_star = prox_gradient_optimum(obj)
    assert np.array_equal(x_star, x_want)
    assert f_star == f_want
    assert len(calls) == k_want


def test_prox_gradient_optimum_bits_equal_frozen_loop_certify_instances():
    from incgrad.analysis import random_strongly_convex_objective

    rng = np.random.default_rng(2024)
    for i in range(50):
        kind = ("squared", "logistic")[i % 2]
        _assert_optimum_bits_equal_frozen(
            random_strongly_convex_objective(rng, kind=kind))


@pytest.mark.parametrize("kind,loss,n,d,density,l2,l1", [
    ("logistic", "logistic", 600, 100, 1.0, 1e-3, 0.0),
    ("logistic", "logistic", 600, 200, 1.0, 1e-4, 1e-3),
    ("ridge", "squared", 600, 10_000, 1e-3, 0.1, 0.0),
])
def test_prox_gradient_optimum_bits_equal_frozen_loop_run_workloads(
        kind, loss, n, d, density, l2, l1):
    # the canonical objectives of the three benchmark run configs
    ds = generate_synthetic(kind, n=n, d=d, density=density, seed=7,
                            normalize=True)
    _assert_optimum_bits_equal_frozen(FiniteSumObjective(
        ds, make_loss(loss), split_l2=l2, reg=Regularizer(l1=l1)))


def test_prox_gradient_optimum_accelerates_ill_conditioned_l1_logistic():
    ds = generate_synthetic("logistic", n=200, d=50, seed=3, normalize=True)
    obj = FiniteSumObjective(ds, make_loss("logistic"), split_l2=1e-4,
                             reg=Regularizer(l1=1e-3))
    _, f_ref, ref_gradients = _reference_optimum(obj)
    calls = _count_full_gradients(obj)
    _, f_star = prox_gradient_optimum(obj)
    assert abs(f_star - f_ref) <= 1e-13 * max(1.0, abs(f_ref))
    assert 10 * len(calls) <= ref_gradients


def test_prox_gradient_optimum_iteration_cap():
    from incgrad import OptimumError

    rng = np.random.default_rng(49)
    obj = make_random_objective(rng, split=0.01, n=20, d=6)
    with pytest.raises(OptimumError) as err:
        prox_gradient_optimum(obj, tol=1e-12, max_iter=3)
    assert err.value.residual > 1e-12


@pytest.mark.parametrize("scale,labels,what", [
    (1.0, 1e160, "fixed-point residual"),  # |T(0) - 0|^2 overflows first
    (1e3, 1e155, "objective value"),  # f(0) overflows, |T(0)|^2 does not
])
def test_prox_gradient_optimum_stops_at_a_non_finite_value(scale, labels,
                                                           what):
    # finite labels whose squares overflow: the run stops at once, without
    # a numpy warning (warnings fail the suite)
    from incgrad import OptimumError

    rng = np.random.default_rng(5)
    pts = scale * rng.standard_normal((20, 5))
    obj = FiniteSumObjective(
        Dataset.from_dense(pts, labels * rng.standard_normal(20)),
        make_loss("squared"), split_l2=0.1)
    with pytest.raises(OptimumError) as err:
        prox_gradient_optimum(obj)
    assert str(err.value) == ("proximal gradient reached a non-finite "
                              f"{what} at iteration 1")
    assert err.value.iterations == 1
    assert math.isfinite(err.value.residual) is (what == "objective value")


# ---------------------------------------------------------------------------
# run driver

def test_run_zero_epochs_single_row(two_quadratics):
    obj, consts = two_quadratics
    res = run("saga", obj, np.array([1.0]), epochs=0, consts=consts)
    assert len(res.records) == 1
    assert res.records[0].grad_evals == 0.0
    assert res.records[0].x == pytest.approx([1.0])


def test_run_saga_tracks_corollary_bound(two_quadratics):
    from incgrad.analysis import bound_value

    obj, consts = two_quadratics
    x0 = np.array([1.0])
    x_star = np.array([0.0])
    res = run("saga", obj, x0, epochs=50, seed=3, consts=consts,
              policy=StepSizePolicy("manual", gamma=1 / 6),
              reference=(x_star, 0.5))
    b0 = bound_value("corollary_sc", obj, consts, x0, x_star, 0)
    assert b0 == pytest.approx(4 / 3)
    for rec in res.records:
        assert rec.dist_sq <= (5 / 6) ** rec.k * b0 + 1e-12


def test_run_divergence_detected():
    rng = np.random.default_rng(45)
    obj = make_random_objective(rng, split=0.0, n=6, d=3)
    with pytest.raises(DivergenceError) as err:
        run("saga", obj, np.zeros(3), epochs=50,
            policy=StepSizePolicy("manual", gamma=1e8))
    assert err.value.step > 0


@pytest.mark.parametrize("method", ["saga", "sdca"])
def test_divergence_guard_on_huge_labels_raises_no_warning(method):
    # labels of about 1e160: the first iterate's |x|^2 overflows, which
    # the guard reads as divergence, with no numpy warning (an error here)
    ds = generate_synthetic("ridge", 20, 5, noise=1e160, seed=1)
    obj = FiniteSumObjective(ds, make_loss("squared"), split_l2=0.1)
    with pytest.raises(DivergenceError) as err:
        run(method, obj, np.zeros(5), epochs=2)
    assert err.value.step == 1


def test_run_permuted_sampling_touches_every_component(monkeypatch):
    # numpy saga: each pass of sampling="perm" updates every entry once
    rng = np.random.default_rng(46)
    obj = make_random_objective(rng, split=0.2, n=9, d=3)
    updates = []
    update = GradientTable.update

    def counted(table, i, new):
        updates.append(i)
        update(table, i, new)

    monkeypatch.setattr(GradientTable, "update", counted)
    run("saga", obj, np.zeros(3), epochs=3, seed=5, sampling="perm")
    per_pass = np.sort(np.reshape(updates, (3, 9)), axis=1)
    assert (per_pass == np.arange(9)).all()


def test_run_trace_row_counting(two_quadratics):
    obj, consts = two_quadratics
    res = run("saga", obj, np.zeros(1), epochs=10, consts=consts, trace_every=1)
    assert len(res.records) == 11
    per_n = [r.grad_evals / obj.n for r in res.records]
    # full-table init charges one extra pass before the first epoch
    assert per_n[0] == 0.0
    assert per_n[1] == pytest.approx(2.0)
    assert np.allclose(np.diff(per_n[1:]), 1.0)


def _hand_run(method, obj, x0, gamma, mu, L, epochs, seed):
    """The run driver written out with per-step dispatch, the saga_u
    iterate reconstructed from u and the table after every step, and
    one integer draw stream per epoch; returns the iterate after each
    epoch and the average iterate."""
    rng = np.random.default_rng(seed)
    n = obj.n
    if method in ("finito", "midpoint"):
        state = finito_init(obj, x0)
    elif method in ("sdca", "sdca_variant5"):
        state = sdca_init(obj, x0, mu)
    elif method == "saga_u":
        state = saga_u_init(obj, x0, gamma)
    else:
        state = saga_init(obj, x0)

    def iterate():
        if method == "saga_u":
            return saga_u_reconstruct(state, gamma)
        return state.x

    xs, xsum = [], np.zeros_like(x0)
    for _ in range(epochs):
        for j in rng.integers(0, n, size=n):
            j = int(j)
            if method == "saga":
                saga_step(state, obj, j, gamma)
            elif method == "sag":
                saga_step(state, obj, j, gamma, per_n=True)
            elif method == "saga_explicit_l2":
                saga_step(state, obj, j, gamma, mu=mu)
            elif method == "saga_u":
                saga_u_step(state, obj, j, gamma)
            elif method == "finito":
                finito_step(state, obj, j, gamma)
            elif method == "sdca":
                sdca_primal_step(state, obj, j, mu)
            elif method == "sdca_variant5":
                sdca_variant5_step(state, obj, j, mu, L)
            else:
                midpoint_step(state, obj, j, mu)
            xsum += iterate()
        state.table.resync()
        if method in ("sdca", "sdca_variant5"):
            state.x = -(1.0 / (mu * n)) * state.table.sum()
        elif method in ("finito", "midpoint"):
            state.phi_mean = state.phi.mean(axis=0)
        elif method == "saga_u":
            state.x = saga_u_reconstruct(state, gamma)
        xs.append(np.array(iterate()))
    return xs, xsum / (epochs * n)


@pytest.mark.parametrize("method,form", [
    ("saga", "split"), ("saga", "split_l1"), ("sag", "split"),
    ("saga_u", "split"), ("finito", "split"), ("midpoint", "split"),
    ("sdca", "separate"), ("sdca_variant5", "separate"),
    ("saga_explicit_l2", "loss_only"),
])
def test_run_equals_hand_loop_of_step_functions(method, form):
    rng = np.random.default_rng(5)
    mu, gamma = 0.3, 0.05
    obj = make_random_objective(rng, kind="logistic", n=12, d=4, split=mu)
    consts = ProblemConstants(n=12, d=4, L=estimate_constants(obj).L, mu=mu)
    kwargs = {}
    if form == "split_l1":
        obj = FiniteSumObjective(obj.dataset, obj.loss, split_l2=mu,
                                 reg=Regularizer(l1=0.02))
    elif form == "separate":
        obj = FiniteSumObjective(obj.dataset, obj.loss, reg=Regularizer(l2=mu))
    elif form == "loss_only":
        obj = FiniteSumObjective(obj.dataset, obj.loss)
    if method not in ("sdca", "sdca_variant5", "midpoint"):
        kwargs["policy"] = StepSizePolicy("manual", gamma=gamma)
    x0 = rng.standard_normal(4)
    problem = with_l2(obj, mu) if form == "loss_only" else obj
    res = run(method, problem, x0, epochs=3, seed=11, consts=consts, **kwargs)
    xs, xbar = _hand_run(method, obj, x0, gamma, mu, consts.L, 3, 11)
    assert [r.k for r in res.records] == [0, 12, 24, 36]
    for rec, x in zip(res.records[1:], xs):
        assert np.array_equal(rec.x, x)
    assert np.array_equal(res.x, xs[-1])
    assert np.array_equal(res.xbar, xbar)
    assert np.array_equal(res.records[-1].xbar, xbar)


@pytest.mark.parametrize("method", ["sdca", "sdca_variant5"])
def test_separate_form_takes_an_l2_term_above_the_loss_smoothness(
        method, kernel_paths):
    # l2 = 1 exceeds the loss's smoothness L = max |a_i|^2: the step's mu
    # is the regulariser's strength, kept out of the component constants
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((12, 4)) / 8
    ds = Dataset.from_dense(pts, pts @ rng.standard_normal(4))
    sep = FiniteSumObjective(ds, make_loss("squared"), reg=Regularizer(l2=1.0))
    L = estimate_constants(sep).L
    assert L < 1.0
    x0 = rng.standard_normal(4)
    xs, xbar = _hand_run(method, sep, x0, None, 1.0, L, 3, 11)
    split = FiniteSumObjective(ds, make_loss("squared"), split_l2=1.0)
    for _ in kernel_paths():
        res = run(method, split, x0, epochs=3, seed=11)
        assert [r.x.tobytes() for r in res.records[1:]] == [
            x.tobytes() for x in xs]
        assert res.xbar.tobytes() == xbar.tobytes()


def _dense_scalar_table_run(method, obj, x0, gamma, mu, epochs, seed):
    """Scalar-table saga, sag and saga_explicit_l2 with every step's
    vectors formed over all d coordinates: g_new = c a_j, g_old = c_old a_j
    and the mean update (c - c_old)/n a_j.  The mean is filled and resynced
    at each pass end as the program does, by ``obj.point_sum``: a dense
    ``points.T @ coeffs`` rounds apart once a coordinate has three or more
    nonzeros.  Returns the iterate after each epoch."""
    rng = np.random.default_rng(seed)
    n, points = obj.n, obj.points
    coeffs = np.array(obj.loss_coeffs(x0), dtype=float)
    avg = obj.point_sum(coeffs) / n
    x, xs = np.array(x0), []
    for _ in range(epochs):
        for j in rng.integers(0, n, size=n).tolist():
            a = points[j]
            c = obj.loss.deriv_scalar(float(a @ x), obj.labels[j])
            g_new, g_old = c * a, coeffs[j] * a
            if method == "sag":
                x = x - gamma * ((g_new - g_old) / n + avg)
            elif method == "saga_explicit_l2":
                x = (1.0 - gamma * mu) * x - gamma * (g_new - g_old + avg)
            else:
                x = obj.reg.prox(gamma, x - gamma * (g_new - g_old + avg))
            avg += ((c - coeffs[j]) / n) * a
            coeffs[j] = c
        avg = obj.point_sum(coeffs) / n
        xs.append(x.copy())
    return xs


@pytest.mark.parametrize("density", [0.005, 1.0])
@pytest.mark.parametrize("method,loss,l1", [
    ("saga_explicit_l2", "squared", 0.0), ("saga_explicit_l2", "logistic", 0.0),
    ("sag", "logistic", 0.0), ("saga", "logistic", 1e-3),
])
def test_support_steps_equal_dense_scalar_steps(method, loss, l1, density):
    kind = "ridge" if loss == "squared" else "logistic"
    ds = generate_synthetic(kind, n=40, d=1500, density=density, seed=6,
                            normalize=True)
    obj = FiniteSumObjective(ds, make_loss(loss),
                             reg=Regularizer(l1=l1) if l1 else None)
    assert GradientTable.at_point(obj, np.zeros(obj.d)).support is (density < 1)
    mu, gamma = 0.1, 0.2
    problem = with_l2(obj, mu) if method == "saga_explicit_l2" else obj
    x0 = np.random.default_rng(2).standard_normal(obj.d) / 30
    res = run(method, problem, x0, epochs=3, seed=9,
              policy=StepSizePolicy("manual", gamma=gamma))
    xs = _dense_scalar_table_run(method, obj, x0, gamma, mu, 3, 9)
    for rec, x in zip(res.records[1:], xs):
        assert np.array_equal(rec.x, x)


def test_all_methods_reach_common_optimum():
    rng = np.random.default_rng(47)
    n, d = 40, 5
    pts = rng.standard_normal((n, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    ds = Dataset.from_dense(pts, labels)
    mu = 0.05
    split_obj = FiniteSumObjective(ds, make_loss("logistic"), split_l2=mu)
    sep_obj = FiniteSumObjective(ds, make_loss("logistic"),
                                 reg=Regularizer(l2=mu))
    x_star, _ = prox_gradient_optimum(split_obj)
    finals = {}
    epochs = 120
    finals["saga"] = run("saga", split_obj, np.zeros(d), epochs=epochs, seed=0).x
    finals["saga_u"] = run("saga_u", split_obj, np.zeros(d), epochs=epochs, seed=1).x
    finals["sag"] = run("sag", split_obj, np.zeros(d), epochs=epochs, seed=2).x
    finals["svrg"] = run("svrg", split_obj, np.zeros(d), epochs=epochs // 3,
                         seed=3).x
    finals["finito"] = run("finito", split_obj, np.zeros(d), epochs=epochs,
                           seed=4).x
    finals["sdca"] = run("sdca", sep_obj, np.zeros(d), epochs=epochs, seed=5).x
    finals["sdca_variant5"] = run("sdca_variant5", sep_obj, np.zeros(d),
                                  epochs=epochs, seed=6).x
    finals["midpoint"] = run("midpoint", split_obj, np.zeros(d), epochs=epochs,
                             seed=7).x
    finals["saga_explicit_l2"] = run("saga_explicit_l2", split_obj, np.zeros(d),
                                     epochs=epochs, seed=8).x
    for name, x in finals.items():
        assert np.linalg.norm(x - x_star) <= 5e-7, name
    names = list(finals)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert np.linalg.norm(finals[a] - finals[b]) <= 1e-6, (a, b)


def test_run_rejects_incompatible_configs(two_quadratics):
    obj, consts = two_quadratics
    l1_obj = FiniteSumObjective(obj.dataset, obj.loss, reg=Regularizer(l1=0.1))
    with pytest.raises(ConfigError):
        run("sag", l1_obj, np.zeros(1), epochs=1, consts=consts)
    with pytest.raises(ConfigError):
        run("sdca", obj, np.zeros(1), epochs=1, consts=consts)
    with pytest.raises(ConfigError):
        run("midpoint", obj, np.zeros(1), epochs=1)  # mu = 0 here
    rng = np.random.default_rng(0)
    sep = _sdca_problem(rng)
    with pytest.raises(ConfigError):
        run("sdca", sep, np.zeros(3), epochs=1,
            policy=StepSizePolicy("manual", gamma=0.1))


def test_run_rejects_fractional_epochs(two_quadratics):
    obj, consts = two_quadratics
    with pytest.raises(ConfigError, match="epochs must be an integer"):
        run("saga", obj, np.zeros(1), epochs=2.5, consts=consts)


def test_run_rejects_fractional_trace_every():
    # with n = 3 and 3 epochs, a trace_every of 1.5 traced k = 0 and 9 only
    ds = Dataset.from_dense([[1.0], [2.0], [-1.0]], [1.0, 0.0, 2.0])
    obj = FiniteSumObjective(ds, make_loss("squared"), split_l2=0.1)
    with pytest.raises(ConfigError, match="trace_every must be an integer"):
        run("saga", obj, np.zeros(1), epochs=3, trace_every=1.5)


def test_run_rejects_fractional_inner_steps(two_quadratics):
    # an inner_steps of 2.5 ran 2 svrg steps per pass
    obj, _ = two_quadratics
    with pytest.raises(ConfigError, match="whole number of inner steps"):
        run("svrg", obj, np.array([1.0]), epochs=1, inner_steps=2.5,
            policy=StepSizePolicy("manual", gamma=0.1))


@pytest.mark.parametrize("name,message", [
    ("epochs", "epochs must be an integer >= 0, got True"),
    ("trace_every", "trace_every must be an integer >= 1, got True"),
    ("inner_steps", "whole number of inner steps per pass, at least one, "
                    "got True"),
])
def test_run_rejects_a_bool_count(two_quadratics, name, message):
    # True ran one epoch, traced every pass, or took one svrg step a pass;
    # inner_steps is checked by check_method, which run calls first
    obj, _ = two_quadratics
    kwargs = {"epochs": 2, name: True}
    with pytest.raises(ConfigError, match=message):
        run("svrg", obj, np.array([1.0]),
            policy=StepSizePolicy("manual", gamma=0.1), **kwargs)


ALL_METHODS = ("saga", "saga_u", "sag", "svrg", "finito", "sdca",
               "sdca_variant5", "midpoint", "saga_explicit_l2", "saga_lazy")


@pytest.mark.parametrize("method", ALL_METHODS)
def test_each_trace_row_evaluates_the_objective_once(method, monkeypatch):
    # F at the iterate; F at the running average is the caller's to take
    mu = 0.2
    ds = generate_synthetic("ridge", n=9, d=4, density=1.0, noise=0.3, seed=8)
    obj = FiniteSumObjective(ds, make_loss("squared"), split_l2=mu)
    reference = prox_gradient_optimum(obj)
    calls = []
    value = FiniteSumObjective.value

    def counted(self, x):
        calls.append(1)
        return value(self, x)

    monkeypatch.setattr(FiniteSumObjective, "value", counted)
    res = run(method, obj, np.zeros(4), epochs=3, trace_every=1, seed=1,
              reference=reference)
    assert len(res.records) == 4
    assert len(calls) == len(res.records)


@pytest.mark.parametrize("method,start", [
    (m, s) for m in ALL_METHODS for s in ("zero", "nonzero")
    if m != "saga_lazy" or s == "zero"])  # the lazy engine starts at 0
def test_run_zero_epochs_pins_every_method(method, start):
    # before any pass: one row at x0 with no evaluations charged, the
    # set-up pass charged to the result (none for svrg), and the
    # method's own starting point as x
    mu = 0.2
    ds = generate_synthetic("ridge", n=9, d=4, density=1.0, noise=0.3, seed=8)
    loss = make_loss("squared")
    if method in ("sdca", "sdca_variant5"):
        obj = FiniteSumObjective(ds, loss, reg=Regularizer(l2=mu))
    else:
        obj = FiniteSumObjective(ds, loss, split_l2=mu)
    x0 = (np.zeros(4) if start == "zero"
          else np.random.default_rng(3).standard_normal(4))
    res = run(method, obj, x0, epochs=0, seed=1)
    assert len(res.records) == 1
    assert res.records[0].grad_evals == 0
    assert res.records[0].k == 0
    assert np.array_equal(res.records[0].x, x0)
    assert res.grad_evals == (0 if method == "svrg" else obj.n)
    if method == "saga_lazy":
        assert res.xbar is None and res.records[0].xbar is None
    else:
        assert np.array_equal(res.xbar, x0)
        assert np.array_equal(res.records[0].xbar, x0)
    if method in ("sdca", "sdca_variant5"):
        table_sum = GradientTable.at_point(obj, x0).sum()
        want = -(1.0 / (mu * obj.n)) * table_sum
    elif method == "saga_u":
        gamma = step_size(StepSizePolicy("strongly_convex"),
                          estimate_constants(obj))
        table_sum = GradientTable.at_point(obj, x0).sum()
        want = (x0 + gamma * table_sum) - gamma * table_sum
    else:
        want = x0
    assert np.array_equal(res.x, want)


@pytest.mark.parametrize("option,value,owners", [
    ("explicit_l2", 0.5, set()),  # no method: the L2 term is in the problem
    ("inner_steps", 3, {"svrg"}),
])
@pytest.mark.parametrize("method", ALL_METHODS)
def test_run_rejects_options_of_other_methods(method, option, value, owners):
    # an option only another method reads is an error, not ignored
    ds = generate_synthetic("ridge", n=9, d=4, density=1.0, noise=0.3, seed=8)
    cfg = ExperimentConfig(dataset={}, loss="squared", l2=0.2)
    obj = canonical_objective(ds, cfg)
    call = lambda: run(method, obj, np.zeros(4), epochs=0, **{option: value})
    if method in owners:
        call()
    else:
        error = TypeError if option == "explicit_l2" else ConfigError
        with pytest.raises(error, match=option):
            call()


def _form_run(method, problem, x0, *, epochs, seed, reference, policy=None):
    """A run as it was made before ``run`` took the problem, kept frozen:
    the objective built in the method's form, the explicit L2 term
    handed to the engine, and the checks, step and trace rows of that
    driver."""
    form = method_info(method).form
    l2 = problem.split_l2 + problem.reg.l2
    obj = FiniteSumObjective(
        problem.dataset, problem.loss,
        split_l2=l2 if form == "split" else 0.0,
        reg=Regularizer(l2=l2 if form == "separate" else 0.0,
                        l1=problem.reg.l1))
    explicit_l2 = l2 if form == "explicit" else 0.0
    consts = estimate_constants(obj)
    if form == "explicit":
        consts = replace(consts, L=consts.L + explicit_l2, mu=explicit_l2)
    elif form == "separate":
        consts = replace(consts, mu=obj.reg.l2)
    info = check_method(method, loss=obj.loss.kind, l1=obj.reg.l1,
                        mu=explicit_l2 if form == "explicit" else consts.mu,
                        policy=policy, n=obj.n)
    if info.param_free:
        gamma = None
    elif policy is None and method == "finito":
        gamma = 1.0 / (2.0 * consts.mu * consts.n)
    else:
        gamma = step_size(policy or StepSizePolicy(
            "strongly_convex" if consts.mu > 0 else "adaptive"), consts)
    if form == "explicit":
        _check_scaling(gamma, explicit_l2)
    rng = np.random.default_rng(seed)
    if method == "svrg":
        passes = _svrg_passes(obj, x0, gamma, obj.n, epochs, rng)
    elif method == "saga_lazy":
        passes = lazy.lazy_passes(obj, x0, gamma, explicit_l2, epochs, rng)
    else:
        passes = _table_passes(method, obj, x0, gamma, consts.mu, consts.L,
                               explicit_l2, epochs, rng, "iid")
    k, evals, x, xsum = next(passes)
    records = [_record(obj, 0, 0.0, x0, None if xsum is None else x0,
                       reference, explicit_l2)]
    for k, evals, x, xsum in passes:
        _check_iterate(x, k)
        records.append(_record(obj, k, evals, x,
                               None if xsum is None else xsum / k,
                               reference, explicit_l2))
    return records, x


def _run_bits(call):
    """Every bit of a run's trace rows and final iterate, or the type
    and message of the error it raised."""
    try:
        records, x = call()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return [(r.k, r.grad_evals, r.x.tobytes(),
             None if r.xbar is None else r.xbar.tobytes(), r.subopt,
             r.dist_sq) for r in records], x.tobytes()


# (l2, l1, loss, manual step): rules, ridge and logistic runs, a
# divergence and the explicit scaling's bound
PROBLEMS = {"ridge": (0.2, 0.0, "squared", None),
            "no_l2": (0.0, 0.0, "squared", None),
            "l1": (0.2, 0.01, "squared", None),
            "logistic": (0.2, 0.0, "logistic", None),
            "long_step": (0.2, 0.0, "squared", 50.0)}


@pytest.mark.parametrize("case", sorted(PROBLEMS))
@pytest.mark.parametrize("method", ALL_METHODS)
def test_run_takes_the_problem_wherever_its_l2_term_is(method, case):
    # L2 in the components, L2 in the regulariser, and the method's own
    # form with its explicit term: the same rows, bit for bit, or the
    # same error
    l2, l1, loss, gamma = PROBLEMS[case]
    kind = "ridge" if loss == "squared" else "logistic"
    ds = generate_synthetic(kind, n=9, d=4, density=1.0, noise=0.3, seed=8)
    split = FiniteSumObjective(ds, make_loss(loss), split_l2=l2,
                               reg=Regularizer(l1=l1))
    separate = FiniteSumObjective(ds, make_loss(loss),
                                  reg=Regularizer(l2=l2, l1=l1))
    reference = prox_gradient_optimum(split)
    opts = dict(epochs=3, seed=1, reference=reference, policy=None
                if gamma is None else StepSizePolicy("manual", gamma=gamma))

    def through_run(problem):
        res = run(method, problem, np.zeros(4), **opts)
        return res.records, res.x

    outcomes = [_run_bits(lambda: through_run(split)),
                _run_bits(lambda: through_run(separate)),
                _run_bits(lambda: _form_run(method, split, np.zeros(4),
                                            **opts))]
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]


@pytest.mark.parametrize("seed", [True, 1.5, -1, np.float64(2.0)])
def test_run_checks_its_seed(seed, monkeypatch):
    # True ran as seed 1; 1.5 and -1 ended in raw numpy errors
    monkeypatch.setattr(GradientTable, "at_point", None)  # no table is built
    ds = generate_synthetic("ridge", n=9, d=4, density=1.0, noise=0.3, seed=8)
    obj = FiniteSumObjective(ds, make_loss("squared"), split_l2=0.2)
    with pytest.raises(ConfigError, match=re.escape(
            f"seed must be an integer >= 0, got {seed!r}")):
        run("saga", obj, np.zeros(4), epochs=2, seed=seed)


@pytest.mark.parametrize("x0", [np.zeros(3), np.zeros((1, 4)),
                                np.array([0.0, np.nan, 0.0, 0.0]),
                                np.array([np.inf, 0.0, 0.0, 0.0])],
                         ids=["short", "matrix", "nan", "inf"])
@pytest.mark.parametrize("method", ALL_METHODS)
def test_run_checks_its_start(method, x0, monkeypatch):
    # saga_lazy took a short x0; the others ended in a numpy ValueError,
    # or, for sdca, a divergence at step 1 from a nan start
    monkeypatch.setattr(GradientTable, "at_point", None)  # no table is built
    ds = generate_synthetic("ridge", n=9, d=4, density=1.0, noise=0.3, seed=8)
    obj = FiniteSumObjective(ds, make_loss("squared"), split_l2=0.2)
    with pytest.raises(ConfigError,
                       match="x0 must be a finite vector of length 4"):
        run(method, obj, x0, epochs=2)


# ---------------------------------------------------------------------------
# saga_u runs in place of saga runs, for statistics over seeds

def _trajectory_cases():
    ridge = generate_synthetic("ridge", n=100, d=20, density=1.0, noise=0.5,
                               seed=42, normalize=True)
    wide = generate_synthetic("ridge", n=50, d=60, density=1.0, noise=0.3,
                              seed=7)
    cases = {
        # criterion 2: split L2, dense table, default policy
        "corollary": (FiniteSumObjective(ridge, make_loss("squared"),
                                         split_l2=1.0 / 99), None, 30),
        # criterion 4: no L2, scalar table, adaptive policy
        "nonsc": (FiniteSumObjective(wide, make_loss("squared")),
                  StepSizePolicy("adaptive"), 30),
    }
    for seed in (0, 3, 7):  # certify's trajectory problem
        small = generate_synthetic("ridge", n=40, d=8, density=1.0,
                                   noise=0.4, seed=seed, normalize=True)
        cases[f"certify{seed}"] = (FiniteSumObjective(
            small, make_loss("squared"), split_l2=1.0 / 39), None, 15)
    return cases


@pytest.mark.parametrize("case", ["corollary", "nonsc", "certify0",
                                  "certify3", "certify7"])
def test_saga_u_run_equals_saga_run(case, kernel_paths):
    # saga_u steps through u = x + gamma * sum, so its iterates are
    # saga's up to rounding, on either path
    obj, policy, epochs = _trajectory_cases()[case]
    x0 = np.zeros(obj.d)
    reference = prox_gradient_optimum(obj)
    saga = {seed: run("saga", obj, x0, epochs=epochs, seed=seed,
                      policy=policy, reference=reference)
            for seed in [0, 5, 11, 1000]}
    for _ in kernel_paths():
        for seed, want in saga.items():
            got = run("saga_u", obj, x0, epochs=epochs, seed=seed,
                      policy=policy, reference=reference)
            assert got.grad_evals == want.grad_evals
            assert [r.k for r in got.records] == [r.k for r in want.records]
            assert ([r.grad_evals for r in got.records]
                    == [r.grad_evals for r in want.records])
            pairs = [(got.x, want.x), (got.xbar, want.xbar)]
            for g, w in zip(got.records, want.records):
                pairs += [(g.x, w.x), (g.xbar, w.xbar), (g.subopt, w.subopt),
                          (g.dist_sq, w.dist_sq)]
            for g, w in pairs:
                w = np.asarray(w, float)
                assert np.all(np.abs(np.asarray(g) - w)
                              <= 1e-13 * np.maximum(1.0, np.abs(w)))


@pytest.mark.parametrize("method", ALL_METHODS)
def test_run_result_is_the_last_pass(method):
    # the result is built from the last pass's yield, which is traced
    mu = 0.2
    ds = generate_synthetic("ridge", n=9, d=4, density=1.0, noise=0.3, seed=8)
    obj = FiniteSumObjective(ds, make_loss("squared"), split_l2=mu)
    res = run(method, obj, np.zeros(4), epochs=5, trace_every=2, seed=1)
    last = res.records[-1]
    assert [r.k for r in res.records] == [0, 18, 36, 45]
    assert np.array_equal(res.x, last.x)
    if method == "saga_lazy":
        assert res.xbar is None and last.xbar is None
    else:
        assert np.array_equal(res.xbar, last.xbar)
