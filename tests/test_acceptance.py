"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in
captured output) and asserts the criterion at its stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from incgrad import (
    Dataset,
    FiniteSumObjective,
    Regularizer,
    estimate_constants,
    make_loss,
    prox_gradient_optimum,
    run,
)
from incgrad.analysis import (
    LyapunovParams,
    _check_lemmas,
    bound_value,
    expected_lyapunov_next,
    lyapunov_value,
    random_snapshot,
    random_strongly_convex_objective,
)
from incgrad.datasets import generate_synthetic
from incgrad.solvers import saga_init, saga_step, saga_u_init, \
    saga_u_reconstruct, saga_u_step, finito_init, midpoint_step
from conftest import midpoint_identity_residual
from helpers import with_l2


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_1_lyapunov_contraction():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = -math.inf
    for _ in range(1000):
        obj = random_strongly_convex_objective(rng)
        consts = estimate_constants(obj)
        x_star, _ = prox_gradient_optimum(obj)
        snap = random_snapshot(rng, obj, x_star, consts)
        params = LyapunovParams.strongly_convex(consts)
        t_now = lyapunov_value(snap, obj, params.c)
        t_next = expected_lyapunov_next(snap, obj, params)
        worst = max(worst, t_next - params.contraction * t_now)
    elapsed = time.time() - t0
    _report(1, worst <= 1e-10 and elapsed < 30,
            f"1000 problems, worst contraction slack {worst:.3e}, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------

def _ridge_unit_condition(seed=42):
    """Ridge with mu n / L = 1 exactly (unit-norm points, squared loss)."""
    n, d = 100, 20
    ds = generate_synthetic("ridge", n=n, d=d, density=1.0, noise=0.5,
                            seed=seed, normalize=True)
    mu = 1.0 / (n - 1)
    obj = FiniteSumObjective(ds, make_loss("squared"), split_l2=mu)
    consts = estimate_constants(obj)
    assert abs(consts.mu * n / consts.L - 1.0) < 1e-12
    return obj, consts


def _mean_trajectory(obj, step, seeds, epochs, field):
    """Trace steps, the mean of ``field`` over ``seeds`` seeded runs of
    ``saga_u`` (saga's iterates, through the compiled table pass), and
    x*.  ``field`` names a trace record attribute, or is a function of
    the record and F*."""
    reference = prox_gradient_optimum(obj)
    runs = [run("saga_u", obj, np.zeros(obj.d), epochs=epochs, seed=s,
                step=step, reference=reference) for s in range(seeds)]
    acc = sum(np.array([field(r, reference[1]) if callable(field)
                        else getattr(r, field) for r in res.records])
              for res in runs)
    return np.array([r.k for r in runs[0].records]), acc / seeds, reference[0]


# The worst ratio is the one at k = 0, before any step; from epoch 1 on
# the ratio must stay small too, or a saga contracting many times slower
# than it does would pass.
CRITERION_2_LATER = 0.2


def test_criterion_2_corollary_bound_tracking():
    t0 = time.time()
    obj, consts = _ridge_unit_condition()
    ks, mean_dist, x_star = _mean_trajectory(
        obj, None, seeds=200, epochs=30, field="dist_sq")
    x0 = np.zeros(obj.d)
    ratios = [m / bound_value("corollary_sc", obj, consts, x0, x_star, int(k))
              for k, m in zip(ks, mean_dist)]
    worst_ratio, worst_later = max(ratios), max(ratios[1:])
    elapsed = time.time() - t0
    _report(2, worst_ratio <= 2.0 and worst_later <= CRITERION_2_LATER
            and elapsed < 60,
            f"mean dist^2 / bound worst ratio {worst_ratio:.3f} over "
            f"{len(ks)} checkpoints, {worst_later:.3f} from epoch 1, "
            f"200 seeds, {elapsed:.1f}s")


def test_criterion_2_through_run():
    # the same bound on the mean over seeded runs of saga itself, whose
    # iterates the saga_u runs above match only to rounding
    t0 = time.time()
    obj, consts = _ridge_unit_condition()
    reference = prox_gradient_optimum(obj)
    x0 = np.zeros(obj.d)
    seeds = 20
    runs = [run("saga", obj, x0, epochs=30, seed=s, reference=reference)
            for s in range(seeds)]
    mean_dist = sum(np.array([r.dist_sq for r in res.records])
                    for res in runs) / seeds
    ratios = [m / bound_value("corollary_sc", obj, consts, x0, reference[0],
                              r.k)
              for r, m in zip(runs[0].records, mean_dist)]
    worst_ratio, worst_later = max(ratios), max(ratios[1:])
    elapsed = time.time() - t0
    _report(2, worst_ratio <= 2.0 and worst_later <= CRITERION_2_LATER,
            f"through run: mean dist^2 / bound worst ratio "
            f"{worst_ratio:.3f}, {worst_later:.3f} from epoch 1, "
            f"{seeds} seeds, {elapsed:.1f}s")


def test_criterion_3_adaptive_bound_tracking():
    t0 = time.time()
    obj, consts = _ridge_unit_condition()
    ks, mean_dist, x_star = _mean_trajectory(
        obj, "adaptive", seeds=200, epochs=30,
        field="dist_sq")
    x0 = np.zeros(obj.d)
    worst_ratio = 0.0
    for k, m in zip(ks, mean_dist):
        bound = bound_value("adaptive", obj, consts, x0, x_star, int(k))
        worst_ratio = max(worst_ratio, m / bound)
    elapsed = time.time() - t0
    _report(3, worst_ratio <= 2.0 and elapsed < 60,
            f"adaptive step 1/(3L), worst ratio {worst_ratio:.3f}, "
            f"{elapsed:.1f}s")


def test_criterion_4_non_strongly_convex_rate():
    t0 = time.time()
    n, d = 50, 60  # more coordinates than points: no strong convexity
    ds = generate_synthetic("ridge", n=n, d=d, density=1.0, noise=0.3, seed=7)
    obj = FiniteSumObjective(ds, make_loss("squared"))
    consts = estimate_constants(obj)
    assert consts.mu == 0.0
    x0 = np.zeros(d)
    ks, mean_gap, x_star = _mean_trajectory(
        obj, "adaptive", seeds=200, epochs=30,
        field=lambda rec, f_star: obj.value(rec.xbar) - f_star)
    worst_ratio = 0.0
    for k, m in zip(ks, mean_gap):
        if k < n:
            continue
        bound = bound_value("nonsc", obj, consts, x0, x_star, int(k))
        worst_ratio = max(worst_ratio, m / bound)
    elapsed = time.time() - t0
    _report(4, worst_ratio <= 2.0 and elapsed < 60,
            f"averaged-iterate gap / bound worst ratio {worst_ratio:.3f} "
            f"for k >= n, 200 seeds, {elapsed:.1f}s")


# ---------------------------------------------------------------------------

def test_criterion_5_direction_unbiasedness():
    rng = np.random.default_rng(55)
    worst_saga = worst_sag = 0.0
    for _ in range(100):
        obj = random_strongly_convex_objective(rng)
        x = rng.standard_normal(obj.d)
        phi = rng.standard_normal((obj.n, obj.d))
        g_x = obj.component_gradients(x)
        g_phi = obj.gradients_at_points(phi)
        gbar = g_phi.mean(axis=0)
        full = obj.full_gradient(x)
        saga_mean = (g_x - g_phi + gbar).mean(axis=0)
        worst_saga = max(worst_saga, float(np.abs(saga_mean - full).max()))
        sag_mean = ((g_x - g_phi) / obj.n + gbar).mean(axis=0)
        target = full / obj.n + (1.0 - 1.0 / obj.n) * gbar
        worst_sag = max(worst_sag, float(np.abs(sag_mean - target).max()))
    ok = worst_saga <= 1e-12 and worst_sag <= 1e-12
    _report(5, ok, f"100 states, saga dev {worst_saga:.2e}, "
            f"sag dev {worst_sag:.2e}")


def test_criterion_6_lemma_certification():
    rng = np.random.default_rng(66)
    worsts = _check_lemmas(rng, 1000)
    ok = all(w >= -1e-12 for w in worsts.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worsts.items())
    _report(6, ok, f"min gaps over 1000 instances: {detail}")


# ---------------------------------------------------------------------------

def test_criterion_7_lazy_equals_dense():
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(40, 201))
        d = int(rng.integers(20, 101))
        ds = generate_synthetic("ridge", n=n, d=d, density=0.1, noise=0.3,
                                seed=int(rng.integers(0, 10_000)))
        obj = FiniteSumObjective(ds, make_loss("squared"))
        gamma = 0.4 / float(ds.sqnorms().max())
        if trial == 0:
            reg_gamma = 0.0
        elif trial == 1:
            reg_gamma = 0.99  # near the reg * gamma < 1 limit
        else:
            reg_gamma = float(rng.uniform(0.0, 0.9))
        reg = reg_gamma / gamma
        epochs = 3
        seed = trial + 1
        res = run("saga_lazy", with_l2(obj, reg), np.zeros(d), epochs=epochs,
                  step=gamma,
                  rng=np.random.default_rng(seed))
        replay = np.random.default_rng(seed)
        st = saga_init(obj, np.zeros(d))
        dense = []
        for ep in range(epochs):
            for s in range(n):
                j = s if ep == 0 else int(replay.integers(0, n))
                saga_step(st, obj, j, gamma, mu=reg)
            dense.append(st.x.copy())
        for rec, dx in zip(res.records[1:], dense):
            scale = max(np.linalg.norm(dx), 1e-30)
            worst = max(worst, float(np.linalg.norm(rec.x - dx)) / scale)
    _report(7, worst <= 1e-10,
            f"20 sparse problems x 3 epochs, worst relative error {worst:.2e}")


def test_criterion_8_reformulation_and_midpoint_identities():
    rng = np.random.default_rng(88)
    pts = rng.standard_normal((15, 4)) / 2.0
    labels = pts @ rng.standard_normal(4) + 0.1 * rng.standard_normal(15)
    ds = Dataset.from_dense(pts, labels)
    obj = FiniteSumObjective(ds, make_loss("squared"), split_l2=0.3)
    x0 = rng.standard_normal(4)
    gamma = 0.04
    plain = saga_init(obj, x0)
    uform = saga_u_init(obj, x0, gamma)
    worst_u = 0.0
    for j in rng.integers(0, 15, size=100):
        saga_step(plain, obj, int(j), gamma)
        saga_u_step(uform, obj, int(j), gamma)
        worst_u = max(worst_u, float(np.linalg.norm(
            plain.x - saga_u_reconstruct(uform, gamma))))

    mu = 0.3
    st = finito_init(obj, rng.standard_normal(4))
    worst_mid = 0.0
    for j in rng.integers(0, 15, size=200):
        midpoint_step(st, obj, int(j), mu)
        worst_mid = max(worst_mid, midpoint_identity_residual(obj, st, mu))
    ok = worst_u <= 1e-12 and worst_mid <= 1e-10
    _report(8, ok, f"u-form deviation {worst_u:.2e} over 100 steps, "
            f"midpoint identity residual {worst_mid:.2e} over 200 steps")


# ---------------------------------------------------------------------------

def test_criterion_9_cross_method_consistency():
    t0 = time.time()
    n, d = 500, 50
    rng = np.random.default_rng(99)
    pts = rng.standard_normal((n, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    w = rng.standard_normal(d)
    labels = np.where(rng.random(n) < 1 / (1 + np.exp(-pts @ w)), 1.0, -1.0)
    ds = Dataset.from_dense(pts, labels)
    loss = make_loss("logistic")
    mu = 8 * 0.25 / n  # mu n = 2, comfortably inside every stability region
    split_obj = FiniteSumObjective(ds, loss, split_l2=mu)
    sep_obj = FiniteSumObjective(ds, loss, reg=Regularizer(l2=mu))
    consts = estimate_constants(split_obj)
    x_star, f_star = prox_gradient_optimum(split_obj)
    x0 = np.zeros(d)
    reference = (x_star, f_star)

    budget = 100.0  # gradient evaluations / n
    runs = {
        "saga": run("saga", split_obj, x0, epochs=99, seed=0,
                    reference=reference),
        "sag": run("sag", split_obj, x0, epochs=99, seed=1,
                   reference=reference),
        "svrg": run("svrg", split_obj, x0, epochs=33, seed=2,
                    reference=reference),
        "finito": run("finito", split_obj, x0, epochs=99, seed=3,
                      reference=reference),
        "sdca": run("sdca", sep_obj, x0, epochs=99, seed=4,
                    reference=reference),
        "midpoint": run("midpoint", split_obj, x0, epochs=99, seed=5,
                        reference=reference),
    }
    finals = {}
    ok = True
    for name, res in runs.items():
        inside = [r for r in res.records if r.grad_evals / n <= budget]
        finals[name] = inside[-1].subopt
        if inside[-1].subopt > 1e-8:
            ok = False

    # theory estimates of epochs to 1e-4 suboptimality (upper bounds)
    b0 = bound_value("corollary_sc", split_obj, consts, x0, x_star, 0)
    rate = 1.0 - consts.mu / (2.0 * (consts.mu * n + consts.L))
    target_dist = 2.0 * 1e-4 / consts.L
    k_theory = math.ceil(math.log(target_dist / b0) / math.log(rate))
    est = {"saga": k_theory / n + 1.0, "svrg": 3.0 * k_theory / n}
    measured = {}
    for name in ("saga", "svrg"):
        hit = [r.grad_evals / n for r in runs[name].records
               if r.subopt is not None and r.subopt <= 1e-4]
        measured[name] = hit[0] if hit else math.inf
        if measured[name] > 3.0 * est[name]:
            ok = False
    elapsed = time.time() - t0
    finals_txt = ", ".join(f"{k}={v:.1e}" for k, v in finals.items())
    _report(9, ok,
            f"final subopt within 100 epochs: {finals_txt}; epochs to 1e-4 "
            f"saga {measured['saga']:.0f} (theory {est['saga']:.0f}), "
            f"svrg {measured['svrg']:.0f} (theory {est['svrg']:.0f}); "
            f"{elapsed:.1f}s")


def test_criterion_10_moreau_decomposition():
    rng = np.random.default_rng(1010)
    gamma, lam, mu = 0.8, 0.6, 1.1
    v = 4.0 * rng.standard_normal(1000)
    l1 = Regularizer(l1=lam)
    res1 = np.abs((v - l1.prox(gamma, v))
                  - np.clip(v, -gamma * lam, gamma * lam)).max()
    l2 = Regularizer(l2=mu)
    res2 = np.abs((v - l2.prox(gamma, v))
                  - v * gamma * mu / (1 + gamma * mu)).max()
    ok = res1 <= 1e-12 and res2 <= 1e-12
    _report(10, ok, f"1000 points, l1 clamp residual {res1:.2e}, "
            f"l2 shrink-complement residual {res2:.2e}")
