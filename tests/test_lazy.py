import numpy as np
import pytest

from incgrad import (CscMatrix, ConfigError, Dataset, DivergenceError,
                     FiniteSumObjective, make_loss)
from incgrad import lazy
from incgrad.datasets import generate_synthetic
from incgrad.lazy import (
    BETA_RENORM_THRESHOLD,
    LaggedIterate,
    _renormalize,
    build_lag_scaling,
    flush_lags,
    lagged_update,
    sparse_saga_lstsq_epoch,
)
from incgrad.solvers import StepSizePolicy, run, saga_init, saga_step
from helpers import with_l2


# ---------------------------------------------------------------------------
# scaling table

def test_lag_scaling_unit_ratio():
    t = build_lag_scaling(1.0, 5)
    assert np.allclose(t.entries, [0, 1, 2, 3, 4, 5])


def test_lag_scaling_half_ratio():
    t = build_lag_scaling(0.5, 4)
    assert np.allclose(t.entries, [0, 1, 1.5, 1.75, 1.875])


def test_lag_scaling_zero_ratio():
    t = build_lag_scaling(0.0, 4)
    assert np.allclose(t.entries, [0, 1, 1, 1, 1])


def test_lag_scaling_rejects_bad_ratio():
    with pytest.raises(ConfigError):
        build_lag_scaling(1.2, 4)
    with pytest.raises(ConfigError):
        build_lag_scaling(-0.1, 4)


# ---------------------------------------------------------------------------
# lagged updates

def test_lagged_update_zero_gap_is_noop():
    it = LaggedIterate.zeros(4)
    it.x[:] = [1, 2, 3, 4]
    table = build_lag_scaling(0.9, 10)
    before = it.x.copy()
    lagged_update(it, np.ones(4), np.array([0, 2]), table, -0.1)
    assert np.allclose(it.x, before)


def test_lagged_update_accumulates_missed_steps():
    it = LaggedIterate.zeros(3)
    it.k = 3  # coordinate 1 missed three unit-ratio steps
    table = build_lag_scaling(1.0, 10)
    g = np.array([0.0, 1.0, 0.0])
    lagged_update(it, g, np.array([1]), table, -0.1)
    assert it.x[1] == pytest.approx(-0.3)
    assert it.lag[1] == 3


def test_lagged_update_matches_eager_loop_sum():
    rng = np.random.default_rng(2)
    d = 6
    rho = 0.85
    a = -0.07
    g = rng.standard_normal(d)
    table = build_lag_scaling(rho, 50)
    it = LaggedIterate.zeros(d)
    x0 = rng.standard_normal(d)
    it.x = x0.copy()
    steps = 8
    it.k = steps
    lagged_update(it, g, np.arange(d), table, a)
    # eager oracle: each missed step contributes a*g, compounded by rho
    # once per later step, so the total is the partial geometric sum
    expected = x0 + sum(rho**t for t in range(steps)) * (a * g)
    assert np.allclose(it.x, expected, atol=1e-12)


def test_lagged_update_rejects_gap_beyond_table():
    it = LaggedIterate.zeros(2)
    it.k = 5
    table = build_lag_scaling(0.5, 3)
    with pytest.raises(ConfigError):
        lagged_update(it, np.ones(2), np.array([0]), table, 1.0)


def test_flush_idempotent_and_identity():
    rng = np.random.default_rng(3)
    it = LaggedIterate.zeros(5)
    it.x = rng.standard_normal(5)
    it.k = 4
    it.lag[:] = [0, 1, 2, 3, 4]
    table = build_lag_scaling(0.7, 10)
    g = rng.standard_normal(5)
    first = flush_lags(it, g, table, -0.2)
    second = flush_lags(it, g, table, -0.2)
    assert np.allclose(first, second)
    assert np.all(it.lag == it.k)
    # beta = 1 with no pending lags returns x itself
    fresh = LaggedIterate.zeros(3)
    fresh.x = np.array([1.0, -2.0, 0.5])
    out = flush_lags(fresh, np.zeros(3), table, -0.2)
    assert np.allclose(out, fresh.x)


# ---------------------------------------------------------------------------
# the fused epoch

def _dense_replay(obj, gamma, reg, epochs, seed):
    """Independent mirror of the lazy path: dense explicit-L2 steps with
    the identical component sequence."""
    rng = np.random.default_rng(seed)
    st = saga_init(obj, np.zeros(obj.d))
    snaps = []
    for ep in range(epochs):
        for s in range(obj.n):
            j = s if ep == 0 else int(rng.integers(0, obj.n))
            saga_step(st, obj, j, gamma, mu=reg)
        snaps.append(st.x.copy())
    return snaps


def _lazy_run(obj, gamma, reg, epochs, rng):
    return run("saga_lazy", with_l2(obj, reg), np.zeros(obj.d), epochs=epochs,
               rng=rng, policy=StepSizePolicy("manual", gamma=gamma))


def _lazy_snapshots(obj, gamma, reg, epochs, seed):
    res = _lazy_run(obj, gamma, reg, epochs, np.random.default_rng(seed))
    return [rec.x for rec in res.records[1:]], res


@pytest.mark.parametrize("reg_gamma", [0.0, 0.3, 0.99])
def test_lazy_matches_dense_on_random_sparse_problems(reg_gamma):
    rng = np.random.default_rng(int(reg_gamma * 100))
    for trial in range(3):
        n = int(rng.integers(20, 80))
        d = int(rng.integers(10, 40))
        ds = generate_synthetic("ridge", n=n, d=d, density=0.1,
                                noise=0.3, seed=trial + 10)
        obj = FiniteSumObjective(ds, make_loss("squared"))
        gamma = 0.4 / float(ds.sqnorms().max())
        reg = reg_gamma / gamma
        lazy, _ = _lazy_snapshots(obj, gamma, reg, 4, seed=trial)
        dense = _dense_replay(obj, gamma, reg, 4, seed=trial)
        for lx, dx in zip(lazy, dense):
            scale = max(np.linalg.norm(dx), 1e-30)
            assert np.linalg.norm(lx - dx) / scale <= 1e-10


def test_lazy_dense_data_reg_zero():
    ds = generate_synthetic("ridge", n=25, d=8, density=1.0, noise=0.2, seed=5)
    obj = FiniteSumObjective(ds, make_loss("squared"))
    gamma = 0.3 / float(ds.sqnorms().max())
    lazy, _ = _lazy_snapshots(obj, gamma, 0.0, 3, seed=8)
    dense = _dense_replay(obj, gamma, 0.0, 3, seed=8)
    for lx, dx in zip(lazy, dense):
        assert np.linalg.norm(lx - dx) <= 1e-10 * max(np.linalg.norm(dx), 1.0)


def test_first_epoch_visits_points_in_order():
    # in-order vs shuffled first pass give different iterates unless the
    # implementation really sweeps 0..n-1; compare against the oracle
    ds = generate_synthetic("ridge", n=12, d=6, density=0.5, noise=0.1, seed=2)
    obj = FiniteSumObjective(ds, make_loss("squared"))
    gamma = 0.2 / float(ds.sqnorms().max())
    lazy, _ = _lazy_snapshots(obj, gamma, 0.2, 1, seed=77)
    dense = _dense_replay(obj, gamma, 0.2, 1, seed=77)  # epoch 0 in order
    assert np.allclose(lazy[0], dense[0], atol=1e-12)


def _scalar_draw_run(obj, gamma, reg, epochs, rng, renorm_threshold):
    """run("saga_lazy") with one scalar rng.integers(0, n) per step
    and both catch-ups of a step through lagged_update; returns the
    flushed iterate after each epoch."""
    data, labels = obj.dataset.features, obj.labels
    d, n = data.shape
    rho = 1.0 - reg * gamma
    scaling = build_lag_scaling(rho, n * epochs)
    it, c = LaggedIterate.zeros(d), np.zeros(n)
    g_avg = (obj.points.T @ (-labels)) / n
    xs = []
    for ep in range(epochs):
        for step in range(n):
            i = step if ep == 0 else int(rng.integers(0, n))
            idx, vals = data.column(i)
            lagged_update(it, g_avg, idx, scaling, -gamma / it.beta)
            aix = it.beta * float(vals @ it.x[idx])
            cchange = aix - c[i]
            c[i] = aix
            it.beta *= rho
            it.x[idx] += (-cchange * gamma / it.beta) * vals
            it.k += 1
            lagged_update(it, g_avg, idx, scaling, -gamma / it.beta)
            g_avg[idx] += (cchange / n) * vals
            if it.beta < renorm_threshold:
                _renormalize(it, g_avg, scaling, gamma)
        xs.append(flush_lags(it, g_avg, scaling, -gamma / it.beta))
    return xs


@pytest.mark.parametrize("renorm_threshold", [BETA_RENORM_THRESHOLD, 2.0])
def test_lazy_run_equals_scalar_draw_loop(renorm_threshold, monkeypatch,
                                         kernel_paths):
    # by bytes, on the compiled pass and on the numpy loop
    ds = generate_synthetic("ridge", n=40, d=30, density=0.1, noise=0.3, seed=9)
    obj = FiniteSumObjective(ds, make_loss("squared"))
    gamma = 0.3 / float(ds.sqnorms().max())
    want_rng = np.random.default_rng(4)
    monkeypatch.setattr(lazy, "BETA_RENORM_THRESHOLD", renorm_threshold)
    xs = _scalar_draw_run(obj, gamma, 0.4 / gamma, 4, want_rng, renorm_threshold)
    for path in kernel_paths():
        got_rng = np.random.default_rng(4)
        res = _lazy_run(obj, gamma, 0.4 / gamma, 4, got_rng)
        assert [rec.x.tobytes() for rec in res.records[1:]] == [
            x.tobytes() for x in xs], path
        assert res.x.tobytes() == xs[-1].tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_zero_column_touches_nothing():
    mat = CscMatrix(np.zeros(0), np.zeros(0, dtype=np.int64),
                    np.array([0, 0]), (3, 1))
    ds = Dataset(mat, [2.0])
    obj = FiniteSumObjective(ds, make_loss("squared"))
    it = LaggedIterate.zeros(3)
    c = np.zeros(1)
    g_avg = (obj.points.T @ (-obj.labels)) / 1.0
    assert np.allclose(g_avg, 0.0)
    scaling = build_lag_scaling(1.0 - 0.1 * 0.5, 10)
    sparse_saga_lstsq_epoch(mat, it, c, g_avg, 0.5, 0.1,
                            np.random.default_rng(0), scaling)
    assert np.allclose(it.x, 0.0)
    assert np.allclose(g_avg, 0.0)
    assert c[0] == 0.0
    assert it.touches == 0


def test_touch_count_proportional_to_column_nnz():
    ds = generate_synthetic("ridge", n=30, d=20, density=0.15, noise=0.1, seed=4)
    obj = FiniteSumObjective(ds, make_loss("squared"))
    mat = ds.features
    gamma = 0.2 / float(ds.sqnorms().max())
    it = LaggedIterate.zeros(ds.d)
    c = np.zeros(ds.n)
    g_avg = (obj.points.T @ (-ds.labels)) / ds.n
    scaling = build_lag_scaling(1.0 - 0.05 * gamma, ds.n + 1)
    sparse_saga_lstsq_epoch(mat, it, c, g_avg, gamma, 0.05,
                            np.random.default_rng(0), scaling)
    # first epoch sweeps every column once; 4 coordinate passes per step
    assert it.touches == 4 * mat.nnz


def test_beta_renormalization_transparent(monkeypatch):
    ds = generate_synthetic("ridge", n=20, d=10, density=0.3, noise=0.2, seed=6)
    obj = FiniteSumObjective(ds, make_loss("squared"))
    gamma = 0.3 / float(ds.sqnorms().max())
    reg = 0.45 / gamma  # strong decay so beta moves visibly every step
    plain, _ = _lazy_snapshots(obj, gamma, reg, 3, seed=3)
    monkeypatch.setattr(lazy, "BETA_RENORM_THRESHOLD", 2.0)
    forced, _ = _lazy_snapshots(obj, gamma, reg, 3, seed=3)
    for a, b in zip(plain, forced):
        assert np.linalg.norm(a - b) <= 1e-9 * max(1.0, np.linalg.norm(a))


def test_lazy_run_through_driver_rejects_nonzero_start():
    ds = generate_synthetic("ridge", n=10, d=4, density=0.5, noise=0.1, seed=1)
    obj = FiniteSumObjective(ds, make_loss("squared"), split_l2=0.1)
    with pytest.raises(ConfigError):
        run("saga_lazy", obj, np.ones(4), epochs=1,
            policy=StepSizePolicy("manual", gamma=0.01))


def test_lazy_run_epoch_zero():
    ds = generate_synthetic("ridge", n=10, d=4, density=0.5, noise=0.1, seed=1)
    obj = FiniteSumObjective(ds, make_loss("squared"), split_l2=0.1)
    res = run("saga_lazy", obj, np.zeros(4), epochs=0,
              policy=StepSizePolicy("manual", gamma=0.01))
    assert len(res.records) == 1
    assert np.allclose(res.x, 0.0)


def test_tracing_leaves_the_lazy_trajectory_unchanged(monkeypatch):
    # every pass ends flushed, traced or not, so the rows of a sparser
    # trace are the rows of a full trace at the same k, bit for bit, and
    # the lag table never needs more than the n + 1 entries of one pass
    ds = generate_synthetic("ridge", n=40, d=300, density=0.02, noise=0.3,
                            seed=9)
    obj = FiniteSumObjective(ds, make_loss("squared"))
    gamma = 0.3 / float(ds.sqnorms().max())
    sizes, build = [], lazy.build_lag_scaling

    def spy(rho, length):
        table = build(rho, length)
        sizes.append(table.entries.size)
        return table

    monkeypatch.setattr(lazy, "build_lag_scaling", spy)

    def traced(epochs, trace_every):
        return run("saga_lazy", with_l2(obj, 0.2 / gamma), np.zeros(ds.d),
                   epochs=epochs, seed=4,
                   policy=StepSizePolicy("manual", gamma=gamma),
                   trace_every=trace_every,
                   reference=(np.ones(ds.d), 0.0))

    full, sparse = traced(7, 1), traced(7, 3)
    rows = {rec.k: rec for rec in full.records}
    assert [rec.k for rec in sparse.records] == [0, 3 * ds.n, 6 * ds.n, 7 * ds.n]
    for rec in sparse.records:
        want = rows[rec.k]
        assert np.array_equal(rec.x, want.x)
        assert (rec.subopt, rec.dist_sq) == (want.subopt, want.dist_sq)
    assert np.array_equal(sparse.x, sparse.records[-1].x)
    sizes.clear()
    traced(1, 1), traced(50, 1)
    assert sizes == [ds.n + 1, ds.n + 1]


@pytest.mark.parametrize("gamma", [1e5, 1e8])
def test_lazy_divergence_stops_at_the_end_of_a_pass(gamma):
    # the iterate of the first pass overflows the guard; no numpy
    # overflow warning comes first (warnings fail the suite)
    ds = generate_synthetic("ridge", n=200, d=2000, density=0.005, seed=1)
    obj = FiniteSumObjective(ds, make_loss("squared"), split_l2=1e-10)
    with pytest.raises(DivergenceError) as err:
        run("saga_lazy", obj, np.zeros(ds.d), epochs=5,
            policy=StepSizePolicy("manual", gamma=gamma))
    assert err.value.step == ds.n
