"""The compiled passes: their loader, and the numpy loops they replace.

Both paths must give the same bytes, stop at the same step with the
same error and leave the generator in the same state.  Tests force the
numpy loops by replacing the loader (the ``kernel_paths`` fixture).
"""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from incgrad import (
    ConfigError,
    Dataset,
    DivergenceError,
    FiniteSumObjective,
    GradientTable,
    ProblemConstants,
    ProxSolveError,
    Regularizer,
    StepSizePolicy,
    _kernel,
    lazy,
    make_loss,
    run,
    solvers,
)
from incgrad.datasets import generate_synthetic
from incgrad.lazy import LaggedIterate, build_lag_scaling, sparse_saga_lstsq_epoch
from incgrad.solvers import (
    COMPILED_STEPS,
    _svrg_passes,
    _table_passes,
    finito_init,
    saga_init,
    saga_u_init,
)
from conftest import make_random_objective

TABLE_METHODS = ("saga_u", "finito", "sdca_variant5", "sag", "midpoint",
                 "saga_explicit_l2")


@pytest.fixture
def fresh_load(monkeypatch, tmp_path):
    """``load`` forgetting its kernel, with the cache in tmp_path; the
    session's kernel is loaded again after the test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _kernel.load.cache_clear()
    yield _kernel.load
    _kernel.load.cache_clear()


def _outcome(fn):
    try:
        return fn()
    except (ValueError, DivergenceError) as exc:
        return type(exc), str(exc), getattr(exc, "step", None)


def _svrg_bytes(obj, x0, gamma, **kw):
    res = run("svrg", obj, x0, epochs=3, seed=5,
              policy=StepSizePolicy("manual", gamma=gamma), **kw)
    return [r.x.tobytes() for r in res.records], res.xbar.tobytes()


def test_divergence_stops_both_paths_at_the_same_step(kernel_paths):
    obj = make_random_objective(np.random.default_rng(2), n=10, d=5, split=0.0)
    x0 = np.ones(5)
    outcomes, states = [], []
    for _ in kernel_paths():
        rng = np.random.default_rng(4)
        outcomes.append(_outcome(lambda: run(
            "svrg", obj, x0, epochs=3, rng=rng,
            policy=StepSizePolicy("manual", gamma=60.0))))
        states.append(rng.bit_generator.state)
    assert outcomes[0][0] is DivergenceError and outcomes[0][2] > 1
    assert outcomes == [outcomes[0]] * len(outcomes)
    assert states == [states[0]] * len(states)


def test_non_finite_margin_raises_the_same_value_error(kernel_paths):
    # at x = 0 every margin is 0; one step moves x to about (5, 5), where
    # a margin of these points overflows while x @ x is 50
    ds = Dataset.from_dense(np.full((2, 2), 1e308), [1.0, 1.0])
    obj = FiniteSumObjective(ds, make_loss("logistic"))
    consts = ProblemConstants(n=2, d=2, L=1.0, mu=0.0)
    outcomes, states = [], []
    for _ in kernel_paths():
        rng = np.random.default_rng(0)
        outcomes.append(_outcome(lambda: run(
            "svrg", obj, np.zeros(2), epochs=1, inner_steps=4, rng=rng,
            consts=consts, policy=StepSizePolicy("manual", gamma=1e-307))))
        states.append(rng.bit_generator.state)
    assert outcomes[0] == (ValueError, "x must be finite", None)
    assert outcomes == [outcomes[0]] * len(outcomes)
    assert states == [states[0]] * len(states)


def test_yielded_iterates_never_change_afterwards(kernel_paths):
    obj = make_random_objective(np.random.default_rng(6), kind="logistic",
                                n=9, d=3, split=0.1, l1=0.01)
    for _ in kernel_paths():
        passes = _svrg_passes(obj, np.ones(3), 0.3, 9, 4,
                              np.random.default_rng(1))
        seen = [(x, x.tobytes()) for _, _, x, _ in passes]
        assert len({b for _, b in seen}) == 5
        assert [x.tobytes() for x, _ in seen] == [b for _, b in seen]


def test_build_into_a_fresh_cache_then_load_without_compiling(
        tmp_path, monkeypatch):
    cache = tmp_path / "cache" / "incgrad"
    try:
        kernel = _kernel.open_kernel(cache)
    except OSError as exc:
        pytest.skip(f"the compiled passes do not build here: {exc}")
    built = list(cache.iterdir())
    assert [p.suffix for p in built] == [".so"]
    assert built[0].name.startswith("_passes-")
    assert oct(cache.stat().st_mode & 0o777) == oct(0o700)
    assert kernel.agrees_with_numpy()

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran again")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    assert _kernel.open_kernel(cache).agrees_with_numpy()
    assert list(cache.iterdir()) == built


def test_unwritable_cache_builds_privately(tmp_path, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    private = tmp_path / "tmp"
    private.mkdir()
    monkeypatch.setattr(_kernel.tempfile, "tempdir", str(private))
    try:
        kernel = _kernel.open_kernel(blocker / "incgrad")
    except OSError as exc:
        pytest.skip(f"the compiled passes do not build here: {exc}")
    assert kernel.agrees_with_numpy()
    assert os.listdir(private) == []  # the private build is gone


def test_missing_compiler_falls_back_with_identical_bytes(
        fresh_load, monkeypatch, tmp_path):
    obj = make_random_objective(np.random.default_rng(8), kind="logistic",
                                n=15, d=6, split=0.05, l1=0.01)
    x0 = np.random.default_rng(9).standard_normal(6)
    compiled = _svrg_bytes(obj, x0, 0.2)
    _kernel.load.cache_clear()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "other"))
    monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
    assert fresh_load() is None
    assert _svrg_bytes(obj, x0, 0.2) == compiled


def test_failed_ddot_self_check_falls_back(fresh_load, monkeypatch):
    # a BLAS function that is not ddot: sum |a| for a . b
    monkeypatch.setattr(_kernel, "DDOT", "scipy_cblas_dasum64_")
    assert fresh_load() is None
    obj = make_random_objective(np.random.default_rng(3), n=8, d=3, split=0.1)
    res = run("svrg", obj, np.zeros(3), epochs=2, seed=0)
    assert res.records[-1].k == 16


def test_only_an_svrg_run_imports_the_kernel():
    # the other methods never pay for ctypes or the build
    code = (
        "import sys, numpy as np\n"
        "from incgrad import FiniteSumObjective, Dataset, make_loss, run\n"
        "obj = FiniteSumObjective(Dataset.from_dense(np.eye(3), [1., 2., 3.]),"
        " make_loss('squared'), split_l2=0.1)\n"
        "run('saga', obj, np.zeros(3), epochs=2)\n"
        "print('incgrad._kernel' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(_kernel.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.split() == ["False"]


# ---------------------------------------------------------------------------
# the table pass: saga_u, finito, sdca_variant5, sag, midpoint and
# saga_explicit_l2

def _table_objective(method, kind, split, sparse, n, seed=3):
    """Logistic or squared-loss data with the L2 term ``split``, split
    into the components, except for sdca_variant5, whose L2 term is 0.1
    in the regulariser.  ``sparse`` data falls below ``SUPPORT_DENSITY``
    with d >= ``SUPPORT_MIN_D``."""
    ds = generate_synthetic("ridge" if kind == "squared" else "logistic",
                            n=n, d=1200 if sparse else 6,
                            density=0.004 if sparse else 1.0, seed=seed,
                            normalize=True)
    loss = make_loss(kind)
    if method == "sdca_variant5":
        return FiniteSumObjective(ds, loss, reg=Regularizer(l2=0.1))
    return FiniteSumObjective(ds, loss, split_l2=split)


def _table_cases():
    """(method, kind, split, sparse, sampling, n, trace_every) of the byte
    test; saga_explicit_l2's cases are on dense data only (its support
    step stays numpy's)."""
    cases = []
    for kind in ("squared", "logistic"):
        for l2 in (0.0, 0.1):
            for sampling in ("iid", "perm"):
                for every in (1, 2):
                    cases.append(pytest.param(
                        "saga_explicit_l2", kind, l2, False, sampling, 20,
                        every, id=f"saga_explicit_l2-{kind}-explicit{l2}-dense-"
                                  f"{sampling}-trace{every}"))
    for method in TABLE_METHODS[:-1]:  # all but saga_explicit_l2
        splits = {"saga_u": (0.0, 0.1), "finito": (0.1,),
                  "sdca_variant5": (0.0,), "sag": (0.0, 0.1),
                  "midpoint": (0.1,)}[method]
        small = 2 if method == "midpoint" else 1  # midpoint needs n >= 2
        for kind in ("squared", "logistic"):
            for split in splits:
                for sparse in (False, True):
                    for sampling in ("iid", "perm"):
                        cases.append(pytest.param(
                            method, kind, split, sparse, sampling, 20, 1,
                            id=f"{method}-{kind}-split{split}-"
                               f"{'sparse' if sparse else 'dense'}-{sampling}"))
        cases.append(pytest.param(method, "logistic", splits[-1], False, "iid",
                                  small, 1, id=f"{method}-n{small}"))
        cases.append(pytest.param(method, "squared", splits[0], False, "perm",
                                  20, 3, id=f"{method}-trace3"))
    return cases


def _recorded_states(monkeypatch):
    """A list collecting every ``SagaState`` the table engine makes."""
    states = []

    class Recorded(solvers.SagaState):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            states.append(self)

    monkeypatch.setattr(solvers, "SagaState", Recorded)
    return states


def _counted_updates(monkeypatch):
    """A list collecting the entry of every ``GradientTable.update``."""
    updates = []
    update = GradientTable.update

    def counted(table, i, new):
        updates.append(i)
        update(table, i, new)

    monkeypatch.setattr(GradientTable, "update", counted)
    return updates


def _state_bytes(state):
    """Bytes of the iterate, the table's mean and entries, u, phi and
    phi_mean (None where the method keeps none)."""
    t = state.table
    return [None if a is None else a.tobytes() for a in (
        state.x, t.avg, t.vecs, t.coeffs, state.u, state.phi, state.phi_mean)]


@pytest.mark.parametrize("method, kind, split, sparse, sampling, n, every",
                         _table_cases())
def test_table_pass_keeps_every_byte(method, kind, split, sparse, sampling, n,
                                     every, kernel_paths, monkeypatch):
    obj = _table_objective(method, kind, split, sparse, n)
    assert obj.sparse == sparse
    if method in ("saga_u", "sag"):  # a scalar table steps on the support
        assert GradientTable.at_point(obj, np.zeros(obj.d)).support == (
            sparse and split == 0.0)
    x0 = np.random.default_rng(1).standard_normal(obj.d) / 4
    states = _recorded_states(monkeypatch)
    updates = _counted_updates(monkeypatch)
    outs = {}
    for path in kernel_paths():
        updates.clear()
        states.clear()
        rng = np.random.default_rng(5)
        res = run(method, obj, x0, epochs=5, rng=rng, sampling=sampling,
                  trace_every=every)
        outs[path] = ([(r.k, r.grad_evals, r.x.tobytes(), r.xbar.tobytes())
                       for r in res.records], res.x.tobytes(),
                      res.xbar.tobytes(), rng.bit_generator.state,
                      _state_bytes(states[0]))
        # the compiled pass never calls the numpy step
        assert (len(updates) == 0) == (path == "kernel")
    assert [r[0] for r in outs["numpy"][0]] == [0] + [
        ep * n for ep in range(1, 6) if ep % every == 0 or ep == 5]
    assert outs["kernel" if "kernel" in outs else "numpy"] == outs["numpy"]


def _outcomes(kernel_paths, method, obj, x0, **kw):
    outcomes, states = [], []
    for _ in kernel_paths():
        rng = np.random.default_rng(4)
        outcomes.append(_outcome(lambda: run(method, obj, x0, epochs=3,
                                             rng=rng, **kw)))
        states.append(rng.bit_generator.state)
    assert outcomes == [outcomes[0]] * len(outcomes)
    assert states == [states[0]] * len(states)
    return outcomes[0]


@pytest.mark.parametrize("method, kind, split, gamma", [
    ("saga_u", "squared", 0.0, 30.0), ("saga_u", "logistic", 0.1, 60.0),
    ("finito", "logistic", 0.1, 60.0), ("sag", "squared", 0.0, 100.0),
    ("sag", "logistic", 0.1, 1e3), ("saga_explicit_l2", "squared", 0.0, 30.0),
    ("saga_explicit_l2", "logistic", 0.0, 1e12)])
def test_table_divergence_stops_both_paths_at_the_same_step(
        method, kind, split, gamma, kernel_paths):
    # saga_explicit_l2 at gamma * l2 = 0.5: each step halves x before it
    # moves
    if method == "saga_explicit_l2":
        split = 0.5 / gamma
    obj = make_random_objective(np.random.default_rng(2), kind=kind, n=10,
                                d=5, split=split)
    got = _outcomes(kernel_paths, method, obj, np.ones(5),
                    policy=StepSizePolicy("manual", gamma=gamma))
    assert got[0] is DivergenceError and got[2] > 1


def test_sdca_variant5_divergence_stops_both_paths_at_the_same_step(
        kernel_paths):
    # with mu this small, the table-implied iterate starts at |x| > 1e12
    obj = make_random_objective(np.random.default_rng(2), n=10, d=5, split=0.0)
    obj = FiniteSumObjective(obj.dataset, obj.loss, reg=Regularizer(l2=1e-11))
    got = _outcomes(kernel_paths, "sdca_variant5", obj, np.full(5, 1e4))
    assert got[0] is DivergenceError and got[2] == 1


@pytest.mark.parametrize("explicit_l2", [0.0, 0.05])
def test_saga_explicit_l2_scales_by_explicit_l2_not_consts_mu(
        explicit_l2, kernel_paths, monkeypatch):
    # given consts, the step and the scaling come from different L2
    # terms: the step from consts.mu = 0.5, the scaling from the
    # problem's L2 term
    obj = _table_objective("saga_explicit_l2", "logistic", explicit_l2, False,
                           20)
    consts = ProblemConstants(n=obj.n, d=obj.d, L=1.0, mu=0.5)
    states = _recorded_states(monkeypatch)
    outs = []
    for _ in kernel_paths():
        states.clear()
        res = run("saga_explicit_l2", obj, np.ones(obj.d), epochs=3, seed=2,
                  consts=consts)
        outs.append(([r.x.tobytes() for r in res.records], res.xbar.tobytes(),
                     _state_bytes(states[0])))
    assert outs == [outs[0]] * len(outs)


@pytest.mark.parametrize("kind", ["ridge", "logistic"])
@pytest.mark.parametrize("d, density", [(100, 1.0), (2000, 0.005)],
                         ids=["dense", "sparse"])
def test_numpy_saga_equals_the_explicit_l2_pass_at_l2_zero(kind, d, density,
                                                           kernel_paths):
    # at l2 = 0 saga_explicit_l2 is saga: its scaling is skipped, so its
    # compiled pass (dense data only) is a reference for numpy saga's
    # scalar-table steps, byte for byte
    ds = generate_synthetic(kind, n=200, d=d, density=density, seed=1)
    obj = FiniteSumObjective(
        ds, make_loss("squared" if kind == "ridge" else "logistic"))
    assert obj.sparse == (density < 1.0)
    for _ in kernel_paths():
        rows = []
        for method in ("saga", "saga_explicit_l2"):
            res = run(method, obj, np.zeros(d), epochs=3, seed=4)
            rows.append([(r.x.tobytes(), r.xbar.tobytes())
                         for r in res.records])
        assert len(rows[0]) == 4 and rows[0] == rows[1]


def test_saga_explicit_l2_steps_in_numpy_on_sparse_data(monkeypatch):
    # on sparse data the step stays numpy's support step: it is the only
    # source of the GradientTable.update calls that LAYERS in
    # perfbench/tracing.py requires on sparse_ridge (ROADMAP item 1), and
    # its dense-row margin np.vdot(obj.points[j], x) is due to move over
    # the nonzeros (ROADMAP item 5)
    if _kernel.load() is None:
        pytest.skip("the compiled passes do not build here")
    obj = _table_objective("saga_explicit_l2", "squared", 0.1, True, 20)
    assert obj.sparse
    updates = _counted_updates(monkeypatch)
    run("saga_explicit_l2", obj, np.zeros(obj.d), epochs=3, seed=0)
    assert len(updates) == obj.n * 3


def test_midpoint_safeguarded_margin_solve_keeps_every_byte(kernel_paths):
    # points of norm about 28 with mu = 0.01 give gq = gamma |a_j|^2 in
    # the thousands, where Newton steps that do not halve |g| are replaced
    # by bisection: a solve without that safeguard changes these bytes
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((6, 2)) * 20
    labels = np.where(rng.random(6) < 0.5, 1.0, -1.0)
    obj = FiniteSumObjective(Dataset.from_dense(pts, labels),
                             make_loss("logistic"), split_l2=0.01)
    rows = []
    for _ in kernel_paths():
        res = run("midpoint", obj, np.zeros(2), epochs=5, seed=0)
        rows.append([r.x.tobytes() for r in res.records]
                    + [res.xbar.tobytes()])
    assert rows == [rows[0]] * len(rows)


def test_margin_solve_ends_where_the_bracket_closes(kernel_paths):
    # 6 unit-norm 2-d points, one labelled -1, and an L2 term log-uniform
    # in [1e-7, 1e-4]: margin roots reach magnitudes where the doubles lie
    # too far apart for |g| to reach 1e-12, and most of these midpoint
    # and sdca runs raised ProxSolveError while the solve stopped only there
    rows = []
    for path in kernel_paths():
        xs = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            pts = rng.standard_normal((6, 2))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            l2 = 10.0 ** rng.uniform(-7, -4)
            ds = Dataset.from_dense(pts, [1.0] * 5 + [-1.0])
            loss = make_loss("logistic")
            obj = FiniteSumObjective(ds, loss, split_l2=l2)
            xs.append(run("midpoint", obj, np.zeros(2), epochs=3,
                          seed=seed).x.tobytes())
            if path == "numpy":  # sdca has no compiled pass
                obj = FiniteSumObjective(ds, loss, reg=Regularizer(l2=l2))
                run("sdca", obj, np.zeros(2), epochs=3, seed=seed)
        rows.append(xs)
    assert rows == [rows[0]] * len(rows)


def _unit_points_objective(split_l2):
    """6 unit-norm 2-d points, one labelled -1, under logistic loss."""
    pts = np.random.default_rng(48).standard_normal((6, 2))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return FiniteSumObjective(Dataset.from_dense(pts, [1.0] * 5 + [-1.0]),
                              make_loss("logistic"), split_l2=split_l2)


def test_midpoint_margin_solve_past_a_hundred_iterations_keeps_every_byte(
        kernel_paths):
    # with mu = 1e-13 a margin solve in the third pass starts from a
    # bracket about 3e12 wide (gq = 2e12): it needs more than 100
    # iterations, which a fixed cap of 100 cut short with ProxSolveError,
    # and fewer than the 203 its bound allows
    obj = _unit_points_objective(1e-13)
    rows = []
    for _ in kernel_paths():
        res = run("midpoint", obj, np.zeros(2), epochs=3, seed=4)
        rows.append([r.x.tobytes() for r in res.records]
                    + [res.xbar.tobytes()])
    assert rows == [rows[0]] * len(rows)
    assert np.isfinite(res.x).all()


def test_midpoint_failed_margin_solve_raises_alike_at_the_same_step(
        kernel_paths, monkeypatch):
    # from a nan start the first margin solve sees a nan a_j'z, which no
    # bound covers: both paths run the cap that the bound gives for
    # gq = gamma |a_j|^2 and raise with residual nan; run refuses that
    # start before it builds a table
    obj = _unit_points_objective(0.01)
    x0 = np.full(2, np.nan)
    states = _recorded_states(monkeypatch)
    outs = []
    for _ in kernel_paths():
        states.clear()
        rng = np.random.default_rng(4)
        passes = _table_passes("midpoint", obj, x0, None, 0.01, 1.0, 0.0, 3,
                               rng, "iid")
        ks = []
        with pytest.raises(ProxSolveError) as failed:
            for k, _, _, xsum in passes:
                ks.append(k)
        err = failed.value
        with pytest.raises(ConfigError) as through_run:
            run("midpoint", obj, x0, epochs=3, seed=4)
        outs.append((ks, str(err), err.iterations, xsum.tobytes(),
                     _state_bytes(states[0]), rng.bit_generator.state,
                     str(through_run.value)))
    j = int(np.random.default_rng(4).integers(0, 6, size=6)[0])
    gq, shrink = 20.0 * obj.dataset.sqnorms()[j], 1.0 + 20.0 * 0.01
    bound = (2 + math.log2(gq / 1e-12) + math.ceil(math.log2(
        2 * gq * (1 + gq / (4 * shrink)) / 1e-12)))
    assert outs[0][0] == [0] and outs[0][2] == math.floor(bound)
    assert outs[0][1].endswith("with residual nan")
    assert outs[0][-1] == "x0 must be a finite vector of length 2"
    assert outs == [outs[0]] * len(outs)


@pytest.mark.parametrize("method", ["saga_u", "sag"])
def test_table_non_finite_margin_raises_the_same_value_error(method,
                                                             kernel_paths):
    # the dense table's margins overflow once x leaves the origin
    ds = Dataset.from_dense(np.full((2, 2), 1e308), [1.0, 1.0])
    obj = FiniteSumObjective(ds, make_loss("logistic"), split_l2=0.5)
    consts = ProblemConstants(n=2, d=2, L=2.0, mu=0.5)
    got = _outcomes(kernel_paths, method, obj, np.zeros(2), consts=consts,
                    policy=StepSizePolicy("manual", gamma=1e-307))
    assert got == (ValueError, "x must be finite", None)


def _overflow_end(kernel_paths, method, split):
    # a scalar table takes no margin check: once x leaves the origin these
    # margins are inf and the logistic weights 0; the last x, the same on
    # both paths and reached without a numpy warning
    ds = Dataset.from_dense(np.full((2, 2), 1e308), [1.0, 1.0])
    obj = FiniteSumObjective(ds, make_loss("logistic"), split_l2=split)
    consts = ProblemConstants(n=2, d=2, L=1.0 + 2 * split, mu=split)
    rows = []
    for _ in kernel_paths():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run(method, obj, np.zeros(2), epochs=3, seed=0,
                      consts=consts,
                      policy=StepSizePolicy("manual", gamma=1e-307))
        rows.append([r.x.tobytes() for r in res.records])
    assert rows == [rows[0]] * len(rows)
    return np.frombuffer(rows[0][-1]).tolist()


def test_scalar_table_steps_through_an_overflowing_margin(kernel_paths):
    # saga_u without a split L2 term stops at x = (5, 5)
    assert _overflow_end(kernel_paths, "saga_u", 0.0) == [5.0, 5.0]


def test_finito_scalar_table_steps_through_an_overflowing_margin(
        kernel_paths):
    # finito's table is scalar with a split L2 term too: x reaches (10, 10)
    assert _overflow_end(kernel_paths, "finito", 0.5) == [10.0, 10.0]


@pytest.mark.parametrize("method", TABLE_METHODS)
def test_table_yielded_iterates_never_change_afterwards(method, kernel_paths):
    # the engine takes the method's form: no L2 term in saga_explicit_l2's
    split = 0.0 if method == "saga_explicit_l2" else 0.1
    obj = _table_objective(method, "logistic", split, False, 9)
    mu = 0.1
    L = 0.25 * float(obj.dataset.sqnorms().max()) + obj.split_l2
    for _ in kernel_paths():
        passes = _table_passes(method, obj, np.ones(obj.d), 0.3, mu, L, 0.0,
                               4, np.random.default_rng(1), "iid")
        seen = [(x, x.tobytes()) for _, _, x, _ in passes]
        assert len({b for _, b in seen}) == 5
        assert [x.tobytes() for x, _ in seen] == [b for _, b in seen]


# ---------------------------------------------------------------------------
# the bound table pass checks what it is given before any C call

def _bound_state(method, split=0.1):
    """(obj, state, xsum) of a ``method`` run on 9 points in 6 features,
    before its first pass; skips without a kernel."""
    if _kernel.load() is None:
        pytest.skip("the compiled passes do not build here")
    obj = _table_objective(method, "logistic", split, False, 9)
    x0 = np.random.default_rng(1).standard_normal(obj.d)
    if method == "saga_u":
        state = saga_u_init(obj, x0, 0.3)
    elif method == "sag":
        state = saga_init(obj, x0)
    else:  # finito and midpoint
        state = finito_init(obj, x0)
    return obj, state, np.zeros(obj.d)


def _bind(method, obj, state, xsum):
    return _kernel.table_pass(COMPILED_STEPS[method], obj, state, xsum,
                              gamma=0.3, mu=0.1, L=1.0)


def _finito_bytes(state, xsum):
    return [a.tobytes() for a in (state.x, state.table.avg, state.table.coeffs,
                                  state.phi, state.phi_mean, xsum)]


def test_bound_table_pass_rejects_bad_input_before_any_c_call():
    obj, state, xsum = _bound_state("finito")
    run_pass = _bind("finito", obj, state, xsum)
    arrays = (state.x, state.table.avg, state.phi_mean)
    before = _finito_bytes(state, xsum)
    ok = np.arange(9)
    bad_orders = [np.array([0, 9]), np.array([3, -1]), np.array([2**40]),
                  ok.astype(np.int32), ok.astype(float)]
    for order in bad_orders:  # indices outside [0, n), or not int64
        with pytest.raises(ValueError, match="int64"):
            run_pass(order, *arrays)
    for i in range(3):  # a replaced x, mean or phi_mean of the wrong kind
        for bad in (arrays[i].astype(np.float32), np.zeros(obj.d + 1),
                    np.zeros(2 * obj.d)[::2], np.zeros((1, obj.d)),
                    arrays[i].astype(np.int64)):
            replaced = list(arrays)
            replaced[i] = bad
            with pytest.raises(ValueError, match="float64"):
                run_pass(ok, *replaced)
    assert _finito_bytes(state, xsum) == before
    assert run_pass(ok, *arrays) == 9  # the same pass, given good input
    assert _finito_bytes(state, xsum) != before


@pytest.mark.parametrize("method, split, array", [
    ("finito", 0.1, "coeffs"), ("finito", 0.1, "phi"), ("finito", 0.1, "xsum"),
    ("saga_u", 0.1, "u"), ("saga_u", 0.0, "coeffs"), ("sag", 0.1, "vecs"),
    ("sag", 0.0, "coeffs"), ("sag", 0.1, "xsum"), ("midpoint", 0.1, "phi"),
    ("midpoint", 0.1, "coeffs"), ("midpoint", 0.1, "sqnorms")])
def test_binding_rejects_a_non_contiguous_run_long_array(method, split, array):
    obj, state, xsum = _bound_state(method, split)
    if array == "xsum":
        xsum = np.zeros(2 * obj.d)[::2]
    elif array == "u":
        state.u = np.zeros(2 * obj.d)[::2]
    elif array == "coeffs":
        state.table.coeffs = np.zeros(2 * obj.n)[::2]
    elif array == "phi":
        state.phi = np.asfortranarray(state.phi)
    elif array == "sqnorms":  # midpoint's prox reads the dataset's cache
        obj.dataset._sqnorms = np.repeat(obj.dataset.sqnorms(), 2)[::2]
    else:
        state.table.vecs = np.asfortranarray(state.table.vecs)
    with pytest.raises(ValueError, match="contiguous float64"):
        _bind(method, obj, state, xsum)


@pytest.mark.parametrize("method", ["sag", "midpoint"])
def test_bound_sag_and_midpoint_passes_reject_bad_input(method):
    obj, state, xsum = _bound_state(method)
    run_pass = _bind(method, obj, state, xsum)
    arrays = (state.x, state.table.avg, state.phi_mean)  # no phi_mean in sag
    before = _state_bytes(state) + [xsum.tobytes()]
    ok = np.arange(9)
    for order in (np.array([0, 9]), np.array([-1]), ok.astype(np.int32)):
        with pytest.raises(ValueError, match="int64"):
            run_pass(order, *arrays)
    for i in range(3 if method == "midpoint" else 2):
        for bad in (np.zeros(obj.d + 1), np.zeros(2 * obj.d)[::2],
                    arrays[i].astype(np.float32)):
            replaced = list(arrays)
            replaced[i] = bad
            with pytest.raises(ValueError, match="float64"):
                run_pass(ok, *replaced)
    assert _state_bytes(state) + [xsum.tobytes()] == before
    assert run_pass(ok, *arrays) == 9
    assert _state_bytes(state) + [xsum.tobytes()] != before


# ---------------------------------------------------------------------------
# the lazy pass

def _lazy_state(it, c, g_avg):
    return (it.x.tobytes(), it.lag.tobytes(), it.beta.hex(), it.k, it.touches,
            c.tobytes(), g_avg.tobytes())


@pytest.mark.parametrize("threshold", [lazy.BETA_RENORM_THRESHOLD, 2.0, 0.01])
def test_lazy_pass_keeps_every_byte_of_its_state(threshold, kernel_paths,
                                                 monkeypatch):
    ds = generate_synthetic("ridge", n=30, d=40, density=0.1, seed=9)
    points = ds.features.to_dense().T
    points[7] = 0.0  # an empty column
    ds = Dataset.from_dense(points, ds.labels)
    obj = FiniteSumObjective(ds, make_loss("squared"))
    gamma = 0.3 / float(ds.sqnorms().max())
    reg = 0.4 / gamma  # rho = 0.6: at 0.01, a renormalisation every 10 steps
    monkeypatch.setattr(lazy, "BETA_RENORM_THRESHOLD", threshold)
    states = []
    for _ in kernel_paths():
        rng = np.random.default_rng(4)
        it, c = LaggedIterate.zeros(ds.d), np.zeros(ds.n)
        g_avg = obj.point_sum(-obj.labels) / ds.n
        scaling = build_lag_scaling(1.0 - reg * gamma, 3 * ds.n)
        got = []
        for _ in range(3):  # no flush between passes: gaps up to 2n
            sparse_saga_lstsq_epoch(ds.features, it, c, g_avg,
                                    gamma, reg, rng, scaling)
            got.append(_lazy_state(it, c, g_avg))
        states.append((got, rng.bit_generator.state))
    assert states == [states[0]] * len(states)


def test_lazy_pass_past_its_scaling_table_fails_alike(kernel_paths):
    ds = generate_synthetic("ridge", n=30, d=40, density=0.1, seed=9)
    obj = FiniteSumObjective(ds, make_loss("squared"))
    gamma = 0.3 / float(ds.sqnorms().max())
    outcomes = []
    for _ in kernel_paths():
        it, c = LaggedIterate.zeros(ds.d), np.zeros(ds.n)
        g_avg = obj.point_sum(-obj.labels) / ds.n
        scaling = build_lag_scaling(1.0 - 0.1 * gamma, 3)
        with pytest.raises(lazy.ConfigError, match="lag gap exceeds"):
            sparse_saga_lstsq_epoch(ds.features, it, c, g_avg,
                                    gamma, 0.1, np.random.default_rng(0),
                                    scaling)
        outcomes.append(_lazy_state(it, c, g_avg))
    assert outcomes == [outcomes[0]] * len(outcomes)


def test_lazy_overflow_within_a_pass_stops_both_paths_at_one_step(
        kernel_paths):
    ds = generate_synthetic("ridge", n=200, d=2000, density=0.005, seed=1)
    obj = FiniteSumObjective(ds, make_loss("squared"), split_l2=1e-10)
    got = _outcomes(kernel_paths, "saga_lazy", obj, np.zeros(ds.d),
                    policy=StepSizePolicy("manual", gamma=9.9e9))
    assert got == (DivergenceError,
                   "solver diverged at step 123 (non-finite step)", 123)
    assert got[2] < ds.n  # inside the first pass


# ---------------------------------------------------------------------------
# who imports the loader

def _modules_after(code):
    src = os.path.dirname(os.path.dirname(_kernel.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    return json.loads(out.stdout)


_RUNS = (
    "import json, sys, numpy as np\n"
    "from incgrad import FiniteSumObjective, make_loss, run\n"
    "from incgrad.datasets import generate_synthetic\n"
    "ds = generate_synthetic('ridge', n=12, d=4, density=0.5, seed=1)\n"
    "obj = FiniteSumObjective(ds, make_loss('squared'), split_l2=0.1)\n"
    "seen = []\n"
    "for name in NAMES:\n"
    "    run(name, obj, np.zeros(4), epochs=2)\n"
    "    seen.append('incgrad._kernel' in sys.modules)\n"
    "print(json.dumps(seen))\n")


def test_only_compiled_methods_import_the_kernel():
    # one process runs every plain method; one process per compiled one
    plain = ("saga", "sdca")
    assert _modules_after(_RUNS.replace("NAMES", repr(plain))) == [
        False] * len(plain)
    for name in ("svrg", *TABLE_METHODS, "saga_lazy"):
        code = _RUNS.replace("NAMES", repr((name,)))
        assert _modules_after(code) == [True], name


def test_sparse_saga_explicit_l2_builds_and_loads_no_library(tmp_path):
    # its support step has no compiled pass: _kernel.table_pass says so
    # before it loads anything, so an empty cache stays empty
    code = (
        "import json, numpy as np\n"
        "from incgrad import FiniteSumObjective, make_loss, run, _kernel\n"
        "from incgrad.datasets import generate_synthetic\n"
        "ds = generate_synthetic('ridge', n=200, d=2000, density=0.004, seed=1)\n"
        "obj = FiniteSumObjective(ds, make_loss('squared'), split_l2=0.1)\n"
        "assert obj.sparse\n"
        "run('saga_explicit_l2', obj, np.zeros(ds.d), epochs=2)\n"
        "print(json.dumps(_kernel.load.cache_info().misses))\n")
    src = os.path.dirname(os.path.dirname(_kernel.__file__))
    cache = tmp_path / "cache"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src,
                                  XDG_CACHE_HOME=str(cache)))
    assert json.loads(out.stdout) == 0  # load() never called
    assert list(cache.rglob("_passes-*.so")) == []


def test_l1_saga_never_imports_the_kernel():
    code = (
        "import json, sys, numpy as np\n"
        "from incgrad import FiniteSumObjective, Regularizer, make_loss, run\n"
        "from incgrad.datasets import generate_synthetic\n"
        "ds = generate_synthetic('logistic', n=30, d=8, seed=1)\n"
        "obj = FiniteSumObjective(ds, make_loss('logistic'), split_l2=1e-3,\n"
        "                         reg=Regularizer(l1=1e-3))\n"
        "run('saga', obj, np.zeros(8), epochs=2)\n"
        "print(json.dumps('incgrad._kernel' in sys.modules))\n")
    assert _modules_after(code) is False


_CERTIFY = (
    "import io, json, sys, contextlib\n"
    "from incgrad.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    main(['certify', '--seed', '0', '--instances', '3',\n"
    "          '--lemma-instances', '3', '--traj-seeds', '2'FLAGS])\n"
    "print(json.dumps('incgrad._kernel' in sys.modules))\n")


def test_certify_without_the_trajectory_never_imports_the_kernel():
    assert _modules_after(
        _CERTIFY.replace("FLAGS", ", '--skip-trajectory'")) is False


def test_certify_trajectory_imports_the_kernel():
    # its seeded runs are saga_u runs, through the compiled table pass
    assert _modules_after(_CERTIFY.replace("FLAGS", "")) is True
