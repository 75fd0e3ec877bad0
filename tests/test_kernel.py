"""The compiled svrg pass: its loader, and the numpy loop it replaces.

Both paths must give the same bytes, stop at the same step with the
same error and leave the generator in the same state.  Tests force the
numpy loop by replacing the loader.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from incgrad import (
    Dataset,
    DivergenceError,
    FiniteSumObjective,
    ProblemConstants,
    StepSizePolicy,
    _kernel,
    make_loss,
    run,
)
from incgrad.solvers import _svrg_passes
from conftest import make_random_objective, svrg_paths


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


def test_divergence_stops_both_paths_at_the_same_step(monkeypatch):
    obj = make_random_objective(np.random.default_rng(2), n=10, d=5, split=0.0)
    x0 = np.ones(5)
    outcomes, states = [], []
    for _ in svrg_paths(monkeypatch):
        rng = np.random.default_rng(4)
        outcomes.append(_outcome(lambda: run(
            "svrg", obj, x0, epochs=3, rng=rng,
            policy=StepSizePolicy("manual", gamma=60.0))))
        states.append(rng.bit_generator.state)
    assert outcomes[0][0] is DivergenceError and outcomes[0][2] > 1
    assert outcomes == [outcomes[0]] * len(outcomes)
    assert states == [states[0]] * len(states)


def test_non_finite_margin_raises_the_same_value_error(monkeypatch):
    # at x = 0 every margin is 0; one step moves x to about (5, 5), where
    # a margin of these points overflows while x @ x is 50
    ds = Dataset.from_dense(np.full((2, 2), 1e308), [1.0, 1.0])
    obj = FiniteSumObjective(ds, make_loss("logistic"))
    consts = ProblemConstants(n=2, d=2, L=1.0, mu=0.0)
    outcomes, states = [], []
    for _ in svrg_paths(monkeypatch):
        rng = np.random.default_rng(0)
        outcomes.append(_outcome(lambda: run(
            "svrg", obj, np.zeros(2), epochs=1, inner_steps=4, rng=rng,
            consts=consts, policy=StepSizePolicy("manual", gamma=1e-307))))
        states.append(rng.bit_generator.state)
    assert outcomes[0] == (ValueError, "x must be finite", None)
    assert outcomes == [outcomes[0]] * len(outcomes)
    assert states == [states[0]] * len(states)


def test_yielded_iterates_never_change_afterwards(monkeypatch):
    obj = make_random_objective(np.random.default_rng(6), kind="logistic",
                                n=9, d=3, split=0.1, l1=0.01)
    for _ in svrg_paths(monkeypatch):
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
        pytest.skip(f"the svrg kernel does not build here: {exc}")
    built = list(cache.iterdir())
    assert [p.suffix for p in built] == [".so"]
    assert built[0].name.startswith("_svrg-")
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
        pytest.skip(f"the svrg kernel does not build here: {exc}")
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
