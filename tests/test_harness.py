import dataclasses
import inspect
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from incgrad import (
    ConfigError,
    CscMatrix,
    Dataset,
    FiniteSumObjective,
    InconsistentReferenceError,
    METHODS,
    Regularizer,
    RunResult,
    TraceRecord,
    make_loss,
    harness,
    run,
)
from incgrad.harness import (
    ExperimentConfig,
    MethodSpec,
    ResultRow,
    build_dataset,
    canonical_objective,
    compute_reference_optimum,
    emit_csv,
    run_experiment,
    validate_config,
)
from incgrad.datasets import generate_synthetic, load_libsvm


def _base_config(**overrides):
    raw = {
        "dataset": {"synthetic": {"kind": "ridge", "n": 20, "d": 5,
                                  "density": 1.0, "noise": 0.2, "seed": 4}},
        "loss": "squared",
        "l2": 0.05,
        "l1": 0.0,
        "methods": ["saga", "svrg"],
        "epochs": 10,
        "seeds": [0, 1, 2],
        "trace_every": 1,
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# reference optimum

def test_reference_optimum_two_quadratics(two_quadratics):
    obj, _ = two_quadratics
    x_star, f_star = compute_reference_optimum(obj)
    assert x_star == pytest.approx([0.0], abs=1e-12)
    assert f_star == pytest.approx(0.5)


def test_reference_optimum_l1_keeps_origin(two_quadratics):
    obj, _ = two_quadratics
    l1_obj = FiniteSumObjective(obj.dataset, obj.loss, reg=Regularizer(l1=2.0))
    x_star, f_star = compute_reference_optimum(l1_obj)
    # |f'(0)| = 0 <= lambda, so the origin stays optimal
    assert x_star == pytest.approx([0.0], abs=1e-12)
    assert f_star == pytest.approx(0.5)


def test_reference_optimum_one_dim_ridge():
    ds = Dataset.from_dense([[1.0]], [1.0])
    obj = FiniteSumObjective(ds, make_loss("squared"), reg=Regularizer(l2=1.0))
    x_star, f_star = compute_reference_optimum(obj)
    assert x_star == pytest.approx([0.5], abs=1e-12)
    assert f_star == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# config validation

def test_l1_rejects_methods_without_prox():
    cfg = _base_config(l1=0.01, methods=["finito"], l2=0.1)
    with pytest.raises(ConfigError, match="proximal"):
        validate_config(cfg)
    for name in ("sag", "sdca", "midpoint"):
        cfg = _base_config(l1=0.01, methods=[name], l2=0.1)
        with pytest.raises(ConfigError):
            validate_config(cfg)
    # saga and svrg do support it
    validate_config(_base_config(l1=0.01, methods=["saga", "svrg"]))


def test_mu_required_methods():
    for name in ("finito", "sdca", "sdca_variant5", "midpoint"):
        cfg = _base_config(methods=[name], l2=0.0)
        with pytest.raises(ConfigError, match="L2"):
            validate_config(cfg)


def test_config_rejects_unknown_fields_and_methods():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"dataset": {}, "bogus": 1})
    cfg = _base_config(methods=["nope"])
    with pytest.raises(ConfigError, match="unknown method"):
        validate_config(cfg)
    with pytest.raises(ConfigError):
        validate_config(_base_config(methods=[]))
    with pytest.raises(ConfigError):
        validate_config(_base_config(epochs=0))
    with pytest.raises(ConfigError):
        validate_config(_base_config(seeds=[]))


def test_method_spec_parsing():
    spec = MethodSpec.from_config({"name": "saga", "step_size": 0.25})
    assert spec.policy.mode == "manual"
    assert spec.policy.gamma == 0.25
    spec = MethodSpec.from_config({"name": "svrg", "step_size": "adaptive"})
    assert spec.policy.mode == "adaptive"
    assert MethodSpec.from_config("sag").policy is None


def test_config_tables_are_the_parameters_they_fill():
    # a parameter added to either dataset function is within a config's
    # reach, and every top-level key is a field of the config
    def params(fn):
        return set(inspect.signature(fn).parameters)

    assert set(harness._SYNTHETIC) == params(generate_synthetic)
    assert set(harness._FILE) == params(load_libsvm)
    assert set(harness._CONFIG) == {
        f.name for f in dataclasses.fields(ExperimentConfig)}


def test_an_omitted_key_takes_the_default_of_the_library(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "generate_synthetic",
                        lambda **kwargs: calls.append(kwargs))
    monkeypatch.setattr(harness, "load_libsvm",
                        lambda **kwargs: calls.append(kwargs))
    build_dataset(ExperimentConfig(dataset={"synthetic": {"n": 20, "d": 5}}))
    build_dataset(ExperimentConfig(dataset={"path": "data.svm"}))
    assert calls == [{"kind": "ridge", "n": 20, "d": 5}, {"path": "data.svm"}]
    assert ExperimentConfig.from_dict({}) == ExperimentConfig()


# methods each config change must reject, at the config and in run
REJECTED_BY = {
    "l1": {"saga_u", "sag", "finito", "sdca", "sdca_variant5", "midpoint",
           "saga_explicit_l2", "saga_lazy"},
    "no_l2": {"finito", "sdca", "sdca_variant5", "midpoint"},
    "logistic": {"saga_lazy"},
    "policy": {"sdca", "sdca_variant5", "midpoint"},
    # a mu-based step with l2 = 0: every method (finito takes only a
    # manual step, the parameter-free ones no step at all)
    "strongly_convex_no_l2": set(METHODS),
    "average_sc_no_l2": set(METHODS),
    # gamma * l2 = 20 * 0.05 = 1 flips the explicit form's scaling
    "scaling": {"saga_explicit_l2", "saga_lazy", "sdca", "sdca_variant5",
                "midpoint"},
}
STEP_OF = {"policy": 0.01, "strongly_convex_no_l2": "strongly_convex",
           "average_sc_no_l2": "average_sc", "scaling": 20}


def _raises_config_error(fn):
    try:
        fn()
    except ConfigError:
        return True
    return False


@pytest.mark.parametrize("change", sorted(REJECTED_BY))
@pytest.mark.parametrize("name", sorted(METHODS))
def test_validate_config_agrees_with_run(name, change):
    # validate_config on the config raises exactly when run raises on the
    # problem canonical_objective builds from it
    entry = ({"name": name, "step_size": STEP_OF[change]}
             if change in STEP_OF else name)
    raw = {"methods": [entry], "l1": 0.01 if change == "l1" else 0.0,
           "l2": 0.0 if change.endswith("no_l2") else 0.05}
    if change == "logistic":
        raw.update(loss="logistic", dataset={"synthetic": {
            "kind": "logistic", "n": 20, "d": 5, "seed": 4}})
    cfg = _base_config(**raw)
    obj = canonical_objective(build_dataset(cfg), cfg)
    at_config = _raises_config_error(lambda: validate_config(cfg))
    at_run = _raises_config_error(lambda: run(
        name, obj, np.zeros(obj.d), epochs=0, policy=cfg.methods[0].policy))
    assert at_config == at_run == (name in REJECTED_BY[change])


@pytest.mark.parametrize("name,step,l2", [
    ("saga", "strongly_convex", 0.0), ("svrg", "average_sc", 0.0),
    ("saga_explicit_l2", 20, 0.1), ("saga_lazy", 10, 0.1),
    ("saga", 0.01, -0.1)])
def test_config_rules_stop_before_any_data(name, step, l2, monkeypatch):
    def no_data(cfg):
        raise AssertionError("build_dataset ran before the config check")

    monkeypatch.setattr(harness, "build_dataset", no_data)
    cfg = _base_config(methods=[{"name": name, "step_size": step}], l2=l2)
    with pytest.raises(ConfigError):
        run_experiment(cfg)


# ---------------------------------------------------------------------------
# run_experiment

def test_row_counting_two_methods_three_seeds():
    cfg = _base_config()
    rows = run_experiment(cfg)
    assert len(rows) == 2 * 3 * 11


def test_rows_monotone_and_svrg_accounting():
    cfg = _base_config()
    rows = run_experiment(cfg)
    by_run = {}
    for r in rows:
        by_run.setdefault((r.method, r.seed), []).append(r.grad_evals_per_n)
    for (method, _), evals in by_run.items():
        assert all(b > a for a, b in zip(evals, evals[1:]))
        if method == "svrg":
            assert np.allclose(np.diff(evals), 3.0)


def test_experiment_deterministic_csv(tmp_path):
    cfg = _base_config(epochs=5, seeds=[0, 1])
    rows1 = run_experiment(cfg)
    rows2 = run_experiment(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rows1, p1)
    emit_csv(rows2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_suboptimality_floor_and_nonnegativity():
    cfg = _base_config(epochs=60, methods=["saga"], seeds=[0], l2=0.3)
    rows = run_experiment(cfg)
    assert all(r.suboptimality >= 1e-16 for r in rows)
    assert rows[-1].suboptimality <= 1e-10  # converged to the floor region


def _one_row(subopt):
    rec = TraceRecord(k=8, grad_evals=8.0, x=np.zeros(1), xbar=None,
                      subopt=subopt, dist_sq=0.5)
    [row] = harness._result_rows(RunResult("saga", [rec], rec.x, None, 8.0),
                                 "saga", 3, 4)
    return row


@pytest.mark.parametrize("subopt,reported", [
    (-5e-13, 1e-16), (-0.0, 1e-16), (0.0, 1e-16), (3e-17, 1e-16),
    (2e-3, 2e-3),
])
def test_result_rows_report_at_least_the_floor(subopt, reported):
    # from the negative tolerance -1e-12 up, rows read max(subopt, 1e-16)
    assert _one_row(subopt) == ResultRow(
        method="saga", seed=3, grad_evals_per_n=2.0, suboptimality=reported,
        dist_sq=0.5)


def test_result_rows_raise_below_the_negative_tolerance():
    with pytest.raises(InconsistentReferenceError):
        _one_row(-2e-12)


def test_sweep_steps_runs():
    cfg = _base_config(epochs=8, methods=["saga"], seeds=[0])
    rows = run_experiment(cfg, sweep_steps=True)
    assert len(rows) == 9


def test_cross_method_agreement_through_harness():
    cfg = ExperimentConfig.from_dict({
        "dataset": {"synthetic": {"kind": "logistic", "n": 60, "d": 6,
                                  "seed": 12, "normalize": True}},
        "loss": "logistic",
        "l2": 0.1,
        "methods": ["saga", "sag", "svrg", "finito", "sdca", "midpoint"],
        "epochs": 80,
        "seeds": [0],
    })
    rows = run_experiment(cfg)
    final = {}
    for r in rows:
        final[r.method] = r  # rows are sorted, last one wins
    for name, row in final.items():
        assert row.suboptimality <= 1e-8, name
        # every final iterate within 5e-5 of the optimum means pairwise
        # distances stay below 1e-4
        assert row.dist_sq <= 2.5e-9, name


def test_lazy_method_through_harness():
    cfg = _base_config(methods=["saga_lazy", "saga_explicit_l2"],
                       epochs=40, seeds=[0], l2=0.1)
    rows = run_experiment(cfg)
    final = {}
    for r in rows:
        final[r.method] = r
    # the schedules differ (the lazy engine sweeps its first pass in
    # order), so only agreement at the optimum is expected here; exact
    # step equivalence is covered with matched replay in test_lazy
    assert final["saga_lazy"].suboptimality <= 1e-10
    assert final["saga_explicit_l2"].suboptimality <= 1e-10
    assert final["saga_lazy"].dist_sq <= 1e-10


def test_experiment_holds_one_run_result_at_a_time(monkeypatch):
    # each result's iterate copies must be released before the next
    # (method, seed) run starts
    results, live_at_start = [], []

    def tracked_run(*args, **kwargs):
        live_at_start.append([r() is not None for r in results])
        res = run(*args, **kwargs)
        results.append(weakref.ref(res))
        return res

    monkeypatch.setattr(harness, "run", tracked_run)
    cfg = ExperimentConfig.from_dict({
        "dataset": {"synthetic": {"kind": "ridge", "n": 30, "d": 2000,
                                  "density": 5e-3, "seed": 3,
                                  "normalize": True}},
        "loss": "squared", "l2": 0.1,
        "methods": ["saga_lazy", "saga_explicit_l2"], "epochs": 3,
        "seeds": [0, 1]})
    assert harness.canonical_objective(build_dataset(cfg), cfg).sparse
    rows = run_experiment(cfg)
    assert len(rows) == 2 * 2 * 4
    assert live_at_start == [[], [False], [False, False],
                             [False, False, False]]


def test_lazy_experiment_on_sparse_data_holds_no_n_by_d_array(monkeypatch):
    # saga_lazy alone makes no dense copy of the points, and nothing else
    # in the experiment, generator included, holds an (n, d) array (48 MB
    # here): beside the nonzeros, only a few n- and d-vectors and the
    # epochs + 1 iterates of the trace
    def experiment(n, d, density, method="saga_lazy"):
        return ExperimentConfig.from_dict({
            "dataset": {"synthetic": {"kind": "ridge", "n": n, "d": d,
                                      "density": density, "seed": 1,
                                      "normalize": True}},
            "loss": "squared", "l2": 0.1, "methods": [method], "epochs": 3})

    run_experiment(experiment(5, 30, 0.5))  # first-call imports and loads
    densified = []
    to_dense = CscMatrix.to_dense

    def recording_to_dense(self):
        densified.append(self.shape)
        return to_dense(self)

    monkeypatch.setattr(CscMatrix, "to_dense", recording_to_dense)
    n, d = 600, 10_000
    cfg = experiment(n, d, 1e-3)
    tracemalloc.start()
    try:
        rows = run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 4 and not densified
    nnz = build_dataset(cfg).features.nnz
    assert peak < 16 * 8 * (nnz + n + d)
    # the dense path densifies, so the patch is live
    run_experiment(experiment(30, 2000, 5e-3, method="saga_explicit_l2"))
    assert densified == [(2000, 30)]


# ---------------------------------------------------------------------------
# csv emission

def test_emit_csv_single_row(tmp_path):
    row = ResultRow("saga", 0, 1.0, 0.125, 0.25)
    p = tmp_path / "one.csv"
    emit_csv([row], p)
    lines = p.read_text().splitlines()
    assert lines[0] == "method,seed,grad_evals_per_n,suboptimality,dist_sq"
    assert len(lines) == 2
    assert lines[1] == "saga,0,1,0.125,0.25"


def test_emit_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(8)
    rows = [ResultRow("m", 0, float(i),
                      float(rng.random() * 10.0 ** -float(rng.integers(0, 12))),
                      float(rng.random()))
            for i in range(20)]
    p = tmp_path / "rt.csv"
    emit_csv(rows, p)
    back = []
    for line in p.read_text().splitlines()[1:]:
        method, seed, ge, sub, dist = line.split(",")
        back.append(ResultRow(method, int(seed), float(ge), float(sub), float(dist)))
    for a, b in zip(rows, back):
        assert a.grad_evals_per_n == b.grad_evals_per_n
        assert a.suboptimality == b.suboptimality
        assert a.dist_sq == b.dist_sq


def test_emit_csv_rejects_empty(tmp_path):
    with pytest.raises(ConfigError):
        emit_csv([], tmp_path / "x.csv")
