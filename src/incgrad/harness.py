"""Benchmark harness: experiment configs, reference optima, trace CSV.

A config names a dataset (file or synthetic), a loss, L2/L1 strengths
and a list of methods; the harness builds the per-method objective form
(split-in L2 for the table methods, a separate regulariser for the
dual-coordinate ones, an explicit term for the scaled-iterate
variants), computes the reference optimum once, runs every
(method, seed) pair and emits suboptimality traces as CSV.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import generate_synthetic, load_libsvm
from .errors import ConfigError, DivergenceError, InconsistentReferenceError
from .objectives import FiniteSumObjective, Regularizer, make_loss
from .solvers import (
    StepSizePolicy,
    _setup,
    check_method,
    method_info,
    prox_gradient_optimum,
    run,
)

SUBOPT_FLOOR = 1e-16
SUBOPT_NEG_TOL = -1e-12
SWEEP_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
CSV_HEADER = "method,seed,grad_evals_per_n,suboptimality,dist_sq"


_EXPECTED = {bool: "true or false", int: "an integer", float: "a finite number"}


def _checked(key, value, kind):
    """``value`` as a ``kind`` (bool, int or float), else a ConfigError
    naming ``key``.  Nothing is coerced: a flag must be a JSON boolean,
    and a number a JSON number other than a boolean, finite (JSON
    parsing admits NaN and Infinity) and, for an int, integral."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        if kind is bool and isinstance(value, bool):
            return value
        if kind is int and number and int(value) == value:
            return int(value)
        if kind is float and number and math.isfinite(float(value)):
            return float(value)
    except (ValueError, OverflowError):  # int() of NaN or Infinity
        pass
    raise ConfigError(f"bad config value for {key!r}: {value!r} "
                      f"(expected {_EXPECTED[kind]})")


def _only(raw, allowed, where):
    """ConfigError naming every key of the object ``raw`` that is not in
    ``allowed``: a misspelled key must not fall back to a default."""
    extra = set(raw) - set(allowed)
    if extra:
        raise ConfigError(f"unknown {where} keys: {sorted(extra)}")


@dataclass
class MethodSpec:
    name: str
    policy: StepSizePolicy | None = None

    @classmethod
    def from_config(cls, entry):
        if isinstance(entry, str):
            return cls(name=entry)
        if not isinstance(entry, dict):
            raise ConfigError(
                f"'methods' entries must be names or objects, got {entry!r}")
        _only(entry, ("name", "step_size"), "'methods' entry")
        name = entry.get("name")
        if not name or not isinstance(name, str):
            raise ConfigError(f"'methods' entry {entry!r} needs a 'name' string")
        step = entry.get("step_size")
        if step is None:
            policy = None
        elif isinstance(step, (int, float)):
            policy = StepSizePolicy("manual",
                                    gamma=_checked("step_size", step, float))
        else:
            policy = StepSizePolicy(str(step))
        return cls(name=name, policy=policy)


@dataclass
class ExperimentConfig:
    dataset: dict
    loss: str
    l2: float = 0.0
    l1: float = 0.0
    methods: list = field(default_factory=list)
    epochs: int = 10
    seeds: list = field(default_factory=lambda: [0])
    trace_every: int = 1
    out: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _only(raw, ("dataset", "loss", "l2", "l1", "methods", "epochs",
                    "seeds", "trace_every", "out"), "config")
        dataset = raw.get("dataset", {})
        if not isinstance(dataset, dict):
            raise ConfigError("'dataset' must be an object")
        methods = raw.get("methods", [])
        if not isinstance(methods, list):
            raise ConfigError("'methods' must be a list of method names or objects")
        methods = [MethodSpec.from_config(m) for m in methods]
        out = raw.get("out")
        if out is not None and not isinstance(out, str):
            raise ConfigError("'out' must be a path string")
        seeds = raw.get("seeds", [0])
        if not isinstance(seeds, list):
            raise ConfigError("'seeds' must be a list of integers")
        loss = raw.get("loss", "squared")
        if not isinstance(loss, str):
            raise ConfigError(f"'loss' must be a loss name, got {loss!r}")
        return cls(
            dataset=dataset,
            loss=loss,
            l2=_checked("l2", raw.get("l2", 0.0), float),
            l1=_checked("l1", raw.get("l1", 0.0), float),
            methods=methods,
            epochs=_checked("epochs", raw.get("epochs", 10), int),
            seeds=[_checked("seeds", s, int) for s in seeds],
            trace_every=_checked("trace_every", raw.get("trace_every", 1), int),
            out=out,
        )

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: malformed JSON ({exc})") from None
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: the config must be a JSON object")
        return cls.from_dict(raw)


@dataclass
class ResultRow:
    method: str
    seed: int
    grad_evals_per_n: float
    suboptimality: float
    dist_sq: float


def validate_config(cfg: ExperimentConfig):
    """Reject bad method/regulariser combinations before any run starts."""
    if not cfg.methods:
        raise ConfigError("at least one method is required")
    if cfg.epochs < 1:
        raise ConfigError("epochs must be >= 1")
    if not cfg.seeds:
        raise ConfigError("seeds must be non-empty")
    if min(cfg.seeds) < 0:
        raise ConfigError(f"'seeds' must be nonnegative, got {cfg.seeds}")
    if cfg.trace_every < 1:
        raise ConfigError("trace_every must be >= 1")
    if cfg.l2 < 0 or cfg.l1 < 0:
        raise ConfigError("regulariser strengths must be nonnegative")
    loss = make_loss(cfg.loss).kind
    for spec in cfg.methods:
        # the L2 strength is mu in every method's form
        check_method(spec.name, loss=loss, l1=cfg.l1, mu=cfg.l2,
                     policy=spec.policy)


def build_dataset(cfg: ExperimentConfig):
    ds_cfg = cfg.dataset
    if "path" in ds_cfg:
        _only(ds_cfg, ("path", "n_features", "normalize"), "file 'dataset'")
        path = ds_cfg["path"]
        if not isinstance(path, str):
            raise ConfigError(f"'dataset' 'path' must be a path string, "
                              f"got {path!r}")
        n_features = ds_cfg.get("n_features")
        if n_features is not None:
            n_features = _checked("n_features", n_features, int)
        normalize = _checked("normalize", ds_cfg.get("normalize", False), bool)
        return load_libsvm(path, n_features=n_features,
                           normalize=normalize)
    if "synthetic" in ds_cfg:
        _only(ds_cfg, ("synthetic",), "synthetic 'dataset'")
        s = ds_cfg["synthetic"]
        if not isinstance(s, dict):
            raise ConfigError("'synthetic' must be an object")
        _only(s, ("kind", "n", "d", "density", "noise", "seed", "normalize"),
              "'synthetic'")
        try:
            sizes = dict(n=_checked("n", s["n"], int), d=_checked("d", s["d"], int),
                         density=_checked("density", s.get("density", 1.0), float),
                         noise=_checked("noise", s.get("noise", 0.1), float),
                         seed=_checked("seed", s.get("seed", 0), int),
                         normalize=_checked("normalize",
                                            s.get("normalize", False), bool))
        except KeyError as exc:
            raise ConfigError(f"synthetic dataset config needs {exc}") from None
        return generate_synthetic(s.get("kind", "ridge"), **sizes)
    raise ConfigError("dataset config needs a 'path' or a 'synthetic' entry")


def canonical_objective(ds, cfg) -> FiniteSumObjective:
    """Split-in L2 plus prox L1: the form used to evaluate F and F*."""
    return FiniteSumObjective(ds, make_loss(cfg.loss), split_l2=cfg.l2,
                              reg=Regularizer(l1=cfg.l1))


def method_objective(ds, cfg, name):
    """Objective in the form of the method's record (``solvers.Method``),
    plus extra keyword arguments for the run driver."""
    form = method_info(name).form
    obj = FiniteSumObjective(
        ds, make_loss(cfg.loss), split_l2=cfg.l2 if form == "split" else 0.0,
        reg=Regularizer(l2=cfg.l2 if form == "separate" else 0.0, l1=cfg.l1))
    return obj, {"explicit_l2": cfg.l2} if form == "explicit" else {}


def compute_reference_optimum(obj):
    """Deterministic accelerated proximal gradient run to a certified
    fixed point; returns (x_star, F_star)."""
    return prox_gradient_optimum(obj)


def _sweep_gamma(name, obj, x0, cfg, kwargs, reference):
    """Geometric grid around the theory default; picks the step with the
    lowest final suboptimality on the first seed."""
    base = _setup(name, obj, explicit_l2=kwargs.get("explicit_l2", 0.0))[2]
    best_gamma, best_val = None, np.inf
    for mult in SWEEP_GRID:
        gamma = base * mult
        try:
            final = run(name, obj, x0, epochs=cfg.epochs,
                        policy=StepSizePolicy("manual", gamma=gamma),
                        seed=cfg.seeds[0], trace_every=cfg.epochs,
                        reference=reference, **kwargs).records[-1].subopt
        except (DivergenceError, ConfigError):
            continue
        if np.isfinite(final) and final < best_val:
            best_val, best_gamma = final, gamma
    if best_gamma is None:
        raise DivergenceError(0, detail=f"every swept step diverged for {name}")
    return StepSizePolicy("manual", gamma=best_gamma)


def _result_rows(res, method, seed, n):
    """The trace rows of one run's result, with clamped suboptimality."""
    rows = []
    for rec in res.records:
        sub = rec.subopt
        if sub < SUBOPT_NEG_TOL:
            raise InconsistentReferenceError(sub)
        sub = max(sub, 0.0)
        rows.append(ResultRow(method=method, seed=seed,
                              grad_evals_per_n=rec.grad_evals / n,
                              suboptimality=max(sub, SUBOPT_FLOOR),
                              dist_sq=rec.dist_sq))
    return rows


def run_experiment(cfg: ExperimentConfig, sweep_steps=False):
    """Run every (method, seed) pair and collect trace rows.

    The reference optimum is computed once on the canonical objective;
    suboptimality below -1e-12 raises :class:`InconsistentReferenceError`
    (the reference would be wrong), values in [-1e-12, 0] clamp to zero,
    and anything below the floor 1e-16 reports as the floor so log-scale
    plots stay finite.
    """
    validate_config(cfg)
    ds = build_dataset(cfg)
    canon = canonical_objective(ds, cfg)
    x_star, f_star = compute_reference_optimum(canon)
    x0 = np.zeros(ds.d)
    reference = (x_star, f_star)
    rows = []
    for spec in cfg.methods:
        obj, kwargs = method_objective(ds, cfg, spec.name)
        policy = spec.policy
        if (sweep_steps and policy is None
                and not method_info(spec.name).param_free):
            policy = _sweep_gamma(spec.name, obj, x0, cfg, kwargs, reference)
        for seed in cfg.seeds:
            # the result goes out of scope here, so the next run starts
            # without this one's iterate copies
            rows += _result_rows(
                run(spec.name, obj, x0, epochs=cfg.epochs, policy=policy,
                    seed=seed, trace_every=cfg.trace_every,
                    reference=reference, **kwargs),
                spec.name, seed, ds.n)
    rows.sort(key=lambda r: (r.method, r.seed, r.grad_evals_per_n))
    return rows


def emit_csv(rows, path):
    """Write rows deterministically with full-precision decimals."""
    if not rows:
        raise ConfigError("no rows to emit")
    rows = sorted(rows, key=lambda r: (r.method, r.seed, r.grad_evals_per_n))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(f"{r.method},{r.seed},{r.grad_evals_per_n:.17g},"
                     f"{r.suboptimality:.17g},{r.dist_sq:.17g}\n")
