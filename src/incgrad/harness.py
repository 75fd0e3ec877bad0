"""Benchmark harness: experiment configs, reference optima, trace CSV.

A config names a dataset (file or synthetic), a loss, L2/L1 strengths
and a list of methods; the harness builds the problem's objective,
computes the reference optimum once, runs every (method, seed) pair on
it and emits suboptimality traces as CSV.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import generate_synthetic, load_libsvm
from .errors import ConfigError, DivergenceError, InconsistentReferenceError
from .objectives import FiniteSumObjective, Regularizer, make_loss
from .solvers import (
    _check_step,
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


_EXPECTED = {bool: "true or false", int: "an integer", float: "a finite number",
             str: "a string", list: "a list", dict: "an object", None: "null"}

# each config level's keys and their JSON kinds (a tuple admits each of
# its kinds): ExperimentConfig's fields, a method entry, and the
# parameters of load_libsvm and generate_synthetic
_CONFIG = {"dataset": dict, "loss": str, "l2": float, "l1": float,
           "methods": list, "epochs": int, "seeds": list, "trace_every": int,
           "out": (str, None)}
_METHOD = {"name": str, "step_size": (float, str, None)}
_FILE = {"path": str, "n_features": (int, None), "normalize": bool}
_SYNTHETIC = {"kind": str, "n": int, "d": int, "density": float,
              "noise": float, "seed": int, "normalize": bool}


def _checked(key, value, kind, level="config"):
    """``value`` as a ``kind`` (see ``_EXPECTED``), else a ConfigError
    naming ``key`` and its ``level``.  Nothing is coerced: a flag must be
    a JSON boolean, and a number a JSON number other than a boolean,
    finite (JSON parsing admits NaN and Infinity) and, for an int,
    integral."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    for k in kinds:
        try:
            if k is int and number and int(value) == value:
                return int(value)
            if k is float and number and math.isfinite(float(value)):
                return float(value)
        except (ValueError, OverflowError):  # NaN, Infinity or a huge int
            pass
        if (k in (bool, str, list, dict) and isinstance(value, k)
                or k is None and value is None):
            return value
    raise ConfigError(f"bad config value for {key!r} in {level}: {value!r} "
                      f"(expected {' or '.join(_EXPECTED[k] for k in kinds)})")


def _fields(raw, table, level):
    """The entries of the JSON object ``raw``, each checked against its
    kind in ``table``.  A key not in ``table`` is an error, so a
    misspelled key cannot fall back to a default unnoticed."""
    extra = set(raw) - set(table)
    if extra:
        raise ConfigError(f"unknown {level} keys: {sorted(extra)}")
    return {k: _checked(k, v, table[k], level) for k, v in raw.items()}


def _call(fn, raw, table, level, **preset):
    """``fn`` called with ``preset`` and the checked entries of ``raw``
    alone, so a key that ``raw`` omits takes ``fn``'s own default."""
    kwargs = {**preset, **_fields(raw, table, level)}
    try:
        inspect.signature(fn).bind(**kwargs)
    except TypeError as exc:  # a required parameter is missing
        raise ConfigError(f"{level}: {exc}") from None
    return fn(**kwargs)


@dataclass
class MethodSpec:
    name: str
    step: float | str | None = None

    @classmethod
    def from_config(cls, entry):
        entry = _checked("methods", entry, (str, dict))
        if isinstance(entry, str):
            return cls(name=entry)
        entry = _fields(entry, _METHOD, "'methods' entry")
        if not entry.get("name"):
            raise ConfigError(f"'methods' entry {entry!r} needs a 'name' string")
        step = entry.get("step_size")
        _check_step(step)
        return cls(entry["name"], step)


@dataclass
class ExperimentConfig:
    dataset: dict = field(default_factory=dict)
    loss: str = "squared"
    l2: float = 0.0
    l1: float = 0.0
    methods: list = field(default_factory=list)
    epochs: int = 10
    seeds: list = field(default_factory=lambda: [0])
    trace_every: int = 1
    out: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        cfg = _call(cls, raw, _CONFIG, "config")
        cfg.methods = [MethodSpec.from_config(m) for m in cfg.methods]
        cfg.seeds = [_checked("seeds", s, int) for s in cfg.seeds]
        return cfg

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
    Regularizer(l2=cfg.l2, l1=cfg.l1)  # refuses a negative strength
    loss = make_loss(cfg.loss).kind
    for spec in cfg.methods:
        check_method(spec.name, loss=loss, l1=cfg.l1, mu=cfg.l2,
                     step=spec.step)


def build_dataset(cfg: ExperimentConfig):
    ds_cfg = cfg.dataset
    if "path" in ds_cfg:
        return _call(load_libsvm, ds_cfg, _FILE, "file 'dataset'")
    if "synthetic" not in ds_cfg:
        raise ConfigError("dataset config needs a 'path' or a 'synthetic' entry")
    synthetic = _fields(ds_cfg, {"synthetic": dict}, "'dataset'")["synthetic"]
    return _call(generate_synthetic, synthetic, _SYNTHETIC,
                 "synthetic 'dataset'", kind="ridge")


def canonical_objective(ds, cfg) -> FiniteSumObjective:
    """The problem, with split-in L2 and prox L1: F, F* and every run."""
    return FiniteSumObjective(ds, make_loss(cfg.loss), split_l2=cfg.l2,
                              reg=Regularizer(l1=cfg.l1))


def compute_reference_optimum(obj):
    """Deterministic accelerated proximal gradient run to a certified
    fixed point; returns (x_star, F_star)."""
    return prox_gradient_optimum(obj)


def _sweep_gamma(name, obj, x0, cfg, reference):
    """Geometric grid around the theory default; returns the step with
    the lowest final suboptimality on the first seed."""
    *_, base = _setup(name, obj)
    best_gamma, best_val = None, np.inf
    for mult in SWEEP_GRID:
        gamma = base * mult
        try:
            final = run(name, obj, x0, epochs=cfg.epochs, step=gamma,
                        seed=cfg.seeds[0], trace_every=cfg.epochs,
                        reference=reference).records[-1].subopt
        except (DivergenceError, ConfigError):
            continue
        if np.isfinite(final) and final < best_val:
            best_val, best_gamma = final, gamma
    if best_gamma is None:
        raise DivergenceError(0, detail=f"every swept step diverged for {name}")
    return best_gamma


def _result_rows(res, method, seed, n):
    """The trace rows of one run's result, with clamped suboptimality."""
    rows = []
    for rec in res.records:
        sub = rec.subopt
        if sub < SUBOPT_NEG_TOL:
            raise InconsistentReferenceError(sub)
        rows.append(ResultRow(method=method, seed=seed,
                              grad_evals_per_n=rec.grad_evals / n,
                              suboptimality=max(sub, SUBOPT_FLOOR),
                              dist_sq=rec.dist_sq))
    return rows


def run_experiment(cfg: ExperimentConfig, sweep_steps=False):
    """Run every (method, seed) pair and collect trace rows.

    The reference optimum is computed once on the canonical objective;
    suboptimality below -1e-12 raises :class:`InconsistentReferenceError`
    (the reference would be wrong), and anything from -1e-12 up to the
    floor 1e-16 reports as the floor so log-scale plots stay finite.
    """
    validate_config(cfg)
    ds = build_dataset(cfg)
    canon = canonical_objective(ds, cfg)
    x_star, f_star = compute_reference_optimum(canon)
    x0 = np.zeros(ds.d)
    reference = (x_star, f_star)
    rows = []
    for spec in cfg.methods:
        step = spec.step
        if (sweep_steps and step is None
                and not method_info(spec.name).param_free):
            step = _sweep_gamma(spec.name, canon, x0, cfg, reference)
        for seed in cfg.seeds:
            # the result goes out of scope here, so the next run starts
            # without this one's iterate copies
            rows += _result_rows(
                run(spec.name, canon, x0, epochs=cfg.epochs, step=step,
                    seed=seed, trace_every=cfg.trace_every,
                    reference=reference),
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
