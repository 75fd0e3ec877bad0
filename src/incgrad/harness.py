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
from dataclasses import dataclass, field

import numpy as np

from .datasets import generate_synthetic, load_libsvm
from .errors import ConfigError, DivergenceError, InconsistentReferenceError
from .objectives import FiniteSumObjective, Regularizer, make_loss
from .solvers import (
    _PARAM_FREE,
    METHOD_INFO,
    StepSizePolicy,
    prox_gradient_optimum,
    run,
)

SUBOPT_FLOOR = 1e-16
SUBOPT_NEG_TOL = -1e-12
SWEEP_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
CSV_HEADER = "method,seed,grad_evals_per_n,suboptimality,dist_sq"


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
        name = entry.get("name")
        if not name:
            raise ConfigError("method entry needs a 'name'")
        step = entry.get("step_size")
        if step is None:
            policy = None
        elif isinstance(step, (int, float)):
            policy = StepSizePolicy("manual", gamma=float(step))
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
        known = {"dataset", "loss", "l2", "l1", "methods", "epochs",
                 "seeds", "trace_every", "out"}
        extra = set(raw) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
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
        try:
            return cls(
                dataset=dataset,
                loss=raw.get("loss", "squared"),
                l2=float(raw.get("l2", 0.0)),
                l1=float(raw.get("l1", 0.0)),
                methods=methods,
                epochs=int(raw.get("epochs", 10)),
                seeds=[int(s) for s in raw.get("seeds", [0])],
                trace_every=int(raw.get("trace_every", 1)),
                out=out,
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}") from None

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: malformed JSON ({exc})") from None
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
    if cfg.trace_every < 1:
        raise ConfigError("trace_every must be >= 1")
    if cfg.l2 < 0 or cfg.l1 < 0:
        raise ConfigError("regulariser strengths must be nonnegative")
    make_loss(cfg.loss)
    for spec in cfg.methods:
        info = METHOD_INFO.get(spec.name)
        if info is None:
            raise ConfigError(f"unknown method {spec.name!r}")
        if cfg.l1 > 0 and not info["prox"]:
            raise ConfigError(
                f"{spec.name} has no proximal support and cannot take an "
                "L1 regulariser")
        if info["needs_mu"] and cfg.l2 <= 0:
            raise ConfigError(f"{spec.name} requires an L2 strength > 0")
        if info["obj_form"] == "explicit" and cfg.l1 > 0:
            raise ConfigError(f"{spec.name} supports only an L2 regulariser")
        if spec.name == "saga_lazy" and cfg.loss != "squared":
            raise ConfigError("saga_lazy only covers squared loss")
        if spec.policy is not None and spec.name in _PARAM_FREE:
            raise ConfigError(f"{spec.name} is parameter free")


def build_dataset(cfg: ExperimentConfig):
    ds_cfg = cfg.dataset
    if "path" in ds_cfg:
        return load_libsvm(ds_cfg["path"],
                           n_features=ds_cfg.get("n_features"),
                           normalize=bool(ds_cfg.get("normalize", False)))
    if "synthetic" in ds_cfg:
        s = ds_cfg["synthetic"]
        try:
            sizes = dict(n=int(s["n"]), d=int(s["d"]),
                         density=float(s.get("density", 1.0)),
                         noise=float(s.get("noise", 0.1)),
                         seed=int(s.get("seed", 0)),
                         normalize=bool(s.get("normalize", False)))
        except KeyError as exc:
            raise ConfigError(f"synthetic dataset config needs {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad synthetic dataset value: {exc}") from None
        return generate_synthetic(s.get("kind", "ridge"), **sizes)
    raise ConfigError("dataset config needs a 'path' or a 'synthetic' entry")


def canonical_objective(ds, cfg) -> FiniteSumObjective:
    """Split-in L2 plus prox L1: the form used to evaluate F and F*."""
    return FiniteSumObjective(ds, make_loss(cfg.loss), split_l2=cfg.l2,
                              reg=Regularizer(l1=cfg.l1))


def method_objective(ds, cfg, name):
    """Objective in the representation the method expects, plus extra
    keyword arguments for the run driver."""
    loss = make_loss(cfg.loss)
    form = METHOD_INFO[name]["obj_form"]
    if form == "split":
        reg = Regularizer(l1=cfg.l1)
        return FiniteSumObjective(ds, loss, split_l2=cfg.l2, reg=reg), {}
    if form == "separate":
        return FiniteSumObjective(ds, loss, reg=Regularizer(l2=cfg.l2)), {}
    # explicit: loss-only objective, the L2 strength rides along
    return FiniteSumObjective(ds, loss), {"explicit_l2": cfg.l2}


def compute_reference_optimum(obj, tol=1e-12, max_iter=1_000_000):
    """Deterministic accelerated proximal gradient run to a certified
    fixed point; returns (x_star, F_star)."""
    return prox_gradient_optimum(obj, tol=tol, max_iter=max_iter)


def _sweep_gamma(name, obj, x0, cfg, kwargs, reference):
    """Geometric grid around the theory default; picks the step with the
    lowest final suboptimality on the first seed."""
    from .solvers import _policy_gamma, _resolve_constants

    consts = _resolve_constants(name, obj, None, kwargs.get("explicit_l2", 0.0))
    if name == "finito":
        base = 1.0 / (2.0 * consts.mu * obj.n)
    else:
        base = _policy_gamma(None, consts)
    best_gamma, best_val = None, np.inf
    for mult in SWEEP_GRID:
        gamma = base * mult
        try:
            res = run(name, obj, x0, epochs=cfg.epochs,
                      policy=StepSizePolicy("manual", gamma=gamma),
                      seed=cfg.seeds[0], trace_every=cfg.epochs,
                      reference=reference, **kwargs)
        except (DivergenceError, ConfigError):
            continue
        final = res.records[-1].subopt
        if np.isfinite(final) and final < best_val:
            best_val, best_gamma = final, gamma
    if best_gamma is None:
        raise DivergenceError(0, detail=f"every swept step diverged for {name}")
    return StepSizePolicy("manual", gamma=best_gamma)


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
        if sweep_steps and spec.name not in _PARAM_FREE and policy is None:
            policy = _sweep_gamma(spec.name, obj, x0, cfg, kwargs, reference)
        for seed in cfg.seeds:
            res = run(spec.name, obj, x0, epochs=cfg.epochs, policy=policy,
                      seed=seed, trace_every=cfg.trace_every,
                      reference=reference, **kwargs)
            for rec in res.records:
                sub = rec.subopt
                if sub < SUBOPT_NEG_TOL:
                    raise InconsistentReferenceError(sub)
                sub = max(sub, 0.0)
                rows.append(ResultRow(
                    method=spec.name, seed=seed,
                    grad_evals_per_n=rec.grad_evals / ds.n,
                    suboptimality=max(sub, SUBOPT_FLOOR),
                    dist_sq=rec.dist_sq))
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
