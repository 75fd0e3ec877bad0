"""The four benchmark workloads and the checks on their outputs.

Each workload is one call of the public CLI.  The three ``run``
workloads write a trace CSV; ``certify`` prints the property report.
Sizes are chosen so that one call takes one to three seconds: a run
then holds ten or more repeats, whose median resists the bursts in
which a shared machine runs at half speed.
Outputs are checked against tolerances and structure, never against
bytes pinned from one version of the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import dataclass

CSV_HEADER = "method,seed,grad_evals_per_n,suboptimality,dist_sq"

CERTIFY_PROPERTIES = (
    "lyapunov_contraction_strongly_convex",
    "lyapunov_contraction_adaptive",
    "lemma_strong_lb",
    "lemma_ip_bound",
    "lemma_grad_diff",
    "lemma_wchange",
    "estimator_algebra",
    "moreau_decomposition",
    "direction_unbiasedness",
    "sag_bias_structure",
    "bound_dominance_trajectory",
)

# a tenth of the default battery, with the same mix of checks
CERTIFY_SIZES = ("--instances", "100", "--lemma-instances", "100",
                 "--traj-seeds", "20")

ALL_METHODS = ("saga", "saga_u", "sag", "svrg", "finito", "sdca",
               "sdca_variant5", "midpoint", "saga_explicit_l2", "saga_lazy")


@dataclass(frozen=True)
class Workload:
    """One CLI call; why each workload exists is recorded in BENCHMARK.json."""

    name: str
    # experiment config without the dataset seed; None for certify
    config: dict | None = None
    # final suboptimality bound per (method, seed): ten times the worst
    # value measured at dataset seeds 7, 1, 2 and 3
    subopt_bound: float = 0.0
    # the calibration loop whose time tracks this workload's on a busy
    # host: interpreter work, or streaming the dense 48 MB points matrix
    calibration: str = "interpreter"

    @property
    def is_run(self) -> bool:
        return self.config is not None

    @property
    def methods(self) -> tuple:
        return tuple(self.config["methods"]) if self.is_run else ("saga",)

    def operations(self) -> int:
        """Operations per repeat: (method, seed) runs or properties."""
        if self.is_run:
            return len(self.config["methods"]) * len(self.config["seeds"])
        return len(CERTIFY_PROPERTIES)


def _run_config(kind, loss, n, d, l2, l1, methods, seeds, density=1.0):
    synthetic = {"kind": kind, "n": n, "d": d, "normalize": True}
    if density < 1.0:
        synthetic["density"] = density
    return {"dataset": {"synthetic": synthetic}, "loss": loss, "l2": l2,
            "l1": l1, "methods": list(methods), "epochs": 10,
            "seeds": list(seeds), "trace_every": 1}


WORKLOADS = {w.name: w for w in (
    Workload(
        "dense_logistic",
        _run_config("logistic", "logistic", 600, 100, 1e-3, 0.0,
                    ALL_METHODS[:-1], [0]),
        3.2e-4),
    Workload(
        "l1_logistic",
        _run_config("logistic", "logistic", 600, 200, 1e-4, 1e-3,
                    ("saga", "svrg"), [0, 1, 2]),
        8.0e-5),
    Workload(
        "sparse_ridge",
        _run_config("ridge", "squared", 600, 10_000, 0.1, 0.0,
                    ("saga_lazy", "saga_explicit_l2"), [0], density=1e-3),
        4.7e-6, calibration="memory"),
    Workload("certify"),
)}


def cli_argv(wl: Workload, seed: int, work: str) -> tuple[list, str | None]:
    """CLI arguments for one call, and the CSV path it will write."""
    if not wl.is_run:
        return ["certify", "--seed", str(seed), *CERTIFY_SIZES], None
    cfg = json.loads(json.dumps(wl.config))
    cfg["dataset"]["synthetic"]["seed"] = seed
    cfg_path = os.path.join(work, f"{wl.name}-{seed}.json")
    csv_path = os.path.join(work, f"{wl.name}-{seed}-{os.getpid()}.csv")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return ["run", "--config", cfg_path, "--out", csv_path], csv_path


@dataclass
class Outcome:
    """Checked result of one CLI call."""

    digest: str
    attempted: int
    failed: int
    problems: list


def check_output(wl: Workload, code: int, stdout: str,
                 csv_path: str | None) -> Outcome:
    if wl.is_run:
        return _check_csv(wl, code, csv_path)
    return _check_report(code, stdout)


def _check_report(code, stdout) -> Outcome:
    status = {}
    for line in stdout.splitlines():
        m = re.match(r"(PASS|FAIL)\s+(\S+)", line)
        if m:
            status[m.group(2)] = m.group(1)
    problems = []
    if set(status) != set(CERTIFY_PROPERTIES):
        problems.append(f"certify reported properties {sorted(status)}")
    failed = [p for p in CERTIFY_PROPERTIES if status.get(p) != "PASS"]
    if failed:
        problems.append(f"certify properties not PASS: {failed}")
    if code != (2 if failed else 0):
        problems.append(f"certify exit code {code}")
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    return Outcome(digest, len(CERTIFY_PROPERTIES), len(failed), problems)


def _check_csv(wl: Workload, code, csv_path) -> Outcome:
    ops = wl.operations()
    if code != 0 or not os.path.exists(csv_path):
        return Outcome("", ops, ops, [f"incgrad run exited with code {code}"])
    with open(csv_path, "rb") as fh:
        raw = fh.read()
    lines = raw.decode().splitlines()
    problems = []
    if not lines or lines[0] != CSV_HEADER:
        problems.append(f"CSV header {lines[:1]!r}")
    cfg = wl.config
    want_rows = ops * (cfg["epochs"] + 1)
    if len(lines) - 1 != want_rows:
        problems.append(f"CSV has {len(lines) - 1} rows, expected {want_rows}")
    final = {}
    for line in lines[1:]:
        try:
            method, seed, *values = line.split(",")
            key, values = (method, int(seed)), [float(v) for v in values]
        except ValueError:
            values = []
        if len(values) != 3 or not all(map(math.isfinite, values)):
            problems.append(f"non-finite or malformed row {line!r}")
            continue
        if key not in final or values[0] >= final[key][0]:
            final[key] = values
    failed = 0
    for method in cfg["methods"]:
        for seed in cfg["seeds"]:
            row = final.get((method, seed))
            if row is None or row[1] > wl.subopt_bound:
                failed += 1
                problems.append(
                    f"{method} seed {seed}: final suboptimality "
                    f"{'missing' if row is None else f'{row[1]:.3e}'} "
                    f"above bound {wl.subopt_bound:.1e}")
    return Outcome(hashlib.sha256(raw).hexdigest(), ops, failed, problems)
