"""Rewrite the checked-in outputs under tests/outputs from this checkout.

    PYTHONPATH=src python tests/regenerate_outputs.py

It writes ``incgrad certify``'s stdout at the benchmark's sizes for
seeds 0, 3 and 7; the trace CSVs of the benchmark's three run workloads
(their configs in ``perfbench/workloads.py``) at dataset seeds 7 and 3;
the sha256 of ``incgrad optimum``'s stdout on ``sparse_ridge`` at seed
7 (113 kB, so only its digest is kept); and machine.json, the
fingerprint of the machine whose bytes they are.
``tests/test_outputs.py`` compares them by bytes where the fingerprint
matches.  Rerun it only when a change moves these bytes on purpose, and
say why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

from helpers import machine_fingerprint
from incgrad.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

OUTPUTS = ROOT / "tests" / "outputs"
CERTIFY_SEEDS = (0, 3, 7)
CERTIFY_SIZES = ("--instances", "100", "--lemma-instances", "100",
                 "--traj-seeds", "20")
RUN_WORKLOADS = ("dense_logistic", "l1_logistic", "sparse_ridge")
RUN_SEEDS = (7, 3)
OPTIMUM = ("sparse_ridge", 7)


def _stdout(argv) -> bytes:
    """What ``incgrad ARGV`` prints; SystemExit unless it exits 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"incgrad {' '.join(argv)} exited {code}")
    return out.getvalue().encode()


def certify_report(seed) -> bytes:
    """``incgrad certify --seed SEED`` at the benchmark's sizes."""
    return _stdout(["certify", "--seed", str(seed), *CERTIFY_SIZES])


def workload_output(command, name, seed) -> bytes:
    """``incgrad run``'s trace CSV, or ``incgrad optimum``'s stdout
    (``command``), on workload ``name`` at dataset seed ``seed``."""
    cfg = json.loads(json.dumps(WORKLOADS[name].config))
    cfg["dataset"]["synthetic"]["seed"] = seed
    with tempfile.TemporaryDirectory() as work:
        config = pathlib.Path(work, "config.json")
        csv = pathlib.Path(work, "out.csv")
        config.write_text(json.dumps(cfg))
        if command == "optimum":
            return _stdout(["optimum", "--config", str(config)])
        _stdout(["run", "--config", str(config), "--out", str(csv)])
        return csv.read_bytes()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


if __name__ == "__main__":
    OUTPUTS.mkdir(exist_ok=True)
    for seed in CERTIFY_SEEDS:
        (OUTPUTS / f"certify-{seed}.txt").write_bytes(certify_report(seed))
    for name in RUN_WORKLOADS:
        for seed in RUN_SEEDS:
            (OUTPUTS / f"{name}-{seed}.csv").write_bytes(
                workload_output("run", name, seed))
    name, seed = OPTIMUM
    (OUTPUTS / f"optimum-{name}-{seed}.sha256").write_text(
        sha256(workload_output("optimum", name, seed)) + "\n")
    (OUTPUTS / "machine.json").write_text(
        json.dumps(machine_fingerprint(), indent=2) + "\n")
