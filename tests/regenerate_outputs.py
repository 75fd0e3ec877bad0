"""Rewrite the checked-in outputs under tests/outputs from this checkout.

    PYTHONPATH=src python tests/regenerate_outputs.py

It writes ``incgrad certify``'s stdout at the benchmark's sizes for
seeds 0, 3 and 7, and machine.json, the fingerprint of the machine
whose bytes they are.  ``tests/test_outputs.py`` compares them by bytes
where the fingerprint matches.  Rerun it only when a change moves these
bytes on purpose, and say why in CHANGES.md.
"""

import contextlib
import io
import json
import pathlib

from helpers import machine_fingerprint
from incgrad.cli import main

OUTPUTS = pathlib.Path(__file__).resolve().parent / "outputs"
CERTIFY_SEEDS = (0, 3, 7)
CERTIFY_SIZES = ("--instances", "100", "--lemma-instances", "100",
                 "--traj-seeds", "20")


def certify_report(seed) -> bytes:
    """``incgrad certify --seed SEED`` at the benchmark's sizes."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["certify", "--seed", str(seed), *CERTIFY_SIZES])
    if code != 0:
        raise SystemExit(f"certify --seed {seed} exited {code}")
    return out.getvalue().encode()


if __name__ == "__main__":
    OUTPUTS.mkdir(exist_ok=True)
    for seed in CERTIFY_SEEDS:
        (OUTPUTS / f"certify-{seed}.txt").write_bytes(certify_report(seed))
    (OUTPUTS / "machine.json").write_text(
        json.dumps(machine_fingerprint(), indent=2) + "\n")
