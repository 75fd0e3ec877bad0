"""Outputs against the files checked in under tests/outputs.

The bytes depend on the machine as well as the code: OpenBLAS picks its
``ddot`` kernel by CPU and libm comes from the host.  So the files are
compared byte for byte only where the machine's fingerprint matches the
one recorded with them; elsewhere the test checks what holds on any
machine and prints that the byte check was skipped.  The compiled and
numpy paths must agree everywhere.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from helpers import machine_fingerprint
from regenerate_outputs import CERTIFY_SEEDS, OUTPUTS, certify_report

RECORDED = json.loads((OUTPUTS / "machine.json").read_text())


def _statuses(report: bytes):
    """(status, property name) of every line of a certify report."""
    return [tuple(line.split()[:2]) for line in report.decode().splitlines()]


@pytest.mark.parametrize("seed", CERTIFY_SEEDS)
def test_certify_report_equals_the_checked_in_file(seed, kernel_paths,
                                                  capsys):
    reports = {path: certify_report(seed) for path in kernel_paths()}
    assert len(set(reports.values())) == 1, "the two paths' reports differ"
    report = reports["numpy"]
    want = (OUTPUTS / f"certify-{seed}.txt").read_bytes()
    here = machine_fingerprint()
    if here == RECORDED:
        assert report == want
        return
    names = [name for _, name in _statuses(want)]
    assert len(names) == 11
    assert _statuses(report) == [("PASS", name) for name in names]
    with capsys.disabled():
        print(f"\ncertify --seed {seed}: byte check skipped on {here}; "
              f"the file was made on {RECORDED}")


def _fingerprint_in_a_process(**env):
    here = pathlib.Path(__file__).resolve().parent
    code = ("import json; from helpers import machine_fingerprint; "
            "print(json.dumps(machine_fingerprint()))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, **env,
                                  PYTHONPATH=os.pathsep.join(
                                      [str(here.parent / "src"), str(here)])))
    return json.loads(out.stdout)


def test_fingerprint_differs_with_numpy_simd_targets_disabled():
    # numpy picks its loops by the SIMD targets it dispatches to, so a
    # process that disables some of them is another machine for the bytes
    plain = _fingerprint_in_a_process()
    assert plain == machine_fingerprint()
    if plain["numpy_simd"] in ([], "unknown"):
        pytest.skip(f"numpy dispatches to no SIMD target here: {plain}")
    off = _fingerprint_in_a_process(
        NPY_DISABLE_CPU_FEATURES=" ".join(plain["numpy_simd"]))
    assert off == dict(plain, numpy_simd=[])


def test_certify_falls_back_off_the_recorded_fingerprint():
    # OpenBLAS's Haswell ddot makes this process another machine for the
    # bytes, so the check of what holds on any machine runs here too
    cores = {RECORDED["openblas_core"], machine_fingerprint()["openblas_core"]}
    if cores & {"Haswell", "unknown"}:
        pytest.skip(f"OpenBLAS core {cores} is Haswell or unreadable")
    here = pathlib.Path(__file__).resolve().parent
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-s", "-q", "-p", "no:cacheprovider",
         "tests/test_outputs.py::test_certify_report_equals_the_checked_in_file[7]"],
        cwd=here.parent, capture_output=True, text=True,
        env=dict(os.environ, OPENBLAS_CORETYPE="Haswell",
                 PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)])))
    assert out.returncode == 0, out.stdout + out.stderr
    skipped = [line for line in out.stdout.splitlines()
               if "byte check skipped" in line]
    assert len(skipped) == 1
    assert "'openblas_core': 'Haswell'" in skipped[0]
