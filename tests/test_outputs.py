"""Outputs against the files checked in under tests/outputs.

The bytes depend on the machine as well as the code: OpenBLAS picks its
``ddot`` kernel by CPU and libm comes from the host.  So the files are
compared byte for byte only where the machine's fingerprint matches the
one recorded with them; elsewhere the test checks what holds on any
machine and prints that the byte check was skipped.  The compiled and
numpy paths must agree everywhere.
"""

import json

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
