"""Tests of the benchmark's own machinery, on shrunken inputs.

    python3 -m pytest perfbench -q

The full-size versions of the coverage, exact-count and
output-equality checks run inside every ``run.py --trace 1`` call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import incgrad  # noqa: E402
import incgrad.lazy  # noqa: E402,F401
from incgrad import analysis, cli, harness, objectives, solvers  # noqa: E402

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_DATA = {"dense_logistic": {"n": 200, "d": 20},
              "l1_logistic": {"n": 200, "d": 20},
              "sparse_ridge": {"n": 200, "d": 2000, "density": 5e-3}}
SMALL_CERTIFY = ["--instances", "3", "--lemma-instances", "3",
                 "--traj-seeds", "2"]


def small(name) -> workloads.Workload:
    wl = workloads.WORKLOADS[name]
    if not wl.is_run:
        return wl
    cfg = json.loads(json.dumps(wl.config))
    cfg["dataset"]["synthetic"].update(SMALL_DATA[name])
    return dataclasses.replace(wl, config=cfg, subopt_bound=1e-3)


def call(wl, tmp_path, tracer=None):
    """One CLI call, traced when a tracer is given; returns the checked
    outcome."""
    argv, csv_path = workloads.cli_argv(wl, 3, str(tmp_path))
    if not wl.is_run:
        argv += SMALL_CERTIFY
    patches = tracing.Patches()
    if tracer is not None:
        patches.install(tracer.names, tracer.make_wrapper)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        assert patches.restore() == []
    return workloads.check_output(wl, code, out.getvalue(), csv_path)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    catalogue = tracing.per_layer_catalogue()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(name, unit, better) for name, (unit, better) in catalogue.items()]


def test_every_binding_site_is_patched_then_restored_by_identity():
    originals = {
        (harness, "run"): solvers.run,
        (incgrad, "run"): solvers.run,
        (harness, "prox_gradient_optimum"): solvers.prox_gradient_optimum,
        (analysis, "prox_gradient_optimum"): solvers.prox_gradient_optimum,
        (solvers, "scalar_loss_prox"): objectives.scalar_loss_prox,
        (incgrad.lazy, "sparse_saga_lstsq_epoch"):
            incgrad.lazy.sparse_saga_lstsq_epoch,
        (objectives.FiniteSumObjective, "full_gradient"):
            objectives.FiniteSumObjective.full_gradient,
    }
    from_dense = vars(incgrad.CscMatrix)["from_dense"]
    patches = tracing.Patches()
    patches.install(tracing.LAYERS, tracing.Tracer(tracing.LAYERS).make_wrapper)
    try:
        for (owner, attr), original in originals.items():
            assert vars(owner)[attr].__wrapped__ is original
        assert vars(incgrad.CscMatrix)["from_dense"] is not from_dense
    finally:
        assert patches.restore() == []
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original
    assert vars(incgrad.CscMatrix)["from_dense"] is from_dense
    assert all(vars(owner)[attr] is original
               for owner, attr, original in patches.saved)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracing_keeps_output_covers_layers_and_repeats_counts(name, tmp_path):
    wl = small(name)
    plain = call(wl, tmp_path)
    assert plain.problems == []
    results = []
    for repeat_id in (1, 2):
        tracer = tracing.Tracer(tracing.LAYERS, repeat_id)
        traced = call(wl, tmp_path, tracer)
        assert traced.digest == plain.digest
        results.append(tracing.layer_metrics(tracer))
    # shrunken runs need not reach the tolerance evals_to_tol is read at
    (layers, calls, _, _), (layers2, calls2, _, _) = results
    assert tracing.coverage_problems(calls, name, wl.methods) == []
    assert calls == calls2
    for metric, value in layers.items():
        if tracing.stat_of(metric) in tracing.EXACT_STATS:
            assert layers2[metric] == value, metric


def test_coverage_fails_for_a_layer_that_records_nothing(tmp_path):
    tracer = tracing.Tracer(tracing.LAYERS)
    call(small("l1_logistic"), tmp_path, tracer)
    _, calls, _, _ = tracing.layer_metrics(tracer)
    calls["objectives.Regularizer.prox"] = 0
    assert tracing.coverage_problems(calls, "l1_logistic", ("saga", "svrg")) \
        == ["objectives.Regularizer.prox recorded no call on l1_logistic"]


def test_output_checks_reject_wrong_outputs(tmp_path):
    wl = small("l1_logistic")
    good = call(wl, tmp_path)
    assert (good.failed, good.problems) == (0, [])
    csv_path = Path(workloads.cli_argv(wl, 3, str(tmp_path))[1])
    lines = csv_path.read_text().splitlines()

    def check(text, bound=wl.subopt_bound):
        csv_path.write_text(text)
        return workloads.check_output(
            dataclasses.replace(wl, subopt_bound=bound), 0, "", str(csv_path))

    assert check("\n".join(["x" + lines[0]] + lines[1:]) + "\n").problems
    assert check("\n".join(lines[:-1]) + "\n").problems
    nan = lines[-1].rsplit(",", 1)[0] + ",nan"
    assert check("\n".join(lines[:-1] + [nan]) + "\n").problems
    tight = check("\n".join(lines) + "\n", bound=1e-300)
    assert tight.failed == wl.operations() and tight.problems

    report = "\n".join(f"PASS  {p} worst=0" for p in workloads.CERTIFY_PROPERTIES)
    cert = workloads.WORKLOADS["certify"]
    assert workloads.check_output(cert, 0, report, None).failed == 0
    one_fail = report.replace("PASS  lemma_ip_bound", "FAIL  lemma_ip_bound")
    assert workloads.check_output(cert, 2, one_fail, None).failed == 1


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
