"""Benchmark of the ``incgrad`` CLI: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see ``workloads.py``): dense_logistic, l1_logistic,
sparse_ridge and certify.  ``--seed`` is the dataset seed (the
``certify`` seed for that workload).  Every repeat runs in a fresh
process, single-threaded BLAS, from the checkout's ``src``.

``--trace 0`` runs repeats until ``--seconds`` have passed (at least
two repeats) and reports the medians of the end-to-end metrics.  The
machine's speed drifts by up to 2x over minutes on shared hosts, so
each repeat also times a fixed calibration loop in its own process
next to the call, and its times are rescaled to the reference speed
at which that loop takes a fixed time (see ``repeat.CALIBRATIONS``);
the measured medians are printed as well.

``--trace 1`` runs one untraced repeat, two traced repeats and one
tracemalloc repeat, and reports the per-layer metrics; it fails if
traced and untraced outputs differ, if an exact count differs between
the traced repeats, or if a layer records no call on a workload that
must reach it.  Span logs go to ``.perfbench-out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
END_TO_END = {"wall_s": "s", "setup_s": "s", "grad_evals_per_s": "1/s",
              "peak_rss_mb": "MB"}
MIN_REPEATS = 2
TIME_LIMIT_S = 170.0  # a run must end within 180 s
BLAS_THREADS = "1"


def run_repeat(wl, seed, mode, work, deadline, repeat_id=0, spans=None):
    """One repeat in a fresh process; a failed process fails every
    operation of the repeat."""
    cmd = [sys.executable, str(HERE / "repeat.py"), "--workload", wl.name,
           "--seed", str(seed), "--work", work, "--mode", mode,
           "--repeat-id", str(repeat_id)]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        detail = "timed out"
    else:
        if proc.returncode == 0:
            result = json.loads(proc.stdout.splitlines()[-1])
            result["elapsed"] = time.monotonic() - t0
            return result
        detail = f"exited {proc.returncode}: {proc.stderr.strip()[-600:]}"
    ops = wl.operations()
    return {"attempted": ops, "failed": ops, "digest": None,
            "elapsed": time.monotonic() - t0,
            "problems": [f"{mode} repeat {repeat_id}: {detail}"]}


def at_reference_speed(rep) -> dict:
    """End-to-end metrics of one untraced repeat, times rescaled to the
    reference speed."""
    k = rep["slowdown"]
    return {"wall_s": rep["wall_s"] / k, "setup_s": rep["setup_s"] / k,
            "grad_evals_per_s": rep["grad_evals_per_s"] * k,
            "peak_rss_mb": rep["peak_rss_mb"]}


def timed_run(wl, seed, seconds, work, deadline):
    """Untraced repeats; medians of the end-to-end metrics at the
    reference speed."""
    start = time.monotonic()
    repeats = []
    while True:
        rep = run_repeat(wl, seed, "plain", work, deadline, len(repeats))
        repeats.append(rep)
        if "wall_s" not in rep:
            break
        now = time.monotonic()
        if len(repeats) >= MIN_REPEATS and now - start >= seconds:
            break
        if now + rep["elapsed"] > deadline:
            break
    scaled = [at_reference_speed(r) for r in repeats if "wall_s" in r]
    metrics = {name: statistics.median(r[name] for r in scaled)
               for name in END_TO_END} if scaled else {}
    return repeats, metrics


def traced_run(wl, seed, work, deadline):
    """Untraced, two traced and one tracemalloc repeat; per-layer metrics."""
    OUT_DIR.mkdir(exist_ok=True)
    plain = run_repeat(wl, seed, "plain", work, deadline)
    traced = [run_repeat(wl, seed, "trace", work, deadline, k,
                         str(OUT_DIR / f"spans-{wl.name}-seed{seed}-r{k}.csv.gz"))
              for k in (1, 2)]
    memory = run_repeat(wl, seed, "memory", work, deadline, 3)
    repeats = [plain, *traced, memory]
    if not all("wall_s" in r for r in repeats):
        return repeats, {}, []
    problems = []
    for name in traced[0]["layers"]:
        values = [t["layers"][name] for t in traced]
        if tracing.stat_of(name) in tracing.EXACT_STATS and values[0] != values[1]:
            problems.append(f"{name} differs between traced repeats: {values}")
    if traced[0]["calls"] != traced[1]["calls"]:
        problems.append("span call counts differ between traced repeats")
    problems += tracing.coverage_problems(traced[0]["calls"], wl.name,
                                          wl.methods)
    metrics = {}
    for name in tracing.per_layer_catalogue():
        if name == "trace.overhead_s":
            metrics[name] = (
                statistics.median(t["wall_s"] / t["slowdown"] for t in traced)
                - plain["wall_s"] / plain["slowdown"])
        elif name in memory["layers"]:
            metrics[name] = memory["layers"][name]
        elif tracing.stat_of(name) in tracing.EXACT_STATS:
            metrics[name] = traced[0]["layers"][name]
        elif name in traced[0]["layers"]:
            metrics[name] = statistics.median(t["layers"][name] for t in traced)
        else:
            problems.append(f"traced run did not report {name}")
    return repeats, metrics, problems


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "incgrad" / "cli.py").is_file():
        print(f"no incgrad sources under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as work:
        if args.trace:
            repeats, metrics, problems = traced_run(wl, args.seed, work, deadline)
            units = {k: u for k, (u, _) in tracing.per_layer_catalogue().items()}
        else:
            repeats, metrics = timed_run(wl, args.seed, args.seconds, work, deadline)
            problems, units = [], END_TO_END

    for rep in repeats:
        problems += rep["problems"]
    digests = {rep["digest"] for rep in repeats}
    if len(digests) != 1:
        problems.append(f"output differs between repeats: {len(digests)} digests")
    attempted = sum(rep["attempted"] for rep in repeats)
    failed = sum(rep["failed"] for rep in repeats)
    if len(metrics) != len(units):
        problems.append("not every metric was measured")

    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}, "
          f"{len(repeats)} repeats of "
          + ", ".join(f"{rep['elapsed']:.1f}" for rep in repeats) + " s")
    print("env " + json.dumps(environment()))
    measured = [r for r in repeats if "slowdown" in r]
    if measured and not args.trace:
        print("measured medians before rescaling: " + ", ".join(
            f"{name} {statistics.median(r[name] for r in measured):.6g}"
            for name in ("wall_s", "setup_s", "grad_evals_per_s", "slowdown")))
    for name, value in metrics.items():
        print(f"  {name:58s} {value:>16.6g} {units[name]}")
    print(f"  {'error_rate':58s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    if args.trace and "self_s" in repeats[1]:
        print("self time of each span, first traced repeat:")
        for span, secs in sorted(repeats[1]["self_s"].items(),
                                 key=lambda kv: -kv[1]):
            print(f"  {span:58s} {secs:>16.6g} s")
    for problem in problems:
        print(f"FAIL {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
