"""One repeat of one workload, in a fresh process.

    python3 perfbench/repeat.py --workload NAME --seed N --work DIR
                                [--mode plain|trace|memory]
                                [--repeat-id K] [--spans FILE]

Imports ``incgrad`` from the checkout's ``src``, calls the CLI once with
the workload's arguments, checks the output and prints one JSON object.
Two runs of the workload's calibration loop, around the call, give the
machine's slowdown against the reference speed.

* ``plain``: only ``solvers.run`` is wrapped, to time the solver runs
  and read their gradient-evaluation counts (at most a few hundred
  calls); this gives the end-to-end metrics.
* ``trace``: every layer in ``tracing.LAYERS`` is wrapped and its spans
  are kept in memory, then written once to ``--spans``.
* ``memory``: the coarse layers report their tracemalloc peak.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def interpreter_loop() -> float:
    """Seconds for 20,000 tiny dot products and updates: the interpreter
    work and small numpy calls of a solver step."""
    import numpy as np

    a = np.linspace(-1.0, 1.0, 100)
    x = np.zeros(100)
    t0 = time.perf_counter()
    for _ in range(20_000):
        x -= 1e-3 * (float(a @ x) - 1.0) * a
    return time.perf_counter() - t0


def memory_loop() -> float:
    """Seconds for 8 products with a 48 MB matrix: the traffic of the
    dense (600, 10000) products ``sparse_ridge`` makes."""
    import numpy as np

    m = np.full((600, 10_000), 0.5)
    v = np.ones(600)
    t0 = time.perf_counter()
    for _ in range(8):
        m.T @ v
    return time.perf_counter() - t0


# calibration loop and its time at the reference machine speed; neither
# runs incgrad code, so only the machine moves them
CALIBRATIONS = {"interpreter": (interpreter_loop, 0.040),
                "memory": (memory_loop, 0.032)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--mode", choices=("plain", "trace", "memory"), default="plain")
    p.add_argument("--repeat-id", type=int, default=0)
    p.add_argument("--spans")
    args = p.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from incgrad import cli
    import_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"incgrad was imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    cli_args, csv_path = workloads.cli_argv(wl, args.seed, args.work)
    patches = tracing.Patches()
    if args.mode == "trace":
        import incgrad.lazy  # noqa: F401  (run() imports it at call time)
        probe = tracing.Tracer(tracing.LAYERS, args.repeat_id)
        patches.install(tracing.LAYERS, probe.make_wrapper)
    elif args.mode == "memory":
        probe = tracing.MemoryProbe()
        patches.install(tracing.MEMORY_SPANS, probe.make_wrapper)
    else:
        probe = tracing.Tracer(["solvers.run"])
        patches.install(["solvers.run"], probe.make_wrapper)

    loop, reference_s = CALIBRATIONS[wl.calibration]
    # the memory loop allocates 48 MB, so it runs only after the call's
    # peak RSS has been read
    calibration = [] if wl.calibration == "memory" else [loop()]
    captured = io.StringIO()
    try:
        start_ns = time.perf_counter_ns()
        with contextlib.redirect_stdout(captured):
            code = cli.main(cli_args)
        wall_s = (time.perf_counter_ns() - start_ns) / 1e9
    finally:
        unrestored = patches.restore()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calibration += [loop() for _ in range(2 - len(calibration))]
    outcome = workloads.check_output(wl, code, captured.getvalue(), csv_path)
    problems = list(outcome.problems)
    if unrestored:
        problems.append(f"patched attributes not restored: {unrestored}")
    result = {
        "wall_s": wall_s,
        "slowdown": statistics.fmean(calibration) / reference_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": outcome.digest,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
    }
    if args.mode == "plain":
        totals = tracing.run_totals(probe)
        if wl.is_run:
            first = totals["first_run_ns"]
            result["setup_s"] = wall_s if first is None else (first - start_ns) / 1e9
        else:
            # certify builds its instances inside the call; its set-up
            # is the package import the command pays before it starts
            result["setup_s"] = import_s
        result["grad_evals_per_s"] = (totals["grad_evals"] / totals["solver_s"]
                                      if totals["solver_s"] else 0.0)
    elif args.mode == "trace":
        layers, calls, self_s, tol_problems = tracing.layer_metrics(probe)
        problems += tol_problems
        result.update(layers=layers, calls=calls, self_s=self_s)
        if args.spans:
            probe.write(args.spans)
    else:
        result["layers"] = probe.metrics()
    result["problems"] = problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
