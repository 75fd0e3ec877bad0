"""Command line front end.

Subcommands: ``run`` executes a configured method comparison and writes
a trace CSV, ``certify`` runs the numerical property battery, and
``optimum`` prints the reference optimum of a configured objective.
Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from . import analysis, harness
from .errors import (
    ConfigError,
    DivergenceError,
    InconsistentReferenceError,
    OptimumError,
    ProxSolveError,
)


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error (exit 1, one line), not
    argparse's usage text with exit 2, the numerical-failure code."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    p = _Parser(prog="incgrad")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run a configured method comparison")
    pr.add_argument("--config", required=True)
    pr.add_argument("--methods", help="comma-separated override of the method list")
    pr.add_argument("--epochs", type=int)
    pr.add_argument("--seeds", help="comma-separated seed override")
    pr.add_argument("--out", help="output CSV path override")
    pr.add_argument("--sweep-steps", action="store_true",
                    help="pick each method's step size from a geometric grid")

    pc = sub.add_parser("certify", help="run the numerical property battery")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--instances", type=int, default=1000,
                    help="random problems per contraction property")
    pc.add_argument("--lemma-instances", type=int, default=1000)
    pc.add_argument("--traj-seeds", type=int, default=200)
    pc.add_argument("--skip-trajectory", action="store_true",
                    help="skip the trajectory bound-dominance check")

    po = sub.add_parser("optimum", help="print the reference optimum")
    po.add_argument("--config", required=True)
    return p


def _cmd_run(args) -> int:
    cfg = harness.ExperimentConfig.from_json(args.config)
    if args.methods:
        cfg.methods = [harness.MethodSpec.from_config(m.strip())
                       for m in args.methods.split(",") if m.strip()]
    if args.epochs is not None:
        cfg.epochs = args.epochs
    if args.seeds:
        try:
            cfg.seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError:
            raise ConfigError(
                f"--seeds takes comma-separated integers, got {args.seeds!r}"
            ) from None
    if args.out:
        cfg.out = args.out
    out = cfg.out or "traces.csv"
    parent = os.path.dirname(out) or "."
    if os.path.isdir(out) or not os.path.isdir(parent):  # before any work
        code = (errno.EISDIR if os.path.isdir(out) else
                errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT)
        raise OSError(code, os.strerror(code), out)  # as open() would
    rows = harness.run_experiment(cfg, sweep_steps=args.sweep_steps)
    harness.emit_csv(rows, out)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_certify(args) -> int:
    results = analysis.certify(
        seed=args.seed,
        instances=args.instances,
        lemma_instances=args.lemma_instances,
        traj_seeds=args.traj_seeds,
        include_trajectory=not args.skip_trajectory,
    )
    print(analysis.format_report(results))
    return 0 if all(r.passed for r in results) else 2


def _cmd_optimum(args) -> int:
    cfg = harness.ExperimentConfig.from_json(args.config)
    ds = harness.build_dataset(cfg)
    obj = harness.canonical_objective(ds, cfg)
    x_star, f_star = harness.compute_reference_optimum(obj)
    print(f"F_star = {f_star:.17g}")
    for v in x_star:
        print(f"{v:.17g}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code = {"run": _cmd_run, "certify": _cmd_certify,
                "optimum": _cmd_optimum}[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
    except BrokenPipeError:  # the reader left: not a config error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ConfigError, OSError, UnicodeDecodeError, MemoryError) as exc:
        print(f"config error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except (DivergenceError, InconsistentReferenceError, OptimumError,
            ProxSolveError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
