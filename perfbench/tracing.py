"""Layer catalogue, span tracer and the patches that install it.

Nothing is traced inside the program: each public function named in
``LAYERS`` is replaced, from outside, at every attribute of the
``incgrad`` modules that holds it (the defining module and every module
that imported it by name), or at its class for methods.  Functions the
program imports at call time read the patched module attribute.  The
originals are put back afterwards and checked by identity.

Each layer lists the workloads on which it must record at least one
call, so a wrapper patched at the wrong name fails the run instead of
reading 0, and which end-to-end metric its numbers should move.
"""

from __future__ import annotations

import gzip
import math
import sys
import time
import tracemalloc
from array import array

import workloads

ALL_WORKLOADS = tuple(workloads.WORKLOADS)
RUN_WORKLOADS = tuple(w for w in ALL_WORKLOADS if workloads.WORKLOADS[w].is_run)
METHODS = workloads.ALL_METHODS
TOL_SUBOPT = 1e-4

# span name: (stats reported, workloads that must call it, what it moves)
LAYERS = {
    "harness.build_dataset": (
        ("s", "peak_mb"), RUN_WORKLOADS,
        "setup_s and peak_rss_mb on sparse_ridge (about 0 elsewhere)"),
    "harness.compute_reference_optimum": (
        ("s", "peak_mb"), RUN_WORKLOADS,
        "setup_s on l1_logistic and sparse_ridge; small on dense_logistic"),
    "harness.emit_csv": (
        ("s",), RUN_WORKLOADS, "wall_s on all run workloads"),
    "datasets.generate_synthetic": (
        ("s",), ALL_WORKLOADS, "setup_s and peak_rss_mb on sparse_ridge"),
    "cscmat.CscMatrix.to_dense": (
        ("s",), ALL_WORKLOADS, "setup_s and peak_rss_mb on sparse_ridge"),
    "cscmat.CscMatrix.from_dense": (
        ("calls", "s"), ALL_WORKLOADS,
        "setup_s on sparse_ridge; wall_s on certify"),
    "objectives.FiniteSumObjective.component_gradient": (
        ("calls", "us_per_call"), ("dense_logistic", "l1_logistic", "certify"),
        "grad_evals_per_s on dense_logistic; wall_s on certify"),
    "objectives.FiniteSumObjective.full_gradient": (
        ("calls", "us_per_call"), ALL_WORKLOADS,
        "setup_s on l1_logistic and sparse_ridge; wall_s on certify"),
    "objectives.FiniteSumObjective.value": (
        ("calls", "s", "share"), ALL_WORKLOADS,
        "wall_s through trace rows, most on sparse_ridge"),
    "objectives.scalar_loss_prox": (
        ("calls", "us_per_call"), ("dense_logistic",),
        "grad_evals_per_s on dense_logistic"),
    "objectives.Regularizer.prox": (
        ("calls", "us_per_call"), ("l1_logistic",),
        "grad_evals_per_s and setup_s on l1_logistic only"),
    "solvers.run": (
        ("s", "steps_per_s", "evals_to_tol", "peak_mb"), ALL_WORKLOADS,
        "grad_evals_per_s per method; wall_s on certify (201 saga runs)"),
    "solvers.GradientTable.update": (
        ("calls", "us_per_call"), ALL_WORKLOADS,
        "grad_evals_per_s on dense_logistic"),
    "solvers.GradientTable.resync": (
        ("calls", "s", "max_drift"), ALL_WORKLOADS,
        "wall_s on dense_logistic"),
    "solvers.prox_gradient_optimum": (
        ("calls", "s", "full_gradients"), ALL_WORKLOADS,
        "setup_s on l1_logistic; wall_s on certify"),
    "lazy.sparse_saga_lstsq_epoch": (
        ("s",), ("sparse_ridge",), "grad_evals_per_s on sparse_ridge only"),
    "lazy.lagged_update": (
        ("calls", "us_per_call"), ("sparse_ridge",),
        "grad_evals_per_s on sparse_ridge only"),
    "lazy.flush_lags": (
        ("calls", "s"), ("sparse_ridge",), "wall_s on sparse_ridge"),
    "lazy.build_lag_scaling": (
        ("bytes",), ("sparse_ridge",), "peak_rss_mb on sparse_ridge"),
    "analysis.random_strongly_convex_objective": (
        ("s",), ("certify",), "wall_s on certify only"),
    "analysis.expected_lyapunov_next": (
        ("s",), ("certify",), "wall_s on certify only"),
    "analysis.lyapunov_value": (
        ("s",), ("certify",), "wall_s on certify only"),
    "analysis.lemma_gap": (
        ("calls", "s"), ("certify",), "wall_s on certify only"),
    "analysis.bound_value": (
        ("s",), ("certify",), "wall_s on certify only"),
}

# stat: (unit, better)
STATS = {
    "s": ("s", "lower"),
    "calls": ("count", "lower"),
    "us_per_call": ("us", "lower"),
    "share": ("ratio", "lower"),
    "full_gradients": ("count", "lower"),
    "max_drift": ("norm", "lower"),
    "bytes": ("B", "lower"),
    "peak_mb": ("MB", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "evals_to_tol": ("evals/n", "lower"),
    "touches_per_step": ("touches/step", "lower"),
    "overhead_s": ("s", "lower"),
}
# counts that must repeat exactly across repeats at one seed
EXACT_STATS = ("calls", "full_gradients", "evals_to_tol", "touches_per_step",
               "bytes")


def per_layer_catalogue() -> dict:
    """Every per-layer metric name mapped to (unit, better)."""
    out = {}
    for span, (stats, _, _) in LAYERS.items():
        prefixes = ([f"{span}.{m}" for m in METHODS] if span == "solvers.run"
                    else [span])
        for stat in stats:
            for prefix in prefixes:
                out[f"{prefix}.{stat}"] = STATS[stat]
    out["lazy.touches_per_step"] = STATS["touches_per_step"]
    out["trace.overhead_s"] = STATS["overhead_s"]
    return out


def stat_of(metric: str) -> str:
    return metric.rsplit(".", 1)[1]


# ---------------------------------------------------------------------------
# patching

def _resolve(span):
    """(owner, attribute, original) for the definition of a span name."""
    parts = span.split(".")
    owner = sys.modules["incgrad." + parts[0]]
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], vars(owner)[parts[-1]]


def binding_sites(span):
    """Every (owner, attribute) through which the program reaches a layer."""
    owner, attr, original = _resolve(span)
    if isinstance(owner, type):
        return [(owner, attr)], original
    sites = []
    for name, mod in sorted(sys.modules.items()):
        if name == "incgrad" or name.startswith("incgrad."):
            sites += [(mod, a) for a, v in sorted(vars(mod).items())
                      if v is original]
    return sites, original


class Patches:
    """Attribute replacements, undone in reverse order by ``restore``."""

    def __init__(self):
        self.saved = []

    def install(self, spans, make_wrapper):
        for span in spans:
            sites, original = binding_sites(span)
            if isinstance(original, classmethod):
                wrapped = classmethod(make_wrapper(span, original.__func__))
            else:
                wrapped = make_wrapper(span, original)
            for owner, attr in sites:
                self.saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapped)

    def restore(self) -> list:
        """Put the originals back; returns the sites that did not restore."""
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self.saved
                if vars(owner)[attr] is not original]


# ---------------------------------------------------------------------------
# span tracer

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _observe_run(args, kwargs, result):
    method, obj = _arg(args, kwargs, 0, "method"), _arg(args, kwargs, 1, "obj")
    to_tol = next((r.grad_evals / obj.n for r in result.records
                   if r.subopt is not None and r.subopt <= TOL_SUBOPT), None)
    steps = result.records[-1].k if result.records else 0
    return method, steps, result.grad_evals, to_tol


def _observe_resync(args, kwargs, drift):
    return drift


def _observe_scaling(args, kwargs, table):
    return table.entries.nbytes


def _observe_epoch(args, kwargs, result):
    it = _arg(args, kwargs, 2, "it")
    return it.touches / it.k


OBSERVERS = {
    "solvers.run": _observe_run,
    "solvers.GradientTable.resync": _observe_resync,
    "lazy.build_lag_scaling": _observe_scaling,
    "lazy.sparse_saga_lstsq_epoch": _observe_epoch,
}


class Tracer:
    """Spans kept in flat arrays: name, parent, start and end per span.

    A span's parent is the innermost span open when it started, so
    parents always have smaller ids than their children.  ``notes``
    holds what an observer read from the arguments or result of a span
    that returned.
    """

    def __init__(self, spans, repeat_id=0):
        self.names = list(spans)
        self.repeat_id = repeat_id
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.notes = {}

    def make_wrapper(self, span, fn):
        name_id = self.names.index(span)
        observe = OBSERVERS.get(span)
        clock = time.perf_counter_ns
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, notes = self.stack, self.notes

        def wrapper(*args, **kwargs):
            sid = len(name)
            name.append(name_id)
            parent.append(stack[-1])
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                notes[sid] = observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def spans_of(self, span, noted=False):
        """Ids of every span with this name; with ``noted``, only those
        an observer recorded."""
        nid = self.names.index(span)
        return [i for i, v in enumerate(self.name)
                if v == nid and (not noted or i in self.notes)]

    def write(self, path):
        """Write every span once, as gzip'd CSV."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("repeat,span,parent,name,start_ns,end_ns\n")
            names = self.names
            fh.writelines(
                f"{self.repeat_id},{i},{p},{names[n]},{s},{e}\n"
                for i, (n, p, s, e) in enumerate(
                    zip(self.name, self.parent, self.start, self.end)))

    def summary(self) -> dict:
        """Calls, inclusive and self seconds of every span name, plus
        the nested counts the layer metrics need."""
        n = len(self.name)
        child_ns = [0] * n
        inside_run = bytearray(n)
        inside_opt = bytearray(n)
        run_id = self.names.index("solvers.run") if "solvers.run" in self.names else -2
        opt_id = (self.names.index("solvers.prox_gradient_optimum")
                  if "solvers.prox_gradient_optimum" in self.names else -2)
        per = {s: [0, 0, 0] for s in self.names}  # calls, total_ns, self_ns
        durations = [e - s for s, e in zip(self.start, self.end)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += durations[i]
                inside_run[i] = inside_run[p] or self.name[p] == run_id
                inside_opt[i] = inside_opt[p] or self.name[p] == opt_id
        for i in range(n):
            stat = per[self.names[self.name[i]]]
            stat[0] += 1
            stat[1] += durations[i]
            stat[2] += durations[i] - child_ns[i]
        return {"per": per, "durations": durations,
                "inside_run": inside_run, "inside_opt": inside_opt}


def layer_metrics(tracer: Tracer) -> tuple[dict, dict, list]:
    """Per-layer metrics of one traced repeat, the calls recorded per
    span (per method for ``solvers.run``), the self seconds per span,
    and runs that never reached the tolerance ``evals_to_tol`` is read
    at."""
    summ = tracer.summary()
    per, durations = summ["per"], summ["durations"]
    out, problems = {}, []
    calls = {span: c for span, (c, _, _) in per.items()}
    for span, (stats, _, _) in LAYERS.items():
        count, total_ns, _ = per[span]
        for stat in stats:
            key = f"{span}.{stat}"
            if stat == "calls":
                out[key] = count
            elif stat == "s":
                out[key] = total_ns / 1e9
            elif stat == "us_per_call":
                out[key] = total_ns / 1e3 / count if count else 0.0
            elif stat == "max_drift":
                out[key] = max((tracer.notes[i]
                                for i in tracer.spans_of(span, noted=True)),
                               default=0.0)
            elif stat == "bytes":
                out[key] = max((tracer.notes[i]
                                for i in tracer.spans_of(span, noted=True)),
                               default=0)
    value_ids = tracer.spans_of("objectives.FiniteSumObjective.value")
    run_ids = tracer.spans_of("solvers.run", noted=True)
    run_ns = sum(durations[i] for i in run_ids)
    value_in_run = sum(durations[i] for i in value_ids if summ["inside_run"][i])
    out["objectives.FiniteSumObjective.value.share"] = (
        value_in_run / run_ns if run_ns else 0.0)
    out["solvers.prox_gradient_optimum.full_gradients"] = sum(
        1 for i in tracer.spans_of("objectives.FiniteSumObjective.full_gradient")
        if summ["inside_opt"][i])
    epochs = tracer.spans_of("lazy.sparse_saga_lstsq_epoch", noted=True)
    out["lazy.touches_per_step"] = tracer.notes[epochs[-1]] if epochs else 0.0
    for method in METHODS:
        ids = [i for i in run_ids if tracer.notes[i][0] == method]
        secs = sum(durations[i] for i in ids) / 1e9
        steps = sum(tracer.notes[i][1] for i in ids)
        calls[f"solvers.run.{method}"] = len(ids)
        to_tol = [tracer.notes[i][3] for i in ids]
        if None in to_tol:
            problems.append(f"a {method} run never reached suboptimality "
                            f"{TOL_SUBOPT:g}")
            to_tol = [v for v in to_tol if v is not None]
        base = f"solvers.run.{method}"
        out[f"{base}.s"] = secs
        out[f"{base}.steps_per_s"] = steps / secs if secs else 0.0
        out[f"{base}.evals_to_tol"] = (math.fsum(to_tol) / len(to_tol)
                                       if to_tol else 0.0)
    self_s = {span: self_ns / 1e9 for span, (_, _, self_ns) in per.items()}
    return out, calls, self_s, problems


def run_totals(tracer: Tracer) -> dict:
    """Phase figures the end-to-end metrics need from the run spans."""
    ids = tracer.spans_of("solvers.run", noted=True)
    return {
        "first_run_ns": tracer.start[ids[0]] if ids else None,
        "solver_s": sum(tracer.end[i] - tracer.start[i] for i in ids) / 1e9,
        "grad_evals": math.fsum(tracer.notes[i][2] for i in ids),
    }


def coverage_problems(calls: dict, workload: str, methods) -> list:
    """Layers that recorded no call on a workload that must reach them."""
    spans = [span for span, (_, where, _) in LAYERS.items()
             if workload in where and span != "solvers.run"]
    spans += [f"solvers.run.{method}" for method in methods]
    return [f"{span} recorded no call on {workload}"
            for span in spans if calls.get(span, 0) == 0]


# ---------------------------------------------------------------------------
# tracemalloc pass

MEMORY_SPANS = ("harness.build_dataset", "harness.compute_reference_optimum",
                "solvers.run")


class MemoryProbe:
    """Peak traced allocation inside each probed call, per call site.

    tracemalloc runs only while a probed call is open, so the rest of
    the program runs at full speed; the probed functions never nest in
    one another.
    """

    def __init__(self):
        self.peaks = {}

    def make_wrapper(self, span, fn):
        peaks = self.peaks

        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                key = span
                if span == "solvers.run":
                    key = f"{span}.{_arg(args, kwargs, 0, 'method')}"
                peaks[key] = max(peaks.get(key, 0.0), peak)

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self) -> dict:
        out = {f"{span}.peak_mb": self.peaks.get(span, 0.0)
               for span in MEMORY_SPANS if span != "solvers.run"}
        for method in METHODS:
            out[f"solvers.run.{method}.peak_mb"] = self.peaks.get(
                f"solvers.run.{method}", 0.0)
        return out

