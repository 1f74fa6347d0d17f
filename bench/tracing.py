"""Traced in-process run of one workload, and the per-layer metrics from it.

Run as a script (with ``src`` on ``PYTHONPATH``) it imports
``spinforge.cli``, wraps the public functions listed in ``TRACED`` and runs
the workload's commands through ``spinforge.cli.main`` in one process.
Spans are kept in memory and written to ``spans.json`` when the run ends::

    PYTHONPATH=src python3 bench/tracing.py --workload clone-asym --seed 1 --workdir DIR

Each span is ``[name, start, end, parent, command, attrs]``: ``parent`` is
the index of the enclosing span (or -1), ``command`` the index of the CLI
command that caused it, and ``attrs`` the counts read from the function's
arguments or returned report.  ``derive_metrics`` turns the dump into the
per-layer metrics; ``run.py`` imports it from here.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import sys
import threading
import time
import traceback
from pathlib import Path


# The per-layer metrics as (name, unit, better).  "<function>.calls" counts
# calls, "<function>.s" sums the time of calls not nested in a call of the
# same function, and "<function>.self_s" subtracts the time covered by traced
# calls made inside it; the rest are derived in ``derive_metrics``.
PER_LAYER = (
    ("cli.main.s", "s", "lower"),
    ("numerics.propagator.calls", "count", "lower"),
    ("numerics.propagator.s", "s", "lower"),
    ("numerics.antisym_exp.calls", "count", "lower"),
    ("numerics.antisym_exp.s", "s", "lower"),
    ("numerics.eig_sym_tridiag.calls", "count", "lower"),
    ("numerics.eig_sym_tridiag.s", "s", "lower"),
    ("numerics.solve_affine.calls", "count", "lower"),
    ("numerics.solve_affine.s", "s", "lower"),
    ("pst.verify_mirror.s", "s", "lower"),
    ("ghz_ising.overlap_estimate.calls", "count", "lower"),
    ("ghz_ising.overlap_estimate.self_s", "s", "lower"),
    ("ghz_ising.perturb_sweep.s", "s", "lower"),
    ("ghz_ising.samples_per_s", "1/s", "higher"),
    ("ghz_ising.mirror_deviation.s", "s", "lower"),
    ("isoflow.interpolate_gamma.s", "s", "lower"),
    ("isoflow.interpolate_gamma.self_s", "s", "lower"),
    ("isoflow.accepted_steps", "count", "lower"),
    ("isoflow.direction_solves", "count", "lower"),
    ("isoflow.accept_ratio", "ratio", "higher"),
    ("isoflow.zy_ghz_overlap.s", "s", "lower"),
    ("synthesis.wstate_chain.s", "s", "lower"),
    ("synthesis.synthesis_flow_nullvector.calls", "count", "lower"),
    ("synthesis.synthesis_flow_nullvector.s", "s", "lower"),
    ("synthesis.synthesis_flow_nullvector.self_s", "s", "lower"),
    ("synthesis.flows_converged", "count", "higher"),
    ("synthesis.converged_ratio", "ratio", "higher"),
    ("synthesis.iterations", "count", "lower"),
    ("synthesis.polish_null_vector_root.calls", "count", "lower"),
    ("synthesis.polish_null_vector_root.s", "s", "lower"),
    ("synthesis.zero_mode.calls", "count", "lower"),
    ("synthesis.zero_mode.s", "s", "lower"),
    ("synthesis.produced_state.calls", "count", "lower"),
    ("cloning.design_w_chain.s", "s", "lower"),
    ("cloning.clone_report.s", "s", "lower"),
    ("cloning.clone_report.self_s", "s", "lower"),
    ("cloning.brute_force_pipeline.calls", "count", "lower"),
    ("cloning.brute_force_pipeline.s", "s", "lower"),
    ("cloning.exchange_evolve_dense.s", "s", "lower"),
    ("chainio.write_document.s", "s", "lower"),
    ("chainio.read_document.s", "s", "lower"),
    ("chainio.bytes_out", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


# Public functions whose calls are timed, as "module.function": every one
# that a per-layer metric names by count or time.  Each is replaced wherever
# a spinforge module looks it up by name.
TRACED = tuple(dict.fromkeys(
    name.rsplit(".", 1)[0] for name, _, _ in PER_LAYER
    if name.rsplit(".", 1)[1] in ("calls", "s", "self_s")))


def _flow_attrs(args, kwargs, result):
    report = result[1]
    return {"converged": report.status == "converged", "iterations": int(report.iterations)}


def _sweep_attrs(args, kwargs, result):
    samples = args[2] if len(args) > 2 else kwargs["samples"]
    return {"samples": int(samples)}


def _write_attrs(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# Counts taken from a call once it has returned, outside its span.
ATTRS = {
    "synthesis.synthesis_flow_nullvector": _flow_attrs,
    "ghz_ising.perturb_sweep": _sweep_attrs,
    "chainio.write_document": _write_attrs,
}


class Tracer:
    """In-memory span recorder; one parent stack per thread."""

    def __init__(self):
        self.spans = []
        self.command = -1
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name, func):
        attrs_of = ATTRS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command, None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if attrs_of is not None:
                record[5] = attrs_of(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        return traced

    @staticmethod
    def span_cost(calls: int = 50_000) -> float:
        """Seconds one span adds to a call: a wrapped no-op timed against
        the bare no-op.  Tracing overhead is this times the span count; a
        difference of a traced and an untraced pass measures mostly the
        first pass's warm-up and the machine's noise instead."""
        def noop():
            return None

        wrapped = Tracer().wrap("calibration", noop)
        timings = []
        for func in (noop, wrapped, noop, wrapped):
            start = time.perf_counter()
            for _ in range(calls):
                func()
            timings.append(time.perf_counter() - start)
        return max(min(timings[1::2]) - min(timings[0::2]), 0.0) / calls

    def install(self):
        """Replace every traced function in its module and in each spinforge
        module that imported it by name."""
        modules = [m for n, m in sys.modules.items() if n == "spinforge" or n.startswith("spinforge.")]
        for name in TRACED:
            module_name, func_name = name.split(".")
            original = getattr(importlib.import_module(f"spinforge.{module_name}"), func_name)
            wrapper = self.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


# ---------------------------------------------------------------------------
# metrics from a span dump


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def derive_metrics(spans, accepted_steps: int) -> dict:
    """Per-layer metrics from spans; ``accepted_steps`` comes from the gamma
    trace CSVs the run wrote."""
    children = [[] for _ in spans]
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append(span)

    def has_ancestor(span, name) -> bool:
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    calls, total, self_time = {}, {}, {}
    for index, span in enumerate(spans):
        name, duration = span[0], span[2] - span[1]
        calls[name] = calls.get(name, 0) + 1
        if not has_ancestor(span, name):
            total[name] = total.get(name, 0.0) + duration
        own = duration - _covered([(c[1], c[2]) for c in children[index]])
        self_time[name] = self_time.get(name, 0.0) + own

    def attrs(name, key):
        return sum(s[5][key] for s in spans if s[0] == name and s[5])

    flows = calls.get("synthesis.synthesis_flow_nullvector", 0)
    converged = attrs("synthesis.synthesis_flow_nullvector", "converged")
    sweep_s = total.get("ghz_ising.perturb_sweep", 0.0)
    solves = sum(1 for s in spans if s[0] == "numerics.solve_affine"
                 and has_ancestor(s, "isoflow.interpolate_gamma"))
    derived = {
        "ghz_ising.samples_per_s": attrs("ghz_ising.perturb_sweep", "samples") / sweep_s if sweep_s else 0.0,
        "isoflow.accepted_steps": accepted_steps,
        "isoflow.direction_solves": solves,
        "isoflow.accept_ratio": accepted_steps / solves if solves else 0.0,
        "synthesis.flows_converged": converged,
        "synthesis.converged_ratio": converged / flows if flows else 0.0,
        "synthesis.iterations": attrs("synthesis.synthesis_flow_nullvector", "iterations"),
        "chainio.bytes_out": attrs("chainio.write_document", "bytes"),
    }
    metrics = {}
    for name, _, _ in PER_LAYER:
        if name in derived:
            metrics[name] = derived[name]
        elif name != "trace.overhead_s":
            function, kind = name.rsplit(".", 1)
            metrics[name] = {"calls": calls, "s": total, "self_s": self_time}[kind].get(function, 0)
    return metrics


# ---------------------------------------------------------------------------
# the traced child process


def _run_pass(commands, seed: int, workdir: Path, tracer) -> list:
    """Run every command through spinforge.cli.main inside ``workdir`` and
    return the exit codes; a command that raises counts as exit code -1."""
    import spinforge.cli

    workdir.mkdir(parents=True, exist_ok=True)
    codes = []
    cwd = os.getcwd()
    os.chdir(workdir)
    sink = io.StringIO()
    try:
        for index, command in enumerate(commands):
            tracer.command = index
            with contextlib.redirect_stderr(sink):
                try:
                    codes.append(spinforge.cli.main(list(command.argv) + ["--seed", str(seed)]))
                except Exception:  # a crashing command is a failed one; keep tracing the rest
                    traceback.print_exc()
                    codes.append(-1)
    finally:
        os.chdir(cwd)
    (workdir / "stderr.txt").write_text(sink.getvalue())
    return codes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    from workloads import WORKLOADS

    import spinforge.cli  # noqa: F401  -- every module loaded before wrapping

    tracer = Tracer()
    tracer.install()
    codes = _run_pass(WORKLOADS[args.workload], args.seed, args.workdir / "traced", tracer)
    dump = {"codes": codes, "span_cost_s": Tracer.span_cost(),
            "fields": ["name", "start", "end", "parent", "command", "attrs"],
            "spans": tracer.spans}
    (args.workdir / "spans.json").write_text(json.dumps(dump))
    return 0


if __name__ == "__main__":
    sys.exit(main())
