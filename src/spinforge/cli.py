"""Command-line drivers for chain design and simulation.

Two command families: ``design`` writes chain documents (plus a
convergence trace CSV) and ``simulate`` consumes them to produce report
JSON and sweep CSV files.  All randomness derives from one ``--seed``
through counter-based splitting, so any command re-run with identical
flags produces byte-identical outputs.  Exit codes: 0 success, 1 usage
error (an input too large to allocate included), 2 a failed design (trace
still written), 3 tolerance breach (the message names the failing stage).
A tolerance flag only accepts or refuses a finished result and moves no
computation, so a looser tolerance never yields a different output.

Handlers catch nothing, write nothing and print nothing.  A design handler
returns its document and its trace, a simulate handler the text of its
report.  Every failed design, in the library or in a handler's own check,
raises ``numerics.FlowStallError`` with a message that names the flow or
check, and a finished result that misses a stage's tolerance raises
``numerics.StageBreachError``, which may carry the report to write anyway.
``main`` alone writes every file and maps each error to its exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import THREAD_VARIABLES

# One BLAS thread unless the caller chose a count, and only when this import
# loads numpy.  Every matrix a command factors is small (no side above 25 on
# the benchmark's paths, 520 x 520 for `design pst --n 1040`), so a second
# OpenBLAS thread only spin-waits: on 2 cores it added about a third to each
# command's CPU time (clone-asym cpu_s 1.6 s -> 1.0 s at one thread) and
# saved no wall time.
if "numpy" not in sys.modules and not any(v in os.environ for v in THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import chainio
from .cloning import (
    BRUTE_FORCE_MAX_M,
    clone_report,
    design_w_chain,
    ghz_helper_chain,
    profile_from_betas,
    symmetric_profile,
)
from .ghz_ising import (
    GHZ_TIME,
    mirror_deviation,
    overlap_estimate,
    perturb_sweep,
)
from .isoflow import interpolate_gamma, zy_ghz_overlap
from .numerics import Chain, FlowStallError, FlowTrace, StageBreachError
from .pst import standard_couplings, verify_mirror
from .synthesis import wstate_chain

USAGE_ERROR, STALL, BREACH = 1, 2, 3
# Most rows one sweep writes; a longer range is refused before it is listed.
SWEEP_MAX_POINTS = 100_000


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def tolerance(text: str) -> float:
    """Value of a tolerance flag: a finite number above zero."""
    if not 0.0 < float(text) < np.inf:
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and positive, got {text}")
    return float(text)


def _seed(text: str) -> int:
    """Value of --seed: an integer of at least zero, as the random streams need."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"seed must be zero or more, got {text}")
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="spinforge")
    top = parser.add_subparsers(dest="family", required=True)

    design = top.add_parser("design", help="write chain documents")
    dsub = design.add_subparsers(dest="command", required=True)

    pst = dsub.add_parser("pst", help="mirror-transfer couplings")
    pst.add_argument("--n", type=int, required=True)
    pst.add_argument("--tol", type=tolerance, default=1e-9)

    gamma = dsub.add_parser("gamma", help="deformed-family interpolation")
    gamma.add_argument("--n", type=int, required=True)
    gamma.add_argument("--from", dest="gamma_from", type=float, required=True)
    gamma.add_argument("--to", dest="gamma_to", type=float, required=True)
    gamma.add_argument("--max-steps", type=int, default=1000)

    wstate = dsub.add_parser("wstate", help="uniform odd-site revival chain")
    wstate.add_argument("--n", type=int, required=True)
    wstate.add_argument("--tol", type=tolerance, default=1e-6)
    wstate.add_argument("--budget", type=int, default=100_000)

    simulate = top.add_parser("simulate", help="run chains and write reports")
    ssub = simulate.add_subparsers(dest="command", required=True)

    ghz = ssub.add_parser("ghz", help="evaluate a chain's GHZ overlap")
    ghz.add_argument("--chain", required=True)
    ghz.add_argument("--check", action="store_true",
                     help="also verify the mirror transfer condition")
    ghz.add_argument("--tol", type=tolerance, default=1e-9)

    sweep = ssub.add_parser("sweep", help="disorder sweep of the GHZ overlap")
    sweep.add_argument("--n", type=int, required=True)
    sweep.add_argument("--x", required=True,
                       help="perturbation percents, 'from:to:step' or one value")
    sweep.add_argument("--samples", type=int, required=True)

    clone = ssub.add_parser("clone", help="design and score a cloning pipeline")
    clone.add_argument("--n-clones", dest="n_clones", type=int, required=True)
    clone.add_argument("--profile", default="symmetric",
                       help="'symmetric' or comma-separated weights")
    clone.add_argument("--method", choices=("compressed", "brute_force"),
                       default="compressed")
    clone.add_argument("--offset", type=int, default=None)
    clone.add_argument("--stage-tol", dest="stage_tol", type=tolerance,
                       default=1e-6)

    for sub in (pst, gamma, wstate, ghz, sweep, clone):
        sub.add_argument("--seed", type=_seed, default=0)
        sub.add_argument("--out", default=None)
    for sub in (pst, gamma, wstate):
        sub.add_argument("--trace", default=None)
    return parser


def _default_out(args) -> str:
    if args.family == "design":
        kind = {"pst": "pst", "gamma": "zy", "wstate": "xx"}[args.command]
        return f"{kind}{args.n}.json"
    return {"ghz": "ghz_report.json", "sweep": "sweep.csv",
            "clone": "clone_report.json"}[args.command]


def _trace_path(args, out: str) -> Path:
    if args.trace is not None:
        return Path(args.trace)
    return Path(out).with_suffix("").with_suffix(".trace.csv")


def _provenance(argv, args, tolerances: dict) -> dict:
    command = "spinforge " + " ".join(argv)
    return chainio.make_provenance(command, seed=args.seed,
                                   tolerances=tolerances)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# design commands: each returns its document and its trace, or raises


def _design_pst(args, argv):
    chain = standard_couplings(args.n)
    residual = verify_mirror(chain)
    trace = FlowTrace("check,residual", "mirror,{!r}", [(residual,)])
    if residual > args.tol:
        raise FlowStallError(f"mirror check: residual {residual:.3e} exceeds "
                             f"{args.tol:.1e}", trace)
    doc = chainio.document_from_pst(
        chain, _provenance(argv, args, {"mirror": args.tol}))
    return doc, trace


def _design_gamma(args, argv):
    x, trace = interpolate_gamma(args.n, args.gamma_from, args.gamma_to,
                                 max_steps=args.max_steps)
    return chainio.document_from_gamma(x, _provenance(argv, args, {})), trace


def _design_wstate(args, argv):
    design = wstate_chain(args.n, tol=args.tol, budget=args.budget)
    doc = chainio.document_from_xx(Chain(design.couplings),
                                   _provenance(argv, args, {"revival": args.tol}))
    return doc, design.flow.trace


# ---------------------------------------------------------------------------
# simulate commands: each returns the text of its report, or raises


def _simulate_ghz(args, argv) -> str:
    doc = chainio.read_document(args.chain)
    payload = {"provenance": _provenance(argv, args, {"mirror": args.tol}),
               "method": "exact", "time": GHZ_TIME}
    if doc.kind in ("pst", "ising"):
        chain = (chainio.ising_chain(doc) if doc.kind == "ising"
                 else chainio.pst_chain(doc))
        payload.update({"n": chain.n // 2, "overlap": overlap_estimate(chain)})
        if args.check:
            deviation = mirror_deviation(chain)
            payload["mirror_deviation"] = deviation
            if deviation > args.tol:
                raise StageBreachError("mirror check", f"deviation {deviation:.3e} "
                                       f"exceeds {args.tol:.1e}", _json_text(payload))
    elif doc.kind == "zy":
        if args.check:
            raise ValueError("--check applies to pst and ising documents")
        payload.update({"n": doc.n,
                        "overlap": zy_ghz_overlap(chainio.gamma_matrix(doc))})
    else:
        raise ValueError(f"unsupported document kind {doc.kind}")
    return _json_text(payload)


def _parse_percent_range(text: str) -> list:
    values = [float(part) for part in text.split(":")]
    if not np.all(np.isfinite(values)):
        raise ValueError(f"perturbation percents must be finite, got {text}")
    if len(values) == 1:
        return values
    if len(values) != 3:
        raise ValueError("expected 'from:to:step' or a single value")
    lo, hi, step = values
    if step <= 0 or hi < lo:
        raise ValueError("need step > 0 and to >= from")
    count = np.floor((hi - lo) / step + 1e-9) + 1
    if not np.isfinite(count):
        raise ValueError(f"the range {text} has no finite number of points")
    if count > SWEEP_MAX_POINTS:
        raise ValueError(f"the range {text} has {count:.0f} points, more than "
                         f"the {SWEEP_MAX_POINTS} a sweep may write")
    return [lo + step * i for i in range(int(count))]


def _simulate_sweep(args, argv) -> str:
    xs = _parse_percent_range(args.x)
    lines = ["x_percent,mean,stddev,samples"]
    for point in perturb_sweep(args.n, xs, args.samples, args.seed):
        lines.append(f"{point.x_percent!r},{point.mean!r},"
                     f"{point.stddev!r},{point.samples.size}")
    return "\n".join(lines) + "\n"


def _parse_profile(text: str, n_clones: int):
    if text == "symmetric":
        return symmetric_profile(n_clones)
    weights = [float(part) for part in text.split(",")]
    if len(weights) != n_clones:
        raise ValueError(f"profile lists {len(weights)} weights for "
                         f"{n_clones} clones")
    return profile_from_betas(weights)


def _simulate_clone(args, argv) -> str:
    profile = _parse_profile(args.profile, args.n_clones)
    if args.method == "brute_force" and profile.m > BRUTE_FORCE_MAX_M:
        raise ValueError(f"brute_force needs a register of at most "
                         f"{BRUTE_FORCE_MAX_M} qubits")
    w = design_w_chain(profile, k=args.offset, tol=args.stage_tol)
    report = clone_report(ghz_helper_chain(profile.m), w, profile,
                          k=args.offset, method=args.method,
                          stage_tol=args.stage_tol)
    return _json_text({
        "n_clones": report.n_clones,
        "betas": [float(b) for b in report.betas],
        "fidelities": [float(f) for f in report.fidelities],
        "spread": report.spread,
        "method": report.method,
        "max_stage_residual": float(report.max_stage_residual),
        "provenance": _provenance(argv, args, {"stage": args.stage_tol}),
    })


_HANDLERS = {
    ("design", "pst"): _design_pst,
    ("design", "gamma"): _design_gamma,
    ("design", "wstate"): _design_wstate,
    ("simulate", "ghz"): _simulate_ghz,
    ("simulate", "sweep"): _simulate_sweep,
    ("simulate", "clone"): _simulate_clone,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    handler = _HANDLERS[(args.family, args.command)]
    out = args.out or _default_out(args)
    try:
        # each error is caught inside the outer try, so an unwritable trace
        # or report is a usage error
        try:
            artifact = handler(args, argv)
        except FlowStallError as err:
            if args.family == "design":
                _trace_path(args, out).write_text(err.trace.to_csv())
            print(err, file=sys.stderr)
            return STALL
        except StageBreachError as err:
            if err.report is not None:
                Path(out).write_text(err.report)
            print(err, file=sys.stderr)
            return BREACH
        if args.family == "simulate":
            Path(out).write_text(artifact)
        else:
            doc, trace = artifact
            _trace_path(args, out).write_text(trace.to_csv())
            chainio.write_document(doc, out)
        return 0
    except (ValueError, OSError, MemoryError) as err:
        print(f"spinforge {args.family} {args.command}: error: {err}",
              file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
