"""Workload definitions and the correctness checks applied to their artifacts.

Each workload is an ordered list of ``spinforge`` CLI commands run one after
another in a fresh working directory (a closed loop with one client: a
command starts only after the previous one has exited).  Every command
carries a check that reads the artifact it wrote and compares it with a
value the benchmark computes itself, or with a property the method must
have.  No check compares against a stored copy of an earlier output.

A check returns nothing when the artifact is right and raises
:class:`CheckError` naming the first violated property otherwise.  Only
numpy and scipy are used here, never ``spinforge``, so a fault in the
package cannot hide itself by also corrupting the reference.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg


class CheckError(AssertionError):
    """An artifact violates a property the benchmark checks."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _load_json(path: Path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise CheckError(f"{path}: unreadable artifact ({err})") from err


def _document(path: Path, kind: str, n: int) -> dict:
    doc = _load_json(path)
    _require(doc.get("kind") == kind, f"{path}: kind {doc.get('kind')!r}, want {kind!r}")
    _require(doc.get("n") == n, f"{path}: n = {doc.get('n')}, want {n}")
    couplings = np.asarray(doc.get("couplings"), dtype=float)
    _require(couplings.shape == (n - 1,), f"{path}: {couplings.size} couplings for {n} sites")
    _require(np.all(np.isfinite(couplings)), f"{path}: non-finite couplings")
    return doc


def _tridiagonal(diag, upper, lower) -> np.ndarray:
    return np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)


# ---------------------------------------------------------------------------
# GHZ certification and disorder sweep


def check_pst_document(path: Path, n: int) -> None:
    """Couplings are sqrt(k(n-k)) and the chain transfers site k to n+1-k.

    The mirror amplitudes come from the benchmark's own ``scipy.linalg.expm``
    of the single-excitation Hamiltonian at t = pi/2.
    """
    doc = _document(path, "pst", n)
    couplings = np.asarray(doc["couplings"], dtype=float)
    k = np.arange(1, n)
    expected = np.sqrt(k * (n - k))
    worst = float(np.abs(couplings - expected).max() / expected.max())
    _require(worst <= 1e-12, f"{path}: couplings differ from sqrt(k(n-k)) by {worst:.3e} (relative)")
    u = scipy.linalg.expm(-1j * (np.pi / 2) * _tridiagonal(np.zeros(n), couplings, couplings))
    mirror = np.abs(u[::-1, :].diagonal())
    miss = float(np.abs(mirror - 1.0).max())
    _require(miss <= 1e-9, f"{path}: mirror amplitude misses 1 by {miss:.3e}")


def check_ghz_report(path: Path, n: int, lo: float, hi: float,
                     max_mirror_deviation: float | None = None) -> None:
    """The report's overlap lies in [lo, hi]; with a mirror bound, its
    recorded mirror deviation is within it."""
    report = _load_json(path)
    _require(report.get("n") == n, f"{path}: n = {report.get('n')}, want {n}")
    overlap = report.get("overlap")
    _require(isinstance(overlap, float) and lo <= overlap <= hi,
             f"{path}: overlap {overlap!r} outside [{lo!r}, {hi!r}]")
    if max_mirror_deviation is not None:
        deviation = report.get("mirror_deviation")
        _require(isinstance(deviation, float) and 0.0 <= deviation <= max_mirror_deviation,
                 f"{path}: mirror deviation {deviation!r} exceeds {max_mirror_deviation!r}")


def check_sweep(path: Path, xs: list, samples: int) -> None:
    """The x = 0 row is exactly the unperturbed overlap 1 with no spread;
    every mean lies in [0, 1] and means never rise as disorder grows."""
    try:
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        table = np.array([[float(r["x_percent"]), float(r["mean"]), float(r["stddev"]),
                           float(r["samples"])] for r in rows])
    except (OSError, KeyError, ValueError) as err:
        raise CheckError(f"{path}: unreadable sweep ({err})") from err
    _require(table.shape == (len(xs), 4), f"{path}: {len(rows)} rows, want {len(xs)}")
    _require(np.allclose(table[:, 0], xs, rtol=0, atol=1e-12), f"{path}: x column {table[:, 0]}")
    _require(np.all(table[:, 3] == samples), f"{path}: sample counts {table[:, 3]}")
    x, mean, std = table[:, 0], table[:, 1], table[:, 2]
    zero = np.flatnonzero(x == 0.0)
    _require(zero.size == 1, f"{path}: no x = 0 row")
    _require(abs(mean[zero[0]] - 1.0) <= 1e-12 and std[zero[0]] <= 1e-12,
             f"{path}: x = 0 row has mean {mean[zero[0]]!r}, stddev {std[zero[0]]!r}")
    _require(np.all((mean >= 0.0) & (mean <= 1.0)), f"{path}: a mean lies outside [0, 1]")
    order = np.argsort(x)
    rise = float(np.diff(mean[order]).max(initial=0.0))
    _require(rise <= 1e-12, f"{path}: mean rises by {rise:.3e} as x grows")


# ---------------------------------------------------------------------------
# design flows


def check_gamma_document(path: Path, n: int, gamma: float) -> None:
    """The deformed matrix rebuilt from the document's bands keeps the odd
    singular-value ladder and is mirror symmetric about its antidiagonal.

    A zy document stores the couplings J and gamma, with upper band
    J(1 + gamma) and lower band J(1 - gamma), so the band ratio is
    (1 - gamma) / (1 + gamma) exactly when the stored gamma is the one
    requested."""
    doc = _document(path, "zy", n)
    doc_gamma = doc.get("gamma")
    _require(isinstance(doc_gamma, float) and abs(doc_gamma - gamma) <= 1e-9,
             f"{path}: gamma {doc_gamma!r}, want {gamma!r}")
    couplings = np.asarray(doc["couplings"], dtype=float)
    diag = np.asarray(doc["fields"], dtype=float)
    _require(diag.shape == (n,), f"{path}: {diag.size} diagonal entries for {n} sites")
    x = _tridiagonal(diag, couplings * (1.0 + doc_gamma), couplings * (1.0 - doc_gamma))
    mirror = float(np.abs(x - x[::-1, ::-1].T).max())
    _require(mirror <= 1e-9, f"{path}: not mirror symmetric (deviation {mirror:.3e})")
    ladder = np.arange(1, 2 * n, 2, dtype=float)
    drift = float(np.abs(np.sort(np.linalg.svd(x, compute_uv=False)) - ladder).max())
    _require(drift <= 1e-6, f"{path}: singular values off the odd ladder by {drift:.3e}")


def check_wstate_document(path: Path, n: int) -> None:
    """Evolving the centre site for t = pi reaches the uniform odd-site
    state with overlap at least 0.999 (benchmark's own ``expm``)."""
    doc = _document(path, "xx", n)
    couplings = np.asarray(doc["couplings"], dtype=float)
    fields = np.asarray(doc["fields"], dtype=float)
    _require(fields.shape == (n,), f"{path}: {fields.size} fields for {n} sites")
    u = scipy.linalg.expm(-1j * np.pi * _tridiagonal(fields, couplings, couplings))
    target = np.zeros(n)
    target[0::2] = 1.0 / np.sqrt((n + 1) // 2)
    overlap = float(abs(target @ u[:, (n - 1) // 2]))
    _require(overlap >= 0.999, f"{path}: W-state overlap {overlap!r} below 0.999")


# ---------------------------------------------------------------------------
# cloning


def expected_fidelities(raw_weights) -> np.ndarray:
    """Optimal asymmetric cloning fidelities (1 + (beta_n + A)^2) / 3 for
    weights rescaled so that A^2 + B^2 = 1 (A the sum, B^2 the square sum)."""
    raw = np.asarray(raw_weights, dtype=float)
    betas = raw / np.sqrt(raw.sum() ** 2 + (raw ** 2).sum())
    return (1.0 + (betas + betas.sum()) ** 2) / 3.0


def check_clone_report(path: Path, raw_weights, method: str) -> None:
    """Each fidelity matches the analytic optimum within 1e-9 and every
    pipeline stage met its residual bound of 1e-6."""
    report = _load_json(path)
    expected = expected_fidelities(raw_weights)
    _require(report.get("n_clones") == expected.size,
             f"{path}: n_clones {report.get('n_clones')!r}, want {expected.size}")
    _require(report.get("method") == method, f"{path}: method {report.get('method')!r}")
    fids = np.asarray(report.get("fidelities"), dtype=float)
    _require(fids.shape == expected.shape, f"{path}: {fids.size} fidelities")
    miss = float(np.abs(fids - expected).max())
    _require(miss <= 1e-9, f"{path}: fidelities miss the optimum by {miss:.3e}")
    residual = report.get("max_stage_residual")
    _require(isinstance(residual, float) and 0.0 <= residual <= 1e-6,
             f"{path}: max_stage_residual {residual!r} exceeds 1e-6")


# ---------------------------------------------------------------------------
# the workloads


@dataclass(frozen=True)
class Command:
    """One CLI invocation (without ``--seed``) and the check of its artifact."""

    argv: tuple
    check: Callable[[Path], None]


def _clone(n_clones: int, profile: str, method: str = "compressed") -> Command:
    out = f"clone{n_clones}.json"
    raw = [1.0] * n_clones if profile == "symmetric" else [float(w) for w in profile.split(",")]
    argv = ("simulate", "clone", "--n-clones", str(n_clones), "--profile", profile)
    if method != "compressed":
        argv += ("--method", method)
    return Command(argv + ("--out", out),
                   lambda d: check_clone_report(d / out, raw, method))


SWEEP_X = [float(x) for x in range(0, 11)]

WORKLOADS = {
    # The GHZ co-processor's certify-and-robustness path (about 11 000 small
    # dense spectral calls, no flow), then the Toda-like design flows (the
    # isoflow direction solve and the synthesis LP ascent).  The two run as
    # one round: on its own the sweep's threaded small-matrix BLAS made a run
    # swing by up to 30 % with the machine's load, more than a bound allows;
    # beside the flows the round's spread stays within it.  The per-layer
    # metrics still separate the two halves.
    "ghz-and-flows": [
        Command(("design", "pst", "--n", "42", "--out", "pst42.json"),
                lambda d: check_pst_document(d / "pst42.json", 42)),
        Command(("simulate", "ghz", "--chain", "pst42.json", "--check", "--out", "ghz42.json"),
                lambda d: check_ghz_report(d / "ghz42.json", 21, 1.0 - 1e-6, 1.0 + 1e-6,
                                           max_mirror_deviation=1e-9)),
        Command(("simulate", "sweep", "--n", "21", "--x", "0:10:1", "--samples", "1000",
                 "--out", "sweep.csv"),
                lambda d: check_sweep(d / "sweep.csv", SWEEP_X, 1000)),
        Command(("design", "gamma", "--n", "21", "--from", "0", "--to", "0.7",
                 "--out", "zy21.json"),
                lambda d: check_gamma_document(d / "zy21.json", 21, 0.7)),
        Command(("design", "wstate", "--n", "21", "--out", "xx21.json"),
                lambda d: check_wstate_document(d / "xx21.json", 21)),
        Command(("design", "gamma", "--n", "6", "--from", "0", "--to", "0.5",
                 "--out", "zy6.json"),
                lambda d: check_gamma_document(d / "zy6.json", 6, 0.5)),
        Command(("simulate", "ghz", "--chain", "zy6.json", "--out", "ghz6.json"),
                lambda d: check_ghz_report(d / "ghz6.json", 6, 0.999, 1.0 + 1e-12)),
    ],
    # Cloning co-processor: asymmetric targets whose flows mostly stall
    # before a fallback spectrum converges, plus the dense oracle on m <= 9.
    "clone-asym": [
        _clone(3, "2,1,1", "brute_force"),
        _clone(4, "symmetric", "brute_force"),
        _clone(5, "2,1,1,1,1", "brute_force"),
        _clone(6, "3,1,2,1,1,2"),
        _clone(7, "1,2,1,3,1,2,1"),
    ],
}


def gamma_trace_files(commands) -> list:
    """Convergence-trace CSVs written by the ``design gamma`` commands."""
    return [Path(c.argv[c.argv.index("--out") + 1]).with_suffix(".trace.csv").name
            for c in commands if c.argv[:2] == ("design", "gamma")]
