"""Shared linear algebra.

Everything here is plain numerics with no quantum semantics: symmetric
tridiagonal eigensolves, eigendecomposition-based matrix exponentials, and
the affine solve used by the flow engines (sparse LU for square sparse
systems, minimum-norm least squares otherwise). ``propagator`` is the
single e^{-iHt} primitive: a chain given as a ``SymTridiag`` goes through
the tridiagonal eigensolver, any other Hermitian matrix through a dense
eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

HERMITICITY_TOL = 1e-12
DEGENERACY_GAP = 1e-9


@dataclass(frozen=True)
class SymTridiag:
    """Real symmetric tridiagonal matrix stored as diagonal and off-diagonal bands."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=float)
        offdiag = np.asarray(self.offdiag, dtype=float)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)
        if offdiag.shape != (max(diag.size - 1, 0),):
            raise ValueError(
                f"off-diagonal length {offdiag.size} does not match dimension {diag.size}"
            )
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(offdiag))):
            raise ValueError("tridiagonal entries must be finite")

    @property
    def n(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        m = np.diag(self.diag)
        if self.offdiag.size:
            m += np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)
        return m


@dataclass(frozen=True)
class Spectrum:
    """Sorted real eigenvalues."""

    values: np.ndarray

    def __post_init__(self):
        values = np.sort(np.asarray(self.values, dtype=float))
        if values.size and not np.all(np.isfinite(values)):
            raise ValueError("spectrum must be finite")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.size


@dataclass
class LinearConstraintSet:
    """Linear rows over a shared parameter vector, with right-hand sides.

    Rows with zero right-hand side express structure preservation; a nonzero
    right-hand side drives an inhomogeneous direction (for example advancing
    an interpolation parameter at unit rate).  ``rows`` is a dense array or
    a scipy sparse matrix, which is kept sparse in CSC form.
    """

    rows: np.ndarray
    rhs: np.ndarray
    names: tuple | None = None

    def __post_init__(self):
        if scipy.sparse.issparse(self.rows):
            self.rows = self.rows.tocsc().astype(float, copy=False)
        else:
            self.rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        self.rhs = np.asarray(self.rhs, dtype=float)
        if self.rows.shape[0] != self.rhs.size:
            raise ValueError("row count does not match right-hand side count")

    @property
    def n_params(self) -> int:
        return self.rows.shape[1]


class InfeasibleConstraints(ValueError):
    """Raised when a constraint system admits no solution; carries a rank report."""

    def __init__(self, message, rank=None, rows=None):
        super().__init__(message)
        self.rank = rank
        self.rows = rows


def eig_sym_tridiag(m: SymTridiag) -> tuple[Spectrum, np.ndarray]:
    """Eigendecomposition of a symmetric tridiagonal matrix.

    Returns the sorted spectrum and an orthonormal eigenvector matrix V with
    M = V diag(w) V^T. Eigenvectors inside a near-degenerate cluster (gap
    below 1e-9) are re-orthonormalized with a QR pass so downstream code can
    rely on orthonormality even when the backend returns a sloppy cluster.
    """
    if m.n == 0:
        raise ValueError("empty matrix")
    if m.n == 1:
        return Spectrum(m.diag.copy()), np.ones((1, 1))
    w, v = scipy.linalg.eigh_tridiagonal(m.diag, m.offdiag)
    v = _reorthonormalize_clusters(w, v)
    return Spectrum(w), v


def _reorthonormalize_clusters(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """QR-orthonormalize eigenvector columns within each degenerate cluster."""
    joined = np.flatnonzero(np.diff(w) <= DEGENERACY_GAP)
    if not joined.size:
        return v
    v = v.copy()
    # a run of consecutive small gaps j..j+r joins columns j..j+r+1
    for run in np.split(joined, np.flatnonzero(np.diff(joined) > 1) + 1):
        start, stop = run[0], run[-1] + 2
        v[:, start:stop], _ = np.linalg.qr(v[:, start:stop])
    return v


def propagator(h: SymTridiag | np.ndarray, t: float) -> np.ndarray:
    """Evolution operator e^{-iHt}, via eigendecomposition.

    A ``SymTridiag`` goes through :func:`eig_sym_tridiag`, any other (Hermitian)
    matrix through dense ``eigh``.  Orthonormal eigenvectors to 1e-10 make the
    result unitary to the same order; past that a ``ValueError`` is raised.
    """
    if isinstance(h, SymTridiag):
        spectrum, v = eig_sym_tridiag(h)
        w = spectrum.values
    else:
        h = np.asarray(h)
        dev = np.abs(h - h.conj().T).max() if h.size else 0.0
        scale = max(1.0, np.abs(h).max()) if h.size else 1.0
        if dev > HERMITICITY_TOL * scale:
            raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e})")
        w, v = np.linalg.eigh(h)
    dev = np.abs(v.conj().T @ v - np.eye(w.size)).max()
    if dev > 1e-10:
        raise ValueError(f"propagator is not unitary (eigenvector deviation {dev:.3e})")
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def antisym_exp(g: np.ndarray) -> np.ndarray:
    """Orthogonal exponential of a real antisymmetric matrix.

    Uses the Hermitian eigendecomposition of iG, so the result is orthogonal
    to machine precision with determinant +1. The Hermiticity check on iG
    is the antisymmetry check on G, so a non-antisymmetric G raises there.
    """
    g = np.asarray(g, dtype=float)
    return propagator(1j * g, 1.0).real


def solve_affine(constraints: LinearConstraintSet, residual_tol: float = 1e-8):
    """Solution of a linear system: sparse LU when possible, else minimum norm.

    A square sparse system is factored with SuperLU and reported at full
    rank; dense rows, non-square sparse rows and an exactly singular factor
    take the minimum-norm ``lstsq`` solution instead.  Returns (solution,
    rank). Raises InfeasibleConstraints when the rows are inconsistent beyond
    residual_tol, carrying the rank report.
    """
    rows, rhs = constraints.rows, constraints.rhs
    sol, rank = None, rows.shape[1]
    if scipy.sparse.issparse(rows) and rows.shape[0] == rows.shape[1]:
        try:
            sol = scipy.sparse.linalg.splu(rows).solve(rhs)
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            pass
    if sol is None:
        dense = rows.toarray() if scipy.sparse.issparse(rows) else rows
        sol, _, rank, _ = np.linalg.lstsq(dense, rhs, rcond=None)
    residual = rows @ sol - rhs
    worst = np.abs(residual).max() if residual.size else 0.0
    scale = max(1.0, np.abs(rhs).max() if rhs.size else 0.0)
    if worst > residual_tol * scale:
        raise InfeasibleConstraints(
            f"constraint system inconsistent (residual {worst:.3e}, rank {rank} "
            f"of {rows.shape[0]} rows over {constraints.n_params} parameters)",
            rank=rank,
            rows=rows.shape[0],
        )
    return sol, rank
