"""Constrained isospectral flows over a one-parameter family of band matrices.

The family is indexed by a deformation parameter gamma in [0, 1].  Each member
is a real tridiagonal matrix whose lower and upper bands share the common
ratio (1 - gamma) / (1 + gamma), which is mirror-symmetric about its
antidiagonal, and whose singular values sit on the odd ladder
{1, 3, ..., 2n - 1}.  At gamma = 1 the lower band vanishes and the matrix is
the bidiagonal form of a transverse-field chain; at gamma = 0 it is a
symmetric hopping matrix shifted by n along the diagonal.

Flowing in gamma means moving along dX = X A - B X with antisymmetric
generators A and B, which conjugates X by orthogonal matrices and therefore
cannot change its singular values.  The generators are fixed at each point by
linear constraints: the derivative must keep the matrix tridiagonal and
mirror-symmetric, the band ratio must track gamma, and gamma itself advances
at unit rate.  These conditions form a square linear system, so the direction
is unique wherever the system is nonsingular.  A step of length dtau applies
the solved generators as ``numerics.isospectral_step``, the orthogonal
update exp(-B) X exp(A) that the null-vector flow of ``synthesis`` takes too;
both flows record into a ``numerics.FlowTrace`` and stall with
``numerics.FlowStallError``.

The system is sparse and banded: a unit generator pair (k, l) moves dX only
through rows and columns k and l of X, and the matrix reads X only from its
three bands, so its pattern depends on n alone and is built once, with its
columns in the COLAMD order of its LU factor.  Each step gathers the band
values into that pattern and solves it by sparse LU in that fixed order
(``numerics.solve_affine``); the dense minimum-norm ``lstsq`` runs only when
the factor is exactly singular.  SciPy's sparse modules are imported where
the system is first built, so importing this module loads no SciPy, and
the dense oracle (``zy_hamiltonian``) is assembled in numpy.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ghz_ising import (
    BRUTE_FORCE_MAX_QUBITS,
    GHZ_TIME,
    evolve_dense,
    ghz_target,
    ising_from_pst,
    dense_spin_hamiltonian,
)
from .numerics import FlowStallError, FlowTrace, isospectral_step, solve_affine
from .pst import standard_couplings

STRUCTURE_GATE = 5e-3
SEED_TOL = 1e-8


@dataclass(frozen=True)
class GammaMatrix:
    """Tridiagonal member of the gamma family, stored by bands.

    ``lower[k] / upper[k]`` must equal (1 - gamma) / (1 + gamma) and the bands
    must be mirror-symmetric about the antidiagonal, both within a loose
    admission gate; use :func:`structure_residual` for precise measurement.
    """

    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    gamma: float

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        lower = np.asarray(self.lower, dtype=float)
        for name, band in (("diag", diag), ("upper", upper), ("lower", lower)):
            object.__setattr__(self, name, band)
        if diag.size < 1:
            raise ValueError("need at least one site")
        if upper.shape != (diag.size - 1,) or lower.shape != (diag.size - 1,):
            raise ValueError("band lengths must be one less than the dimension")
        if not -1e-9 <= self.gamma <= 1 + 1e-9:
            raise ValueError("gamma must lie in [0, 1]")
        residual = structure_residual(self)
        if residual > STRUCTURE_GATE:
            raise ValueError(
                f"bands violate the gamma-family structure (residual {residual:.2e})"
            )

    @property
    def n(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        m = np.diag(self.diag)
        if self.upper.size:
            m += np.diag(self.upper, 1) + np.diag(self.lower, -1)
        return m

    def singular_values(self) -> np.ndarray:
        """Singular values in increasing order."""
        return np.linalg.svd(self.to_dense(), compute_uv=False)[::-1].copy()

    def couplings(self) -> np.ndarray:
        """Underlying coupling strengths J with upper = J(1+gamma)."""
        return self.upper / (1.0 + self.gamma)


def target_ladder(n: int) -> np.ndarray:
    """The pinned singular-value ladder 1, 3, ..., 2n-1."""
    return np.arange(1, 2 * n, 2, dtype=float)


def gamma_seed(n: int, gamma: float) -> GammaMatrix:
    """Known family member at an endpoint of the deformation range.

    gamma = 1 is the bidiagonal split of the 2n-site transfer chain; gamma = 0
    is n on the diagonal plus the symmetric n-site transfer couplings.  Both
    carry singular values {1, 3, ..., 2n-1}, which is what makes them valid
    anchors for interpolation.
    """
    if abs(gamma - 1.0) < 1e-12:
        chain = ising_from_pst(standard_couplings(2 * n))
        return GammaMatrix(diag=chain.fields, upper=chain.couplings,
                           lower=np.zeros(n - 1), gamma=1.0)
    if abs(gamma) < 1e-12:
        off = standard_couplings(n).couplings if n > 1 else np.zeros(0)
        return GammaMatrix(diag=np.full(n, float(n)), upper=off, lower=off.copy(),
                           gamma=0.0)
    raise ValueError("seeds exist only at gamma = 0 and gamma = 1")


def validate_seed(x: GammaMatrix) -> float:
    """Check a flow seed against the singular-value ladder.

    Returns the maximum deviation and raises if it exceeds the seed tolerance;
    every interpolation starts with this check because the ladder is the
    invariant the whole construction transports.
    """
    drift = float(np.abs(x.singular_values() - target_ladder(x.n)).max())
    if drift > SEED_TOL:
        raise ValueError(f"seed singular values off the odd ladder by {drift:.2e}")
    return drift


def structure_residual(x) -> float:
    """Worst violation of the family structure for a band matrix."""
    if isinstance(x, GammaMatrix):
        return _residual_dense(x.to_dense(), x.gamma)
    raise TypeError("expected a GammaMatrix")


def _bands(xd: np.ndarray):
    return np.diag(xd).copy(), np.diag(xd, 1).copy(), np.diag(xd, -1).copy()


def _residual_dense(xd: np.ndarray, gamma: float) -> float:
    d, u, l = _bands(xd)
    r = (1.0 - gamma) / (1.0 + gamma)
    safe = np.abs(u) > 1e-9
    quotient = np.where(safe, l / np.where(safe, u, 1.0) - r, l - r * u)
    off = xd - np.triu(np.tril(xd, 1), -1)
    parts = (off, d - d[::-1], u - u[::-1], l - l[::-1], quotient)
    return max(float(np.abs(p).max(initial=0.0)) for p in parts)


@lru_cache(maxsize=8)
def _pattern(n: int):
    """The parts of the direction system that depend on n alone.

    Rows are functionals of dX = X a - b X (``terms``: row, flat dX entry,
    sign, kind); the unknowns are the strict upper triangles of a and b, then
    the gamma rate.  A unit generator pair (k, l) moves dX only through rows
    and columns k and l of X, so each matrix entry sums at most two band
    entries ``src`` of X, each times ``sign`` and the weight ``kind`` picks
    (1, r or 2 / (1 + gamma)^2), into the CSC position ``slot`` of (indices,
    indptr).  The columns come in the order the sparse LU factors them in:
    column k holds unknown ``order[k]``.
    """
    terms, names = [], []

    def functional(name, *entries):
        terms.extend((len(names), i * n + j, sign, kind) for i, j, sign, kind in entries)
        names.append(name)

    ar = np.arange(n)
    for i, j in zip(*np.nonzero(np.abs(np.subtract.outer(ar, ar)) >= 2)):
        functional(f"offband[{i},{j}]", (i, j, 1.0, 0))
    for k in range(n // 2):
        functional(f"mirror_diag[{k}]", (k, k, 1.0, 0), (n - 1 - k, n - 1 - k, -1.0, 0))
    for k in range((n - 1) // 2):
        m = n - 2 - k
        functional(f"mirror_upper[{k}]", (k, k + 1, 1.0, 0), (m, m + 1, -1.0, 0))
    for k in range(n - 1):
        functional(f"ratio[{k}]", (k + 1, k, 1.0, 0), (k, k + 1, -1.0, 1))
    names.append("gamma_rate")

    idx = ar[:, None] * n + ar
    ki, li = np.triu_indices(n, 1)
    npair = ki.size
    parts = []  # (dX entry, column, X entry, sign) of the unit generators
    for offset in (-1, 0, 1):
        for k, l, s in ((ki, li, 1.0), (li, ki, -1.0)):
            m = k + offset
            ok = (m >= 0) & (m < n)
            m, k, l, col = m[ok], k[ok], l[ok], np.flatnonzero(ok)
            parts.append(zip(idx[m, l], col, idx[m, k], [s] * m.size))  # X a
            parts.append(zip(idx[l, m], npair + col, idx[k, m], [s] * m.size))  # -b X
    rows_of = {}
    for row, entry, sign, kind in terms:
        rows_of.setdefault(entry, []).append((row, sign, kind))
    entries = [
        (row, col, src, s * sign, kind)
        for part in parts
        for entry, col, src, s in part
        for row, sign, kind in rows_of.get(entry, ())
    ]
    entries += [(names.index(f"ratio[{k}]"), 2 * npair, idx[k, k + 1], 1.0, 2)
                for k in range(n - 1)] + [(len(names) - 1, 2 * npair, n * n, 1.0, 0)]
    row, col, src, sign, kind = (np.array(v) for v in zip(*entries))
    size = len(names)

    def layout(columns):
        keys, slot = np.unique(columns * size + row, return_inverse=True)
        return keys % size, np.searchsorted(keys // size, np.arange(size + 1)), slot

    order = _column_order(*layout(col)[:2])
    # each unknown's column is its place in the factor's order
    indices, indptr, slot = layout(np.argsort(order)[col])
    terms = tuple(np.array(v) for v in zip(*terms))
    return tuple(names), indices, indptr, slot, src, sign, kind, terms, order


def _column_order(indices, indptr):
    """SuperLU's COLAMD column order for the square CSC pattern (indices, indptr).

    COLAMD and SuperLU's elimination-tree postorder read the pattern only,
    so one factor of the pattern, filled with values in general position,
    yields the order every direction solve at this n factors in.
    """
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    size = indptr.size - 1
    fill = np.random.default_rng(0).uniform(1.0, 2.0, indices.size)
    return np.argsort(splu(csc_matrix((fill, indices, indptr), shape=(size, size))).perm_c)


def _system(xd: np.ndarray, gamma: float, feedback: float, gamma_rate_target: float):
    """Sparse CSC matrix and right-hand side of the direction system at ``xd``.

    The unknowns are the strict upper triangles of the generators a and b
    followed by the gamma rate, n(n-1) + 1 of them, with one row per
    functional, so the direction is generically unique.  The matrix reads X
    only from its three bands, which keeps its LU factor as sparse as the
    pattern, and its columns come in the factor's order (see
    :func:`_pattern`); ``feedback`` folds the structure violations of the
    full iterate, off-band leakage included, into the right-hand sides so
    that one step of size 1/feedback cancels them to first order.
    """
    from scipy.sparse import csc_matrix

    names, indices, indptr, slot, src, sign, kind, terms, _ = _pattern(xd.shape[0])
    flat = xd.ravel()
    r = (1.0 - gamma) / (1.0 + gamma)
    weights = np.array([1.0, r, 2.0 / (1.0 + gamma) ** 2])
    values = np.append(flat, 1.0)[src] * (sign * weights[kind])
    data = np.bincount(slot, weights=values, minlength=indices.size)
    rows = csc_matrix((data, indices, indptr), shape=(len(names),) * 2)
    t_row, t_entry, t_sign, t_kind = terms
    violation = flat[t_entry] * (t_sign * weights[t_kind])
    rhs = -feedback * np.bincount(t_row, weights=violation, minlength=len(names))
    rhs[-1] = gamma_rate_target
    return rows, rhs


def _direction(xd, gamma, feedback, gamma_rate_target=1.0):
    """Flow direction at the dense member ``xd``, from the gamma constraint rows.

    Returns the solution in the order of the unknowns: the generators packed
    as :func:`numerics.isospectral_step` reads them, then the gamma rate.
    """
    order = _pattern(xd.shape[0])[-1]
    sol = np.empty(order.size)
    sol[order] = solve_affine(*_system(xd, gamma, feedback, gamma_rate_target))
    return sol


def _member(xd: np.ndarray, gamma: float) -> GammaMatrix:
    d, u, l = _bands(xd)
    return GammaMatrix(diag=d, upper=u, lower=l, gamma=gamma)


def zy_hamiltonian(x: GammaMatrix) -> np.ndarray:
    """Dense spin Hamiltonian whose one-particle content is ``x``.

    Diagonal band entries become transverse X fields, the upper band sets the
    ZZ couplings and the lower band the YY couplings.  The many-body spectrum
    is then every signed sum of the singular values of ``x``.
    """
    n = x.n
    if n > BRUTE_FORCE_MAX_QUBITS:
        raise ValueError(
            f"dense construction is limited to {BRUTE_FORCE_MAX_QUBITS} qubits"
        )
    return dense_spin_hamiltonian(n, x=x.diag, zz=x.upper, yy=x.lower)


def zy_ghz_overlap(x: GammaMatrix) -> float:
    """|<GHZ| e^{-iHt} |0...0>| at t = GHZ_TIME for the spin Hamiltonian of
    ``x``, clamped to 1."""
    psi0 = np.zeros(1 << x.n, dtype=complex)
    psi0[0] = 1.0
    psi = evolve_dense(zy_hamiltonian(x), GHZ_TIME, psi0)
    return float(min(abs(np.vdot(ghz_target(x.n), psi)), 1.0))


def interpolate_gamma(
    n: int,
    gamma_from: float,
    gamma_to: float,
    step: float = 1e-3,
    max_steps: int = None,
) -> tuple:
    """Integrate the structured flow between deformation endpoints.

    Starts from the validated seed at ``gamma_from`` (which must be 0 or 1)
    and advances gamma by orthogonal steps of size ``step`` until it reaches
    ``gamma_to``, halving the step whenever the structure residual grows
    abnormally.  Each step conjugates the full matrix, so the singular values
    hold to rounding; a few gamma-frozen correction steps at the end squeeze
    the off-band leakage back below 1e-9 before projecting onto bands.

    Returns the final matrix and the integration trace, one row per accepted
    or correction step; raises :class:`numerics.FlowStallError` (with the
    trace attached) if the step budget is exhausted or the result never
    meets the structure tolerance.
    """
    if not 0.0 < step < np.inf:
        raise ValueError(f"step size must be finite and positive, got {step!r}")
    if max_steps is not None and max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps!r}")
    if not 0.0 <= gamma_to <= 1.0:
        raise ValueError("gamma_to must lie in [0, 1]")
    if n < 2:
        raise ValueError("chains need at least two sites")
    seed = gamma_seed(n, gamma_from)
    validate_seed(seed)
    trace = FlowTrace("step,gamma,sv_drift,structure_residual", "{},{!r},{!r},{!r}")
    if abs(gamma_to - gamma_from) <= 1e-12:
        return seed, trace

    if max_steps is None:
        max_steps = max(1000, 20 * int(np.ceil(abs(gamma_to - gamma_from) / step)))
    ladder = target_ladder(n)
    xd = seed.to_dense()
    gamma = float(seed.gamma)
    delta = float(step)
    prev_residual = 0.0
    steps = 0

    def record(residual):
        drift = float(np.abs(np.sort(np.linalg.svd(xd, compute_uv=False)) - ladder).max())
        trace.rows.append((len(trace.rows) + 1, gamma, drift, residual))

    while abs(gamma_to - gamma) > 1e-12:
        if steps >= max_steps:
            raise FlowStallError(
                f"no convergence within {max_steps} steps (gamma = {gamma:.6f})",
                trace,
            )
        d_eff = min(delta, abs(gamma_to - gamma))
        dtau = d_eff if gamma_to >= gamma else -d_eff
        sol = _direction(xd, gamma, 1.0 / dtau)
        cand = isospectral_step(xd, dtau * sol[:-1])
        cand_gamma = gamma + dtau * float(sol[-1])
        residual = _residual_dense(cand, cand_gamma)
        steps += 1
        if residual > max(4.0 * prev_residual, 25.0 * dtau * dtau, 1e-10):
            if delta <= step / 2**20:
                raise FlowStallError(
                    f"step size collapsed below {delta:.2e} without acceptance",
                    trace,
                )
            delta /= 2.0
            continue
        xd, gamma, prev_residual = cand, cand_gamma, residual
        record(residual)

    for _ in range(6):
        residual = _residual_dense(xd, gamma)
        if residual <= 1e-9:
            break
        sol = _direction(xd, gamma, 1.0 / delta, gamma_rate_target=0.0)
        xd = isospectral_step(xd, delta * sol[:-1])
        gamma += delta * float(sol[-1])
        record(_residual_dense(xd, gamma))

    final_residual = _residual_dense(xd, gamma)
    if final_residual > 1e-4:
        raise FlowStallError(
            f"structure residual {final_residual:.2e} never met tolerance", trace
        )
    return _member(xd, float(np.clip(gamma, 0, 1))), trace
