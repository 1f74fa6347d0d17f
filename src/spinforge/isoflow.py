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
is unique wherever the system is nonsingular.

The system is sparse and banded: a unit generator pair (k, l) moves dX only
through rows and columns k and l of X, and the matrix reads X only from its
three bands, so its pattern depends on n alone and is built once.  Each step
gathers the band values into that pattern and solves it by sparse LU
(``numerics.solve_affine``); the dense minimum-norm ``lstsq`` runs only when
the factor is exactly singular.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse

from .ghz_ising import (
    BRUTE_FORCE_MAX_QUBITS,
    GHZ_TIME,
    evolve_dense,
    ghz_target,
    ising_from_pst,
    spin_hamiltonian,
)
from .numerics import LinearConstraintSet, antisym_exp, solve_affine
from .pst import standard_couplings

STRUCTURE_GATE = 5e-3
SEED_TOL = 1e-8


class FlowConvergenceError(RuntimeError):
    """Raised when gamma interpolation exhausts its step budget.

    The partial integration history is attached as ``trace``.
    """

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


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

    @property
    def ratio(self) -> float:
        """Target lower/upper band ratio (1 - gamma) / (1 + gamma)."""
        return (1.0 - self.gamma) / (1.0 + self.gamma)

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


@dataclass(frozen=True)
class FlowGenerators:
    """Antisymmetric generator pair (a, b) plus the gamma advance they carry.

    ``gamma_rate`` is the rate dgamma/dt solved alongside the generators; it
    defaults to zero so that zero generators leave a matrix untouched.
    """

    a: np.ndarray
    b: np.ndarray
    gamma_rate: float = 0.0

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        for g in (a, b):
            if g.ndim != 2 or g.shape[0] != g.shape[1] or np.abs(g + g.T).max() != 0.0:
                raise ValueError("generators must be exactly antisymmetric")
        if a.shape != b.shape:
            raise ValueError("generator shapes must match")

    def scaled(self, factor: float) -> "FlowGenerators":
        return FlowGenerators(
            a=factor * self.a, b=factor * self.b, gamma_rate=factor * self.gamma_rate
        )


@dataclass(frozen=True)
class FlowRecord:
    """One accepted integration step."""

    step: int
    gamma: float
    sv_drift: float
    structure_residual: float
    step_size: float

    def __post_init__(self):
        if self.sv_drift < 0 or self.structure_residual < 0:
            raise ValueError("drift and residual are non-negative")


@dataclass
class FlowTrace:
    """Integration history with one record per accepted step."""

    records: list = field(default_factory=list)

    def __len__(self):
        return len(self.records)

    def append(self, record: FlowRecord):
        self.records.append(record)

    def to_csv(self) -> str:
        lines = ["step,gamma,sv_drift,structure_residual"]
        for r in self.records:
            lines.append(f"{r.step},{r.gamma!r},{r.sv_drift!r},{r.structure_residual!r}")
        return "\n".join(lines) + "\n"


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
    sign, kind); columns are the strict upper triangles of a and b, then the
    gamma rate.  A unit generator pair (k, l) moves dX only through rows and
    columns k and l of X, so each matrix entry sums at most two band entries
    ``src`` of X, each times ``sign`` and the weight ``kind`` picks (1, r or
    2 / (1 + gamma)^2), into the CSC position ``slot`` of (indices, indptr).
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
    keys, slot = np.unique(col * size + row, return_inverse=True)
    indptr = np.searchsorted(keys // size, np.arange(size + 1))
    terms = tuple(np.array(v) for v in zip(*terms))
    return tuple(names), keys % size, indptr, slot, src, sign, kind, terms


def _system(xd: np.ndarray, gamma: float, feedback: float, gamma_rate_target: float):
    """Sparse matrix, right-hand side and row names of the direction system at ``xd``.

    The matrix reads X only from its three bands, which keeps its LU factor
    as sparse as the pattern; ``feedback`` folds the structure violations of
    the full iterate, off-band leakage included, into the right-hand sides so
    that one step of size 1/feedback cancels them to first order.
    """
    names, indices, indptr, slot, src, sign, kind, terms = _pattern(xd.shape[0])
    flat = xd.ravel()
    r = (1.0 - gamma) / (1.0 + gamma)
    weights = np.array([1.0, r, 2.0 / (1.0 + gamma) ** 2])
    values = np.append(flat, 1.0)[src] * (sign * weights[kind])
    data = np.bincount(slot, weights=values, minlength=indices.size)
    rows = scipy.sparse.csc_matrix((data, indices, indptr), shape=(len(names),) * 2)
    t_row, t_entry, t_sign, t_kind = terms
    violation = flat[t_entry] * (t_sign * weights[t_kind])
    rhs = -feedback * np.bincount(t_row, weights=violation, minlength=len(names))
    rhs[-1] = gamma_rate_target
    return rows, rhs, names


def gamma_constraints(x: GammaMatrix, feedback: float = 0.0) -> LinearConstraintSet:
    """Constraint system whose solution is the flow direction at ``x``.

    The parameter vector stacks the strict upper triangles of the generators
    a and b followed by the gamma rate, giving n(n-1) + 1 unknowns; the row
    count matches exactly, so the direction is generically unique.  The rows
    form a sparse CSC matrix with a fixed banded pattern: each unknown touches
    only the few rows that X's three bands reach, about 1.4 % of the entries at
    n = 21.  :func:`solve_affine` factors it with sparse LU and falls back to
    the dense minimum-norm ``lstsq`` only when the factor is exactly singular.
    With a nonzero ``feedback`` the right-hand sides also cancel any existing
    structure violation at rate ``feedback``.
    """
    rows, rhs, names = _system(x.to_dense(), x.gamma, feedback, 1.0)
    return LinearConstraintSet(rows=rows, rhs=rhs, names=names)


def _direction(xd, gamma, feedback, gamma_rate_target=1.0):
    rows, rhs, _ = _system(xd, gamma, feedback, gamma_rate_target)
    sol, _ = solve_affine(LinearConstraintSet(rows=rows, rhs=rhs), residual_tol=np.inf)
    n = xd.shape[0]
    ki, li = np.triu_indices(n, 1)
    a, b = np.zeros((2, n, n))
    a[ki, li], b[ki, li] = np.split(sol[:-1], 2)
    return FlowGenerators(a=a - a.T, b=b - b.T, gamma_rate=float(sol[-1]))


def flow_direction(x: GammaMatrix, feedback: float = 0.0) -> FlowGenerators:
    """Unit-rate flow direction at ``x`` solved from :func:`gamma_constraints`."""
    return _direction(x.to_dense(), x.gamma, feedback)


def _step_unitary(xd: np.ndarray, g: FlowGenerators, dtau: float) -> np.ndarray:
    return antisym_exp(-dtau * g.b) @ xd @ antisym_exp(dtau * g.a)


def _member(xd: np.ndarray, gamma: float) -> GammaMatrix:
    d, u, l = _bands(xd)
    return GammaMatrix(diag=d, upper=u, lower=l, gamma=gamma)


def flow_step_unitary(x: GammaMatrix, g: FlowGenerators) -> GammaMatrix:
    """Orthogonal update exp(-b) X exp(a) for pre-scaled generators.

    The conjugated matrix keeps its singular values exactly; projecting back
    onto the three bands discards an O(|g|^2) leakage, which the integrator
    measures and feeds back into the next direction solve.
    """
    return _member(_step_unitary(x.to_dense(), g, 1.0), x.gamma + g.gamma_rate)


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
    return spin_hamiltonian(n, x=x.diag, zz=x.upper, yy=x.lower).toarray()


def zy_ghz_overlap(x: GammaMatrix, t: float = GHZ_TIME) -> float:
    """|<GHZ| e^{-iHt} |0...0>| for the spin Hamiltonian of ``x``, clamped to 1."""
    psi0 = np.zeros(1 << x.n, dtype=complex)
    psi0[0] = 1.0
    psi = evolve_dense(zy_hamiltonian(x), t, psi0)
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

    Returns the final matrix and the integration trace; raises
    :class:`FlowConvergenceError` (with the trace attached) if the step
    budget is exhausted or the result never meets the structure tolerance.
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
    trace = FlowTrace()
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

    def record(residual, size):
        drift = float(np.abs(np.sort(np.linalg.svd(xd, compute_uv=False)) - ladder).max())
        trace.append(FlowRecord(len(trace) + 1, gamma, drift, residual, size))

    while abs(gamma_to - gamma) > 1e-12:
        if steps >= max_steps:
            raise FlowConvergenceError(
                f"no convergence within {max_steps} steps (gamma = {gamma:.6f})",
                trace,
            )
        d_eff = min(delta, abs(gamma_to - gamma))
        dtau = d_eff if gamma_to >= gamma else -d_eff
        g = _direction(xd, gamma, 1.0 / dtau)
        cand = _step_unitary(xd, g, dtau)
        cand_gamma = gamma + dtau * g.gamma_rate
        residual = _residual_dense(cand, cand_gamma)
        steps += 1
        if residual > max(4.0 * prev_residual, 25.0 * dtau * dtau, 1e-10):
            if delta <= step / 2**20:
                raise FlowConvergenceError(
                    f"step size collapsed below {delta:.2e} without acceptance",
                    trace,
                )
            delta /= 2.0
            continue
        xd, gamma, prev_residual = cand, cand_gamma, residual
        record(residual, d_eff)

    for _ in range(6):
        residual = _residual_dense(xd, gamma)
        if residual <= 1e-9:
            break
        g = _direction(xd, gamma, 1.0 / delta, gamma_rate_target=0.0)
        xd = _step_unitary(xd, g, delta)
        gamma += delta * g.gamma_rate
        record(_residual_dense(xd, gamma), delta)

    final_residual = _residual_dense(xd, gamma)
    if final_residual > 1e-4:
        raise FlowConvergenceError(
            f"structure residual {final_residual:.2e} never met tolerance", trace
        )
    return _member(xd, float(np.clip(gamma, 0, 1))), trace
