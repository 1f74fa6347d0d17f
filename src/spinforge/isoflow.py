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
"""

from dataclasses import dataclass, field

import numpy as np

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
        return GammaMatrix(
            diag=chain.fields,
            upper=chain.couplings,
            lower=np.zeros(n - 1),
            gamma=1.0,
        )
    if abs(gamma) < 1e-12:
        off = standard_couplings(n).couplings if n > 1 else np.zeros(0)
        return GammaMatrix(
            diag=np.full(n, float(n)), upper=off, lower=off.copy(), gamma=0.0
        )
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
    n = xd.shape[0]
    d, u, l = _bands(xd)
    off = xd - np.diag(d)
    if n > 1:
        off = off - np.diag(u, 1) - np.diag(l, -1)
    worst = float(np.abs(off).max())
    worst = max(worst, float(np.abs(d - d[::-1]).max()))
    if n > 1:
        worst = max(worst, float(np.abs(u - u[::-1]).max()))
        worst = max(worst, float(np.abs(l - l[::-1]).max()))
        r = (1.0 - gamma) / (1.0 + gamma)
        safe = np.abs(u) > 1e-9
        quotient = np.abs(np.where(safe, l / np.where(safe, u, 1.0) - r, l - r * u))
        worst = max(worst, float(quotient.max()))
    return worst


def _assemble(xd: np.ndarray, gamma: float, feedback: float, gamma_rate_target: float):
    """Linear system fixing (a, b, dgamma/dt) at the current point.

    Row layout: every entry of dX = X a - b X that must vanish (off-band),
    stay mirror-symmetric (band pairs), or track the band ratio, followed by
    the single inhomogeneous row pinning the gamma rate.  ``feedback`` folds
    the current structure violations into the right-hand sides so that one
    step of size 1/feedback cancels them to first order.
    """
    n = xd.shape[0]
    ki, li = np.triu_indices(n, 1)
    npair = ki.size
    nparams = 2 * npair + 1
    ar = np.arange(npair)
    da = np.zeros((npair, n, n))
    db = np.zeros((npair, n, n))
    if npair:
        da[ar, :, li] = xd[:, ki].T
        da[ar, :, ki] -= xd[:, li].T
        db[ar, ki, :] = -xd[li, :]
        db[ar, li, :] += xd[ki, :]
    deriv = np.concatenate([da, db]) if npair else np.zeros((0, n, n))

    rows, rhs, names = [], [], []

    def add(coeffs: np.ndarray, gamma_coeff: float, value: float, name: str):
        row = np.zeros(nparams)
        row[: 2 * npair] = coeffs
        row[-1] = gamma_coeff
        rows.append(row)
        rhs.append(value)
        names.append(name)

    ii, jj = np.nonzero(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) >= 2)
    for i, j in zip(ii, jj):
        add(deriv[:, i, j], 0.0, -feedback * xd[i, j], f"offband[{i},{j}]")
    for k in range(n // 2):
        m = n - 1 - k
        add(
            deriv[:, k, k] - deriv[:, m, m],
            0.0,
            -feedback * (xd[k, k] - xd[m, m]),
            f"mirror_diag[{k}]",
        )
    for k in range((n - 1) // 2):
        m = n - 2 - k
        add(
            deriv[:, k, k + 1] - deriv[:, m, m + 1],
            0.0,
            -feedback * (xd[k, k + 1] - xd[m, m + 1]),
            f"mirror_upper[{k}]",
        )
    r = (1.0 - gamma) / (1.0 + gamma)
    for k in range(n - 1):
        add(
            deriv[:, k + 1, k] - r * deriv[:, k, k + 1],
            xd[k, k + 1] * 2.0 / (1.0 + gamma) ** 2,
            -feedback * (xd[k + 1, k] - r * xd[k, k + 1]),
            f"ratio[{k}]",
        )
    add(np.zeros(2 * npair), 1.0, gamma_rate_target, "gamma_rate")
    return np.asarray(rows), np.asarray(rhs), names


def gamma_constraints(x: GammaMatrix, feedback: float = 0.0) -> LinearConstraintSet:
    """Constraint system whose solution is the flow direction at ``x``.

    The parameter vector stacks the strict upper triangles of the generators
    a and b followed by the gamma rate, giving n(n-1) + 1 unknowns; the row
    count matches exactly, so the direction is generically unique.  With a
    nonzero ``feedback`` the right-hand sides also cancel any existing
    structure violation at rate ``feedback``.
    """
    rows, rhs, names = _assemble(x.to_dense(), x.gamma, feedback, 1.0)
    return LinearConstraintSet(rows=rows, rhs=rhs, names=names)


def _direction_dense(xd, gamma, feedback, gamma_rate_target=1.0):
    rows, rhs, _ = _assemble(xd, gamma, feedback, gamma_rate_target)
    sol, _ = solve_affine(LinearConstraintSet(rows=rows, rhs=rhs), residual_tol=np.inf)
    n = xd.shape[0]
    ki, li = np.triu_indices(n, 1)
    npair = ki.size
    a = np.zeros((n, n))
    b = np.zeros((n, n))
    a[ki, li] = sol[:npair]
    a -= a.T
    b[ki, li] = sol[npair : 2 * npair]
    b -= b.T
    return FlowGenerators(a=a, b=b, gamma_rate=float(sol[-1]))


def flow_direction(x: GammaMatrix, feedback: float = 0.0) -> FlowGenerators:
    """Unit-rate flow direction at ``x`` solved from :func:`gamma_constraints`."""
    return _direction_dense(x.to_dense(), x.gamma, feedback)


def flow_step_direct(x: GammaMatrix, g: FlowGenerators, delta: float) -> GammaMatrix:
    """First-order update X + delta (X a - b X).

    The update is linear, so tridiagonality and mirror symmetry transfer from
    the direction to the iterate exactly; the singular values pick up an
    O(delta^2) error per step.
    """
    if delta <= 0:
        raise ValueError("step size must be positive")
    xd = x.to_dense()
    new = xd + delta * (xd @ g.a - g.b @ xd)
    d, u, l = _bands(new)
    return GammaMatrix(diag=d, upper=u, lower=l, gamma=x.gamma + delta * g.gamma_rate)


def flow_step_unitary(x: GammaMatrix, g: FlowGenerators) -> GammaMatrix:
    """Orthogonal update exp(-b) X exp(a) for pre-scaled generators.

    The conjugated matrix keeps its singular values exactly; projecting back
    onto the three bands discards an O(|g|^2) leakage, which the integrator
    measures and feeds back into the next direction solve.
    """
    new = antisym_exp(-g.b) @ x.to_dense() @ antisym_exp(g.a)
    d, u, l = _bands(new)
    return GammaMatrix(diag=d, upper=u, lower=l, gamma=x.gamma + g.gamma_rate)


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
    mode: str = "unitary",
    step: float = 1e-3,
    max_steps: int = None,
) -> tuple:
    """Integrate the structured flow between deformation endpoints.

    Starts from the validated seed at ``gamma_from`` (which must be 0 or 1)
    and advances gamma by first-order steps of size ``step`` until it reaches
    ``gamma_to``, halving the step whenever the structure residual grows
    abnormally.  Direct mode keeps the band structure exact and lets singular
    values drift O(step) over the run; unitary mode carries the full
    conjugated matrix, preserving singular values to rounding, and finishes
    with a few gamma-frozen correction steps that squeeze the off-band
    leakage back below 1e-9 before projecting onto bands.

    Returns the final matrix and the integration trace; raises
    :class:`FlowConvergenceError` (with the trace attached) if the step
    budget is exhausted or the result never meets the structure tolerance.
    """
    if mode not in ("direct", "unitary"):
        raise ValueError("mode must be 'direct' or 'unitary'")
    if step <= 0:
        raise ValueError("step size must be positive")
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
    while abs(gamma_to - gamma) > 1e-12:
        if steps >= max_steps:
            raise FlowConvergenceError(
                f"no convergence within {max_steps} steps (gamma = {gamma:.6f})",
                trace,
            )
        d_eff = min(delta, abs(gamma_to - gamma))
        dtau = d_eff if gamma_to >= gamma else -d_eff
        g = _direction_dense(xd, gamma, 1.0 / dtau)
        if mode == "direct":
            cand = xd + dtau * (xd @ g.a - g.b @ xd)
        else:
            cand = antisym_exp(-dtau * g.b) @ xd @ antisym_exp(dtau * g.a)
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
        drift = float(np.abs(np.sort(np.linalg.svd(xd, compute_uv=False)) - ladder).max())
        trace.append(FlowRecord(len(trace) + 1, gamma, drift, residual, d_eff))

    if mode == "unitary":
        for _ in range(6):
            residual = _residual_dense(xd, gamma)
            if residual <= 1e-9:
                break
            g = _direction_dense(xd, gamma, 1.0 / delta, gamma_rate_target=0.0)
            xd = antisym_exp(-delta * g.b) @ xd @ antisym_exp(delta * g.a)
            gamma += delta * g.gamma_rate
            drift = float(
                np.abs(np.sort(np.linalg.svd(xd, compute_uv=False)) - ladder).max()
            )
            trace.append(
                FlowRecord(len(trace) + 1, gamma, drift, _residual_dense(xd, gamma), delta)
            )

    final_residual = _residual_dense(xd, gamma)
    if final_residual > 1e-4:
        raise FlowConvergenceError(
            f"structure residual {final_residual:.2e} never met tolerance", trace
        )
    d, u, l = _bands(xd)
    return GammaMatrix(diag=d, upper=u, lower=l, gamma=float(np.clip(gamma, 0, 1))), trace
