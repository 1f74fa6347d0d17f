"""Shared linear algebra.

Everything here is plain numerics with no quantum semantics: the chain
type and its eigensolve, eigendecomposition-based matrix exponentials, the
minimum-norm affine solve of the null-vector flow and the Levenberg-Marquardt
solver of the root problems.  Every exchange chain the package designs is a
``Chain``: its couplings, with no on-site field, and spectra are plain
sorted arrays.  ``propagator`` is the single e^{-iHt} primitive: a
``Chain`` goes through the chain eigensolver, any other Hermitian matrix
through a dense eigendecomposition.
``chebyshev_propagate`` applies e^{-iHt} to states without forming it, for
the sparse spin Hamiltonians of the dense cloning oracle, whose exact
spectral interval the oracle supplies.
``antisym_exp`` is the orthogonal exponential that the null-vector flow's
isospectral step applies.  That flow and the gamma continuation record
into ``FlowTrace`` (their progress CSV) and stall with ``FlowStallError``.

Only numpy is imported here.  The chain eigensolver is numpy's SVD of
the chain's bidiagonal block, and sparse matrices are used through their
own methods, so nothing in this module loads SciPy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-12
SPECTRUM_MARGIN = 1e-9  # relative padding of a Chebyshev interval against rounding
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_LM_TOL = 1e-15  # lmder's ftol, xtol and gtol


@dataclass(frozen=True)
class Chain:
    """XX exchange chain with no on-site field, given by its n - 1 couplings.

    Its single-excitation Hamiltonian is the symmetric tridiagonal matrix
    with zero diagonal and the couplings on both off-diagonals.  A chain of
    one site has no couplings.
    """

    couplings: np.ndarray

    def __post_init__(self):
        couplings = np.asarray(self.couplings, dtype=float)
        object.__setattr__(self, "couplings", couplings)
        if couplings.ndim != 1:
            raise ValueError("couplings must be a one-dimensional list")
        if not np.all(np.isfinite(couplings)):
            raise ValueError("couplings must be finite")

    @property
    def n(self) -> int:
        return self.couplings.size + 1


def eig_sym_tridiag(chain: Chain) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a chain's single-excitation Hamiltonian.

    Returns the ascending eigenvalues and an orthonormal eigenvector matrix V
    with H = V diag(w) V^T.  The zero diagonal couples even sites only to
    odd ones, so with the even-by-odd lower bidiagonal block B = U S V^T the
    eigenvalues are +-sigma with vectors (u, +-v) / sqrt(2), and for odd n a
    zero mode (u_last, 0) on the even (0-based) sites (Golub & Kahan 1965).
    One real SVD of B holds even the widest clone ladders to rounding, where
    a tridiagonal eigensolver lost up to 1e-7 relative.  The vectors are
    orthonormal inside degenerate clusters too.
    """
    n, couplings = chain.n, chain.couplings
    if n == 1:
        return np.zeros(1), np.ones((1, 1))
    half = n // 2
    block = np.zeros(((n + 1) // 2, half))
    i = np.arange(half)
    block[i, i] = couplings[0::2]
    block[i[: (n - 1) // 2] + 1, i[: (n - 1) // 2]] = couplings[1::2]
    u, sigma, vt = np.linalg.svd(block)
    pair_u, pair_v = u[:, :half] * np.sqrt(0.5), vt.T * np.sqrt(0.5)
    # columns: -sigma descending in magnitude, the zero mode, +sigma ascending
    v = np.zeros((n, n))
    v[0::2, :half], v[1::2, :half] = pair_u, -pair_v
    v[0::2, n - half:], v[1::2, n - half:] = pair_u[:, ::-1], pair_v[:, ::-1]
    if n % 2:
        v[0::2, half] = u[:, half]
    return np.concatenate([-sigma, np.zeros(n % 2), sigma[::-1]]), v


def propagator(h: Chain | np.ndarray, t: float) -> np.ndarray:
    """Evolution operator e^{-iHt}, via eigendecomposition.

    A ``Chain`` goes through :func:`eig_sym_tridiag`, a Hermitian matrix
    through dense ``eigh``.  Orthonormal eigenvectors to 1e-10 make the
    result unitary to the same order; past that a ``ValueError`` is raised.
    """
    if isinstance(h, Chain):
        w, v = eig_sym_tridiag(h)
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


def chebyshev_propagate(h, t: float, vec: np.ndarray, interval) -> np.ndarray:
    """e^{-iHt} applied to a state, or to a block of states in columns.

    ``h`` is a real symmetric scipy sparse matrix and ``interval`` the
    (lowest, highest) eigenvalue of ``h``, which the caller knows exactly
    (the oracles' Hamiltonians are free-fermion).  Padded at both ends by
    SPECTRUM_MARGIN times its largest magnitude, it is [c - r, c + r], and
    with z = r t the exponential is the Chebyshev series e^{-ict} sum_k
    (2 - delta_k0) (-i)^k J_k(z) T_k((H - c) / r) (Tal-Ezer & Kosloff
    1984), cut after the last Bessel coefficient above 1e-16.  The degree
    is therefore fixed before the first matrix product.  The real H
    multiplies the complex block viewed as real columns.
    """
    vec = np.asarray(vec, dtype=complex)
    block = np.ascontiguousarray(vec.reshape(vec.shape[0], -1))
    lo, hi = interval
    center = (hi + lo) / 2.0
    half_width = (hi - lo) / 2.0 + SPECTRUM_MARGIN * max(abs(lo), abs(hi))
    phase = np.exp(-1j * center * t)
    if half_width * t == 0.0:
        return phase * vec
    bessel = _bessel_j(abs(half_width * t))
    # (-i sign t)^k from a table: complex pow drifts by ~k eps
    turns = np.array([1.0, -1j, -1.0, 1j]) if t > 0 else np.array([1.0, 1j, -1.0, -1j])
    coeffs = bessel * turns[np.arange(bessel.size) % 4]
    coeffs[1:] *= 2.0

    # 2 (H - c) / r through the matrix's own methods, so this module needs no
    # scipy import; a zero shift would store explicit zeros on the diagonal
    two_h = h.copy()
    if center:
        two_h.setdiag(h.diagonal() - center)
    two_h *= 2.0 / half_width
    prev = block.view(float)
    cur = 0.5 * (two_h @ prev)
    out = coeffs[0] * block + coeffs[1] * cur.view(complex)
    for c in coeffs[2:]:
        nxt = two_h @ cur
        nxt -= prev
        prev, cur = cur, nxt
        out += c * cur.view(complex)
    return (phase * out).reshape(vec.shape)


def _bessel_j(z: float) -> np.ndarray:
    """J_k(z) for k = 0, 1, ... through the last order above 1e-16 (at least 1), z > 0.

    Miller's downward recurrence J_k-1 = (2k / z) J_k - J_k+1, started
    where J is negligible and normalized by J_0 + 2 sum_k J_2k = 1, gives
    every order to about 1e-16 absolute.
    """
    top = int(z + 60.0 + 25.0 * np.cbrt(z))
    j = np.zeros(top + 1)
    above, here = 0.0, 1.0
    for k in range(top, 0, -1):
        j[k] = here
        above, here = here, 2.0 * k / z * here - above
        if abs(here) > 1e100:
            j[k:] *= 1e-100
            above, here = above * 1e-100, here * 1e-100
    j[0] = here
    j /= j[0] + 2.0 * j[2::2].sum()
    return j[: max(np.flatnonzero(np.abs(j) > 1e-16)[-1] + 1, 2)]


def antisym_exp(g: np.ndarray) -> np.ndarray:
    """Orthogonal exponential of a real antisymmetric matrix.

    Uses the Hermitian eigendecomposition of iG, so the result is orthogonal
    to machine precision with determinant +1. The Hermiticity check on iG
    is the antisymmetry check on G, so a non-antisymmetric G raises there.
    """
    g = np.asarray(g, dtype=float)
    return propagator(1j * g, 1.0).real


@dataclass
class FlowTrace:
    """A flow's progress: a CSV ``header``, a ``str.format`` pattern ``row``
    and one tuple of values per recorded step in ``rows``."""

    header: str
    row: str
    rows: list = field(default_factory=list)

    def to_csv(self) -> str:
        return "\n".join([self.header] + [self.row.format(*r) for r in self.rows]) + "\n"


class FlowStallError(RuntimeError):
    """Raised when a flow stops short of its target; the partial
    :class:`FlowTrace` is attached as ``trace``."""

    def __init__(self, message, trace: FlowTrace):
        super().__init__(message)
        self.trace = trace


def levenberg_marquardt(fun, jac, x0):
    """Least-squares solution of fun(x) = 0 by MINPACK's ``lmder`` (Moré 1978).

    ``fun`` returns m >= n residuals and ``jac`` their (m, n) Jacobian.  The
    rules are lmder's with mode 1 scaling: D holds the running maximum of
    the Jacobian column norms, the first trust radius is 100 |D x0|, each
    step takes the Levenberg-Marquardt parameter from Moré's search, and
    the ratio of actual to predicted reduction updates the radius.  The run
    stops on lmder's ftol, xtol or gtol tests, each at 1e-15, at machine
    precision, or after 100 n residual evaluations.  lmder solves each
    damped system by QR and Givens rotations; here one SVD of J D^-1 per
    Jacobian serves every damping value, which agrees with it to rounding.
    Exceptions raised by ``fun`` or ``jac`` propagate.  Returns the last
    accepted point and its residuals.
    """
    x = np.array(x0, dtype=float)
    n = x.size
    f = np.asarray(fun(x), dtype=float)
    if f.size < n:
        raise ValueError("need at least as many residuals as unknowns")
    if not np.all(np.isfinite(f)):
        raise ValueError("residuals are not finite at the starting point")
    fnorm, nfev, max_nfev = _norm(f), 1, 100 * n
    par, first = 0.0, True
    while True:
        jacobian = np.asarray(jac(x), dtype=float)
        col_norms = np.sqrt((jacobian ** 2).sum(axis=0))
        if first:
            scale = np.where(col_norms == 0.0, 1.0, col_norms)
            xnorm = _norm(scale * x)
            delta = 100.0 * xnorm if xnorm else 100.0
        # largest cosine between a Jacobian column and the residual
        gnorm, live = 0.0, col_norms != 0.0
        if fnorm:
            cosines = (jacobian.T @ f)[live] / col_norms[live] / fnorm
            gnorm = float(np.abs(cosines).max(initial=0.0))
        if gnorm <= _LM_TOL:
            return x, f
        scale = np.maximum(scale, col_norms)
        u, sv, vt = np.linalg.svd(jacobian / scale, full_matrices=False)
        proj = u.T @ f
        while True:
            # w = D p in the right singular basis, so |D p| = |w|, |J p| = |S w|
            par, w = _lm_parameter(sv, proj, delta, par)
            trial = x - (vt.T @ w) / scale
            pnorm = _norm(w)
            if first:
                delta = min(delta, pnorm)
            f_trial = np.asarray(fun(trial), dtype=float)
            nfev += 1
            fnorm1 = _norm(f_trial)
            actred = 1.0 - (fnorm1 / fnorm) ** 2 if 0.1 * fnorm1 < fnorm else -1.0
            temp1 = _norm(sv * w) / fnorm
            temp2 = np.sqrt(par) * pnorm / fnorm
            prered = temp1 ** 2 + temp2 ** 2 / 0.5
            dirder = -(temp1 ** 2 + temp2 ** 2)
            ratio = actred / prered if prered else 0.0
            if ratio <= 0.25:
                temp = 0.5 if actred >= 0.0 else 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * min(delta, pnorm / 0.1)
                par /= temp
            elif par == 0.0 or ratio >= 0.75:
                delta = pnorm / 0.5
                par *= 0.5
            if ratio >= 1e-4:
                x, f, fnorm, first = trial, f_trial, fnorm1, False
                xnorm = _norm(scale * x)
            small_reduction = 0.5 * ratio <= 1.0
            if ((abs(actred) <= _LM_TOL and prered <= _LM_TOL and small_reduction)
                    or delta <= _LM_TOL * xnorm or nfev >= max_nfev
                    or (abs(actred) <= _EPS and prered <= _EPS and small_reduction)
                    or delta <= _EPS * xnorm or gnorm <= _EPS):
                return x, f
            if ratio >= 1e-4:
                break


def _norm(v: np.ndarray) -> float:
    return float(np.sqrt(v @ v))


def _lm_parameter(sv, proj, delta, par):
    """Moré's search for the Levenberg-Marquardt parameter (MINPACK ``lmpar``).

    ``sv`` and ``proj`` are the singular values of J D^-1 and the residual
    in its left singular basis.  The damped scaled step is
    w = sv proj / (sv^2 + par) in the right singular basis.  Returns the
    parameter and w: par = 0 and the Gauss-Newton step when that step lies
    inside the trust region, else a par with |w| within 10 % of ``delta``.
    """
    w = np.divide(proj, sv, out=np.zeros_like(proj), where=sv > 0.0)
    dxnorm = _norm(w)
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, w
    # Newton steps on 1/|w| - 1/delta; parl, paru bracket the root
    parl = 0.0
    if sv[-1] > 0.0:
        parl = fp / delta / (_norm(w / sv) / dxnorm) ** 2
    gnorm = _norm(sv * proj)
    paru = gnorm / delta
    if paru == 0.0:
        paru = _TINY / min(delta, 0.1)
    par = min(max(par, parl), paru)
    if par == 0.0:
        par = gnorm / dxnorm
    for iteration in range(1, 11):
        if par == 0.0:
            par = max(_TINY, 0.001 * paru)
        shifted = sv ** 2 + par
        w = sv * proj / shifted
        dxnorm = _norm(w)
        previous, fp = fp, dxnorm - delta
        if (abs(fp) <= 0.1 * delta or (parl == 0.0 and fp <= previous < 0.0)
                or iteration == 10):
            break
        parc = fp / delta / (_norm(w / np.sqrt(shifted)) / dxnorm) ** 2
        if fp > 0.0:
            parl = max(parl, par)
        elif fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + parc)
    return par, w


def solve_affine(rows: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of rows @ x = rhs.

    An inconsistent system gets its least-squares solution; the callers
    measure what the step achieved.
    """
    return np.linalg.lstsq(rows, rhs, rcond=None)[0]
