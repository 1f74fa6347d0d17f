"""Shared linear algebra.

Everything here is plain numerics with no quantum semantics: the chain
type and its eigensolve, eigendecomposition-based matrix exponentials, the
minimum-norm affine solve of the null-vector flow and the Levenberg-Marquardt
solver of the root problems, whose one ``system`` callable factors each
point once and returns the residuals with a closure for their Jacobian.
Every exchange chain the package designs is a ``Chain``: its couplings,
with no on-site field, and spectra are plain sorted arrays.
``propagator`` is the one e^{-iHt} primitive, whole or one column: a
``Chain`` goes through the chain eigensolver, any other Hermitian matrix
through a dense eigendecomposition.  It refuses a non-finite time and a
column outside the basis, and gates the eigenvectors with
``check_orthonormal``, the one orthonormality gate, also of the Ising
map's singular vectors.  ``chain_block`` is the even-by-odd block that
the eigensolver and the null-vector flow work on.
``givens_factors`` writes a unitary or real orthogonal matrix as phases
and adjacent-plane rotations, from which the dense cloning oracle builds
its nearest-neighbour gate circuits.
``antisym_exp`` is the orthogonal exponential that the null-vector flow's
isospectral step applies.  That flow and the gamma continuation record
into ``FlowTrace`` (their progress CSV).  Every failed design, theirs
or not, raises ``FlowStallError``, and a finished result that misses a
stage's tolerance raises ``StageBreachError``.

Only numpy is imported here, as in every module of the package.  The
chain eigensolver is numpy's SVD of the chain's bidiagonal block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-12
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_LM_TOL = 1e-15  # lmder's ftol, xtol and gtol


@dataclass(frozen=True, eq=False)
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


def block_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions in its block X of an n-site chain's n - 1 couplings, in order.

    The zero diagonal couples even sites (1-based) only to odd ones, so H is
    X, n // 2 even rows by (n + 1) // 2 odd columns, and its transpose.
    """
    k = np.arange(n - 1)
    return k // 2, (k + 1) // 2


def chain_block(couplings) -> np.ndarray:
    """Even-by-odd block X of a chain, its couplings at :func:`block_index`."""
    n = np.size(couplings) + 1
    block = np.zeros((n // 2, n - n // 2))
    block[block_index(n)] = couplings
    return block


def eig_sym_tridiag(chain: Chain) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a chain's single-excitation Hamiltonian.

    Returns the ascending eigenvalues and an orthonormal eigenvector matrix V
    with H = V diag(w) V^T.  With the lower bidiagonal block B = X^T = U S V^T
    of :func:`chain_block` the eigenvalues are +-sigma with vectors
    (u, +-v) / sqrt(2), and for odd n the zero mode V[:, n // 2] = (u_last, 0)
    on the odd (1-based) sites (Golub & Kahan 1965).  One real SVD of B
    holds even the widest clone ladders to rounding, where a tridiagonal
    eigensolver lost up to 1e-7 relative.  The vectors are orthonormal
    inside degenerate clusters too.
    """
    n = chain.n
    if n == 1:
        return np.zeros(1), np.ones((1, 1))
    half = n // 2
    u, sigma, vt = np.linalg.svd(chain_block(chain.couplings).T)
    pair_u, pair_v = u[:, :half] * np.sqrt(0.5), vt.T * np.sqrt(0.5)
    # columns: -sigma descending in magnitude, the zero mode, +sigma ascending
    v = np.zeros((n, n))
    v[0::2, :half], v[1::2, :half] = pair_u, -pair_v
    v[0::2, n - half:], v[1::2, n - half:] = pair_u[:, ::-1], pair_v[:, ::-1]
    if n % 2:
        v[0::2, half] = u[:, half]
    return np.concatenate([-sigma, np.zeros(n % 2), sigma[::-1]]), v


def propagator(h: Chain | np.ndarray, t: float, k: int | None = None) -> np.ndarray:
    """Evolution operator e^{-iHt}, or its column k alone, via eigendecomposition.

    A ``Chain`` goes through :func:`eig_sym_tridiag`, a Hermitian matrix
    through dense ``eigh``, and H = V diag(w) V^H is evolved as
    V diag(e^{-iwt}) V^H.  A non-Hermitian matrix, a non-finite time, a
    column k that is not an integer (a float or a bool; numpy integers
    pass) or one outside 0..n-1 raises ``ValueError``, and the eigenvectors
    pass :func:`check_orthonormal` first.
    """
    if isinstance(h, Chain):
        w, v = eig_sym_tridiag(h)
    else:
        h = np.asarray(h)
        w, v = np.linalg.eigh(h)
        # eigh reads one triangle, so h is checked after it, in 64 x 64 tiles: the
        # transposed reads stay in cache and no temporary adds to eigh's peak memory
        dev = max((np.abs(h[i:i + 64, j:j + 64] - h[j:j + 64, i:i + 64].conj().T).max()
                   for i in range(0, len(h), 64) for j in range(0, len(h), 64)), default=0.0)
        if dev > HERMITICITY_TOL and dev > HERMITICITY_TOL * np.abs(h).max():
            raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e})")
    if not np.isfinite(t):
        raise ValueError("evolution time must be finite")
    if k is not None and (isinstance(k, bool) or not isinstance(k, (int, np.integer))):
        raise ValueError(f"basis index must be an integer, got {k!r}")
    if k is not None and not 0 <= k < len(w):
        raise ValueError(f"basis index {k} is outside 0..{len(w) - 1}")
    check_orthonormal(v)
    phases = np.exp(-1j * w * t)
    if k is None:
        return (v * phases) @ v.conj().T
    return v @ (phases * v[k].conj())


def check_orthonormal(v: np.ndarray) -> None:
    """Refuse a basis, or a stack of them, whose columns are not orthonormal to 1e-10.

    Vectors that pass make an evolution built from them unitary to the
    same order; past that, and for NaN entries, a ``ValueError`` is raised.
    An empty basis passes.
    """
    gram = np.swapaxes(v.conj(), -1, -2) @ v - np.eye(v.shape[-1])
    dev = np.abs(gram, out=gram).real.max(initial=0.0)
    if not dev <= 1e-10:
        raise ValueError(f"basis is not orthonormal (deviation {dev:.3e})")


def givens_factors(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor a unitary or real orthogonal n x n matrix into adjacent-plane rotations.

    Returns (d, planes, rotations) with u = G_K ... G_1 diag(d), where G_i
    acts as the 2 x 2 ``rotations[i]`` on the plane (planes[i], planes[i] + 1)
    and as the identity elsewhere; the list is in the order the factors act
    on a vector, after the diagonal.  The lower triangle is nulled column by
    column with bottom-up row rotations [[x*, y*], [-y, x]] / |(x, y)|, each
    of determinant 1, which leave every pivot real and positive.  So d holds
    one phase per mode: ones to rounding but the last, which is det u.
    There are always n(n - 1) / 2 rotations, real for a real u.
    """
    a = np.array(u, dtype=np.result_type(u, float))
    n = a.shape[0]
    planes, rotations = [], []
    for col in range(n - 1):
        for row in range(n - 1, col, -1):
            x, y = a[row - 1, col], a[row, col]
            rho = np.hypot(abs(x), abs(y))
            g = (np.array([[np.conj(x), np.conj(y)], [-y, x]]) / rho if rho
                 else np.eye(2, dtype=a.dtype))
            a[row - 1:row + 1, col:] = g @ a[row - 1:row + 1, col:]
            planes.append(row - 1)
            rotations.append(g.conj().T)
    return (a.diagonal().copy(), np.array(planes[::-1], dtype=int),
            np.array(rotations[::-1], dtype=a.dtype).reshape(-1, 2, 2))


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
    """Raised when a design fails: a flow stops short of its target, its
    result misses the target's check, or no design exists.  The message
    starts with the name of the flow or check that failed, and ``trace`` is
    the flow's partial :class:`FlowTrace`, or None when no flow ran."""

    def __init__(self, message, trace: FlowTrace | None = None):
        super().__init__(message)
        self.trace = trace


class StageBreachError(RuntimeError):
    """Raised when a finished result misses the tolerance of a stage or
    check.  The message is ``"<stage>: <detail>"``, and ``report`` is the
    text of the report to write anyway, or None."""

    def __init__(self, stage: str, detail: str, report: str | None = None):
        super().__init__(f"{stage}: {detail}")
        self.report = report


def levenberg_marquardt(system, x0):
    """Least-squares zero of ``system``'s residuals by MINPACK's ``lmder`` (Moré 1978).

    ``system(x)`` factors the point x once and returns its m >= n residuals
    with a zero-argument closure over that factorization for their (m, n)
    Jacobian, both as float arrays.  The closure runs only at accepted
    points, where lmder evaluates the Jacobian, so a rejected trial forms
    none.  The rules are lmder's with mode 1 scaling: D holds the running
    maximum of the Jacobian column norms, the first trust radius is
    100 |D x0|, each step takes the Levenberg-Marquardt parameter from
    Moré's search, and the ratio of actual to predicted reduction updates
    the radius.  The run stops on lmder's ftol, xtol or gtol tests, each at
    1e-15, at machine precision, or after 100 n residual evaluations.
    lmder solves each damped system by QR and Givens rotations; here one
    SVD of J D^-1 per Jacobian serves every damping value, agreeing to rounding.
    Exceptions raised by ``system`` or its closure propagate.  Returns the
    last accepted point and its residuals.
    """
    x = np.array(x0, dtype=float)
    n = x.size
    f, jac = system(x)
    if f.size < n:
        raise ValueError("need at least as many residuals as unknowns")
    if not np.all(np.isfinite(f)):
        raise ValueError("residuals are not finite at the starting point")
    fnorm, nfev, max_nfev = _norm(f), 1, 100 * n
    par, first = 0.0, True
    while True:
        jacobian = jac()
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
            f_trial, jac_trial = system(trial)
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
                x, f, jac, fnorm, first = trial, f_trial, jac_trial, fnorm1, False
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
