"""The gamma family of band matrices, found by continuation in the band values.

The family is indexed by a deformation parameter gamma in [0, 1].  Each member
is a real tridiagonal matrix whose lower and upper bands share the common
ratio r = (1 - gamma) / (1 + gamma), which is mirror-symmetric about its
antidiagonal, and whose singular values sit on the odd ladder
{1, 3, ..., 2n - 1}.  At gamma = 1 the lower band vanishes and the matrix is
the bidiagonal form of a transverse-field chain; at gamma = 0 it is a
symmetric hopping matrix shifted by n along the diagonal.

A member is stored as a zy chain document stores it, by its diagonal, its
couplings J and gamma; the bands J(1 + gamma) and J(1 - gamma) are derived
here and nowhere else, so no member can break their ratio.  Mirror symmetry
leaves n free values, the mirror classes theta of the diagonal and of the
upper band; the lower band is r times the upper one, so every theta gives a
matrix with the family's structure exactly.  A member is then a root of the
n equations sigma(X(theta)) = ladder, a structured inverse singular-value
problem that Newton's method solves with the analytic Jacobian
d sigma_a = u_a^T dX v_a from one SVD (Friedland, Nocedal & Overton 1987).  :func:`interpolate_gamma` walks gamma from a seed endpoint by a
secant predictor and that Newton corrector (Allgower & Georg 1990), so it
stays on the branch that the paper's Toda-like flow traces, which the
null-vector flow of ``synthesis`` still integrates.  Progress goes to a
``numerics.FlowTrace`` and a stall raises ``numerics.FlowStallError``.
A member is also the one-particle content of a spin chain with X fields
(the diagonal), ZZ couplings (the upper band) and YY couplings (the lower
band); :func:`zy_ghz_overlap` gives that chain's exact GHZ overlap from
``ghz_ising``'s (n+1)-square complex determinant, at any size.  Only numpy is
used.
"""

from dataclasses import dataclass

import numpy as np

from .ghz_ising import ghz_overlaps, majorana_blocks
from .numerics import FlowStallError, FlowTrace
from .pst import standard_couplings

STRUCTURE_GATE = 5e-3
SEED_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class GammaMatrix:
    """Tridiagonal member of the gamma family, stored as a zy document stores it.

    The member is its diagonal, its couplings J and gamma; the bands
    ``upper`` = J(1 + gamma) and ``lower`` = J(1 - gamma) are derived, so
    their ratio (1 - gamma) / (1 + gamma) holds by construction.  The bands
    must be finite and mirror-symmetric about the antidiagonal within a loose
    admission gate; use :func:`structure_residual` for precise measurement.
    """

    diag: np.ndarray
    couplings: np.ndarray
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=float))
        object.__setattr__(self, "couplings", np.asarray(self.couplings, dtype=float))
        if self.diag.size < 1:
            raise ValueError("need at least one site")
        if self.couplings.shape != (self.diag.size - 1,):
            raise ValueError("band lengths must be one less than the dimension")
        if not -1e-9 <= self.gamma <= 1 + 1e-9:
            raise ValueError("gamma must lie in [0, 1]")
        for name in ("diag", "upper", "lower"):
            band = getattr(self, name)
            if not np.isfinite(band).all():
                raise ValueError(f"the {name} band must be finite, got {band.tolist()}")
        residual = structure_residual(self)
        if residual > STRUCTURE_GATE:
            raise ValueError(
                f"bands violate the gamma-family structure (residual {residual:.2e})"
            )

    @property
    def n(self) -> int:
        return self.diag.size

    @property
    def upper(self) -> np.ndarray:
        """The upper band J(1 + gamma), the chain's ZZ couplings."""
        # an overflowing band is refused by the gate, so numpy need not warn
        with np.errstate(over="ignore"):
            return self.couplings * (1.0 + self.gamma)

    @property
    def lower(self) -> np.ndarray:
        """The lower band J(1 - gamma), the chain's YY couplings."""
        return self.couplings * (1.0 - self.gamma)

    def to_dense(self) -> np.ndarray:
        return np.diag(self.diag) + np.diag(self.upper, 1) + np.diag(self.lower, -1)

    def singular_values(self) -> np.ndarray:
        """Singular values in increasing order."""
        return np.linalg.svd(self.to_dense(), compute_uv=False)[::-1].copy()


def target_ladder(n: int) -> np.ndarray:
    """The pinned singular-value ladder 1, 3, ..., 2n-1."""
    return np.arange(1, 2 * n, 2, dtype=float)


def gamma_seed(n: int, gamma: float) -> GammaMatrix:
    """Known family member at an endpoint of the deformation range.

    gamma = 1 is the 2n-site transfer chain's band split into its diagonal
    (the even positions) and its upper band (the odd ones); gamma = 0
    is n on the diagonal plus the symmetric n-site transfer couplings.  Both
    carry singular values {1, 3, ..., 2n-1}, which is what makes them valid
    anchors for interpolation.
    """
    if abs(gamma - 1.0) < 1e-12:
        band = standard_couplings(2 * n).couplings
        return GammaMatrix(diag=band[0::2], couplings=band[1::2] / 2, gamma=1.0)
    if abs(gamma) < 1e-12:
        off = standard_couplings(n).couplings if n > 1 else np.zeros(0)
        return GammaMatrix(diag=np.full(n, float(n)), couplings=off, gamma=0.0)
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


def structure_residual(x: GammaMatrix) -> float:
    """Worst mirror deviation of the member's three bands about the antidiagonal;
    their ratio holds by construction."""
    return max(float(np.abs(band - band[::-1]).max(initial=0.0))
               for band in (x.diag, x.upper, x.lower))


def zy_ghz_overlap(x: GammaMatrix) -> float:
    """Exact |<GHZ| e^{-iHt} |0...0>| at t = GHZ_TIME for the spin chain of ``x``:
    X fields on the diagonal, ZZ couplings on the upper band, YY on the lower."""
    return float(ghz_overlaps(majorana_blocks(x.diag[None], x.upper[None], x.lower[None]))[0])


def _mirror_classes(n: int) -> np.ndarray:
    """0/1 matrix taking the n mirror classes to the band entries.

    Rows are the diagonal, then the upper band; columns are the classes of
    the diagonal (ceil(n/2) of them), then those of the upper band
    (ceil((n-1)/2)).  Entry i and entry n-1-i of the diagonal share a class,
    as do entries k and n-2-k of the upper band.
    """
    i, k = np.arange(n), np.arange(n - 1)
    cls = np.concatenate([np.minimum(i, n - 1 - i),
                          (n + 1) // 2 + np.minimum(k, n - 2 - k)])
    return (cls[:, None] == np.arange(n)).astype(float)


def _ladder_system(theta: np.ndarray, expand: np.ndarray, r: float):
    """The member at the mirror classes ``theta`` and its Newton system.

    Returns the dense matrix, sigma - ladder with sigma ascending, and the
    Jacobian of sigma in theta: d sigma_a / d diag_i = U_ia V_ia and
    d sigma_a / d upper_k = U_ka V_k+1,a + r U_k+1,a V_ka, summed over each
    mirror class.
    """
    n = theta.size
    bands = expand @ theta
    xd = np.diag(bands[:n]) + np.diag(bands[n:], 1) + np.diag(r * bands[n:], -1)
    u, sigma, vt = np.linalg.svd(xd)
    u, v = u[:, ::-1], vt[::-1].T
    d_bands = np.vstack([u * v, u[:-1] * v[1:] + r * u[1:] * v[:-1]])
    return xd, sigma[::-1] - target_ladder(n), d_bands.T @ expand


def interpolate_gamma(n: int, gamma_from: float, gamma_to: float,
                      max_steps: int = 1000) -> tuple:
    """The family member at ``gamma_to``, continued from the seed at ``gamma_from``.

    Starts from the validated seed at ``gamma_from`` (which must be 0 or 1)
    and walks gamma to ``gamma_to`` over the mirror classes of the bands.
    Each step predicts the classes by the secant through the last two
    accepted members (the seed alone for the first step) and corrects them
    by Newton's method on sigma = ladder, one SVD per iteration, until
    max |sigma - ladder| <= 8 n eps (2n - 1).  The first step spans 1/8 of
    the range; a step is accepted when the corrector converges and then
    grows 1.5 times, and is rejected and halved when an iteration fails to
    halve the residual or meets a singular Jacobian.  The last step lands
    on ``gamma_to`` exactly.  The member is built once, after the walk, from
    its couplings J = upper / (1 + gamma), so the band ratio holds by
    construction, and the classes make the bands mirror-symmetric.

    ``max_steps`` bounds the corrector iterations over the whole walk.
    Returns the member and the trace, one row per accepted step with its
    ``sv_drift``, the corrector's final max |sigma - ladder|; raises
    :class:`numerics.FlowStallError` (``gamma continuation: ...``, with the
    trace attached) when the budget is spent or the step collapses.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps!r}")
    if not 0.0 <= gamma_to <= 1.0:
        raise ValueError("gamma_to must lie in [0, 1]")
    if n < 2:
        raise ValueError("chains need at least two sites")
    seed = gamma_seed(n, gamma_from)
    validate_seed(seed)
    trace = FlowTrace("step,gamma,sv_drift", "{},{!r},{!r}")
    if abs(gamma_to - gamma_from) <= 1e-12:
        return seed, trace

    expand = _mirror_classes(n)
    tol = 8 * n * np.finfo(float).eps * target_ladder(n)[-1]
    bands = np.concatenate([seed.diag, seed.upper])
    accepted = [(float(seed.gamma), expand.T @ bands / expand.sum(axis=0))]
    span = gamma_to - accepted[0][0]
    h, iterations = span / 8.0, 0
    while accepted[-1][0] != gamma_to:
        g1, theta1 = accepted[-1]
        gamma = gamma_to if abs(h) >= abs(gamma_to - g1) else g1 + h
        theta = theta1
        if len(accepted) > 1:
            g0, theta0 = accepted[-2]
            theta = theta1 + (theta1 - theta0) * ((gamma - g1) / (g1 - g0))
        r = (1.0 - gamma) / (1.0 + gamma)
        previous = np.inf
        while True:
            xd, miss, jacobian = _ladder_system(theta, expand, r)
            residual = float(np.abs(miss).max())
            if residual <= tol or not residual <= 0.5 * previous:
                break
            if iterations >= max_steps:
                raise FlowStallError(
                    f"gamma continuation: corrector budget of {max_steps} iterations "
                    f"spent (gamma = {g1:.6f}, residual {residual:.2e})", trace)
            iterations += 1
            try:
                theta = theta - np.linalg.solve(jacobian, miss)
            except np.linalg.LinAlgError:
                residual = np.inf
                break
            previous = residual
        if not residual <= tol:
            h /= 2.0
            if abs(h) < abs(span) * 2.0**-30:
                raise FlowStallError(
                    f"gamma continuation: continuation step collapsed below "
                    f"{abs(h):.2e} (gamma = {g1:.6f})", trace)
            continue
        accepted = [accepted[-1], (gamma, theta)]
        trace.rows.append((len(trace.rows) + 1, gamma, residual))
        h *= 1.5
    return GammaMatrix(diag=np.diag(xd), couplings=np.diag(xd, 1) / (1.0 + gamma_to),
                       gamma=gamma_to), trace
