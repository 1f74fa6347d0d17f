"""Isospectral flows that sculpt a chain until it synthesises a target state.

The methods here keep the excitation-conserving block structure of an XX
chain explicit: with sites grouped into odd and even sublattices, the
single-excitation Hamiltonian with zero diagonal is the off-diagonal block
``X`` (even rows, odd columns), and every coupling pattern with the same
singular values of ``X`` is reachable through updates
``X -> exp(-A_e) X exp(A_o)`` with antisymmetric generators acting on the
two sublattices.  Constraining the generators so the update preserves the
nearest-neighbour pattern turns state synthesis into a constrained ascent
on a fixed-spectrum manifold.  The update is ``isospectral_step``, and
``_off_pattern_rows`` differentiates it in the same packed generator
layout, so this module alone defines that layout; the flow's progress is a
``numerics.FlowTrace``, and ``wstate_chain`` raises
``numerics.FlowStallError`` with that trace when the flow stops short or
its chain misses the revival.  The flow's stop is a module constant, so a
tolerance only judges the chain it returns.

The null-vector flow steers the zero mode of the chain toward a prescribed
vector, which fixes the evolution exactly when the spectrum makes the
propagator at ``REFLECTION_TIME`` a reflection, and hands over to a
Levenberg-Marquardt root polish near the target.  Each ascent step is the
vertex of a small linear programme, found by a primal simplex in the null
space of the pattern constraint (``_lp_direction``) and returned exactly:
its bound coordinates at the box, the rest solving the constraint, so the
module needs numpy alone.  ``zero_mode_chain`` solves the same inverse
problem directly on a ratio-fixed chain, and ``wstate_chain`` designs the
uniform odd-site revival through the mirror-reduced half chain.  A
designed chain is evolved once, by ``sign_gauge``, which returns the
sign-gauged couplings together with the state they produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (Chain, FlowStallError, FlowTrace, antisym_exp, block_index,
                       chain_block, eig_sym_tridiag, levenberg_marquardt,
                       propagator, solve_affine, spectral_propagator)

__all__ = [
    "NullVectorTask",
    "ConvergenceState",
    "synthesis_flow_nullvector",
    "reflection_check",
    "boundary_value",
    "chain_from_spectrum",
    "zero_mode",
    "reflection_target",
    "three_site_couplings",
    "five_site_couplings",
    "zero_mode_chain",
    "polish_null_vector_root",
    "produced_state",
    "sign_gauge",
    "unfold_couplings",
    "mirror_target_fold",
    "wstate_chain",
    "WstateDesign",
    "REFLECTION_TIME",
]

# Time at which every chain this module designs acts as a reflection about
# its zero mode: with a spectrum of zero and odd integers, exp(-i lambda t)
# is -1 on every mode but the zero mode.
REFLECTION_TIME = np.pi


# ---------------------------------------------------------------------------
# task containers


@dataclass(frozen=True, eq=False)
class NullVectorTask:
    """A request to steer the chain's zero mode onto ``target_null_vector``.

    Requires a finite spectrum consisting of symmetric pairs around a
    unique zero eigenvalue, so the chain supports a zero mode confined to
    odd sites; it is kept as a sorted array.  The target must share that
    support: unit norm, even components zero.
    """

    spectrum: np.ndarray
    target_null_vector: np.ndarray

    def __post_init__(self):
        vals = np.sort(np.asarray(self.spectrum, dtype=float))
        if not np.all(np.isfinite(vals)):
            raise ValueError("spectrum must be finite")
        object.__setattr__(self, "spectrum", vals)
        n = vals.size
        if n % 2 == 0:
            raise ValueError("null-vector tasks need an odd number of sites")
        zeros = np.abs(vals) < 1e-12
        if zeros.sum() != 1:
            raise ValueError("spectrum must contain exactly one zero eigenvalue")
        if np.abs(vals + vals[::-1]).max() > 1e-9:
            raise ValueError("spectrum must be symmetric about zero")
        target = np.asarray(self.target_null_vector, dtype=float)
        if target.shape != (n,):
            raise ValueError(f"target null vector must have length {n}")
        if n > 1 and not np.abs(target[1::2]).max() <= 1e-12:
            raise ValueError("target null vector must vanish on even sites")
        if not abs(np.linalg.norm(target) - 1.0) <= 1e-10:
            raise ValueError("target null vector must be normalised")
        object.__setattr__(self, "target_null_vector", target)

    @property
    def n(self) -> int:
        return self.spectrum.size


def _null_vector_trace() -> FlowTrace:
    return FlowTrace("iteration,chi,delta,off_band_residual",
                     "{},{:.16e},{:.16e},{:.6e}")


@dataclass
class ConvergenceState:
    """Progress report for the null-vector flow.

    ``chi`` is the quantity being driven to one, the overlap of the chain's
    zero mode with the target null vector.  ``trace`` keeps one row per
    recorded iteration as ``(iteration, chi, delta, off_band_residual)``,
    where ``delta`` is the box size of that iteration's step; an accepted
    root polish adds a row for the polished iterate.  ``polishes`` keeps one
    ``(iteration, accepted)`` pair per root-polish attempt.
    """

    chi: float
    iterations: int
    status: str = "running"
    trace: FlowTrace = field(default_factory=_null_vector_trace)
    polishes: list = field(default_factory=list)

    def __post_init__(self):
        if not -1.0 - 1e-12 <= self.chi <= 1.0 + 1e-12:
            raise ValueError("chi must lie in [-1, 1]")


def _saturating_box(step: float, chi: float) -> float:
    """Box size step * sqrt(1 - chi^2), which vanishes at |chi| = 1 so the
    second-order error of a finite rotation never overwhelms the gain."""
    chi = min(max(chi, -1.0), 1.0)
    return step * np.sqrt(1.0 - chi * chi)


# ---------------------------------------------------------------------------
# block-structure plumbing


def isospectral_step(x: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Orthogonal update exp(-B) x exp(A), which keeps the singular values of x.

    ``params`` packs both antisymmetric generators: first the strict upper
    triangle of A, row by row, with A of size ``x.shape[1]``, then that of
    B, of size ``x.shape[0]``.  :func:`_off_pattern_rows` differentiates
    the update in this layout.
    """
    rows, cols = x.shape
    split = cols * (cols - 1) // 2
    a = _antisym(params[:split], cols)
    b = _antisym(params[split:], rows)
    return antisym_exp(-b) @ x @ antisym_exp(a)


def _antisym(upper: np.ndarray, d: int) -> np.ndarray:
    g = np.zeros((d, d))
    g[np.triu_indices(d, 1)] = upper
    return g - g.T


def _off_pattern_rows(x: np.ndarray):
    """Rows of the first-order constraint that keeps the update tridiagonal.

    Each generator parameter, packed as :func:`isospectral_step` reads it
    (A_o on the odd columns, then A_e on the even rows), moves the block by
    d(X) = X A_o - A_e X; the returned matrix collects the off-pattern
    entries of that derivative, one column per parameter.
    """
    ne, no = x.shape
    io, jo = np.triu_indices(no, 1)
    ie, je = np.triu_indices(ne, 1)
    deriv = np.zeros((ne, no, io.size + ie.size))
    k = np.arange(io.size)
    deriv[:, jo, k] += x[:, io]
    deriv[:, io, k] -= x[:, jo]
    k = io.size + np.arange(ie.size)
    deriv[ie, :, k] -= x[je, :]
    deriv[je, :, k] += x[ie, :]
    mask = np.ones((ne, no), dtype=bool)
    mask[block_index(ne + no)] = False
    return deriv[mask], mask


_LEAK_GATE = 1e-8
_COMPENSATE_PASSES = 12


def _compensate(x: np.ndarray):
    """Squash off-pattern leakage with small corrective rotations.

    Each pass solves the linearised constraint for a generator that cancels
    the current leakage, then applies it exactly, so the iterate stays on
    the fixed-spectrum manifold while the leakage shrinks quadratically.
    The leakage passes once it is at most ``_LEAK_GATE``; after
    ``_COMPENSATE_PASSES`` passes it fails.
    """
    for _ in range(_COMPENSATE_PASSES):
        rows, mask = _off_pattern_rows(x)
        leak = x[mask]
        res = float(np.abs(leak).max()) if leak.size else 0.0
        if res <= _LEAK_GATE:
            return x, res, True
        try:
            p_fix = solve_affine(rows, -leak)
        except np.linalg.LinAlgError:
            return x, res, False
        x = isospectral_step(x, p_fix)
    rows, mask = _off_pattern_rows(x)
    res = float(np.abs(x[mask]).max())
    return x, res, res <= _LEAK_GATE


_EPS = np.finfo(float).eps


def _null_basis(rows: np.ndarray):
    """Full-row-rank rows with the null space of ``rows``, and an orthonormal
    basis of that null space, one column per dimension.

    A complete QR of rows.T gives the basis when every pivot of its triangle
    is above sqrt(eps) of the largest, so the rows have full rank, and the
    rows stay as they are.  An unpivoted QR does not reveal a rank below
    that, so an SVD then finds it, and the rows become the scaled right
    singular vectors of their row space, which have the same null space.
    """
    m, n = rows.shape
    q, t = np.linalg.qr(rows.T, mode="complete")
    pivots = np.abs(np.diagonal(t))
    if m == 0 or (m <= n and pivots.min() > np.sqrt(_EPS) * pivots.max()):
        return rows, q[:, m:]
    _, s, vt = np.linalg.svd(rows)
    rank = int(np.count_nonzero(s > max(m, n) * _EPS * s[0]))
    return s[:rank, None] * vt[:rank], vt[rank:].T


def _lp_direction(rows: np.ndarray, gradient: np.ndarray, box: float):
    """Best first-order ascent step inside the box, staying on the pattern.

    Solves  max <gradient, p>  subject to  rows @ p = 0 and |p_i| <= box,
    the linear programme whose vertex solutions drive the flow, by the
    primal simplex method in the null space of ``rows``: p = Z q with Z an
    orthonormal basis of k = columns - rank dimensions.  From q = 0 the walk
    follows the gradient projected off the active bounds and adds each bound
    it meets, until k bounds are active.  At that vertex the multipliers of
    the active bounds come from the inverse of their k-by-k rows; while one
    is negative, the most negative (the lowest index after a degenerate
    step, Bland's rule) leaves and the first bound met enters.

    The vertex is returned exactly: its k active coordinates are +-box and
    the others solve rows_B p_B = -rows_N p_N, so rows @ p vanishes to
    rounding and every bound holds.  A gradient with no component in the
    null space, zero included, gives p = 0 and gain 0.
    """
    rows, z = _null_basis(rows)
    n, k = z.shape
    # relative size below which a projection is rounding noise
    noise = 10 * n * _EPS
    c = z.T @ gradient
    p = np.zeros(n)
    if np.linalg.norm(c) <= noise * np.linalg.norm(gradient):
        return p, 0.0
    # active[i] is the coordinate held at signs[i] * box; a vertex fills all k
    active = np.zeros(k, dtype=int)
    signs = np.zeros(k)
    filled = 0
    q = np.zeros(k)
    degenerate = False
    while True:
        bounds = signs[:filled, None] * z[active[:filled]]
        if filled < k:
            rest = np.linalg.qr(bounds.T, mode="complete")[0][:, filled:]
            d = rest @ (rest.T @ c)
            if np.linalg.norm(d) <= noise * np.linalg.norm(c):
                d = rest[:, 0]
            held, slot = active[:filled], filled
            filled += 1
        else:
            inverse = np.linalg.inv(bounds)
            q = box * inverse.sum(axis=1)
            mu = inverse.T @ c
            negative = np.flatnonzero(mu < -1e-12 * np.abs(mu).max())
            if not negative.size:
                break
            slot = (negative[np.argmin(active[negative])] if degenerate
                    else int(np.argmin(mu)))
            # moves off bound `slot` at unit rate, keeping the others
            d = -inverse[:, slot]
            held = np.delete(active, slot)
        zq, zd = z @ q, z @ d
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = np.maximum((np.sign(zd) * box - zq) / zd, 0.0)
        steps[np.abs(zd) <= 1e-12 * np.abs(zd).max()] = np.inf
        steps[held] = np.inf
        enter = int(np.argmin(steps))
        degenerate = steps[enter] <= 1e-12 * box
        q = q + steps[enter] * d
        active[slot], signs[slot] = enter, np.sign(zd[enter])
    basic = np.ones(n, dtype=bool)
    basic[active] = False
    p[active] = signs * box
    p[basic] = np.clip(np.linalg.solve(rows[:, basic], -rows[:, active] @ p[active]),
                       -box, box)
    return p, float(gradient @ p)


_STALL_WINDOW = 100
_HANDOVER_CHI = 0.99
# The null-vector flow stops at chi >= _CONVERGED_CHI; no tolerance moves it.
_CONVERGED_CHI = 1.0 - 1e-6
# Largest LP box of the null-vector flow, which scales it by sqrt(1 - chi^2).
_BOX_STEP = 0.1
_MIN_STEP = 1e-13
_WINDOW_SLOPE = 2e-3


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not (np.isfinite(tol) and 0.0 < tol < 1.0):
        raise ValueError(f"tol must be a finite number in (0, 1), got {tol!r}")
    return tol


# ---------------------------------------------------------------------------
# chain construction and diagnostics


def chain_from_spectrum(spectrum) -> np.ndarray:
    """Positive couplings of the zero-diagonal chain with ``spectrum``.

    The chain is the Lanczos chain of diag(spectrum) from the uniform start
    vector, built in bidiagonal form: Golub-Kahan bidiagonalization of
    A = [diag(lambda_+); 0], the positive half over the zero modes, from
    u_1 = (sqrt(2/n), ..., sqrt(2/n), sqrt(1/n)) (Golub & Kahan 1965).  Its
    alternating norms alpha_1, beta_2, alpha_2, ... are the couplings from
    site 1 on, with both bases fully reorthogonalised.  The diagonal is zero
    by construction, so the widest clone ladders are rebuilt to rounding.
    """
    vals = np.sort(np.asarray(spectrum, dtype=float))
    n, half = vals.size, vals.size // 2
    if np.abs(vals + vals[::-1]).max() > 1e-8:
        raise ValueError("spectrum is not symmetric about zero")
    a = np.zeros((n - half, half))
    a[np.arange(half), np.arange(half)] = vals[n - half:]
    # odd sites (1-based) span the left basis, even sites the right one
    bases = [np.zeros((n - half, n - half)), np.zeros((half, half))]
    bases[0][:, 0] = np.sqrt(2.0 / n)
    if n % 2:
        bases[0][-1, 0] = np.sqrt(1.0 / n)
    couplings = np.zeros(n - 1)
    for k in range(n - 1):
        side = (k + 1) % 2
        w = (a.T if side else a) @ bases[1 - side][:, k // 2]
        done = bases[side][:, : (k + 1) // 2]
        if k:
            w -= couplings[k - 1] * done[:, -1]
        for _ in range(2):
            w -= done @ (done.T @ w)
        norm = np.linalg.norm(w)
        if norm < 1e-12:
            raise ValueError("spectrum produced a reducible chain")
        couplings[k] = norm
        bases[side][:, (k + 1) // 2] = w / norm
    return couplings


def zero_mode(couplings: np.ndarray, sign_ref: np.ndarray | None = None) -> np.ndarray:
    """Odd-site zero mode of an odd chain, from one :func:`numerics.eig_sym_tridiag`.

    The sign of the returned vector is fixed so its overlap with
    ``sign_ref`` (a full-length vector or its odd-site part) is
    non-negative when a reference is supplied.  An even chain raises
    ``ValueError``.
    """
    chain = Chain(couplings)
    if chain.n % 2 == 0:
        raise ValueError(f"a zero mode needs an odd number of sites, got {chain.n}")
    lam = eig_sym_tridiag(chain)[1][:, chain.n // 2]
    if sign_ref is not None:
        ref = np.asarray(sign_ref, dtype=float)
        if float(lam[0::2] @ (ref[0::2] if ref.size == chain.n else ref)) < 0:
            lam = -lam
    return lam


def produced_state(couplings: np.ndarray, source: int) -> np.ndarray:
    """State reached from ``source`` after ``REFLECTION_TIME``: one propagator column."""
    return propagator(Chain(couplings), REFLECTION_TIME, source - 1)


def reflection_check(h: Chain, t0: float) -> float:
    """How far the propagator at ``t0`` is from a zero-mode reflection.

    Returns the minimum over a global phase of the entrywise deviation
    between exp(-i h t0) and phase * (1 - 2 P0), with P0 the projector
    onto the eigenspace nearest zero.  Small values certify that
    evolution for t0 acts as a reflection about the zero mode.  The
    propagator and the zero mode come from one eigendecomposition.
    """
    spectrum, v = eig_sym_tridiag(h)
    u = spectral_propagator(spectrum, v, t0)
    k = int(np.argmin(np.abs(spectrum)))
    p0 = np.outer(v[:, k], v[:, k])
    r = np.eye(h.n) - 2.0 * p0
    # the best phase aligns the two matrices in the trace inner product
    tr = np.trace(u @ r)
    phase = tr / abs(tr) if abs(tr) > 1e-14 else 1.0
    return float(np.abs(u - phase * r).max())


def reflection_target(source: int, target_state: np.ndarray) -> np.ndarray:
    """Null vector whose reflection carries ``source`` onto ``target_state``.

    A reflection 1 - 2|v><v| (up to phase) maps the source basis state
    onto the target exactly when v is proportional to the sum or the
    difference of the two states; the sum branch is used here.  Its
    components are then sign-flipped on alternate odd sites, matching the
    zero-mode parity of positive-coupling chains, and the produced state
    carries the same alternation, removable by a diagonal sign gauge on
    the couplings.  A source that is not an integer in 1..n raises
    ``ValueError``.
    """
    target_state = np.asarray(target_state, dtype=float)
    n = target_state.size
    if np.abs(target_state[1::2]).max() > 1e-12:
        raise ValueError("target state must be supported on odd sites")
    if (isinstance(source, bool) or not isinstance(source, (int, np.integer))
            or not 1 <= source <= n):
        raise ValueError(f"source must be a site in 1..{n}, got {source!r}")
    if source % 2 == 0:
        raise ValueError("source must be an odd site")
    phi = np.zeros(n)
    phi[source - 1] = 1.0
    lam = phi + target_state
    lam /= np.linalg.norm(lam)
    signs = np.ones(n)
    signs[0::2] = [(-1.0) ** k for k in range((n + 1) // 2)]
    lam = lam * signs
    if lam[source - 1] < 0:
        lam = -lam
    return lam


def sign_gauge(couplings: np.ndarray, source: int, target: np.ndarray):
    """Sign-gauged chain whose state produced from ``source`` carries the
    signs of ``target``, and that state.

    The chain is evolved once.  With S the diagonal of per-site signs that
    rotate its produced state psi onto the sign pattern of ``target``, the
    gauged Hamiltonian is S H S, so its propagator is S U S and its produced
    state S psi s_source: returns the gauged couplings and that state.
    """
    couplings = np.asarray(couplings, dtype=float)
    target = np.asarray(target, dtype=float)
    psi = produced_state(couplings, source)
    signs = np.ones(psi.size)
    support = (np.abs(psi) > 1e-9) & (np.abs(target) > 1e-9)
    signs[support] = np.sign(np.real(psi[support])) * np.sign(target[support])
    return couplings * signs[:-1] * signs[1:], signs * psi * signs[source - 1]


# ---------------------------------------------------------------------------
# flows


def synthesis_flow_nullvector(task: NullVectorTask, budget: int = 100_000):
    """Drive the chain's zero mode onto the task's target null vector.

    Starting from the positive chain ``chain_from_spectrum`` builds for the
    task spectrum, each iteration solves the linear programme for the
    generator that most increases chi, the overlap of the zero mode with
    the target, inside the box ``_saturating_box(step, chi)``
    (0.1 * sqrt(1 - chi^2) at full step).  It applies that direction plus
    the fix ``p_fix`` of the current off-pattern leakage as one exact
    isospectral rotation, then compensates the leakage that remains.

    A step is accepted when compensation passes and chi does not drop by
    more than 1e-14.  Rejected steps halve the working step; five
    consecutive accepts grow it by half, up to 0.1.  The flow stalls when
    the LP finds no ascent, when the step falls below ``_MIN_STEP``, or
    when chi gains less than ``_WINDOW_SLOPE * (1 - chi)`` over a window
    of 100 iterations; ``budget`` bounds the iterations.  Targets outside
    the reachable region stall on its boundary.  The flow converges at
    chi >= ``_CONVERGED_CHI`` (1 - 1e-6), a constant: a caller's
    tolerance judges the finished chain and never stops the flow early.

    :func:`polish_null_vector_root` is tried at the head of the loop on a
    doubling schedule: with h the first iteration at which chi stands in
    [0.99, _CONVERGED_CHI), at iterations h, h + 1, h + 2, h + 4, h + 8, ...
    while chi stays short of convergence, and nowhere else, so at most
    floor(log2(budget)) + 2 attempts are made.  A root replaces the
    iterate only if its chi does not drop, so a refused polish leaves the
    trajectory untouched, and a budget at or past the iteration where the
    flow converges returns the same chain.

    Returns the final chain and a ConvergenceState.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget!r}")
    vals = task.spectrum
    n = task.n
    target = task.target_null_vector

    seed = chain_from_spectrum(vals)
    if reflection_check(Chain(seed), REFLECTION_TIME) > 1e-8:
        raise ValueError("spectrum does not produce a reflection at time pi")

    no, ne = (n + 1) // 2, n // 2
    # odd-generator pairs (i, j), i < j, as full-chain sites 2i and 2j; the
    # even generator does not move the zero mode
    io, jo = 2 * np.array(np.triu_indices(no, 1))
    even_zeros = np.zeros(ne * (ne - 1) // 2)

    x = chain_block(seed)
    lam = zero_mode(seed, target)
    chi = float(target @ lam)
    step = _BOX_STEP
    report = ConvergenceState(chi=min(max(chi, -1.0), 1.0), iterations=0)
    recorded = report.trace.rows
    recorded.append((0, chi, _saturating_box(step, chi), 0.0))
    consecutive = 0
    it = 0

    def polish(x, chi, lam):
        """One polish attempt, recorded at the current iteration and step;
        returns the root's block, chi and zero mode if accepted, else the
        arguments."""
        root = polish_null_vector_root(x[block_index(n)], vals, target)
        lam_p = lam if root is None else zero_mode(root, target)
        chi_p = float(target @ lam_p)
        accepted = root is not None and chi_p >= chi
        report.polishes.append((it, accepted))
        if not accepted:
            return x, chi, lam
        recorded.append((it, chi_p, _saturating_box(step, chi_p), 0.0))
        return chain_block(root), chi_p, lam_p

    while True:
        # the first polish is the handover, at the first iteration with chi in
        # [0.99, _CONVERGED_CHI); the others follow it by 1, 2, 4, 8, ... steps
        since = it - report.polishes[0][0] if report.polishes else 0
        if (chi < _CONVERGED_CHI and since & (since - 1) == 0
                and (report.polishes or chi >= _HANDOVER_CHI)):
            x, chi, lam = polish(x, chi, lam)
        if chi >= _CONVERGED_CHI:
            report.status = "converged"
            break
        if it >= budget:
            report.status = "budget"
            break
        if step < _MIN_STEP:
            report.status = "stalled"
            break
        it += 1
        size = _saturating_box(step, chi)
        rows, mask = _off_pattern_rows(x)
        gradient = np.concatenate([-(target[io] * lam[jo] - target[jo] * lam[io]),
                                   even_zeros])
        direction, gain = _lp_direction(rows, gradient, size)
        if gain < 1e-15:
            report.status = "stalled"
            break
        p_fix = solve_affine(rows, -x[mask])
        x_try = isospectral_step(x, p_fix + direction)
        x_try, off_res, ok = _compensate(x_try)
        lam_try = zero_mode(x_try[block_index(n)], target)
        chi_try = float(target @ lam_try)
        if ok and chi_try >= chi - 1e-14:
            x, chi, lam = x_try, chi_try, lam_try
            consecutive += 1
            if consecutive >= 5:
                step = min(step * 1.5, _BOX_STEP)
        else:
            consecutive = 0
            step *= 0.5
        recorded.append((it, chi, size, off_res))
        if it % _STALL_WINDOW == 0 and len(recorded) > _STALL_WINDOW:
            gain_w = chi - recorded[-_STALL_WINDOW - 1][1]
            if gain_w < max(1e-12, _WINDOW_SLOPE * (1.0 - chi)) and chi < _CONVERGED_CHI:
                report.status = "stalled"
                break
    report.chi = min(max(chi, -1.0), 1.0)
    report.iterations = it
    return Chain(x[block_index(n)]), report


def _null_vector_system(spectrum_values, target_null_vector):
    """The null-vector root problem as a ``levenberg_marquardt`` system.

    The residual stacks the largest eigenvalues minus the positive half of
    the spectrum, in descending order, and the zero mode minus the target;
    both come from one :func:`numerics.eig_sym_tridiag` of the point.  By
    Hellmann-Feynman J_i moves eigenvalue k by 2 v_k[i] v_k[i+1], and it
    moves the zero mode lam by -H^+ (dH/dJ_i) lam, with the pseudo-inverse
    H^+ built from the same eigenpairs.  An even target raises
    ``ValueError``.
    """
    vals = np.asarray(spectrum_values, dtype=float)
    target = np.asarray(target_null_vector, dtype=float)
    positive = np.sort(vals[vals > 1e-12])[::-1]
    if target.size % 2 == 0:
        raise ValueError(f"a zero mode needs an odd number of sites, got {target.size}")
    half = target.size // 2

    def system(j):
        spectrum, v = eig_sym_tridiag(Chain(j))
        lam = v[:, half] if float(v[:, half] @ target) >= 0 else -v[:, half]

        def jacobian():
            top = v[:, ::-1][:, : positive.size]
            pairs = np.delete(v, half, axis=1)
            pinv = (pairs / np.delete(spectrum, half)) @ pairs.T
            d_lam = -(pinv[:, :-1] * lam[1:] + pinv[:, 1:] * lam[:-1])
            return np.vstack([(2.0 * top[:-1] * top[1:]).T, d_lam])

        return np.concatenate([spectrum[::-1][: positive.size] - positive,
                               lam - target]), jacobian

    return system


def polish_null_vector_root(couplings, spectrum_values, target_null_vector):
    """Least-squares refinement onto an exact chain for the null-vector task.

    Solves for couplings whose block singular values match the positive
    half of the spectrum and whose zero mode equals the target, by
    Levenberg-Marquardt with the analytic Jacobian.  Returns the refined
    couplings, or None when no nearby root exists.
    """
    system = _null_vector_system(spectrum_values, target_null_vector)
    x, fun = levenberg_marquardt(system, couplings)
    if np.abs(fun).max() < 1e-10:
        return x
    return None


# ---------------------------------------------------------------------------
# five-site case study


def boundary_value(gamma1: float, gamma2: float) -> float:
    """Classifier for which five-site zero modes are reachable.

    Positive values mean the coupling ratios gamma1 = J1/J2 and
    gamma2 = J4/J3 admit a chain with spectrum {0, +-3, +-5}; negative
    values fall in the forbidden region whose boundary satisfies
    (1 + gamma1^2)(1 + gamma2^2) = 289/64.
    """
    if gamma1 <= 0 or gamma2 <= 0:
        raise ValueError("coupling ratios must be positive")
    return (1.0 + gamma1 ** 2) * (1.0 + gamma2 ** 2) - 289.0 / 64.0


def three_site_couplings(target_null) -> np.ndarray:
    """Two couplings whose zero mode is ``target_null`` with spectrum {0, +-3}.

    The zero mode of a three-site chain is (J2, 0, -J1) up to norm, so the
    couplings are read off the target directly and scaled to the band.
    """
    v = np.asarray(target_null, dtype=float)
    if v.shape != (3,) or abs(v[1]) > 1e-12:
        raise ValueError("target must be (v1, 0, v3)")
    v = v / np.linalg.norm(v)
    j2, j1 = 3.0 * v[0], -3.0 * v[2]
    if j1 < 0:
        j1, j2 = -j1, -j2
    if j2 < 0:
        raise ValueError("target signs do not admit positive couplings")
    return np.array([j1, j2])


def five_site_couplings(target_null_odd, branch: int = 1) -> np.ndarray:
    """Closed-form five-site chain with spectrum {0, +-3, +-5} and a
    prescribed odd-site zero mode.

    The zero mode (v1, v2, v3) on the odd sites fixes the coupling ratios
    gamma1 = -v2/v1 and gamma2 = -v2/v3; the two spectral symmetric
    functions then determine the coupling magnitudes through a quadratic
    whose two roots give distinct valid chains (select with ``branch``).
    Raises ValueError for targets in the forbidden region where the
    quadratic has no real root.
    """
    v = np.asarray(target_null_odd, dtype=float)
    if v.shape != (3,):
        raise ValueError("odd-site target must have three components")
    v = v / np.linalg.norm(v)
    if v[0] * v[2] <= 0 or abs(v[1]) < 1e-15:
        # one sign pattern per gauge orbit admits positive-ratio chains
        raise ValueError("target signs incompatible with a zero mode")
    g1 = -v[1] / v[0]
    g2 = -v[1] / v[2]
    if g1 <= 0:
        g1, g2 = -g1, -g2
    p = (1.0 + g1 ** 2) * (1.0 + g2 ** 2)
    s_sum = 3.0 ** 2 + 5.0 ** 2
    q = 3.0 ** 2 * 5.0 ** 2
    disc = s_sum ** 2 / 4.0 - q * p / (p - 1.0)
    if disc < -1e-12:
        raise ValueError("forbidden target: no chain with this spectrum")
    disc = max(disc, 0.0)
    u = s_sum / 2.0 + (1 if branch >= 0 else -1) * np.sqrt(disc)
    j2 = np.sqrt(u / (1.0 + g1 ** 2))
    j1 = g1 * j2
    j3 = np.sqrt((s_sum - u) / (1.0 + g2 ** 2))
    j4 = g2 * j3
    return np.array([j1, j2, j3, j4])


def zero_mode_chain(spectrum, target_null_vector):
    """Positive chain with a symmetric spectrum and a prescribed zero mode.

    Generalises ``five_site_couplings``: the zero mode fixes each ratio
    J_2j / J_2j-1 = |lam_2j-1 / lam_2j+1|, leaving a square inverse
    eigenvalue problem in the (n - 1) / 2 magnitudes J_2j-1.  It is solved
    in log magnitudes by Levenberg-Marquardt on log(eigenvalues / spectrum)
    with the Jacobian d(ev_k)/d(J_i) = 2 v_k[i] v_k[i+1].  The problem has
    many roots, so three starts are tried in turn: the odd couplings and
    the pair products of ``chain_from_spectrum``, then equal couplings.
    The zero mode equals the target up to a diagonal sign gauge.

    Returns the couplings once every eigenvalue matches to 1e-10 relative;
    None when no start finds a root, an odd-site target component
    vanishes, or the solve leaves the finite numbers.  A spectrum that
    ``chain_from_spectrum`` refuses raises its ``ValueError``.
    """
    vals = np.sort(np.asarray(spectrum, dtype=float))
    target = np.asarray(target_null_vector, dtype=float)
    n, half = vals.size, vals.size // 2
    if n < 3 or n % 2 == 0 or target.shape != (n,):
        raise ValueError("need an odd spectrum and a target of the same size")
    lam = np.abs(target[0::2])
    if lam.min() == 0.0:
        return None
    ratios = lam[:-1] / lam[1:]
    gains = np.column_stack([np.ones(half), ratios]).ravel()
    positive = vals[half + 1:]

    def couplings(a):
        with np.errstate(over="ignore"):
            return np.repeat(np.exp(a), 2) * gains

    def system(a):
        j = couplings(a)
        spec, v = eig_sym_tridiag(Chain(j))
        ev, v = spec[half + 1:], v[:, half + 1:]

        def jacobian():
            d = 2.0 * j[:, None] * v[:-1] * v[1:]
            return ((d[0::2] + d[1::2]) / ev).T

        # a trial point whose smallest positive eigenvalue rounds to 0 gets a
        # large finite residual, so LM rejects that step, not the whole start
        return np.log(np.maximum(ev, np.finfo(float).tiny) / positive), jacobian

    def solve(start):
        try:
            a, f = levenberg_marquardt(system, start)
        except ValueError:
            return None
        # f is log(eigenvalues / spectrum) at a
        return couplings(a) if np.abs(np.expm1(f)).max() < 1e-10 else None

    # equal couplings carry the spectrum's trace: sum J^2 = sum positive^2
    seed = np.log(chain_from_spectrum(vals))
    starts = [seed[0::2], (seed[0::2] + seed[1::2] - np.log(ratios)) / 2,
              np.full(half, np.log((positive ** 2).sum() / (gains ** 2).sum()) / 2)]
    return next((j for j in map(solve, starts) if j is not None), None)


# ---------------------------------------------------------------------------
# mirror reduction


def unfold_couplings(half: np.ndarray) -> np.ndarray:
    """Mirror-symmetric full chain whose symmetric sector is ``half``."""
    half = np.asarray(half, dtype=float)
    left = np.append(half[1:][::-1], half[0] / np.sqrt(2.0))
    return np.concatenate([left, left[::-1]])


def mirror_target_fold(target_state: np.ndarray) -> np.ndarray:
    """Fold a mirror-symmetric state onto the half chain (centre first).

    The centre amplitude carries over unchanged and each mirror pair
    contributes its amplitude scaled by sqrt(2).
    """
    t = np.asarray(target_state, dtype=float)
    n = t.size
    if n % 2 == 0:
        raise ValueError("mirror folding needs an odd number of sites")
    if np.abs(t - t[::-1]).max() > 1e-10:
        raise ValueError("state is not mirror symmetric")
    m = (n - 1) // 2
    return np.concatenate([[t[m]], np.sqrt(2.0) * t[m + 1:]])


@dataclass(frozen=True, eq=False)
class WstateDesign:
    """Chains produced for a uniform odd-site revival task.

    Both coupling sets are sign-gauged so their revivals at time pi carry
    uniform positive amplitudes; the underlying flows work with the positive
    magnitudes, recoverable through ``np.abs``.  ``half_couplings`` is the
    mirror-reduced half chain whose revival ``half_overlap`` reports, and
    ``flow`` keeps its convergence record.
    """

    couplings: np.ndarray
    half_couplings: np.ndarray
    overlap: float
    half_overlap: float
    flow: ConvergenceState = None


def wstate_chain(n: int = 21, tol: float = 1e-6, budget: int = 100_000) -> WstateDesign:
    """Design a chain that evolves the centre site into the uniform
    odd-site superposition.

    The target is mirror symmetric, so the task is reduced to a half
    chain driven from its first site, solved with the null-vector flow,
    refined onto an exact root, and unfolded.  Positive chains revive
    with alternating signs across the odd sites; the returned couplings
    carry the per-site sign gauge that makes the state produced at time pi
    uniform with positive amplitudes.  ``tol`` only judges the finished
    chain: the flow runs to its own fixed stop, so every ``tol`` that
    accepts a chain accepts the same couplings.  Raises
    :class:`numerics.FlowStallError` with the flow's trace when the half
    chain does not converge (``wstate flow: ...``), and when 1 minus the
    chain's revival overlap exceeds ``tol`` (``revival check: ...``).
    """
    if n < 5 or n % 4 != 1:
        raise ValueError(
            f"uniform odd-site revival needs n = 4k + 1 sites with k >= 1, got {n}")
    tol = _check_tol(tol)
    m = (n - 1) // 2
    n_odd = (n + 1) // 2
    centre = m + 1

    target = np.zeros(n)
    target[0::2] = 1.0 / np.sqrt(n_odd)

    half_target = mirror_target_fold(target)

    # ladder with every other odd integer keeps the half spectrum reflective
    top = 2 * (n_odd - 1) - 1
    positive = np.arange(top, 0, -4.0)
    half_spec = np.concatenate([-positive, [0.0], positive[::-1]])

    lam = reflection_target(1, half_target)
    task = NullVectorTask(spectrum=half_spec, target_null_vector=lam)
    half_chain, report = synthesis_flow_nullvector(task, budget=budget)
    if report.status != "converged":
        raise FlowStallError(f"wstate flow: half-chain flow did not converge: "
                             f"{report.status}", report.trace)

    full = np.abs(unfold_couplings(half_chain.couplings))
    gauged, psi = sign_gauge(full, centre, target)
    half_gauged, psi_half = sign_gauge(half_chain.couplings, 1, half_target)
    overlap = abs(complex(target @ psi))
    half_overlap = abs(complex(half_target @ psi_half))
    if not 1.0 - overlap <= tol:
        raise FlowStallError(f"revival check: 1 - overlap = {1.0 - overlap:.1e} "
                             f"exceeds tol = {tol:.1e}", report.trace)

    return WstateDesign(couplings=gauged, half_couplings=half_gauged,
                        overlap=float(overlap), half_overlap=float(half_overlap),
                        flow=report)
