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
Levenberg-Marquardt root polish near the target.  A design takes the
spectrum as its ladder, the h positive eigenvalues of a (2h + 1)-site
chain whose spectrum is -ladder, 0, +ladder, and its target is one vector:
finite, zero on the even sites, of unit norm.  ``_checked_target`` is that
one rule, and every entry that takes a target or target state reads it
there: the task, ``reflection_target``, ``three_site_couplings`` and
``zero_mode_chain``.  A ``NullVectorTask`` states the reflection: it
refuses a ladder whose phases at that time miss -1, so the flow and its
polish read the task and check nothing themselves.
Each ascent step is the vertex of a small linear programme, found by a
primal simplex in the null space of the pattern constraint
(``_lp_direction``) and returned exactly: its bound coordinates at the
box, the rest solving the constraint, so the module needs numpy alone.
``zero_mode_chain`` solves the same inverse problem directly on a
ratio-fixed chain, and ``wstate_chain`` designs the uniform odd-site
revival through the mirror-reduced half chain, folding its own target.
A designed chain is evolved once, by ``sign_gauge``, which returns the
sign-gauged couplings together with the state they produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (Chain, FlowStallError, FlowTrace, antisym_exp, block_index,
                       chain_block, eig_sym_tridiag, levenberg_marquardt,
                       propagator, solve_affine)

__all__ = [
    "NullVectorTask",
    "ConvergenceState",
    "synthesis_flow_nullvector",
    "chain_from_spectrum",
    "zero_mode",
    "reflection_target",
    "three_site_couplings",
    "zero_mode_chain",
    "polish_null_vector_root",
    "produced_state",
    "sign_gauge",
    "unfold_couplings",
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


def _checked_ladder(ladder) -> np.ndarray:
    """``ladder`` sorted ascending, or ``ValueError`` naming it.

    A ladder is the h positive eigenvalues of a zero-diagonal chain of
    2h + 1 sites, whose spectrum is then -ladder, 0, +ladder: its values
    must be finite, distinct and at least 1e-12, below which an eigenvalue
    counts as the zero mode's.
    """
    values = np.asarray(ladder, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"ladder must be one-dimensional, got {ladder!r}")
    values = np.sort(values)
    if not (np.all(np.isfinite(values)) and np.all(values >= 1e-12)
            and np.all(np.diff(values) > 0)):
        raise ValueError(f"ladder must hold distinct finite values of at least "
                         f"1e-12, got {values}")
    return values


def _checked_target(target, n: int) -> np.ndarray:
    """``target`` as a zero mode of an n-site chain can be: length n, even
    sites zero to 1e-12, unit norm to 1e-10; else ``ValueError``.

    The one rule for every zero-mode target in this module, and for the
    state a reflection carries the source onto: a NaN entry fails the
    even-site or the norm test.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != (n,):
        raise ValueError(f"target must have length {n}")
    if n > 1 and not np.abs(target[1::2]).max() <= 1e-12:
        raise ValueError("target must vanish on even sites")
    if not abs(np.linalg.norm(target) - 1.0) <= 1e-10:
        raise ValueError("target must be normalised")
    return target


@dataclass(frozen=True, eq=False)
class NullVectorTask:
    """A request to steer the chain's zero mode onto ``target_null_vector``.

    ``ladder`` holds the h positive eigenvalues of the (2h + 1)-site chain,
    whose spectrum is -ladder, 0, +ladder, so the chain supports a zero
    mode confined to odd sites; it is kept sorted, and an empty ladder is
    the one-site task.  Every ladder value must give
    exp(-i lambda ``REFLECTION_TIME``) = -1 to 1e-8, which then holds for
    -lambda too, so that the propagator at that time is a reflection about
    the zero mode.  The target must share the zero mode's support: unit
    norm, even components zero.  A task is the whole contract of a
    null-vector design: the flow and its root polish read it and check
    nothing themselves.
    """

    ladder: np.ndarray
    target_null_vector: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ladder", _checked_ladder(self.ladder))
        # the phase each nonzero mode picks up, as propagator computes it
        miss = np.abs(np.exp(-1j * self.ladder * REFLECTION_TIME) + 1.0).max(initial=0.0)
        if not miss <= 1e-8:
            raise ValueError(f"spectrum does not produce a reflection at time pi "
                             f"(phase miss {miss:.1e})")
        object.__setattr__(self, "target_null_vector",
                           _checked_target(self.target_null_vector, self.n))

    @property
    def n(self) -> int:
        return 2 * self.ladder.size + 1


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


def chain_from_spectrum(ladder) -> np.ndarray:
    """Positive couplings of the (2h + 1)-site zero-diagonal chain whose
    spectrum is -ladder, 0, +ladder, for a ladder of h values.

    The chain is the Lanczos chain of diag(spectrum) from the uniform start
    vector, built in bidiagonal form: Golub-Kahan bidiagonalization of
    A = [diag(ladder); 0], the positive half over the zero mode, from
    u_1 = (sqrt(2/n), ..., sqrt(2/n), sqrt(1/n)) (Golub & Kahan 1965).  Its
    alternating norms alpha_1, beta_2, alpha_2, ... are the couplings from
    site 1 on, with both bases fully reorthogonalised.  The diagonal is zero
    by construction, so the widest clone ladders are rebuilt to rounding.
    A ladder that ``_checked_ladder`` refuses raises its ``ValueError``.
    """
    ladder = _checked_ladder(ladder)
    half, n = ladder.size, 2 * ladder.size + 1
    a = np.eye(half + 1, half) * ladder
    # odd sites (1-based) span the left basis, even sites the right one
    bases = [np.zeros((half + 1, half + 1)), np.zeros((half, half))]
    bases[0][:, 0] = np.sqrt(2.0 / n)
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
    ``sign_ref``, a vector of the chain's length as a task's target is,
    is non-negative when a reference is supplied.  An even chain and a
    reference of another length raise ``ValueError``.
    """
    chain = Chain(couplings)
    if chain.n % 2 == 0:
        raise ValueError(f"a zero mode needs an odd number of sites, got {chain.n}")
    lam = eig_sym_tridiag(chain)[1][:, chain.n // 2]
    if sign_ref is not None and np.shape(sign_ref) != (chain.n,):
        raise ValueError(f"sign reference must have length {chain.n}")
    if sign_ref is not None and float(lam[0::2] @ sign_ref[0::2]) < 0:
        lam = -lam
    return lam


def produced_state(couplings: np.ndarray, source: int) -> np.ndarray:
    """State reached from ``source`` after ``REFLECTION_TIME``: one propagator column."""
    return propagator(Chain(couplings), REFLECTION_TIME, source - 1)


def reflection_target(source: int, target_state: np.ndarray) -> np.ndarray:
    """Null vector whose reflection carries ``source`` onto ``target_state``.

    A reflection 1 - 2|v><v| (up to phase) maps the source basis state
    onto the target exactly when v is proportional to the sum or the
    difference of the two states; the sum branch is used here.  Its
    components are then sign-flipped on alternate odd sites, matching the
    zero-mode parity of positive-coupling chains, and the produced state
    carries the same alternation, removable by a diagonal sign gauge on
    the couplings.  The target must be what a zero mode can be (finite,
    zero on even sites, unit norm; ``_checked_target``), the source an odd
    integer in 1..n, and the target not minus the source, where the sum
    vanishes; else ``ValueError``.
    """
    target_state = _checked_target(target_state, np.size(target_state))
    n = target_state.size
    if (isinstance(source, bool) or not isinstance(source, (int, np.integer))
            or not 1 <= source <= n):
        raise ValueError(f"source must be a site in 1..{n}, got {source!r}")
    if source % 2 == 0:
        raise ValueError("source must be an odd site")
    phi = np.zeros(n)
    phi[source - 1] = 1.0
    lam = phi + target_state
    norm = np.linalg.norm(lam)
    if norm == 0.0:
        raise ValueError("target state is minus the source: the sum branch "
                         "has no null vector")
    lam /= norm
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
    task's ladder, each iteration solves the linear programme for the
    generator that most increases chi, the overlap of the zero mode with
    the target, inside the box ``_saturating_box(step, chi)``
    (0.1 * sqrt(1 - chi^2) at full step).  It applies that direction plus
    the fix ``p_fix`` of the current off-pattern leakage as one exact
    isospectral rotation, then compensates the leakage that remains.  The
    task has checked its ladder and target, so the flow checks neither.

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
    n = task.n
    target = task.target_null_vector
    seed = chain_from_spectrum(task.ladder)

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
        root = polish_null_vector_root(x[block_index(n)], task)
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


def _null_vector_system(task: NullVectorTask):
    """The task's root problem as a ``levenberg_marquardt`` system.

    The residual stacks the largest eigenvalues minus the task's ladder, in
    descending order, and the zero mode minus the target; both come from
    one :func:`numerics.eig_sym_tridiag` of the point.  By
    Hellmann-Feynman J_i moves eigenvalue k by 2 v_k[i] v_k[i+1], and it
    moves the zero mode lam by -H^+ (dH/dJ_i) lam, with the pseudo-inverse
    H^+ built from the same eigenpairs.
    """
    target, half = task.target_null_vector, task.ladder.size
    positive = task.ladder[::-1]

    def system(j):
        spectrum, v = eig_sym_tridiag(Chain(j))
        lam = v[:, half] if float(v[:, half] @ target) >= 0 else -v[:, half]

        def jacobian():
            top = v[:, ::-1][:, :half]
            pairs = np.delete(v, half, axis=1)
            pinv = (pairs / np.delete(spectrum, half)) @ pairs.T
            d_lam = -(pinv[:, :-1] * lam[1:] + pinv[:, 1:] * lam[:-1])
            return np.vstack([(2.0 * top[:-1] * top[1:]).T, d_lam])

        return np.concatenate([spectrum[::-1][:half] - positive,
                               lam - target]), jacobian

    return system


def polish_null_vector_root(couplings, task: NullVectorTask):
    """Least-squares refinement of ``couplings`` onto an exact chain for ``task``.

    Solves for couplings whose block singular values match the task's
    ladder and whose zero mode equals its target, by
    Levenberg-Marquardt with the analytic Jacobian.  Returns the refined
    couplings, or None when no nearby root exists.
    """
    x, fun = levenberg_marquardt(_null_vector_system(task), couplings)
    if np.abs(fun).max() < 1e-10:
        return x
    return None


# ---------------------------------------------------------------------------
# direct zero-mode solves


def three_site_couplings(target_null) -> np.ndarray:
    """Two couplings whose zero mode is ``target_null`` with spectrum {0, +-3}.

    The zero mode of a three-site chain is (J2, 0, -J1) up to norm, so the
    couplings are read off the target directly and scaled to the band.  A
    target that ``_checked_target`` refuses raises its ``ValueError``, and
    one whose signs admit no positive couplings raises too.
    """
    v = _checked_target(target_null, 3)
    v = v / np.linalg.norm(v)
    j2, j1 = 3.0 * v[0], -3.0 * v[2]
    if j1 < 0:
        j1, j2 = -j1, -j2
    if j2 < 0:
        raise ValueError("target signs do not admit positive couplings")
    return np.array([j1, j2])


def zero_mode_chain(ladder, target_null_vector):
    """Positive chain with spectrum -ladder, 0, +ladder and a prescribed
    zero mode.

    Generalises the five-site closed form of the tests: the zero mode
    fixes each ratio J_2j / J_2j-1 = |lam_2j-1 / lam_2j+1|, leaving a
    square inverse eigenvalue problem in the h = ``ladder.size`` magnitudes
    J_2j-1.  It is solved in log magnitudes by Levenberg-Marquardt on
    log(eigenvalues / ladder) with the Jacobian
    d(ev_k)/d(J_i) = 2 v_k[i] v_k[i+1].  The problem has many roots, so
    three starts are tried in turn: the odd couplings and the pair products
    of ``chain_from_spectrum``, then equal couplings.  The zero mode equals
    the target up to a diagonal sign gauge.

    Returns the couplings once every eigenvalue matches to 1e-10 relative;
    None when no start finds a root, an odd-site target component
    vanishes, or the solve leaves the finite numbers.  A ladder that
    ``_checked_ladder`` refuses, an empty ladder, and a target that
    ``_checked_target`` refuses raise ``ValueError``.
    """
    ladder = _checked_ladder(ladder)
    half = ladder.size
    if not half:
        raise ValueError("a zero-mode chain needs at least one ladder value")
    target = _checked_target(target_null_vector, 2 * half + 1)
    lam = np.abs(target[0::2])
    if lam.min() == 0.0:
        return None
    ratios = lam[:-1] / lam[1:]
    gains = np.column_stack([np.ones(half), ratios]).ravel()

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
        return np.log(np.maximum(ev, np.finfo(float).tiny) / ladder), jacobian

    def solve(start):
        try:
            a, f = levenberg_marquardt(system, start)
        except ValueError:
            return None
        # f is log(eigenvalues / ladder) at a
        return couplings(a) if np.abs(np.expm1(f)).max() < 1e-10 else None

    # equal couplings carry the spectrum's trace: sum J^2 = sum ladder^2
    seed = np.log(chain_from_spectrum(ladder))
    starts = [seed[0::2], (seed[0::2] + seed[1::2] - np.log(ratios)) / 2,
              np.full(half, np.log((ladder ** 2).sum() / (gains ** 2).sum()) / 2)]
    return next((j for j in map(solve, starts) if j is not None), None)


# ---------------------------------------------------------------------------
# mirror reduction


def unfold_couplings(half: np.ndarray) -> np.ndarray:
    """Mirror-symmetric full chain whose symmetric sector is ``half``."""
    half = np.asarray(half, dtype=float)
    left = np.append(half[1:][::-1], half[0] / np.sqrt(2.0))
    return np.concatenate([left, left[::-1]])


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

    # the centre carries over and each mirror pair folds in scaled by sqrt(2)
    half_target = np.concatenate([[target[m]], np.sqrt(2.0) * target[m + 1:]])

    lam = reflection_target(1, half_target)
    # every other odd integer, 3 to n - 2, keeps the half chain reflective
    task = NullVectorTask(ladder=np.arange(3.0, n - 1, 4.0), target_null_vector=lam)
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
