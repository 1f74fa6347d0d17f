"""Isospectral flows that sculpt a chain until it synthesises a target state.

The methods here keep the excitation-conserving block structure of an XX
chain explicit: with sites grouped into odd and even sublattices, the
single-excitation Hamiltonian with zero diagonal is the off-diagonal block
``X`` (even rows, odd columns), and every coupling pattern with the same
singular values of ``X`` is reachable through updates
``X -> exp(-A_e) X exp(A_o)`` with antisymmetric generators acting on the
two sublattices.  Constraining the generators so the update preserves the
nearest-neighbour pattern turns state synthesis into a constrained ascent
on a fixed-spectrum manifold.

Two ascent objectives are provided.  The null-vector flow steers the zero
mode of the chain toward a prescribed vector, which fixes the evolution
exactly when the spectrum makes the propagator a reflection.  The
commutator flow maximises the overlap between the evolved source state
and the target directly and applies to any spectrum and evolution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .numerics import (SymTridiag, Spectrum, LinearConstraintSet, antisym_exp,
                       eig_sym_tridiag, propagator, solve_affine)

__all__ = [
    "SynthesisTask",
    "NullVectorTask",
    "ConvergenceState",
    "synthesis_flow_commutator",
    "synthesis_flow_nullvector",
    "reflection_check",
    "case_study_generator",
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
    "apply_sign_gauge",
    "fold_couplings",
    "unfold_couplings",
    "mirror_target_fold",
    "wstate_chain",
    "WstateDesign",
]

_SMALL_COUPLING = 1e-8


# ---------------------------------------------------------------------------
# task containers


@dataclass(frozen=True)
class SynthesisTask:
    """A request to evolve site ``source`` into ``target`` at time ``time``."""

    spectrum: Spectrum
    source: int
    target: np.ndarray
    time: float

    def __post_init__(self):
        n = len(self.spectrum.values)
        target = np.asarray(self.target, dtype=float)
        if target.shape != (n,):
            raise ValueError(f"target must have length {n}")
        if abs(np.linalg.norm(target) - 1.0) > 1e-10:
            raise ValueError("target state must be normalised")
        if not 1 <= self.source <= n:
            raise ValueError(f"source site must lie in [1, {n}]")
        object.__setattr__(self, "target", target)

    @property
    def n(self) -> int:
        return len(self.spectrum.values)


@dataclass(frozen=True)
class NullVectorTask:
    """A request to steer the chain's zero mode onto ``target_null_vector``.

    Requires a spectrum consisting of symmetric pairs around a unique zero
    eigenvalue, so the chain supports a zero mode confined to odd sites.
    The target must share that support: unit norm, even components zero.
    """

    spectrum: Spectrum
    target_null_vector: np.ndarray
    time: float = np.pi

    def __post_init__(self):
        vals = np.asarray(self.spectrum.values, dtype=float)
        n = vals.size
        if n % 2 == 0:
            raise ValueError("null-vector tasks need an odd number of sites")
        zeros = np.abs(vals) < 1e-12
        if zeros.sum() != 1:
            raise ValueError("spectrum must contain exactly one zero eigenvalue")
        if np.abs(np.sort(vals) + np.sort(vals)[::-1]).max() > 1e-9:
            raise ValueError("spectrum must be symmetric about zero")
        target = np.asarray(self.target_null_vector, dtype=float)
        if target.shape != (n,):
            raise ValueError(f"target null vector must have length {n}")
        if n > 1 and np.abs(target[1::2]).max() > 1e-12:
            raise ValueError("target null vector must vanish on even sites")
        if abs(np.linalg.norm(target) - 1.0) > 1e-10:
            raise ValueError("target null vector must be normalised")
        object.__setattr__(self, "target_null_vector", target)

    @property
    def n(self) -> int:
        return len(self.spectrum.values)


@dataclass
class ConvergenceState:
    """Progress report for a synthesis flow.

    ``chi`` is the quantity being driven to one: the null-vector overlap
    for the zero-mode flow, or the absolute target overlap for the
    commutator flow.  ``history`` keeps one row per recorded iteration as
    ``(iteration, chi, delta, off_band_residual)``, where ``delta`` is the
    box size of that iteration's step; an accepted root polish adds a row
    for the polished iterate.  ``polishes`` keeps one ``(iteration,
    accepted)`` pair per root-polish attempt.  ``small_couplings`` lists
    the 1-based bonds of the final chain whose couplings are below 1e-8.
    """

    chi: float
    delta: float
    iterations: int
    status: str = "running"
    history: list = field(default_factory=list)
    polishes: list = field(default_factory=list)
    small_couplings: list = field(default_factory=list)

    def __post_init__(self):
        if not -1.0 - 1e-12 <= self.chi <= 1.0 + 1e-12:
            raise ValueError("chi must lie in [-1, 1]")
        if self.delta <= 0:
            raise ValueError("step size must be positive")

    def record(self, iteration: int, chi: float, delta: float, off_band: float):
        self.history.append((iteration, chi, delta, off_band))

    def to_csv(self) -> str:
        lines = ["iteration,chi,delta,off_band_residual"]
        for it, chi, delta, off in self.history:
            lines.append(f"{it},{chi:.16e},{delta:.16e},{off:.6e}")
        return "\n".join(lines) + "\n"


def _saturating_box(step: float, chi: float) -> float:
    """Box size step * sqrt(1 - chi^2), which vanishes at |chi| = 1 so the
    second-order error of a finite rotation never overwhelms the gain."""
    chi = min(max(chi, -1.0), 1.0)
    return step * np.sqrt(1.0 - chi * chi)


# ---------------------------------------------------------------------------
# block-structure plumbing


def _split_dims(n):
    return (n + 1) // 2, n // 2


def _block_index(n: int):
    """Block positions (even row, odd column) of the couplings j_1..j_{n-1}."""
    k = np.arange(n - 1)
    return k // 2, (k + 1) // 2


def _couplings_to_block(couplings: np.ndarray) -> np.ndarray:
    """Even-by-odd block of the zero-diagonal chain Hamiltonian."""
    n = couplings.size + 1
    no, ne = _split_dims(n)
    x = np.zeros((ne, no))
    x[_block_index(n)] = couplings
    return x


def _block_to_couplings(x: np.ndarray, n: int) -> np.ndarray:
    return x[_block_index(n)]


def _pattern_mask(ne: int, no: int) -> np.ndarray:
    mask = np.ones((ne, no), dtype=bool)
    mask[_block_index(ne + no)] = False
    return mask


def _pack_count(d: int) -> int:
    return d * (d - 1) // 2


def _unpack_antisym(params: np.ndarray, d: int) -> np.ndarray:
    a = np.zeros((d, d))
    iu = np.triu_indices(d, 1)
    a[iu] = params
    return a - a.T


def _hamiltonian_from_block(x: np.ndarray, n: int) -> np.ndarray:
    h = np.zeros((n, n))
    odd = np.arange(0, n, 2)
    even = np.arange(1, n, 2)
    h[np.ix_(even, odd)] = x
    h[np.ix_(odd, even)] = x.T
    return h


def _off_pattern_rows(x: np.ndarray):
    """Rows of the first-order constraint that keeps the update tridiagonal.

    Each packed generator parameter moves the block by d(X) = X A_o - A_e X;
    the returned matrix collects the off-pattern entries of that derivative,
    one column per parameter.
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
    mask = _pattern_mask(ne, no)
    return deriv[mask], mask


def _apply_generators(x: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Exact isospectral update of the block from packed generator params."""
    ne, no = x.shape
    a_o = _unpack_antisym(params[: _pack_count(no)], no)
    a_e = _unpack_antisym(params[_pack_count(no):], ne)
    return antisym_exp(-a_e) @ x @ antisym_exp(a_o)


def _compensate(x: np.ndarray, n: int, gate: float = 1e-8, max_inner: int = 12):
    """Squash off-pattern leakage with small corrective rotations.

    Each pass solves the linearised constraint for a generator that cancels
    the current leakage, then applies it exactly, so the iterate stays on
    the fixed-spectrum manifold while the leakage shrinks quadratically.
    """
    for inner in range(max_inner):
        rows, mask = _off_pattern_rows(x)
        leak = x[mask]
        res = float(np.abs(leak).max()) if leak.size else 0.0
        if res <= gate:
            return x, res, True
        try:
            p_fix, _ = solve_affine(LinearConstraintSet(rows, -leak),
                                    residual_tol=np.inf)
        except np.linalg.LinAlgError:
            return x, res, False
        x = _apply_generators(x, p_fix)
    rows, mask = _off_pattern_rows(x)
    res = float(np.abs(x[mask]).max())
    return x, res, res <= gate


def _lp_direction(rows: np.ndarray, gradient: np.ndarray, box: float):
    """Best first-order ascent step inside the box, staying on the pattern.

    Solves  max <gradient, p>  subject to  rows @ p = 0 and |p_i| <= box,
    the linear programme whose vertex solutions drive the flow.
    """
    m = rows.shape[0]
    res = scipy.optimize.linprog(
        -gradient, A_eq=rows, b_eq=np.zeros(m),
        bounds=[(-box, box)] * gradient.size, method="highs")
    if not res.success:
        return None, 0.0
    return res.x, float(gradient @ res.x)


_STALL_WINDOW = 100
_HANDOVER_CHI = 0.99
# Largest LP box of either flow: the null-vector flow scales it by
# sqrt(1 - chi^2), the commutator flow uses it as it is.
_BOX_STEP = 0.1


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not (np.isfinite(tol) and 0.0 < tol < 1.0):
        raise ValueError(f"tol must be a finite number in (0, 1), got {tol!r}")
    return tol


def _try_polish(polish, evaluate, x, merit, it, report):
    """One root-polish attempt, logged in ``report.polishes``.

    Returns the root's ``(x, merit, chi, aux)``, or None when the polish
    finds no root or the root's merit is lower.
    """
    x_p = polish(x)
    polished = None
    if x_p is not None:
        merit_p, chi_p, aux_p = evaluate(x_p)
        if merit_p >= merit:
            polished = x_p, merit_p, chi_p, aux_p
    report.polishes.append((it, polished is not None))
    return polished


def _ascend(x, n, evaluate, gradient, box, step, budget, tol, min_step,
            window_slope, polish=None):
    """Accept/reject ascent shared by both synthesis flows.

    ``evaluate(x)`` returns ``(merit, chi, aux)``: the merit being ascended,
    the overlap recorded in the history, and the input of ``gradient(aux)``,
    the packed generator gradient.  ``box(step, chi)`` sizes the LP box.
    Each iteration applies the LP direction plus the leakage fix ``p_fix``
    as one exact rotation, then compensates.  Rejected steps halve the
    working step; five consecutive accepts grow it by half, up to ``step``.
    The flow stalls below ``min_step`` or when chi gains less than
    ``window_slope * (1 - chi)`` over 100 iterations.

    ``polish(x)``, when given, returns an exact root near ``x`` or None.
    It is tried once in the loop, the first time chi reaches 0.99 short of
    convergence, and once more after the loop if chi ends at 0.99 or above
    with no root taken yet.  A root replaces the iterate only if its merit
    does not drop, so a refused polish leaves the trajectory untouched.

    Returns the final block and the report.
    """
    merit, chi, aux = evaluate(x)
    step_loc = step
    report = ConvergenceState(chi=min(max(chi, -1.0), 1.0),
                              delta=max(step, 1e-300), iterations=0)
    report.record(0, chi, box(step_loc, chi), 0.0)
    consecutive = 0
    status = "budget"
    it = 0
    while it < budget:
        if (polish is not None and not report.polishes
                and chi >= _HANDOVER_CHI and merit < 1.0 - tol):
            polished = _try_polish(polish, evaluate, x, merit, it, report)
            if polished is not None:
                x, merit, chi, aux = polished
                report.record(it, chi, box(step_loc, chi), 0.0)
        if merit >= 1.0 - tol:
            status = "converged"
            break
        if step_loc < min_step:
            status = "stalled"
            break
        it += 1
        size = box(step_loc, chi)
        rows, mask = _off_pattern_rows(x)
        direction, gain = _lp_direction(rows, gradient(aux), size)
        if direction is None or gain < 1e-15:
            status = "stalled"
            break
        p_fix, _ = solve_affine(LinearConstraintSet(rows, -x[mask]),
                                residual_tol=np.inf)
        x_try = _apply_generators(x, p_fix + direction)
        x_try, off_res, ok = _compensate(x_try, n)
        merit_try, chi_try, aux_try = evaluate(x_try)
        if ok and merit_try >= merit - 1e-14:
            x, merit, chi, aux = x_try, merit_try, chi_try, aux_try
            consecutive += 1
            if consecutive >= 5:
                step_loc = min(step_loc * 1.5, step)
        else:
            consecutive = 0
            step_loc *= 0.5
        report.record(it, chi, size, off_res)
        if it % _STALL_WINDOW == 0 and len(report.history) > _STALL_WINDOW:
            gain_w = chi - report.history[-_STALL_WINDOW - 1][1]
            if (gain_w < max(1e-12, window_slope * (1.0 - chi))
                    and merit < 1.0 - tol):
                status = "stalled"
                break
    if (polish is not None and chi >= _HANDOVER_CHI
            and not any(accepted for _, accepted in report.polishes)):
        polished = _try_polish(polish, evaluate, x, merit, it, report)
        if polished is not None:
            x, merit, chi, _ = polished
            report.record(it, chi, box(step_loc, chi), 0.0)
    if merit >= 1.0 - tol:
        status = "converged"
    report.chi = min(max(chi, -1.0), 1.0)
    report.delta = max(box(step_loc, report.chi), 1e-300)
    report.iterations = it
    report.status = status
    return x, report


# ---------------------------------------------------------------------------
# chain construction and diagnostics


def chain_from_spectrum(spectrum) -> np.ndarray:
    """Positive chain couplings realising ``spectrum`` with zero diagonal.

    Runs the Lanczos recursion on the diagonal matrix of eigenvalues from
    the uniform start vector, with full reorthogonalisation.
    A symmetric spectrum yields vanishing diagonal terms, so only the
    couplings are returned.
    """
    vals = np.asarray(getattr(spectrum, "values", spectrum), dtype=float)
    n = vals.size
    q = np.ones(n) / np.linalg.norm(np.ones(n))
    basis = np.zeros((n, n))
    basis[:, 0] = q
    alphas = np.zeros(n)
    betas = np.zeros(n - 1)
    for i in range(n):
        w = vals * basis[:, i]
        if i > 0:
            w -= betas[i - 1] * basis[:, i - 1]
        alphas[i] = basis[:, i] @ w
        w -= alphas[i] * basis[:, i]
        for _ in range(2):
            w -= basis[:, : i + 1] @ (basis[:, : i + 1].T @ w)
        if i < n - 1:
            norm = np.linalg.norm(w)
            if norm < 1e-12:
                raise ValueError("spectrum produced a reducible chain")
            betas[i] = norm
            basis[:, i + 1] = w / norm
    if np.abs(alphas).max() > 1e-8:
        raise ValueError("spectrum is not symmetric about zero")
    return betas


def zero_mode(couplings: np.ndarray, sign_ref: np.ndarray | None = None):
    """Odd-site zero mode of the chain and the block singular values.

    The sign of the returned vector is fixed so its overlap with
    ``sign_ref`` is non-negative when a reference is supplied.
    """
    couplings = np.asarray(couplings, dtype=float)
    n = couplings.size + 1
    x = _couplings_to_block(couplings)
    _, svs, vt = np.linalg.svd(x)
    lam = vt[-1]
    if sign_ref is not None:
        ref = np.asarray(sign_ref, dtype=float)
        if ref.size == n:
            ref = ref[0::2]
        if float(lam @ ref) < 0:
            lam = -lam
    full = np.zeros(n)
    full[0::2] = lam
    return full, svs


def produced_state(couplings: np.ndarray, source: int, time: float) -> np.ndarray:
    """State reached from ``source`` after evolving for ``time``."""
    couplings = np.asarray(couplings, dtype=float)
    n = couplings.size + 1
    return propagator(SymTridiag(np.zeros(n), couplings), time)[:, source - 1]


def reflection_check(h: SymTridiag, t0: float) -> float:
    """How far the propagator at ``t0`` is from a zero-mode reflection.

    Returns the minimum over a global phase of the entrywise deviation
    between exp(-i h t0) and phase * (1 - 2 P0), with P0 the projector
    onto the eigenspace nearest zero.  Small values certify that
    evolution for t0 acts as a reflection about the zero mode.
    """
    spectrum, v = eig_sym_tridiag(h)
    u = propagator(h, t0)
    k = int(np.argmin(np.abs(spectrum.values)))
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
    the couplings.
    """
    target_state = np.asarray(target_state, dtype=float)
    n = target_state.size
    if np.abs(target_state[1::2]).max() > 1e-12:
        raise ValueError("target state must be supported on odd sites")
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


def sign_gauge(produced: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-site signs that rotate ``produced`` onto the sign pattern of ``target``."""
    produced = np.asarray(produced)
    target = np.asarray(target, dtype=float)
    signs = np.ones(produced.size)
    support = (np.abs(produced) > 1e-9) & (np.abs(target) > 1e-9)
    signs[support] = np.sign(np.real(produced[support])) * np.sign(target[support])
    return signs


def apply_sign_gauge(couplings: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Conjugate the chain by a diagonal of signs, flipping couplings."""
    couplings = np.asarray(couplings, dtype=float)
    signs = np.asarray(signs, dtype=float)
    return couplings * signs[:-1] * signs[1:]


# ---------------------------------------------------------------------------
# flows


def _flag_small(couplings: np.ndarray) -> list:
    return [int(i + 1) for i, j in enumerate(couplings)
            if abs(j) < _SMALL_COUPLING]


def synthesis_flow_nullvector(task: NullVectorTask, budget: int = 100_000,
                              tol: float = 1e-6):
    """Drive the chain's zero mode onto the task's target null vector.

    Starting from a positive chain with the task spectrum, repeatedly
    solves the box-constrained linear programme for the generator that
    most increases the overlap chi between the zero mode and the target,
    applies it as an exact isospectral rotation, and compensates the
    off-pattern leakage.  Steps follow delta = 0.1 * sqrt(1 - chi^2);
    rejected steps halve the working step and five consecutive accepts
    restore it.  Flows that approach without reaching the target report a
    stall (targets outside the reachable region land on its boundary).
    The flow hands over to :func:`polish_null_vector_root` once chi
    reaches 0.99, closing the remaining gap to machine precision; a
    refused handover is retried when the flow ends at chi >= 0.99.

    Returns the final chain and a ConvergenceState.
    """
    tol = _check_tol(tol)
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget!r}")
    vals = np.asarray(task.spectrum.values, dtype=float)
    n = task.n
    lam_t = task.target_null_vector[0::2].copy()
    lam_t_full = task.target_null_vector

    seed = chain_from_spectrum(vals)
    if reflection_check(SymTridiag(np.zeros(n), seed), task.time) > 1e-8:
        raise ValueError("spectrum does not produce a reflection at the task time")

    no, ne = _split_dims(n)
    iu = np.triu_indices(no, 1)
    even_zeros = np.zeros(_pack_count(ne))

    def evaluate(block):
        lam, _ = zero_mode(_block_to_couplings(block, n), lam_t_full)
        chi = float(lam_t_full @ lam)
        return chi, chi, lam[0::2]

    def gradient(lam_odd):
        return np.concatenate([-(lam_t[iu[0]] * lam_odd[iu[1]]
                                 - lam_t[iu[1]] * lam_odd[iu[0]]), even_zeros])

    def polish(block):
        root = polish_null_vector_root(_block_to_couplings(block, n), vals,
                                       lam_t_full)
        return None if root is None else _couplings_to_block(root)

    x, report = _ascend(
        _couplings_to_block(seed), n, evaluate, gradient, _saturating_box,
        _BOX_STEP, budget, tol, min_step=1e-13, window_slope=2e-3, polish=polish)

    couplings = _block_to_couplings(x, n)
    report.small_couplings = _flag_small(couplings)
    return SymTridiag(np.zeros(n), couplings), report


def _null_vector_system(spectrum_values, target_null_vector):
    """Residual of the null-vector root problem and its analytic Jacobian.

    The residual stacks the block singular values minus the positive half
    of the spectrum and the odd-site zero mode minus the target (even
    sites read zero).  With X = U S V^T, a coupling at block entry (i, j)
    moves singular value k by U[i, k] V[j, k] and the zero mode lam by
    -X^+[:, i] lam[j], X^+ = V S^-1 U^T taken from the same SVD.
    """
    vals = np.asarray(spectrum_values, dtype=float)
    target = np.asarray(target_null_vector, dtype=float)
    positive = np.sort(vals[vals > 1e-12])[::-1]
    rows, cols = _block_index(target.size)

    def residual(j):
        lam, svs = zero_mode(j, target)
        return np.concatenate([svs[: positive.size] - positive, lam - target])

    def jacobian(j):
        u, svs, vt = np.linalg.svd(_couplings_to_block(j))
        lam = vt[-1]
        if float(lam @ target[0::2]) < 0:
            lam = -lam
        d_sv = u[rows].T * vt[: svs.size, cols]
        pinv = (vt[: svs.size].T / svs) @ u.T
        d_lam = np.zeros((target.size, rows.size))
        d_lam[0::2] = -pinv[:, rows] * lam[cols]
        return np.vstack([d_sv[: positive.size], d_lam])

    return residual, jacobian


def polish_null_vector_root(couplings, spectrum_values, target_null_vector):
    """Least-squares refinement onto an exact chain for the null-vector task.

    Solves for couplings whose block singular values match the positive
    half of the spectrum and whose zero mode equals the target, by
    Levenberg-Marquardt with the analytic Jacobian.  Returns the refined
    couplings, or None when no nearby root exists.
    """
    couplings = np.asarray(couplings, dtype=float)
    residual, jacobian = _null_vector_system(spectrum_values,
                                             target_null_vector)
    sol = scipy.optimize.least_squares(residual, couplings, jac=jacobian,
                                       method="lm", xtol=1e-15, ftol=1e-15,
                                       gtol=1e-15)
    if np.abs(sol.fun).max() < 1e-10:
        return sol.x
    return None


def _polish_task_root(couplings, spectrum_values, source, target, time):
    """Refine couplings so the evolved source hits the target exactly."""
    vals = np.sort(np.asarray(spectrum_values, dtype=float))
    target = np.asarray(target, dtype=float)
    n = target.size
    psi0 = produced_state(couplings, source, time)
    theta0 = np.angle(complex(target @ psi0))

    def residual(p):
        j, theta = p[:-1], p[-1]
        spectrum, v = eig_sym_tridiag(SymTridiag(np.zeros(n), j))
        # the evolved source from the same eigensolve as the spectrum
        psi = v @ (np.exp(-1j * spectrum.values * time) * v[source - 1])
        d = psi - np.exp(1j * theta) * target
        return np.concatenate([spectrum.values - vals, d.real, d.imag])

    start = np.concatenate([np.asarray(couplings, dtype=float), [theta0]])
    sol = scipy.optimize.least_squares(residual, start, method="lm",
                                       xtol=1e-15, ftol=1e-15, gtol=1e-15)
    if np.abs(sol.fun).max() < 1e-9:
        return sol.x[:-1]
    return None


def synthesis_flow_commutator(h0: SymTridiag, task: SynthesisTask,
                              budget: int = 100_000, tol: float = 1e-6):
    """Ascend the target overlap |<target| exp(-i H t0) |source>| directly.

    The gradient of the overlap with respect to the pattern-preserving
    generators is linear in the generator, so the best step inside a box
    is again a linear programme.  Accepted steps never decrease the
    overlap.  The flow chases whichever global phase the current overlap
    suggests; if it stalls, it deterministically retries with each of the
    two real phase branches locked, keeping the best outcome, since a
    stall can mean the nearest phase branch is blocked while the other is
    free.  A near-converged result is polished onto an exact root.

    Returns the final chain and a ConvergenceState whose ``chi`` field
    holds the achieved overlap.
    """
    task_vals = np.asarray(task.spectrum.values, dtype=float)
    h_vals = eig_sym_tridiag(h0)[0].values
    if np.abs(h_vals - np.sort(task_vals)).max() > 1e-8:
        raise ValueError("h0 spectrum does not match the task spectrum")
    if np.abs(h0.diag).max() > 1e-12:
        raise ValueError("commutator flow expects a zero-diagonal chain")

    best = None
    total_it = 0
    for phase_lock in (None, 1.0, -1.0):
        result = _commutator_attempt(h0, task, budget, tol, phase_lock)
        total_it += result[1].iterations
        if best is None or result[1].chi > best[1].chi:
            best = result
        if best[1].status == "converged":
            break
    chain, report = best
    report.iterations = total_it

    if report.status != "converged" and report.chi >= 0.99:
        polished = _polish_task_root(chain.offdiag, task_vals, task.source,
                                     task.target, task.time)
        if polished is not None:
            psi = produced_state(polished, task.source, task.time)
            overlap = abs(complex(task.target @ psi))
            if overlap > report.chi:
                chain = SymTridiag(np.zeros(task.n), polished)
                report.chi = min(overlap, 1.0)
                if overlap >= 1.0 - tol:
                    report.status = "converged"
    report.small_couplings = _flag_small(chain.offdiag)
    return chain, report


def _commutator_attempt(h0, task, budget, tol, phase_lock):
    n = task.n
    no, ne = _split_dims(n)
    phi = np.zeros(n)
    phi[task.source - 1] = 1.0
    target = task.target
    odd = np.arange(0, n, 2)
    even = np.arange(1, n, 2)
    iu_o = np.triu_indices(no, 1)
    iu_e = np.triu_indices(ne, 1)

    def evaluate(block):
        # dense: the block carries off-pattern leakage between compensations
        u = propagator(_hamiltonian_from_block(block, n), task.time)
        f = complex(target @ u @ phi)
        merit = abs(f) if phase_lock is None else float(np.real(phase_lock * f))
        return merit, abs(f), (u, f)

    def gradient(aux):
        u, f = aux
        if phase_lock is None:
            w_phase = np.conj(f) / abs(f) if abs(f) > 1e-12 else 1.0
        else:
            w_phase = phase_lock
        y = u.T @ target
        z = u @ phi
        g_full = np.real(w_phase * (np.outer(y, phi) - np.outer(target, z)))
        g_o = g_full[np.ix_(odd, odd)]
        g_e = g_full[np.ix_(even, even)]
        return np.concatenate([g_o[iu_o] - g_o.T[iu_o],
                               g_e[iu_e] - g_e.T[iu_e]])

    x, report = _ascend(
        _couplings_to_block(np.asarray(h0.offdiag, dtype=float)), n, evaluate,
        gradient, lambda step, chi: step, _BOX_STEP, budget, tol, min_step=1e-14,
        window_slope=1e-3)
    return SymTridiag(np.zeros(n), _block_to_couplings(x, n)), report


# ---------------------------------------------------------------------------
# five-site case study


def case_study_generator(j, a: float, b: float) -> np.ndarray:
    """Tangent directions of the five-site zero mode under pattern flows.

    For couplings (J1, J2, J3, J4) the reachable first-order motions of
    the zero mode form a two-parameter family; this returns the motion
    for weights (a, b).  Together the two generators span the orthogonal
    complement of the zero mode in the odd-site space except on the
    degenerate set J1^2 + J2^2 = J3^2 + J4^2.
    """
    j1, j2, j3, j4 = (float(v) for v in j)
    if min(j1, j2, j3, j4) <= 0:
        raise ValueError("couplings must be positive")
    va = np.array([-j1 * j2 * (j3 ** 2 + j4 ** 2),
                   j1 ** 2 * j3 ** 2 - j2 ** 2 * j4 ** 2,
                   j3 * j4 * (j1 ** 2 + j2 ** 2)])
    vb = np.array([j1 * (j3 ** 2 + j4 ** 2 - j1 ** 2),
                   -j2 * (j1 ** 2 - j4 ** 2),
                   -j2 * j3 * j4])
    return a * va + b * vb


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
    vanishes, or the solve leaves the finite numbers.
    """
    vals = np.sort(np.asarray(getattr(spectrum, "values", spectrum), dtype=float))
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

    def eig(a):
        with np.errstate(over="ignore"):
            j = np.repeat(np.exp(a), 2) * gains
        spec, v = eig_sym_tridiag(SymTridiag(np.zeros(n), j))
        if spec.values[half + 1] <= 0.0:
            raise ValueError("lost the positive half of the spectrum")
        return j, spec.values[half + 1:], v[:, half + 1:]

    def jacobian(a):
        j, ev, v = eig(a)
        d = 2.0 * j[:, None] * v[:-1] * v[1:]
        return ((d[0::2] + d[1::2]) / ev).T

    def solve(start):
        try:
            a = scipy.optimize.least_squares(
                lambda a: np.log(eig(a)[1] / positive), start, jac=jacobian,
                method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15).x
            j, ev, _ = eig(a)
        except ValueError:
            return None
        return j if np.abs(ev / positive - 1.0).max() < 1e-10 else None

    # equal couplings carry the spectrum's trace: sum J^2 = sum positive^2
    starts = [np.full(half, np.log((positive ** 2).sum() / (gains ** 2).sum()) / 2)]
    try:
        seed = np.log(chain_from_spectrum(vals))
        starts[:0] = [seed[0::2], (seed[0::2] + seed[1::2] - np.log(ratios)) / 2]
    except ValueError:  # the Lanczos chain breaks down on the widest ladders
        pass
    return next((j for j in map(solve, starts) if j is not None), None)


# ---------------------------------------------------------------------------
# mirror reduction


def fold_couplings(couplings: np.ndarray) -> np.ndarray:
    """Half-chain couplings of a mirror-symmetric odd chain.

    Sites are relabelled outward from the centre, so the first half-chain
    coupling is the centre pair strengthened by sqrt(2) and the rest read
    the full chain inward.
    """
    couplings = np.asarray(couplings, dtype=float)
    n = couplings.size + 1
    if n % 2 == 0:
        raise ValueError("mirror reduction needs an odd number of sites")
    if np.abs(couplings - couplings[::-1]).max() > 1e-10:
        raise ValueError("couplings are not mirror symmetric")
    m = (n - 1) // 2
    return np.concatenate([[np.sqrt(2.0) * couplings[m - 1]], couplings[: m - 1][::-1]])


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


class FlowStallError(RuntimeError):
    """Raised when a synthesis flow stops short of its target.

    The final :class:`ConvergenceState` is attached as ``state`` so the
    caller can persist or inspect the partial progress.
    """

    def __init__(self, message, state):
        super().__init__(message)
        self.state = state


@dataclass(frozen=True)
class WstateDesign:
    """Chains produced for a uniform odd-site revival task.

    Both coupling sets are sign-gauged so their revivals carry uniform
    positive amplitudes; the underlying flows work with the positive
    magnitudes, recoverable through ``np.abs``.  ``flow`` keeps the
    half-chain convergence record.
    """

    couplings: np.ndarray
    half_couplings: np.ndarray
    gauge: np.ndarray
    source: int
    time: float
    overlap: float
    half_overlap: float
    flow: ConvergenceState = None


def wstate_chain(n: int = 21, tol: float = 1e-6, budget: int = 100_000) -> WstateDesign:
    """Design a chain that evolves the centre site into the uniform
    odd-site superposition.

    The target is mirror symmetric, so the task is reduced to a half
    chain driven from its first site, solved with the null-vector flow,
    refined onto an exact root, and unfolded.  Positive chains revive
    with alternating signs across the odd sites; the returned gauge holds
    the per-site signs whose application to the couplings makes the
    produced state uniform with positive amplitudes.
    """
    if n % 4 != 1:
        raise ValueError("uniform odd-site revival needs n = 4k + 1 sites")
    tol = _check_tol(tol)
    m = (n - 1) // 2
    n_odd = (n + 1) // 2
    centre = m + 1

    target = np.zeros(n)
    target[0::2] = 1.0 / np.sqrt(n_odd)

    half_target = np.zeros(m + 1)
    folded = mirror_target_fold(target)
    half_target[0::2] = folded[0::2]

    # ladder with every other odd integer keeps the half spectrum reflective
    top = 2 * (n_odd - 1) - 1
    positive = np.arange(top, 0, -4.0)
    half_vals = np.concatenate([-positive, [0.0], positive[::-1]])
    half_spec = Spectrum(values=tuple(np.sort(half_vals)))

    lam = reflection_target(1, half_target)
    task = NullVectorTask(spectrum=half_spec, target_null_vector=lam)
    half_chain, report = synthesis_flow_nullvector(task, budget=budget, tol=tol)
    if report.status != "converged":
        raise FlowStallError(
            f"half-chain flow did not converge: {report.status}", report)

    full = np.abs(unfold_couplings(half_chain.offdiag))
    psi = produced_state(full, centre, np.pi)
    gauge = sign_gauge(psi, target)
    gauged = apply_sign_gauge(full, gauge)
    overlap = abs(complex(target @ produced_state(gauged, centre, np.pi)))

    psi_half = produced_state(half_chain.offdiag, 1, np.pi)
    half_gauge = sign_gauge(psi_half, half_target)
    half_gauged = apply_sign_gauge(half_chain.offdiag, half_gauge)
    half_overlap = abs(complex(half_target @ produced_state(half_gauged, 1, np.pi)))

    return WstateDesign(couplings=gauged, half_couplings=half_gauged,
                        gauge=gauge, source=centre, time=np.pi,
                        overlap=float(overlap), half_overlap=float(half_overlap),
                        flow=report)
