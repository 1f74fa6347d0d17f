"""Universal one-to-many qubit cloning on spin chains.

A single unknown qubit is cloned onto the odd sites of a register of
M = 2N - 1 qubits.  Non-negative weights beta_1..beta_N set the quality
of each clone; with A the sum of the weights and B^2 the sum of their
squares, the weights obey A^2 + B^2 = 1 and the Haar-average fidelity
of clone n is (1 + (beta_n + A)^2) / 3.

The realisation has two halves.  A GHZ-generating transverse Ising
chain is run twice around a controlled-phase gate, followed by one
controlled-NOT, which turns the input qubit and one helper qubit into a
superposition of the extremal strings and single-defect strings.  An
exchange-coupled chain then spreads the defect over the odd sites.
Both halves commute with the global spin flip, so after the gate stages
the register state stays inside a four-sector family (all zeros, all
ones, one excitation, one hole) that is simulated exactly with M x M
propagators.  A dense oracle replays the same stages gate by gate for
small registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ghz_ising import (GHZ_TIME, IsingChain, ising_from_pst, majorana_blocks,
                        mirror_deviation, spin_hamiltonian)
from .numerics import Chain, chebyshev_propagate, eig_sym_tridiag, propagator
from .pst import standard_couplings
from .synthesis import (
    _check_tol,
    apply_sign_gauge,
    produced_state,
    reflection_target,
    sign_gauge,
    three_site_couplings,
    wstate_chain,
    zero_mode_chain,
)

BRUTE_FORCE_MAX_M = 13
# Time at which every chain ``design_w_chain`` returns spreads the seed onto
# the clone weights: there a symmetric odd-integer spectrum makes the
# propagator a reflection about the zero mode.
SPREAD_TIME = np.pi

SIX_DESIGN_INPUTS = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
    np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
)


class CloningStageError(RuntimeError):
    """A pipeline stage missed its tolerance; the message names the stage."""

    def __init__(self, stage: str, detail: str):
        super().__init__(f"{stage}: {detail}")
        self.stage = stage


@dataclass(frozen=True)
class AsymmetryProfile:
    """Cloning weights beta_1..beta_N with their linear and quadratic sums."""

    n_clones: int
    betas: np.ndarray
    a: float
    b2: float

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=float)
        object.__setattr__(self, "betas", betas)
        if self.n_clones < 1 or betas.shape != (self.n_clones,):
            raise ValueError("need one weight per clone")
        if betas.min() < 0:
            raise ValueError("weights must be non-negative")
        if abs(self.a - betas.sum()) > 1e-10:
            raise ValueError("linear sum does not match the weights")
        if abs(self.b2 - (betas ** 2).sum()) > 1e-10:
            raise ValueError("quadratic sum does not match the weights")
        if abs(self.a ** 2 + self.b2 - 1.0) > 1e-10:
            raise ValueError("weights must satisfy A^2 + B^2 = 1")

    @property
    def b(self) -> float:
        return float(np.sqrt(self.b2))

    @property
    def m(self) -> int:
        """Register length hosting the clones on its odd sites."""
        return 2 * self.n_clones - 1


@dataclass(frozen=True)
class CompressedState:
    """Four-sector register state closed under the exchange dynamics.

    Amplitudes of the all-zeros and all-ones strings sit next to the
    single-excitation and single-hole vectors.  The exchange chain
    preserves each sector, so this is an exact, exponentially smaller
    description of every state the pipeline visits after its gates.
    """

    m: int
    amp0: complex
    amp1: complex
    one_exc: np.ndarray
    m_minus_one_exc: np.ndarray

    def __post_init__(self):
        if self.m < 3:
            raise ValueError("need at least three qubits to separate the sectors")
        one = np.asarray(self.one_exc, dtype=complex)
        hole = np.asarray(self.m_minus_one_exc, dtype=complex)
        object.__setattr__(self, "one_exc", one)
        object.__setattr__(self, "m_minus_one_exc", hole)
        object.__setattr__(self, "amp0", complex(self.amp0))
        object.__setattr__(self, "amp1", complex(self.amp1))
        if one.shape != (self.m,) or hole.shape != (self.m,):
            raise ValueError("sector vectors need one amplitude per site")
        if abs(self.norm() - 1.0) > 1e-10:
            raise ValueError("state must be normalized")

    def norm(self) -> float:
        total = (abs(self.amp0) ** 2 + abs(self.amp1) ** 2
                 + np.vdot(self.one_exc, self.one_exc).real
                 + np.vdot(self.m_minus_one_exc, self.m_minus_one_exc).real)
        return float(np.sqrt(total))

    def inner(self, other: "CompressedState") -> complex:
        """Hilbert inner product, exact because the sectors are orthogonal."""
        if self.m != other.m:
            raise ValueError("qubit counts differ")
        return (np.conj(self.amp0) * other.amp0
                + np.conj(self.amp1) * other.amp1
                + complex(np.vdot(self.one_exc, other.one_exc))
                + complex(np.vdot(self.m_minus_one_exc, other.m_minus_one_exc)))

    def embed(self) -> np.ndarray:
        """Dense 2^m state vector, for oracle comparisons on small registers."""
        if self.m > BRUTE_FORCE_MAX_M:
            raise ValueError("dense embedding is limited to small registers")
        vec = np.zeros(1 << self.m, dtype=complex)
        vec[0] = self.amp0
        vec[-1] = self.amp1
        full = (1 << self.m) - 1
        for j in range(self.m):
            site_bit = 1 << (self.m - 1 - j)
            vec[site_bit] += self.one_exc[j]
            vec[full ^ site_bit] += self.m_minus_one_exc[j]
        return vec


@dataclass(frozen=True)
class CloneReport:
    """Per-clone average fidelities with their input dependence."""

    n_clones: int
    betas: np.ndarray
    fidelities: np.ndarray
    spread: float
    method: str
    max_stage_residual: float

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=float)
        fids = np.asarray(self.fidelities, dtype=float)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "fidelities", fids)
        if self.method not in ("compressed", "brute_force"):
            raise ValueError("method must be compressed or brute_force")
        if fids.shape != (self.n_clones,):
            raise ValueError("need one fidelity per clone")
        if fids.min() < 0.5 - 1e-9 or fids.max() > 1.0 + 1e-9:
            raise ValueError("average fidelities must lie in [1/2, 1]")


# ---------------------------------------------------------------------------
# weight algebra


def profile_from_betas(raw) -> AsymmetryProfile:
    """Rescale a raw non-negative weight list onto A^2 + B^2 = 1."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1 or raw.size < 1:
        raise ValueError("need a one-dimensional weight list")
    if not np.all(np.isfinite(raw)):
        raise ValueError("weights must be finite")
    if raw.min() < 0:
        raise ValueError("weights must be non-negative")
    if raw.max() == 0:
        raise ValueError("weights must not all vanish")
    # scaled to a largest weight of one first, so that squares cannot overflow
    raw = raw / raw.max()
    betas = raw / np.sqrt(raw.sum() ** 2 + (raw ** 2).sum())
    return AsymmetryProfile(n_clones=raw.size, betas=betas,
                            a=float(betas.sum()), b2=float((betas ** 2).sum()))


def symmetric_profile(n_clones: int) -> AsymmetryProfile:
    """Equal weights 1/sqrt(N(N+1)), the unique symmetric normalization."""
    if n_clones < 1:
        raise ValueError("need at least one clone")
    return profile_from_betas(np.ones(n_clones))


def analytic_fidelity(p: AsymmetryProfile, clone: int) -> float:
    """Haar-average fidelity of one clone from the weight algebra.

    The form (1 + (beta_n + A)^2) / 3 is validated against the dense
    pipeline oracle and evaluates to (2N+1)/(3N) for symmetric weights.
    Some statements of the same fidelity read (2 + (beta_n + A)^2) / 6,
    which presumes weights normalized to A^2 + B^2 = 2 instead.
    """
    if not 1 <= clone <= p.n_clones:
        raise ValueError("clone index out of range")
    return (1.0 + (p.betas[clone - 1] + p.a) ** 2) / 3.0


def clone_weight_state(p: AsymmetryProfile) -> np.ndarray:
    """Unit vector carrying beta_n / B on the odd sites of the register."""
    u = np.zeros(p.m)
    u[0::2] = p.betas / p.b
    return u


def default_offset(n_clones: int) -> int:
    """Input offset placing the seed excitation on a central odd site.

    The register centre is odd exactly when the clone count is odd; an
    even count shifts inward by one site so the exchange stage can
    spread the seed with a real amplitude pattern.
    """
    return n_clones - 1 if n_clones % 2 == 1 else n_clones - 2


def _validate_offset(m: int, k: int) -> None:
    if not 0 <= k <= m - 2:
        raise ValueError("offset must leave the helper and input inside the register")


def clone_map_target(p: AsymmetryProfile,
                     k: Optional[int] = None) -> tuple[CompressedState, CompressedState]:
    """Images of the two input basis states under the finished cloning map.

    The |0> image pairs the all-zeros string (weight A) with hole states
    on the odd sites (weights beta_n); the |1> image is its global spin
    flip.  The pair is exactly orthonormal because the sectors are
    disjoint.
    """
    m = p.m
    if m < 3:
        raise ValueError("cloning onto odd sites needs at least three qubits")
    if k is None:
        k = default_offset(p.n_clones)
    _validate_offset(m, k)
    holes = np.zeros(m, dtype=complex)
    holes[0::2] = p.betas
    zero = np.zeros(m, dtype=complex)
    image0 = CompressedState(m=m, amp0=p.a, amp1=0.0,
                             one_exc=zero, m_minus_one_exc=holes)
    image1 = CompressedState(m=m, amp0=0.0, amp1=p.a,
                             one_exc=holes, m_minus_one_exc=zero)
    return image0, image1


# ---------------------------------------------------------------------------
# pipelines


def _checked_offset(ghz_chain: IsingChain, w_chain: Chain,
                   p: AsymmetryProfile, k: Optional[int]) -> int:
    """Resolved input offset, once the chains, profile and offset fit."""
    m = ghz_chain.n
    if w_chain.n != m or p.m != m:
        raise ValueError("chain sizes and profile disagree")
    if k is None:
        k = default_offset(p.n_clones)
    _validate_offset(m, k)
    return k


def _checked_inputs(input_state, max_ndim: int) -> np.ndarray:
    """Input qubit (shape (2,)) or block of input columns (shape (2, c))."""
    psi = np.asarray(input_state, dtype=complex)
    if (not 1 <= psi.ndim <= max_ndim or psi.shape[0] != 2
            or np.abs(np.linalg.norm(psi, axis=0) - 1.0).max() > 1e-10):
        raise ValueError("input must be a normalized qubit state")
    return psi


def _stage_residuals(ghz_chain: IsingChain, w_chain: Chain,
                     p: AsymmetryProfile, k: int, w_time: float,
                     stage_tol: Optional[float]) -> dict:
    """Residual of each stage; the first one above ``stage_tol`` raises."""
    u = propagator(w_chain, w_time)
    seed = np.zeros(ghz_chain.n)
    seed[k] = 1.0
    residuals = {
        "ghz stage": float(mirror_deviation(ghz_chain)),
        "w stage": float(np.abs(u @ seed - clone_weight_state(p)).max()),
    }
    for stage, value in residuals.items():
        if stage_tol is not None and value > stage_tol:
            raise CloningStageError(
                stage, f"residual {value:.3e} exceeds {stage_tol:.1e}")
    return residuals


def _gate_output(p: AsymmetryProfile, input_state: np.ndarray,
                 k: int) -> CompressedState:
    """Register state after the two GHZ half periods, the CZ and the CNOT.

    The helper at site k+1 starts in A|0> + iB|1> and the input at k+2,
    pre-rotated by diag(1, i), in alpha|0> + i gamma|1>.  A half period
    maps a string onto its mirror image plus -i times the flipped mirror
    image, over sqrt 2, and the CZ acts on the mirror images of the two
    sites.  Over both half periods a string with one of the two bits set
    keeps only its flipped branch, whose -i cancels the i of iB or of the
    pre-rotation; the string with both bits set keeps only its unflipped
    branch, whose CZ sign cancels the i * i.  The CNOT then leaves
    alpha (A|0...0> + B|hole at k+1>) + gamma (A|1...1> + B|excitation
    at k+1>).
    """
    alpha, gamma = complex(input_state[0]), complex(input_state[1])
    seed = np.zeros(p.m, dtype=complex)
    seed[k] = p.b
    return CompressedState(m=p.m, amp0=p.a * alpha, amp1=p.a * gamma,
                           one_exc=gamma * seed, m_minus_one_exc=alpha * seed)


def pipeline_run(ghz_chain: IsingChain, w_chain: Chain, p: AsymmetryProfile,
                 input_state, k: Optional[int] = None,
                 w_time: float = SPREAD_TIME,
                 stage_tol: Optional[float] = 1e-6) -> CompressedState:
    """Clone one input qubit through the gate-and-chain pipeline.

    The two GHZ evolutions and both entangling gates are not simulated:
    for a chain that passes the GHZ stage check they leave the closed
    form of :func:`_gate_output`, so no 2^m vector is ever formed.  The
    exchange stage acts through the m x m propagator on the excitation
    and hole sectors.  Stage residuals are compared against
    ``stage_tol``; None skips the stage checks, for arbitrary chains or
    a caller that has already run them.
    """
    k = _checked_offset(ghz_chain, w_chain, p, k)
    input_state = _checked_inputs(input_state, max_ndim=1)
    if stage_tol is not None:
        _stage_residuals(ghz_chain, w_chain, p, k, w_time, stage_tol)
    return compressed_evolve(_gate_output(p, input_state, k),
                             w_chain.couplings, w_time)


def _ising_interval(chain: IsingChain) -> tuple:
    """(lowest, highest) energy of the Ising chain: its energies are the
    signed sums of the singular values of its Majorana block."""
    c = majorana_blocks(chain.fields[None], chain.couplings[None])
    top = float(np.linalg.svd(c, compute_uv=False).sum())
    return -top, top


def _exchange_interval(couplings) -> tuple:
    """(lowest, highest) energy of the exchange chain: its energies are sums
    of hopping eigenvalues, which a bipartite chain has in +- pairs."""
    hop = eig_sym_tridiag(Chain(couplings))[0]
    top = float(hop[hop > 0].sum())
    return -top, top


def exchange_evolve_dense(couplings, t: float, vec: np.ndarray) -> np.ndarray:
    """Evolve a dense register state under the exchange chain (m <= 13).

    The Hamiltonian sum_n J_n (X_n X_n+1 + Y_n Y_n+1) / 2 hops excitations
    between neighbouring sites with amplitude J_n in every excitation
    sector at once; the matrix is kept sparse and applied through
    :func:`chebyshev_propagate`.  ``vec`` is one state or a block of states
    in columns.
    """
    couplings = np.asarray(couplings, dtype=float)
    m = couplings.size + 1
    if m > BRUTE_FORCE_MAX_M:
        raise ValueError(f"dense evolution is limited to {BRUTE_FORCE_MAX_M} qubits")
    vec = np.asarray(vec, dtype=complex)
    if vec.ndim > 2 or vec.shape[0] != 1 << m:
        raise ValueError("state dimension does not match the coupling count")
    h = spin_hamiltonian(m, xx=couplings / 2.0, yy=couplings / 2.0)
    return chebyshev_propagate(h, t, vec, _exchange_interval(couplings))


def _dense_cz(vec: np.ndarray, m: int, qa: int, qb: int) -> np.ndarray:
    idx = np.arange(vec.shape[0])
    both = (((idx >> (m - qa)) & 1) & ((idx >> (m - qb)) & 1)) == 1
    out = vec.copy()
    out[both] *= -1.0
    return out


def _dense_cnot(vec: np.ndarray, m: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(vec.shape[0])
    on = ((idx >> (m - control)) & 1) == 1
    out = vec.copy()
    out[idx[on]] = vec[(idx ^ (1 << (m - target)))[on]]
    return out


def brute_force_pipeline(ghz_chain: IsingChain, w_chain: Chain,
                         p: AsymmetryProfile, input_state,
                         k: Optional[int] = None,
                         w_time: float = SPREAD_TIME) -> np.ndarray:
    """Dense-register oracle for the pipeline, exact gate by gate.

    Every stage acts on the full 2^m vector, including both chain
    evolutions, so the result validates the compressed bookkeeping.
    ``input_state`` is one qubit state, shape (2,), or a block of them in
    columns, shape (2, c); the result holds one register state per
    column, and all columns share each Chebyshev evolution.  Limited to
    m <= 13 qubits.
    """
    m = ghz_chain.n
    if m > BRUTE_FORCE_MAX_M:
        raise ValueError(f"the dense oracle is limited to {BRUTE_FORCE_MAX_M} qubits")
    k = _checked_offset(ghz_chain, w_chain, p, k)
    psi = _checked_inputs(input_state, max_ndim=2)

    factors = {k + 1: np.array([[p.a], [1j * p.b]]),
               k + 2: psi.reshape(2, -1) * np.array([[1.0], [1j]])}
    ground = np.array([[1.0], [0.0]], dtype=complex)
    vec = np.ones((1, 1), dtype=complex)
    for q in range(1, m + 1):
        vec = np.kron(vec, factors.get(q, ground))

    h_ghz = spin_hamiltonian(m, x=ghz_chain.fields, zz=ghz_chain.couplings)
    interval = _ising_interval(ghz_chain)
    vec = chebyshev_propagate(h_ghz, GHZ_TIME, vec, interval)
    vec = _dense_cz(vec, m, m - k, m - k - 1)
    vec = chebyshev_propagate(h_ghz, GHZ_TIME, vec, interval)
    vec = _dense_cnot(vec, m, k + 1, k + 2)
    vec = exchange_evolve_dense(w_chain.couplings, w_time, vec)
    return vec if psi.ndim == 2 else vec[:, 0]


def compressed_evolve(state: CompressedState, couplings, t: float) -> CompressedState:
    """Exchange-chain evolution of a compressed state.

    The extremal strings are annihilated by the chain, and the hole
    sector is carried by the same m x m propagator as the excitation
    sector because the dynamics commutes with the global spin flip.
    """
    couplings = np.asarray(couplings, dtype=float)
    if couplings.shape != (state.m - 1,):
        raise ValueError("coupling count must match the register")
    u = propagator(Chain(couplings), t)
    return CompressedState(m=state.m, amp0=state.amp0, amp1=state.amp1,
                           one_exc=u @ state.one_exc,
                           m_minus_one_exc=u @ state.m_minus_one_exc)


# ---------------------------------------------------------------------------
# fidelities


def reduced_qubit_state(state, site: int) -> np.ndarray:
    """Single-qubit reduced density matrix at a register site.

    Compressed states use closed-form sector bookkeeping, which is valid
    once holes and excitations cannot interfere in the partial trace
    (m >= 5); a three-qubit register is routed through its dense
    embedding instead.  Dense state vectors are traced directly.
    """
    if isinstance(state, CompressedState):
        if not 1 <= site <= state.m:
            raise ValueError("site out of range")
        if state.m == 3:
            return reduced_qubit_state(state.embed(), site)
        j = site - 1
        exc, hole = state.one_exc, state.m_minus_one_exc
        exc_norm = np.vdot(exc, exc).real
        hole_norm = np.vdot(hole, hole).real
        pop0 = (abs(state.amp0) ** 2 + abs(hole[j]) ** 2
                + exc_norm - abs(exc[j]) ** 2)
        pop1 = (abs(state.amp1) ** 2 + abs(exc[j]) ** 2
                + hole_norm - abs(hole[j]) ** 2)
        coherence = state.amp0 * np.conj(exc[j]) + hole[j] * np.conj(state.amp1)
        return np.array([[pop0, coherence], [np.conj(coherence), pop1]])

    state = np.asarray(state, dtype=complex)
    if state.ndim != 1:
        raise ValueError("expected a state vector")
    m = state.size.bit_length() - 1
    if 1 << m != state.size:
        raise ValueError("vector length must be a power of two")
    if not 1 <= site <= m:
        raise ValueError("site out of range")
    moved = np.moveaxis(state.reshape([2] * m), site - 1, 0).reshape(2, -1)
    return moved @ moved.conj().T


def clone_report(ghz_chain: IsingChain, w_chain: Chain, p: AsymmetryProfile,
                 k: Optional[int] = None, method: str = "compressed",
                 stage_tol: Optional[float] = 1e-6) -> CloneReport:
    """Fidelity report for a configured pipeline over the six axis inputs.

    The six eigenstates of the Pauli operators average any expression
    quadratic in the input exactly as the uniform measure does, so the
    mean overlap over them is the Haar-average fidelity of each clone.
    The exchange stage runs for ``SPREAD_TIME``.  The stages are checked
    once; the dense oracle takes all six inputs as one block of columns.
    """
    if method not in ("compressed", "brute_force"):
        raise ValueError("method must be compressed or brute_force")
    k = _checked_offset(ghz_chain, w_chain, p, k)
    residuals = _stage_residuals(ghz_chain, w_chain, p, k, SPREAD_TIME,
                                 stage_tol)
    if method == "compressed":
        outputs = [pipeline_run(ghz_chain, w_chain, p, psi, k, stage_tol=None)
                   for psi in SIX_DESIGN_INPUTS]
    else:
        outputs = brute_force_pipeline(ghz_chain, w_chain, p,
                                       np.column_stack(SIX_DESIGN_INPUTS), k).T
    per_input = np.zeros((len(SIX_DESIGN_INPUTS), p.n_clones))
    for row, (psi, out) in enumerate(zip(SIX_DESIGN_INPUTS, outputs)):
        for n in range(1, p.n_clones + 1):
            rho = reduced_qubit_state(out, 2 * n - 1)
            per_input[row, n - 1] = float(np.real(psi.conj() @ rho @ psi))
    fidelities = per_input.mean(axis=0)
    spread = float(np.ptp(per_input, axis=0).max())
    return CloneReport(n_clones=p.n_clones, betas=p.betas, fidelities=fidelities,
                       spread=spread, method=method,
                       max_stage_residual=float(max(residuals.values())))


# ---------------------------------------------------------------------------
# chain design


def ghz_helper_chain(m: int) -> IsingChain:
    """Transverse Ising chain whose half period generates the m-qubit GHZ state."""
    return ising_from_pst(standard_couplings(2 * m))


def _candidate_spectra(m: int) -> list:
    """Symmetric odd-integer spectra to try for the exchange chain, in order.

    Any symmetric set of distinct odd integers around a single zero turns
    the time-pi propagator into a reflection, so the spectrum itself is a
    free design parameter.  Consecutive ladders keep the couplings mild
    but their reachable zero modes are bounded (compare the five-site
    closed form); geometric ladders trade coupling size for a much wider
    reachable set, so they serve as fallbacks.
    """
    half = (m - 1) // 2
    ladders = [3.0 + 2.0 * np.arange(half)]
    ladders += [float(base) ** np.arange(half) for base in (3, 5, 11, 21)]
    return [np.concatenate([-positives[::-1], [0.0], positives])
            for positives in ladders]


def design_w_chain(p: AsymmetryProfile, k: Optional[int] = None,
                   tol: float = 1e-6) -> Chain:
    """Exchange chain spreading the seed site onto the clone weights.

    At ``SPREAD_TIME`` a chain with a symmetric odd-integer spectrum acts
    as a reflection about its zero mode, so the needed zero mode is read
    off the seed and weight states directly.  A three-site register uses a
    closed form, the symmetric central task reduces to a half chain, and
    anything else takes the first ``_candidate_spectra`` ladder on which
    ``zero_mode_chain`` finds a root.  The couplings are
    sign gauged at the end so the spread weights come out positive.
    """
    tol = _check_tol(tol)
    if p.n_clones < 2:
        raise ValueError("cloning needs at least two clones")
    m = p.m
    if k is None:
        k = default_offset(p.n_clones)
    _validate_offset(m, k)
    source = k + 1
    if source % 2 == 0:
        raise ValueError("the seed site must be odd to spread with a real pattern")
    u_full = clone_weight_state(p)
    symmetric = bool(np.all(np.abs(p.betas - p.betas[0]) < 1e-12))
    if m == 3:
        couplings = three_site_couplings(reflection_target(source, u_full))
    elif symmetric and m % 4 == 1 and source == (m + 1) // 2:
        couplings = wstate_chain(m, tol=tol).couplings
    else:
        target = reflection_target(source, u_full)
        ladders = _candidate_spectra(m)
        couplings = next((c for c in (zero_mode_chain(s, target) for s in ladders)
                          if c is not None), None)
        if couplings is None:
            tried = "; ".join(" ".join(f"{v:g}" for v in s[m // 2 + 1:])
                              for s in ladders)
            raise RuntimeError(
                "the direct zero-mode solve found no chain on any candidate "
                f"ladder (positive halves tried: {tried}); the weight pattern "
                "may be unreachable")
    couplings = np.asarray(couplings, dtype=float)
    produced = produced_state(couplings, source, SPREAD_TIME)
    couplings = apply_sign_gauge(couplings, sign_gauge(produced, u_full))
    produced = produced_state(couplings, source, SPREAD_TIME)
    residual = np.abs(produced - u_full).max()
    if residual > max(tol, 1e-8):
        raise RuntimeError("designed chain misses the clone weights")
    return Chain(couplings)
