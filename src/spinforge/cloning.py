"""Universal one-to-many qubit cloning on spin chains.

A single unknown qubit is cloned onto the odd sites of a register of
M = 2N - 1 qubits.  Non-negative weights beta_1..beta_N set the quality
of each clone; with A the sum of the weights and B^2 the sum of their
squares, the weights obey A^2 + B^2 = 1 and the Haar-average fidelity
of clone n is (1 + (beta_n + A)^2) / 3.

The realisation has two halves.  A GHZ-generating transverse Ising
chain, the 2M-site mirror-transfer ``Chain`` read as its Majorana band
(see ``ghz_ising``), is run twice around a controlled-phase gate,
followed by one controlled-NOT, which turns the input qubit and one
helper qubit into a superposition of the extremal strings and
single-defect strings.  An exchange-coupled chain then spreads the
defect over the odd sites.
Both halves commute with the global spin flip, so after the gate stages
the register state stays inside a four-sector family (all zeros, all
ones, one excitation, one hole).  The gates leave the defect on one site,
so the exchange stage is exactly one column of the M x M exchange
propagator, formed alone.  A fidelity report evolves that column once, at
``synthesis.REFLECTION_TIME``, and reads both the exchange-stage check
and every compressed output from it.  A dense oracle replays
the same stages on the full 2^M register for M <= 13.  Both chains are
free-fermion, so each chain evolution there is an exact circuit of
nearest-neighbour gates read off its one-particle map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ghz_ising import GHZ_TIME, mirror_deviation, one_particle_map
from .numerics import Chain, FlowStallError, StageBreachError, givens_factors, propagator
from .pst import standard_couplings
from .synthesis import (
    REFLECTION_TIME,
    _check_tol,
    reflection_target,
    sign_gauge,
    three_site_couplings,
    wstate_chain,
    zero_mode_chain,
)

BRUTE_FORCE_MAX_M = 13

SIX_DESIGN_INPUTS = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
    np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
)


@dataclass(frozen=True, eq=False)
class AsymmetryProfile:
    """Cloning weights beta_1..beta_N; the sums A and B^2 derive from them."""

    betas: np.ndarray

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=float)
        object.__setattr__(self, "betas", betas)
        if betas.ndim != 1 or betas.size < 1:
            raise ValueError("need one weight per clone")
        if betas.min() < 0:
            raise ValueError("weights must be non-negative")
        # a NaN weight fails this test; A^2 + B^2 = 1 implies no weight
        # above one, which is tested first so that no square can overflow
        if not (betas.max() <= 1.0 and abs(self.a ** 2 + self.b2 - 1.0) <= 1e-10):
            raise ValueError("weights must satisfy A^2 + B^2 = 1")

    @property
    def n_clones(self) -> int:
        return self.betas.size

    @property
    def a(self) -> float:
        return float(self.betas.sum())

    @property
    def b2(self) -> float:
        return float((self.betas ** 2).sum())

    @property
    def b(self) -> float:
        return float(np.sqrt(self.b2))

    @property
    def m(self) -> int:
        """Register length hosting the clones on its odd sites."""
        return 2 * self.n_clones - 1


@dataclass(frozen=True, eq=False)
class CompressedState:
    """Four-sector register state closed under the exchange dynamics.

    Amplitudes of the all-zeros and all-ones strings sit next to the
    single-excitation and single-hole vectors.  The exchange chain
    preserves each sector, so this is an exact, exponentially smaller
    description of every state the pipeline visits after its gates.
    """

    amp0: complex
    amp1: complex
    one_exc: np.ndarray
    m_minus_one_exc: np.ndarray

    def __post_init__(self):
        one = np.asarray(self.one_exc, dtype=complex)
        hole = np.asarray(self.m_minus_one_exc, dtype=complex)
        object.__setattr__(self, "one_exc", one)
        object.__setattr__(self, "m_minus_one_exc", hole)
        object.__setattr__(self, "amp0", complex(self.amp0))
        object.__setattr__(self, "amp1", complex(self.amp1))
        if one.ndim != 1 or hole.shape != one.shape:
            raise ValueError("sector vectors need one amplitude per site")
        if one.size < 3:
            raise ValueError("need at least three qubits to separate the sectors")
        if not abs(self.norm() - 1.0) <= 1e-10:  # a NaN amplitude fails
            raise ValueError("state must be normalized")

    @property
    def m(self) -> int:
        """Register length: one sector amplitude per site."""
        return self.one_exc.size

    def norm(self) -> float:
        total = (abs(self.amp0) ** 2 + abs(self.amp1) ** 2
                 + np.vdot(self.one_exc, self.one_exc).real
                 + np.vdot(self.m_minus_one_exc, self.m_minus_one_exc).real)
        return float(np.sqrt(total))

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


@dataclass(frozen=True, eq=False)
class CloneReport:
    """Per-clone average fidelities with their input dependence."""

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
        if betas.ndim != 1 or fids.shape != betas.shape:
            raise ValueError("need one fidelity per clone")
        if not (0.5 - 1e-9 <= fids.min() and fids.max() <= 1.0 + 1e-9):
            raise ValueError("average fidelities must lie in [1/2, 1]")

    @property
    def n_clones(self) -> int:
        return self.betas.size


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
    return AsymmetryProfile(betas)


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


def _offset(p: AsymmetryProfile, k: Optional[int]) -> int:
    """Input offset k, :func:`default_offset` when None, once the helper
    (site k+1) and the input (site k+2) fit inside the register."""
    if k is None:
        k = default_offset(p.n_clones)
    if not 0 <= k <= p.m - 2:
        raise ValueError("offset must leave the helper and input inside the register")
    return k


# ---------------------------------------------------------------------------
# pipelines


def _checked_offset(ghz_chain: Chain, w_chain: Chain,
                   p: AsymmetryProfile, k: Optional[int]) -> int:
    """Resolved input offset, once the chains, profile and offset fit: the
    GHZ chain is the 2m-site band of an m-qubit Ising chain."""
    if ghz_chain.n != 2 * p.m or w_chain.n != p.m:
        raise ValueError("chain sizes and profile disagree")
    return _offset(p, k)


def _checked_inputs(input_state) -> np.ndarray:
    """Input qubit (shape (2,)) or block of input columns (shape (2, c))."""
    psi = np.asarray(input_state, dtype=complex)
    if (not 1 <= psi.ndim <= 2 or psi.shape[0] != 2
            or np.abs(np.linalg.norm(psi, axis=0) - 1.0).max() > 1e-10):
        raise ValueError("input must be a normalized qubit state")
    return psi


def _compressed_states(p: AsymmetryProfile, column: np.ndarray, psi: np.ndarray):
    """Pipeline outputs for the inputs ``psi`` from the exchange column U[:, k]."""
    spread = p.b * column
    states = [CompressedState(amp0=p.a * alpha, amp1=p.a * gamma,
                              one_exc=gamma * spread, m_minus_one_exc=alpha * spread)
              for alpha, gamma in psi.reshape(2, -1).T]
    return states if psi.ndim == 2 else states[0]


def pipeline_run(ghz_chain: Chain, w_chain: Chain, p: AsymmetryProfile,
                 input_state, k: Optional[int] = None,
                 w_time: float = REFLECTION_TIME):
    """Clone input qubits through the gate-and-chain pipeline.

    The two GHZ evolutions and both entangling gates are not simulated.
    The helper at site k+1 starts in A|0> + iB|1> and the input at k+2,
    pre-rotated by diag(1, i), in alpha|0> + i gamma|1>.  A half period
    maps a string onto its mirror image plus -i times the flipped mirror
    image, over sqrt 2, and the CZ acts on the mirror images of the two
    sites.  Over both half periods a string with one of the two bits set
    keeps only its flipped branch, whose -i cancels the i of iB or of the
    pre-rotation; the string with both bits set keeps only its unflipped
    branch, whose CZ sign cancels the i * i.  For a chain that passes the
    GHZ stage check the CNOT then leaves alpha (A|0...0> + B|hole at k+1>)
    + gamma (A|1...1> + B|excitation at k+1>).

    The exchange chain leaves the extremal strings alone and, commuting
    with the global spin flip, carries the hole and the excitation alike,
    so the whole exchange stage is spread = B U[:, k] for the m x m
    propagator U, and only that column is formed: the result holds A alpha,
    A gamma, the excitation gamma spread and the hole alpha spread, and no
    2^m vector is ever formed.  ``input_state`` is one qubit state, shape (2,), or a block of
    them in columns, shape (2, c), which gives one state per column.  The
    stages are not checked: any chains evolve, and :func:`clone_report`
    checks a designed pair.
    """
    k = _checked_offset(ghz_chain, w_chain, p, k)
    psi = _checked_inputs(input_state)
    return _compressed_states(p, propagator(w_chain, w_time, k), psi)


def _register(m: int, vec) -> np.ndarray:
    """A complex copy of a dense m-qubit state, or block of states in columns."""
    if m > BRUTE_FORCE_MAX_M:
        raise ValueError(f"dense evolution is limited to {BRUTE_FORCE_MAX_M} qubits")
    vec = np.array(vec, dtype=complex)
    if vec.ndim > 2 or vec.shape[0] != 1 << m:
        raise ValueError("state dimension does not match the chain length")
    return vec


def ising_evolve_dense(chain: Chain, t: float, vec) -> np.ndarray:
    """Evolve a dense register state under a transverse Ising chain, given
    by its 2m-site Majorana band (m <= 13), up to a global sign.

    The one-particle map W = exp(2ts) lies in SO(2m), so :func:`givens_factors`
    writes it as m(2m - 1) rotations of adjacent Majorana planes and nothing
    else.  A rotation [[cos phi, sin phi], [-sin phi, cos phi]] in the plane
    (2j, 2j+1) is the gate exp(-i phi/2 X_j), and in the plane (2j+1, 2j+2)
    the gate exp(-i phi/2 Z_j Z_j+1) (Terhal & DiVincenzo 2002); the gates
    act in the order of the rotations.  W fixes the evolution only up to
    +-1, which the pipeline's two GHZ stages cancel.  ``vec`` is one state
    or a block of states in columns.
    """
    w = one_particle_map(chain, t)
    out = _register(chain.n // 2, vec)
    block = out.reshape(out.shape[0], -1)
    _, planes, rotations = givens_factors(w)
    halves = 0.5 * np.arctan2(rotations[:, 0, 1], rotations[:, 0, 0])
    for plane, half in zip(planes, halves):
        j = plane // 2
        if plane % 2:
            # Z_j Z_j+1 is +1 on |00>, |11> and -1 on |01>, |10>
            phase = np.exp(-1j * half)
            pair = block.reshape(1 << j, 4, -1)
            pair *= np.array([phase, phase.conjugate(), phase.conjugate(), phase])[:, None]
        else:
            site = block.reshape(1 << j, 2, -1)
            low, high = site[:, 0], site[:, 1]
            cos, sin = np.cos(half), -1j * np.sin(half)
            new_low = cos * low + sin * high
            high *= cos
            high += sin * low
            low[...] = new_low
    return out


def exchange_evolve_dense(couplings, t: float, vec) -> np.ndarray:
    """Evolve a dense register state under the exchange chain (m <= 13).

    The Hamiltonian sum_n J_n (X_n X_n+1 + Y_n Y_n+1) / 2 hops excitations
    between neighbouring sites with amplitude J_n in every excitation
    sector at once, so its evolution is fixed by the m x m propagator U.
    :func:`givens_factors` writes U as one phase per site and m(m - 1) / 2
    rotations G of adjacent sites (Jiang et al. 2018).  Each phase
    multiplies the strings with that site occupied; each G acts on the
    pair's {|10>, |01>} as on the two sites' amplitudes and, of determinant
    1, leaves |00> and |11> alone, the Jordan-Wigner strings of neighbours
    cancelling.  ``vec`` is one state or a block of states in columns.
    """
    chain = Chain(couplings)
    out = _register(chain.n, vec)
    block = out.reshape(out.shape[0], -1)
    phases, planes, rotations = givens_factors(propagator(chain, t))
    for j, phase in enumerate(phases):
        block.reshape(1 << j, 2, -1)[:, 1] *= phase
    for j, g in zip(planes, rotations):
        pair = block.reshape(1 << j, 2, 2, -1)
        first, second = pair[:, 1, 0], pair[:, 0, 1]
        new_first = g[0, 0] * first + g[0, 1] * second
        second *= g[1, 1]
        second += g[1, 0] * first
        first[...] = new_first
    return out


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


def brute_force_pipeline(ghz_chain: Chain, w_chain: Chain,
                         p: AsymmetryProfile, input_state,
                         k: Optional[int] = None,
                         w_time: float = REFLECTION_TIME) -> np.ndarray:
    """Dense-register oracle for the pipeline, exact gate by gate.

    Every stage acts on the full 2^m vector, including both chain
    evolutions, which run as the gate circuits of :func:`ising_evolve_dense`
    and :func:`exchange_evolve_dense`, so the result validates the
    compressed bookkeeping.
    ``input_state`` is one qubit state, shape (2,), or a block of them in
    columns, shape (2, c); the result holds one register state per
    column, and all columns share each gate.  Limited to m <= 13 qubits.
    """
    m = ghz_chain.n // 2
    if m > BRUTE_FORCE_MAX_M:
        raise ValueError(f"the dense oracle is limited to {BRUTE_FORCE_MAX_M} qubits")
    k = _checked_offset(ghz_chain, w_chain, p, k)
    psi = _checked_inputs(input_state)

    factors = {k + 1: np.array([[p.a], [1j * p.b]]),
               k + 2: psi.reshape(2, -1) * np.array([[1.0], [1j]])}
    ground = np.array([[1.0], [0.0]], dtype=complex)
    vec = np.ones((1, 1), dtype=complex)
    for q in range(1, m + 1):
        vec = np.kron(vec, factors.get(q, ground))

    vec = ising_evolve_dense(ghz_chain, GHZ_TIME, vec)
    vec = _dense_cz(vec, m, m - k, m - k - 1)
    vec = ising_evolve_dense(ghz_chain, GHZ_TIME, vec)
    vec = _dense_cnot(vec, m, k + 1, k + 2)
    vec = exchange_evolve_dense(w_chain.couplings, w_time, vec)
    return vec if psi.ndim == 2 else vec[:, 0]


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


def clone_report(ghz_chain: Chain, w_chain: Chain, p: AsymmetryProfile,
                 k: Optional[int] = None, method: str = "compressed",
                 stage_tol: float = 1e-6) -> CloneReport:
    """Fidelity report for a configured pipeline over the six axis inputs.

    The six eigenstates of the Pauli operators average any expression
    quadratic in the input exactly as the uniform measure does, so the
    mean overlap over them is the Haar-average fidelity of each clone.
    The exchange stage runs for ``REFLECTION_TIME``; column k of its
    propagator is formed once, and is both the w-stage check and, for
    the compressed method, the spread of every output.  The first stage
    whose residual is not within ``stage_tol`` (NaN never is) raises
    :class:`numerics.StageBreachError`; either method takes the six inputs as
    one block.
    """
    if method not in ("compressed", "brute_force"):
        raise ValueError("method must be compressed or brute_force")
    k = _checked_offset(ghz_chain, w_chain, p, k)
    column = propagator(w_chain, REFLECTION_TIME, k)
    residuals = {
        "ghz stage": float(mirror_deviation(ghz_chain)),
        "w stage": float(np.abs(column - clone_weight_state(p)).max()),
    }
    for stage, value in residuals.items():
        if not value <= stage_tol:
            raise StageBreachError(stage, f"residual {value:.3e} exceeds {stage_tol:.1e}")
    block = np.column_stack(SIX_DESIGN_INPUTS)
    if method == "compressed":
        outputs = _compressed_states(p, column, block)
    else:
        outputs = brute_force_pipeline(ghz_chain, w_chain, p, block, k).T
    per_input = np.zeros((len(SIX_DESIGN_INPUTS), p.n_clones))
    for row, (psi, out) in enumerate(zip(SIX_DESIGN_INPUTS, outputs)):
        for n in range(1, p.n_clones + 1):
            rho = reduced_qubit_state(out, 2 * n - 1)
            per_input[row, n - 1] = float(np.real(psi.conj() @ rho @ psi))
    fidelities = per_input.mean(axis=0)
    spread = float(np.ptp(per_input, axis=0).max())
    return CloneReport(betas=p.betas, fidelities=fidelities,
                       spread=spread, method=method,
                       max_stage_residual=float(max(residuals.values())))


# ---------------------------------------------------------------------------
# chain design


def ghz_helper_chain(m: int) -> Chain:
    """Transverse Ising chain whose half period generates the m-qubit GHZ
    state: the 2m-site mirror-transfer chain, read as its Majorana band."""
    return standard_couplings(2 * m)


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

    At ``REFLECTION_TIME`` a chain with a symmetric odd-integer spectrum acts
    as a reflection about its zero mode, so the needed zero mode is read
    off the seed and weight states directly.  A three-site register uses a
    closed form, the symmetric central task reduces to a half chain, and
    anything else takes the first ``_candidate_spectra`` ladder on which
    ``zero_mode_chain`` finds a root.  The couplings are
    sign gauged at the end so the spread weights come out positive; the
    chain is evolved once, for the gauge and the final check together.
    Raises :class:`numerics.FlowStallError`, with no trace, when no ladder
    admits a chain or the chain misses the weights (``spread-chain design:
    ...``); the symmetric branch passes on ``wstate_chain``'s errors.
    ``tol`` only judges the finished chain against the weights, at
    ``max(tol, 1e-8)``: the symmetric branch designs at ``wstate_chain``'s
    default, so every ``tol`` that accepts a chain accepts the same one.
    """
    tol = _check_tol(tol)
    if p.n_clones < 2:
        raise ValueError("cloning needs at least two clones")
    m = p.m
    source = _offset(p, k) + 1
    if source % 2 == 0:
        raise ValueError("the seed site must be odd to spread with a real pattern")
    u_full = clone_weight_state(p)
    symmetric = bool(np.all(np.abs(p.betas - p.betas[0]) < 1e-12))
    if m == 3:
        couplings = three_site_couplings(reflection_target(source, u_full))
    elif symmetric and m % 4 == 1 and source == (m + 1) // 2:
        couplings = wstate_chain(m).couplings
    else:
        target = reflection_target(source, u_full)
        ladders = _candidate_spectra(m)
        couplings = next((c for c in (zero_mode_chain(s, target) for s in ladders)
                          if c is not None), None)
        if couplings is None:
            tried = "; ".join(" ".join(f"{v:g}" for v in s[m // 2 + 1:])
                              for s in ladders)
            raise FlowStallError(
                "spread-chain design: the direct zero-mode solve found no chain on "
                f"any candidate ladder (positive halves tried: {tried}); the "
                "weight pattern may be unreachable")
    couplings, produced = sign_gauge(couplings, source, u_full)
    residual = np.abs(produced - u_full).max()
    if residual > max(tol, 1e-8):
        raise FlowStallError(
            "spread-chain design: designed chain misses the clone weights")
    return Chain(couplings)
