"""Transverse-Ising chains that synthesize GHZ states, and their free-fermion checks.

A chain of n qubits with transverse fields on X and nearest-neighbour ZZ
couplings is quadratic in Majorana operators, so its evolution is captured
exactly by a real antisymmetric 2n x 2n matrix s, which carries the band
B1, J1, B2, ..., Bn on its superdiagonal. With couplings inherited
from a mirror-transfer chain of length 2n, evolving the all-zeros state for
a quarter period produces the n-qubit GHZ state. This module builds those
chains, verifies the synthesis both by brute force and at the quadratic
level, and implements a determinant-based overlap estimator cheap enough
for large disorder sweeps.

Time convention: all public functions take Hamiltonian evolution time. The
quadratic (Majorana) sector evolves through twice the angle, i.e. the
orthogonal one-particle map at Hamiltonian time t is exp(2ts); the factor
of two is applied internally and pinned by a brute-force unit test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .pst import PstChain, standard_couplings

GHZ_TIME = np.pi / 4
BRUTE_FORCE_MAX_QUBITS = 12
# Byte budget of one stacked 2n x 2n array in the disorder sweep: 18 samples
# a block at n = 21, one sample from n = 91 up. Blocks of 9 to 148 samples
# ran the n = 21 sweep equally fast, and budgets past this one raised the
# sweep's peak RSS (by 3.3 MB at 1 MB).
SWEEP_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class IsingChain:
    """Transverse-field Ising chain: n fields on X, n-1 couplings on ZZ."""

    fields: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        fields = np.asarray(self.fields, dtype=float)
        couplings = np.asarray(self.couplings, dtype=float)
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "couplings", couplings)
        if fields.size < 1:
            raise ValueError("need at least one qubit")
        if couplings.shape != (fields.size - 1,):
            raise ValueError("coupling count must be one less than field count")
        if not (np.all(np.isfinite(fields)) and np.all(np.isfinite(couplings))):
            raise ValueError("chain parameters must be finite")

    @property
    def n(self) -> int:
        return self.fields.size

    def band(self) -> np.ndarray:
        """Interleaved parameter sequence B1, J1, B2, J2, ..., Bn."""
        band = np.empty(2 * self.n - 1)
        band[0::2] = self.fields
        band[1::2] = self.couplings
        return band


@dataclass
class GhzReport:
    """Overlap of the evolved all-zeros state with the GHZ target."""

    overlap: float
    method: str
    chain: IsingChain
    time: float
    det_sign: int = 1

    def __post_init__(self):
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError("overlap must lie in [0, 1]")


def ising_from_pst(p: PstChain) -> IsingChain:
    """Split an even-length transfer chain into Ising fields and couplings.

    The 2n-site coupling sequence is read alternately: odd positions become
    the n transverse fields, even positions the n-1 ZZ couplings.
    """
    if p.n % 2:
        raise ValueError("transfer chain must have an even number of sites")
    return IsingChain(fields=p.couplings[0::2], couplings=p.couplings[1::2])


def ghz_target(n: int) -> np.ndarray:
    """The n-qubit GHZ state (|0...0> - i|1...1>)/sqrt(2)."""
    if n < 1:
        raise ValueError("need at least one qubit")
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1 / np.sqrt(2)
    psi[-1] = -1j / np.sqrt(2)
    return psi


def ghz_global_phase(n: int) -> complex:
    """Exact phase of <GHZ|psi(t)> for the engineered chain at the quarter period.

    The overlap magnitude is 1; the phase repeats with period four in the
    qubit count: +1 for odd n, and (-1)^(n/2) e^{i pi/4} for even n. Pinned
    by brute-force evolution for n up to 10.
    """
    if n % 2:
        return 1.0 + 0.0j
    return (-1.0) ** (n // 2) * np.exp(1j * np.pi / 4)


def spin_hamiltonian(n: int, x=None, zz=None, xx=None, yy=None) -> sp.csr_matrix:
    """Sparse 2^n x 2^n matrix of an n-qubit chain built from Pauli terms.

    H = sum_m x_m X_m + sum_m (zz_m Z_m Z_m+1 + xx_m X_m X_m+1 + yy_m Y_m Y_m+1),
    with n fields in ``x`` and n-1 bond coefficients in each of ``zz``,
    ``xx`` and ``yy``; an omitted term kind is absent.  Qubit m corresponds
    to bit n-m of the basis index, so |00...0> is index 0 and |11...1> the
    last index.  Entries where XX and YY cancel are dropped, not stored.
    """
    for name, coeffs, size in (("x", x, n), ("zz", zz, n - 1), ("xx", xx, n - 1),
                               ("yy", yy, n - 1)):
        if coeffs is not None and np.shape(coeffs) != (size,):
            raise ValueError(f"{name} needs {size} coefficients")
    idx = np.arange(1 << n)
    bits = (idx[:, None] >> np.arange(n - 1, -1, -1)) & 1
    flips, values = [], []
    if zz is not None:
        z = 1.0 - 2.0 * bits
        flips.append(0)
        values.append((z[:, :-1] * z[:, 1:]) @ np.asarray(zz, dtype=float))
    for m in range(n if x is not None else 0):
        flips.append(1 << (n - 1 - m))
        values.append(np.full(idx.size, float(x[m])))
    for bond, equal_sign in ((xx, 1.0), (yy, -1.0)):
        for m in range(n - 1 if bond is not None else 0):
            flips.append(3 << (n - 2 - m))
            sign = np.where(bits[:, m] == bits[:, m + 1], equal_sign, 1.0)
            values.append(sign * float(bond[m]))
    rows = (np.array(flips, dtype=int)[:, None] ^ idx).ravel()
    cols = np.tile(idx, len(flips))
    data = np.array(values, dtype=float).ravel()
    h = sp.coo_matrix((data, (rows, cols)), shape=(idx.size, idx.size)).tocsr()
    h.eliminate_zeros()
    return h


def dense_hamiltonian(c: IsingChain) -> np.ndarray:
    """Full 2^n x 2^n matrix of the chain Hamiltonian (real symmetric)."""
    return spin_hamiltonian(c.n, x=c.fields, zz=c.couplings).toarray()


def evolve_dense(h: np.ndarray, t: float, psi0: np.ndarray) -> np.ndarray:
    """Exact evolution e^{-iHt} psi0 under a dense real symmetric Hamiltonian."""
    w, v = np.linalg.eigh(h)
    return v @ (np.exp(-1j * w * t) * (v.T @ psi0))


def brute_force_evolve(c: IsingChain, t: float, psi0: np.ndarray) -> np.ndarray:
    """Exact dense evolution of an n-qubit state under the chain Hamiltonian."""
    if c.n > BRUTE_FORCE_MAX_QUBITS:
        raise ValueError(
            f"dense evolution limited to {BRUTE_FORCE_MAX_QUBITS} qubits "
            f"(got {c.n}); use the quadratic-sector routines instead"
        )
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (1 << c.n,):
        raise ValueError("state dimension does not match qubit count")
    return evolve_dense(dense_hamiltonian(c), t, psi0)


def _one_particle_maps(bands: np.ndarray, t: float) -> np.ndarray:
    """Maps exp(2ts) for a stack of bands of shape (k, 2n-1), as a (k, 2n, 2n) array.

    s couples even modes only to odd ones: its even-odd block is the lower
    bidiagonal C with C[k,k] = b_2k and C[k+1,k] = -b_2k+1, and its odd-even
    block is -C^T.  With C = U S V^T the even-even block of exp(2ts) is
    U cos(2tS) U^T, the odd-odd block V cos(2tS) V^T, the even-odd block
    U sin(2tS) V^T and the odd-even block -V sin(2tS) U^T, so one real n x n
    SVD per band gives the map.  Singular vectors orthonormal to 1e-10 make
    it orthogonal to the same order; past that a ``ValueError`` is raised.
    """
    k, n = bands.shape[0], (bands.shape[1] + 1) // 2
    c = np.zeros((k, n, n))
    i = np.arange(n)
    c[:, i, i] = bands[:, 0::2]
    c[:, i[1:], i[:-1]] = -bands[:, 1::2]
    u, sigma, vt = np.linalg.svd(c)
    ut, v = u.transpose(0, 2, 1), vt.transpose(0, 2, 1)
    dev = max(np.abs(ut @ u - np.eye(n)).max(), np.abs(vt @ v - np.eye(n)).max())
    if dev > 1e-10:
        raise ValueError(
            f"one-particle map is not orthogonal (singular vector deviation {dev:.3e})")
    cos = np.cos(2.0 * t * sigma)[:, None, :]
    sin = np.sin(2.0 * t * sigma)[:, None, :]
    w = np.empty((k, 2 * n, 2 * n))
    w[:, 0::2, 0::2] = (u * cos) @ ut
    w[:, 1::2, 1::2] = (v * cos) @ vt
    w[:, 0::2, 1::2] = (u * sin) @ vt
    w[:, 1::2, 0::2] = -((v * sin) @ ut)
    return w


def one_particle_map(c: IsingChain, t: float) -> np.ndarray:
    """Real orthogonal map exp(2ts) transporting Majorana operators over Hamiltonian time t."""
    return _one_particle_maps(c.band()[None, :], t)[0]


def mirror_deviation(c: IsingChain, t: float = GHZ_TIME) -> float:
    """Deviation of the one-particle map from the signed mirror permutation.

    At the quarter period the engineered chain sends mode k to mode 2n+1-k
    with alternating sign (-1)^k. Returns the worst absolute deviation from
    that rule; diagnostic, large for perturbed chains.
    """
    w = one_particle_map(c, t)
    dim = 2 * c.n
    target = np.zeros((dim, dim))
    k = np.arange(1, dim + 1)
    target[dim - k, k - 1] = (-1.0) ** k
    return float(np.abs(w - target).max())


def basis_map(x: str) -> tuple[str, str]:
    """Image of a computational basis state under the quarter-period evolution.

    A basis state prepared by flipping qubits at the positions set in x is
    carried to the same flips applied at mirrored positions on the GHZ state,
    with no extra phase. Returns the reversed bit string together with a
    human-readable statement of the rule.
    """
    if set(x) - {"0", "1"}:
        raise ValueError("bit string may contain only 0 and 1")
    reversed_x = x[::-1]
    rule = (
        f"apply X at the set positions of {reversed_x} to the {len(x)}-qubit "
        "GHZ target; no additional phase"
    )
    return reversed_x, rule


def hopping_form(n: int) -> np.ndarray:
    """Antisymmetric generator pairing modes 2m and 2m+1 for m = 1..n-1.

    This is the quadratic form whose exponential reconstructs the projector
    structure of the all-zeros state in the Majorana description; it feeds
    the determinant overlap estimator.
    """
    pairs = np.arange(2 * n - 1) % 2.0  # superdiagonal entries (2m-1, 2m)
    return np.diag(pairs, 1) - np.diag(pairs, -1)


def overlap_exact(c: IsingChain, t: float = GHZ_TIME) -> GhzReport:
    """GHZ overlap by dense evolution of the all-zeros state (n <= 12)."""
    psi0 = np.zeros(1 << c.n, dtype=complex)
    psi0[0] = 1.0
    psi = brute_force_evolve(c, t, psi0)
    overlap = min(abs(np.vdot(ghz_target(c.n), psi)), 1.0)
    return GhzReport(overlap=overlap, method="exact", chain=c, time=t)


def _overlap_estimates(bands: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Overlap estimates and determinant signs for a stack of bands (k, 2n-1).

    See :func:`overlap_estimate`; the determinant is taken in log space, so
    chains of any length give a finite estimate.
    """
    n = (bands.shape[1] + 1) // 2
    w = _one_particle_maps(bands, t)
    f = w[:, 2 * n - 1, 0]
    h0 = hopping_form(n)
    sign, logdet = np.linalg.slogdet(w @ h0 @ w.transpose(0, 2, 1) @ h0 - np.eye(2 * n))
    raw = (1.0 + np.abs(f)) * np.exp(0.5 * logdet - n * np.log(2.0))
    overlap = np.minimum(np.maximum(raw, 0.0), 1.0)
    overlap[1.0 - overlap < 1e-12] = 1.0
    return overlap, sign


def overlap_estimate(c: IsingChain, t: float = GHZ_TIME) -> GhzReport:
    """Determinant-based estimate of the GHZ overlap from the quadratic sector.

    Combines the end-to-end one-particle amplitude F with the determinant of
    W h0 W^T h0 - 1, where W is the one-particle map and h0 the pairing
    generator: estimate = (1+|F|)/2^n * sqrt|det|, evaluated as
    (1+|F|) exp(log|det|/2 - n log 2) so that the determinant cannot
    overflow. The determinant is taken in magnitude (its sign is recorded in
    the report), and results within 1e-12 of the upper boundary are snapped
    to exactly 1 so that chains with perfect mirror transfer report an
    overlap of 1.0.
    """
    overlap, sign = _overlap_estimates(c.band()[None, :], t)
    return GhzReport(
        overlap=float(overlap[0]),
        method="estimator",
        chain=c,
        time=t,
        det_sign=int(sign[0]),
    )


@dataclass
class SweepPoint:
    """Disorder-sweep summary at one perturbation strength."""

    x_percent: float
    mean: float
    stddev: float
    samples: np.ndarray = field(repr=False)


def perturb_sweep(n: int, x_percent: float, samples: int, seed: int) -> SweepPoint:
    """Overlap-estimate statistics under multiplicative parameter disorder.

    Every field and coupling of the engineered n-qubit chain is multiplied by
    an independent factor 1 + (x/100) u with u uniform on [-1, 1]. Each
    sample derives its own random stream from (seed, sample index), so the
    same underlying draws are reused across different strengths x.

    Samples are drawn and estimated in consecutive blocks, one stack of real
    n x n SVDs and 2n x 2n products per block, in the calling thread. A
    block's 2n x 2n stack is kept near SWEEP_BLOCK_BYTES, so memory does not
    grow with the sample count.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    if samples < 1:
        raise ValueError("need at least one sample")
    band = ising_from_pst(standard_couplings(2 * n)).band()
    block = max(1, SWEEP_BLOCK_BYTES // (8 * (2 * n) ** 2))

    values = np.empty(samples)
    for start in range(0, samples, block):
        stop = min(start + block, samples)
        u = np.array([np.random.default_rng([seed, index]).uniform(-1.0, 1.0, band.size)
                      for index in range(start, stop)])
        perturbed = band * (1.0 + (x_percent / 100.0) * u)
        if not np.all(np.isfinite(perturbed)):
            raise ValueError("chain parameters must be finite")
        values[start:stop] = _overlap_estimates(perturbed, GHZ_TIME)[0]
    if not np.all((0.0 <= values) & (values <= 1.0)):
        raise ValueError("overlap must lie in [0, 1]")
    return SweepPoint(
        x_percent=float(x_percent),
        mean=float(values.mean()),
        stddev=float(values.std()),
        samples=values,
    )
