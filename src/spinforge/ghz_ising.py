"""Transverse-Ising chains that synthesize GHZ states, and their free-fermion checks.

A chain of n qubits with transverse fields on X and nearest-neighbour ZZ
couplings is quadratic in Majorana operators, so its evolution is captured
exactly by a real antisymmetric 2n x 2n matrix s, which carries the band
B1, J1, B2, ..., Bn on its superdiagonal. With couplings inherited
from a mirror-transfer chain of length 2n, evolving the all-zeros state for
a quarter period produces the n-qubit GHZ state. This module builds those
chains, verifies the synthesis both by brute force and at the quadratic
level, and computes the GHZ overlap exactly from one Gaussian-trace
determinant, for Ising chains and for the YY-coupled chains of ``isoflow``
alike, fast enough for large disorder sweeps.

Time convention: all public functions take Hamiltonian evolution time. The
quadratic (Majorana) sector evolves through twice the angle, i.e. the
orthogonal one-particle map at Hamiltonian time t is exp(2ts); the factor
of two is applied internally and pinned by a brute-force unit test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import Chain
from .pst import standard_couplings

GHZ_TIME = np.pi / 4
BRUTE_FORCE_MAX_QUBITS = 12
# Byte budget of one stacked 2n x 2n map array in the disorder sweep: 18 samples
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


def ising_from_pst(p: Chain) -> IsingChain:
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


def spin_terms(n: int, x=None, zz=None, xx=None, yy=None) -> tuple:
    """COO triplets (rows, cols, values) of an n-qubit chain built from Pauli terms.

    H = sum_m x_m X_m + sum_m (zz_m Z_m Z_m+1 + xx_m X_m X_m+1 + yy_m Y_m Y_m+1),
    with n fields in ``x`` and n-1 bond coefficients in each of ``zz``,
    ``xx`` and ``yy``; an omitted term kind is absent.  Qubit m corresponds
    to bit n-m of the basis index, so |00...0> is index 0 and |11...1> the
    last index.  Repeated positions (XX and YY on one bond) are to be summed.
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
    return rows, cols, np.array(values, dtype=float).ravel()


def spin_hamiltonian(n: int, x=None, zz=None, xx=None, yy=None):
    """Sparse CSR matrix of :func:`spin_terms`, for the 2^n x 2^n oracle evolutions.

    Entries where XX and YY cancel are dropped, not stored.  SciPy's sparse
    module is imported here, by the callers that apply H to states.
    """
    import scipy.sparse

    rows, cols, data = spin_terms(n, x=x, zz=zz, xx=xx, yy=yy)
    dim = 1 << n
    h = scipy.sparse.coo_matrix((data, (rows, cols)), shape=(dim, dim)).tocsr()
    h.eliminate_zeros()
    return h


def dense_spin_hamiltonian(n: int, x=None, zz=None, xx=None, yy=None) -> np.ndarray:
    """Dense 2^n x 2^n matrix of :func:`spin_terms`, assembled in numpy."""
    rows, cols, data = spin_terms(n, x=x, zz=zz, xx=xx, yy=yy)
    dim = 1 << n
    return np.bincount(rows * dim + cols, weights=data, minlength=dim * dim).reshape(dim, dim)


def dense_hamiltonian(c: IsingChain) -> np.ndarray:
    """Full 2^n x 2^n matrix of the chain Hamiltonian (real symmetric)."""
    return dense_spin_hamiltonian(c.n, x=c.fields, zz=c.couplings)


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
    w, v = np.linalg.eigh(dense_hamiltonian(c))
    return v @ (np.exp(-1j * w * t) * (v.T @ psi0))


def majorana_blocks(fields, zz, yy=None) -> np.ndarray:
    """Even-odd blocks C of the Majorana matrices s, stacked as (k, n, n).

    X fields ``fields`` (k, n) go on the diagonal, ZZ couplings ``zz``
    (k, n-1) as -zz on the subdiagonal and YY couplings ``yy`` (k, n-1) as
    -yy on the superdiagonal; Ising chains have no YY, so C is bidiagonal.
    """
    fields = np.asarray(fields, dtype=float)
    k, n = fields.shape
    c = np.zeros((k, n, n))
    i = np.arange(n)
    c[:, i, i] = fields
    c[:, i[1:], i[:-1]] = -np.asarray(zz, dtype=float)
    if yy is not None:
        c[:, i[:-1], i[1:]] = -np.asarray(yy, dtype=float)
    return c


def _one_particle_maps(c: np.ndarray, t: float) -> np.ndarray:
    """Maps exp(2ts) for a stack of blocks ``c`` of shape (k, n, n), as (k, 2n, 2n).

    s couples even modes only to odd ones: its even-odd block is C (see
    :func:`majorana_blocks`) and its odd-even block -C^T.  With
    C = U S V^T the even-even block of exp(2ts) is U cos(2tS) U^T, the
    odd-odd block V cos(2tS) V^T, the even-odd block U sin(2tS) V^T and
    the odd-even block -V sin(2tS) U^T, so one real n x n SVD per block
    gives the map.  Singular vectors orthonormal to 1e-10 make it
    orthogonal to the same order; past that, or when a phase 2t sigma
    overflows, a ``ValueError`` is raised.
    """
    k, n = c.shape[0], c.shape[1]
    u, sigma, vt = np.linalg.svd(c)
    ut, v = u.transpose(0, 2, 1), vt.transpose(0, 2, 1)
    dev = max(np.abs(ut @ u - np.eye(n)).max(), np.abs(vt @ v - np.eye(n)).max())
    if dev > 1e-10:
        raise ValueError(
            f"one-particle map is not orthogonal (singular vector deviation {dev:.3e})")
    with np.errstate(over="ignore"):  # refused just below
        angle = 2.0 * t * sigma
    if not np.isfinite(angle).all():
        raise ValueError("one-particle map overflows: chain parameters are too large")
    cos, sin = np.cos(angle)[:, None, :], np.sin(angle)[:, None, :]
    w = np.empty((k, 2 * n, 2 * n))
    w[:, 0::2, 0::2] = (u * cos) @ ut
    w[:, 1::2, 1::2] = (v * cos) @ vt
    w[:, 0::2, 1::2] = (u * sin) @ vt
    w[:, 1::2, 0::2] = -((v * sin) @ ut)
    return w


def one_particle_map(c: IsingChain, t: float) -> np.ndarray:
    """Real orthogonal map exp(2ts) transporting Majorana operators over Hamiltonian time t."""
    return _one_particle_maps(majorana_blocks(c.fields[None], c.couplings[None]), t)[0]


def mirror_deviation(c: IsingChain) -> float:
    """Deviation of the one-particle map from the signed mirror permutation.

    At the quarter period the engineered chain sends mode k to mode 2n+1-k
    with alternating sign (-1)^k. Returns the worst absolute deviation from
    that rule; diagnostic, large for perturbed chains.
    """
    w = one_particle_map(c, GHZ_TIME)
    dim = 2 * c.n
    target = np.zeros((dim, dim))
    k = np.arange(1, dim + 1)
    target[dim - k, k - 1] = (-1.0) ** k
    return float(np.abs(w - target).max())


def overlap_exact(c: IsingChain) -> float:
    """GHZ overlap by dense evolution of the all-zeros state (n <= 12)."""
    psi0 = np.zeros(1 << c.n, dtype=complex)
    psi0[0] = 1.0
    psi = brute_force_evolve(c, GHZ_TIME, psi0)
    return min(abs(np.vdot(ghz_target(c.n), psi)), 1.0)


def ghz_overlaps(c: np.ndarray) -> np.ndarray:
    """Exact overlaps |<GHZ| e^{-iH GHZ_TIME} |0...0>| for a stack of blocks C (k, n, n).

    By the Gaussian-trace identity (Bravyi 2005; Fagotti & Calabrese 2010)
    with one ancilla Majorana mode eta = 2n, overlap^4 = 2^-2n
    |det(W~ - G_A W~ G_B)|, where W~ = W + 1 is the map padded with eta.
    A pair (a, b) with sign s sets G[a, b] = -G[b, a] = s.  G_B, the
    all-zeros side, pairs (2m-1, 2m) for m = 1..n-1 with sign +1 and
    (0, eta) with sign -1; G_A, the GHZ side, pairs the same modes and
    (2n-1, eta), all with sign +1.  The matrix is formed by index moves and
    its determinant taken in log space, so chains of any length give a
    finite overlap.  Overlaps are clamped to at most 1 and snapped to 1
    within 1e-12, so chains with perfect mirror transfer report 1.0.
    """
    n = c.shape[1]
    w = _one_particle_maps(c, GHZ_TIME)
    eta = 2 * n
    m = np.zeros((c.shape[0], eta + 1, eta + 1))
    m[:, :eta, :eta] = w
    m[:, eta, eta] = 1.0
    # G_A moves rows 2m -> 2m-1 and -(2m-1) -> 2m for m = 1..n; G_B moves
    # columns -2m -> 2m-1 and 2m-1 -> 2m for m < n, -0 -> eta and eta -> 0
    lo, hi = slice(1, eta - 2, 2), slice(2, eta - 1, 2)
    odd, even = slice(1, eta, 2), slice(2, eta + 1, 2)
    m[:, lo, lo] += w[:, hi, hi]
    m[:, lo, hi] -= w[:, hi, lo]
    m[:, even, lo] -= w[:, odd, hi]
    m[:, even, hi] += w[:, odd, lo]
    m[:, lo, eta] += w[:, hi, 0]
    m[:, even, eta] -= w[:, odd, 0]
    m[:, eta - 1, 0] -= 1.0
    _, logdet = np.linalg.slogdet(m)
    overlap = np.minimum(np.exp(0.25 * logdet - 0.5 * n * np.log(2.0)), 1.0)
    overlap[1.0 - overlap < 1e-12] = 1.0
    return overlap


def overlap_estimate(c: IsingChain) -> float:
    """Exact GHZ overlap of an Ising chain, by :func:`ghz_overlaps`.

    The name is kept from the estimator this replaced, because the
    benchmark's tracer times the function under it.
    """
    return float(ghz_overlaps(majorana_blocks(c.fields[None], c.couplings[None]))[0])


@dataclass
class SweepPoint:
    """Disorder-sweep summary at one perturbation strength."""

    x_percent: float
    mean: float
    stddev: float
    samples: np.ndarray = field(repr=False)


def perturb_sweep(n: int, x_percents, samples: int, seed: int) -> list[SweepPoint]:
    """GHZ-overlap statistics under parameter disorder, one point per strength.

    Every field and coupling of the engineered n-qubit chain is multiplied by
    an independent factor 1 + (x/100) u with u uniform on [-1, 1]. Each
    sample derives its own random stream from (seed, sample index), so the
    same underlying draws are reused across different strengths x.

    Samples are drawn in consecutive blocks, once for all strengths, and each
    nonzero x evaluates a block with one stack of n x n SVDs and
    (2n+1)-square determinants, in the calling thread; one overlap fills the
    x = 0 row. A block's 2n x 2n map stack stays near SWEEP_BLOCK_BYTES; the
    strengths x samples table of overlaps grows with both counts.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    if samples < 1:
        raise ValueError("need at least one sample")
    band = ising_from_pst(standard_couplings(2 * n)).band()
    block = max(1, SWEEP_BLOCK_BYTES // (8 * (2 * n) ** 2))
    xs = [float(x) for x in x_percents]
    try:
        values = np.empty((len(xs), samples))
    except MemoryError:
        raise ValueError(f"no memory for {len(xs)} strengths x {samples} samples") from None
    zero = np.array(xs) == 0.0
    if zero.any():
        values[zero] = ghz_overlaps(majorana_blocks(band[None, 0::2], band[None, 1::2]))
    for start in range(0, 0 if zero.all() else samples, block):
        stop = min(start + block, samples)
        u = np.array([np.random.default_rng([seed, index]).uniform(-1.0, 1.0, band.size)
                      for index in range(start, stop)])
        for row in np.flatnonzero(~zero):
            bands = band * (1.0 + (xs[row] / 100.0) * u)
            if not np.all(np.isfinite(bands)):
                raise ValueError("chain parameters must be finite")
            values[row, start:stop] = ghz_overlaps(
                majorana_blocks(bands[:, 0::2], bands[:, 1::2]))
    if not np.all((0.0 <= values) & (values <= 1.0)):
        raise ValueError("overlap must lie in [0, 1]")
    return [SweepPoint(x_percent=x, mean=float(row.mean()), stddev=float(row.std()),
                       samples=row) for x, row in zip(xs, values)]
