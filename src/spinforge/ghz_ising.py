"""Transverse-Ising chains that synthesize GHZ states, and their free-fermion checks.

A chain of n qubits with transverse fields on X and nearest-neighbour ZZ
couplings is quadratic in Majorana operators, so its evolution is captured
exactly by a real antisymmetric 2n x 2n matrix s, which carries the band
B1, J1, B2, ..., Bn on its superdiagonal.  That band is the whole chain, so
an n-qubit Ising chain is the 2n-site ``numerics.Chain`` whose couplings
are its band, and one private helper reads the fields and ZZ couplings off
it.  The mirror-transfer chain ``pst.standard_couplings(2n)`` is, as it
stands, the Ising chain whose quarter period takes the all-zeros state to
the n-qubit GHZ state.  This module verifies that synthesis at the
quadratic level, and computes the GHZ overlap exactly from one
(n+1)-square complex determinant, the Bogoliubov matrix between two
complete Majorana pairings (Onishi & Yoshida 1966; Bravyi 2005), for Ising
chains and for the YY-coupled chains of ``isoflow`` alike, fast enough for
large disorder sweeps.  The dense cloning oracle evolves the same chains
as gate circuits built from ``one_particle_map``; the tests check all of
it against a dense spin-Hamiltonian reference of their own.

Time convention: all public functions take Hamiltonian evolution time. The
quadratic (Majorana) sector evolves through twice the angle, i.e. the
orthogonal one-particle map at Hamiltonian time t is exp(2ts); the factor
of two is applied internally and pinned by a brute-force unit test.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .numerics import Chain, check_orthonormal
from .pst import standard_couplings

GHZ_TIME = np.pi / 4
# Byte budget of one sample block in the disorder sweep, counted over its
# largest stacks: the (n+1)-square complex determinant matrices and the three
# n x n map blocks they are read from, 16(n+1)^2 + 24n^2 bytes a sample (14
# samples at n = 21, 7 at n = 30, one from n = 57 up). One sample more and a
# worker frees more than glibc's 128 KiB trim threshold at the top of its
# malloc arena, which is then trimmed and re-faulted every block (~55k more
# minor faults a sweep). `perturb_sweep(21, range(11), 1000, 1)` on 2 cores,
# one BLAS thread, medians of 10 fresh processes (wall, CPU): 14 samples
# 0.310 s, 0.600 s; 16 samples 0.344 s, 0.656 s; 7 samples, the budget split
# across the two workers, 0.337 s, 0.651 s. So each worker takes the whole
# budget for its own block.
SWEEP_BLOCK_BYTES = 1 << 18


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


def _ising_blocks(bands: np.ndarray) -> np.ndarray:
    """Blocks C of Ising chains given by their Majorana bands, stacked as (k, 2n - 1).

    A band B1, J1, B2, ..., Bn holds the X fields at its even positions and
    the ZZ couplings at its odd ones, so the 2n-site ``Chain`` with those
    couplings is an n-qubit Ising chain.  A band of even length, an odd
    number of sites, is refused.
    """
    if bands.shape[1] % 2 == 0:
        raise ValueError("transfer chain must have an even number of sites")
    return majorana_blocks(bands[:, 0::2], bands[:, 1::2])


def _map_blocks(c: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocks of exp(2ts) for a stack of blocks ``c`` (k, n, n): even-even, odd-odd, even-odd.

    s couples even modes only to odd ones: its even-odd block is C (see
    :func:`majorana_blocks`) and its odd-even block -C^T.  With
    C = U S V^T the even-even block of exp(2ts) is U cos(2tS) U^T, the
    odd-odd block V cos(2tS) V^T and the even-odd block U sin(2tS) V^T;
    the odd-even block is minus the transpose of the last.  The factors
    come from one real n x n SVD of C^T per block, which is upper
    bidiagonal for Ising chains.  Both stacks of singular vectors pass
    ``numerics.check_orthonormal``, so the map is orthogonal to 1e-10.  A
    ``ValueError`` is raised for a non-finite time, and when a phase
    2t sigma is so large that its rounding, eps times the phase, exceeds
    the same 1e-10 (or the phase overflows).
    """
    if not np.isfinite(t):
        raise ValueError("evolution time must be finite")
    v, sigma, ut = np.linalg.svd(c.transpose(0, 2, 1))
    u, vt = ut.transpose(0, 2, 1), v.transpose(0, 2, 1)
    check_orthonormal(u)
    check_orthonormal(v)
    with np.errstate(over="ignore"):  # refused just below
        angle = 2.0 * t * sigma
    if not np.finfo(float).eps * np.abs(angle).max() <= 1e-10:
        raise ValueError("one-particle map overflows: chain parameters are too large")
    cos, sin = np.cos(angle)[:, None, :], np.sin(angle)[:, None, :]
    return (u * cos) @ ut, (v * cos) @ vt, (u * sin) @ vt


def one_particle_map(c: Chain, t: float) -> np.ndarray:
    """Real orthogonal map exp(2ts) transporting Majorana operators over Hamiltonian time t.

    ``c`` is the Ising chain's 2n-site band, so the map is c.n x c.n.
    """
    ee, oo, eo = (b[0] for b in _map_blocks(_ising_blocks(c.couplings[None]), t))
    w = np.empty((c.n, c.n))
    w[0::2, 0::2], w[1::2, 1::2], w[0::2, 1::2], w[1::2, 0::2] = ee, oo, eo, -eo.T
    return w


def mirror_deviation(c: Chain) -> float:
    """Deviation of the one-particle map from the signed mirror permutation.

    At the quarter period the engineered chain sends mode k to mode 2n+1-k
    with alternating sign (-1)^k. Returns the worst absolute deviation from
    that rule; diagnostic, large for perturbed chains.  In the blocks of
    :func:`_map_blocks` the rule reads ee = oo = 0 and eo = anti-identity.
    """
    ee, oo, eo = (b[0] for b in _map_blocks(_ising_blocks(c.couplings[None]), GHZ_TIME))
    return float(max(np.abs(ee).max(), np.abs(oo).max(),
                     np.abs(eo[::-1] - np.eye(c.n // 2)).max()))


def ghz_overlaps(c: np.ndarray) -> np.ndarray:
    """Exact overlaps |<GHZ| e^{-iH GHZ_TIME} |0...0>| for a stack of blocks C (k, n, n).

    The GHZ target becomes a Gaussian state once one ancilla Majorana mode
    eta = 2n is added, and a second one, eta' = 2n + 1, completes both
    pairings.  A pair (a, b) with sign s sets G[a, b] = -G[b, a] = s.  G_A,
    the GHZ side, pairs (2m-1, 2m) for m = 1..n-1, (2n-1, eta) and
    (0, eta'); G_B, the all-zeros side, pairs the same (2m-1, 2m),
    (2n-1, eta') and (eta, 0); every sign is +1, eta' on both sides (with
    opposite signs there the identity fails).  With W^ = W + 1 + 1 the
    map padded on both ancillas, overlap^4 = 2^-2(n+1)
    |det(G_A + W^ G_B W^T)| (Bravyi 2005), and by the overlap formula of
    Onishi & Yoshida (1966) overlap = |det alpha|^1/2, where the
    (n+1)-square complex Bogoliubov matrix between the two pairings has
    2 alpha_jk = W^_pp' + W^_qq' + i (W^_pq' - W^_qp') for the j-th pair
    (p, q) of G_A and the k-th pair (p', q') of G_B, in the order listed.
    So alpha is read from slices of the three blocks of :func:`_map_blocks`,
    and its determinant is taken in log space, so chains of any length give
    a finite overlap.  Overlaps are clamped to at most 1 and snapped to 1
    within 1e-12, so chains with perfect mirror transfer report 1.0.
    """
    k, n = c.shape[0], c.shape[1]
    ee, oo, eo = _map_blocks(c, GHZ_TIME)
    a = np.zeros((k, n + 1, n + 1), dtype=complex)
    re, im = a.real, a.imag
    re[:, :n, :n] = oo
    re[:, :n - 1, :n - 1] += ee[:, 1:, 1:]
    re[:, :n - 1, n] = ee[:, 1:, 0]
    re[:, n, :n] = eo[:, 0]
    re[:, n, n - 1] += 1.0
    im[:, :n, :n - 1] = -eo[:, 1:].transpose(0, 2, 1)
    im[:, :n - 1, :n] -= eo[:, 1:]
    im[:, :n, n] = -eo[:, 0]
    im[:, n - 1, n] -= 1.0
    im[:, n, :n - 1] = ee[:, 0, 1:]
    im[:, n, n] = ee[:, 0, 0]
    _, logdet = np.linalg.slogdet(a)
    overlap = np.minimum(np.exp(0.5 * logdet - 0.5 * (n + 1) * np.log(2.0)), 1.0)
    overlap[1.0 - overlap < 1e-12] = 1.0
    return overlap


def overlap_estimate(c: Chain) -> float:
    """Exact GHZ overlap of an Ising chain, by :func:`ghz_overlaps`.

    The name is kept from the estimator this replaced, because the
    benchmark's tracer times the function under it.
    """
    return float(ghz_overlaps(_ising_blocks(c.couplings[None]))[0])


@dataclass(eq=False)
class SweepPoint:
    """Disorder-sweep overlaps at one perturbation strength, with their statistics."""

    x_percent: float
    samples: np.ndarray = field(repr=False)

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    @property
    def stddev(self) -> float:
        return float(self.samples.std())


def _usable_cores() -> int:
    """Cores this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def perturb_sweep(n: int, x_percents, samples: int, seed: int) -> list[SweepPoint]:
    """GHZ-overlap statistics under parameter disorder, one point per strength.

    Every field and coupling of the engineered n-qubit chain is multiplied by
    an independent factor 1 + (x/100) u with u uniform on [-1, 1]. Each
    sample derives its own random stream from (seed, sample index), so the
    same underlying draws are reused across different strengths x.

    Samples are drawn in consecutive blocks, once for all strengths, and each
    nonzero x evaluates a block with one stack of n x n SVDs and
    (n+1)-square complex determinants; one overlap fills the x = 0 row. The blocks
    run on a pool of worker threads, one per usable core up to the block
    count, and each writes only its own columns, so the result does not
    depend on the worker count. The pool is shut down before the call
    returns; the error of the first failing block, in block order, is
    raised unchanged, and blocks not yet started are cancelled. A block's
    determinant matrices and map blocks stay near SWEEP_BLOCK_BYTES, one
    block per worker; the strengths x samples table of overlaps grows with
    both counts.
    """
    from concurrent.futures import ThreadPoolExecutor

    if n < 1:
        raise ValueError("need at least one qubit")
    if samples < 1:
        raise ValueError("need at least one sample")
    band = standard_couplings(2 * n).couplings
    block = max(1, SWEEP_BLOCK_BYTES // (16 * (n + 1) ** 2 + 24 * n ** 2))
    xs = [float(x) for x in x_percents]
    try:
        values = np.empty((len(xs), samples))
    except MemoryError:
        raise ValueError(f"no memory for {len(xs)} strengths x {samples} samples") from None
    zero = np.array(xs) == 0.0
    if zero.any():
        values[zero] = ghz_overlaps(_ising_blocks(band[None]))
    rows = np.flatnonzero(~zero)

    def evaluate(start: int) -> None:
        stop = min(start + block, samples)
        u = np.array([np.random.default_rng([seed, index]).uniform(-1.0, 1.0, band.size)
                      for index in range(start, stop)])
        for row in rows:
            bands = band * (1.0 + (xs[row] / 100.0) * u)
            if not np.all(np.isfinite(bands)):
                raise ValueError("chain parameters must be finite")
            values[row, start:stop] = ghz_overlaps(_ising_blocks(bands))

    starts = range(0, samples if rows.size else 0, block)
    # threads start on the first submit, so an all-zero sweep starts none
    pool = ThreadPoolExecutor(max(1, min(_usable_cores(), len(starts))))
    try:
        for future in [pool.submit(evaluate, start) for start in starts]:
            future.result()
    finally:
        pool.shutdown(cancel_futures=True)
    if not np.all((0.0 <= values) & (values <= 1.0)):
        raise ValueError("overlap must lie in [0, 1]")
    return [SweepPoint(x_percent=x, samples=row) for x, row in zip(xs, values)]
