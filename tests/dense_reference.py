"""The dense spin-chain reference that the tests check the package against.

Only numpy and the standard library are imported here, never ``spinforge``,
so a fault in the package cannot also corrupt the oracle that checks it.
Every state lives on the full 2^n register: qubit m corresponds to bit n-m
of the basis index, so |00...0> is index 0 and |11...1> the last index.
"""

import numpy as np


def spin_hamiltonian(n: int, x=None, zz=None, xx=None, yy=None) -> np.ndarray:
    """Dense 2^n x 2^n matrix of an n-qubit chain built from Pauli terms.

    H = sum_m x_m X_m + sum_m (zz_m Z_m Z_m+1 + xx_m X_m X_m+1 + yy_m Y_m Y_m+1),
    with n fields in ``x`` and n-1 bond coefficients in each of ``zz``,
    ``xx`` and ``yy``; an omitted term kind is absent.  Each term flips a
    fixed set of bits, so it fills the entries (index ^ flips, index) with
    one sign-dressed value per index.
    """
    for name, coeffs, size in (("x", x, n), ("zz", zz, n - 1), ("xx", xx, n - 1),
                               ("yy", yy, n - 1)):
        if coeffs is not None and np.shape(coeffs) != (size,):
            raise ValueError(f"{name} needs {size} coefficients")
    idx = np.arange(1 << n)
    bits = (idx[:, None] >> np.arange(n - 1, -1, -1)) & 1
    h = np.zeros((idx.size, idx.size))
    if zz is not None:
        z = 1.0 - 2.0 * bits
        h[idx, idx] = (z[:, :-1] * z[:, 1:]) @ np.asarray(zz, dtype=float)
    for m in range(n if x is not None else 0):
        h[idx ^ (1 << (n - 1 - m)), idx] += float(x[m])
    for bond, equal_sign in ((xx, 1.0), (yy, -1.0)):
        for m in range(n - 1 if bond is not None else 0):
            sign = np.where(bits[:, m] == bits[:, m + 1], equal_sign, 1.0)
            h[idx ^ (3 << (n - 2 - m)), idx] += sign * float(bond[m])
    return h


def evolve(h: np.ndarray, t: float, psi: np.ndarray) -> np.ndarray:
    """e^{-iHt} psi for a Hermitian h, by its eigendecomposition; ``psi`` is
    one state or a block of states in its columns."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ (v.conj().T @ psi)


def zeros_state(n: int) -> np.ndarray:
    """The n-qubit all-zeros state |0...0>."""
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    return psi


def ghz_target(n: int) -> np.ndarray:
    """The n-qubit GHZ state (|0...0> - i|1...1>)/sqrt(2)."""
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1 / np.sqrt(2)
    psi[-1] = -1j / np.sqrt(2)
    return psi


def ising_band(fields, zz) -> np.ndarray:
    """The Majorana band B1, J1, B2, ..., Bn of the Ising chain with X fields
    ``fields`` and ZZ couplings ``zz``: the couplings of its 2n-site chain."""
    return np.insert(np.asarray(fields, dtype=float), np.arange(1, len(fields)), zz)


def ghz_overlap(fields, zz, yy=None) -> float:
    """|<GHZ| e^{-iH pi/4} |0...0>|, clamped to at most 1, for the chain with X
    fields ``fields`` and ZZ (and YY) couplings ``zz`` (and ``yy``)."""
    n = len(fields)
    psi = evolve(spin_hamiltonian(n, x=fields, zz=zz, yy=yy), np.pi / 4, zeros_state(n))
    return min(abs(np.vdot(ghz_target(n), psi)), 1.0)


def clone_images(betas):
    """Images of the input basis states |0> and |1> under the ideal cloning map.

    The 2N - 1 site register carries the N clones on its odd sites.  Each
    image is given by its sectors (amp0, amp1, excitation, hole): the
    amplitudes of the all-zeros and all-ones strings and the vectors of the
    single-excitation and single-hole strings over the sites.  The |0> image
    pairs the all-zeros string (weight A, the sum of the weights) with holes
    on the odd sites (weights ``betas``); the |1> image is its global spin flip.
    """
    betas = np.asarray(betas, dtype=float)
    holes = np.zeros(2 * betas.size - 1, dtype=complex)
    holes[0::2] = betas
    zero = np.zeros_like(holes)
    return (betas.sum(), 0.0, zero, holes), (0.0, betas.sum(), holes, zero)
