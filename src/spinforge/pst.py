"""Perfect-state-transfer coupling sets.

The engineered couplings J_k = sqrt(k(n-k)) give a single-excitation chain
whose evolution at t0 = pi/2 maps site k to the mirror site n+1-k exactly,
up to the global phase (-i)^(n-1). These chains seed every other design
routine in the package.
"""

from __future__ import annotations

import numpy as np

from .numerics import Chain, eig_sym_tridiag

# Half period of the ladder spectrum {-(n-1), -(n-3), ..., n-1}: the time at
# which every chain built here transfers site k to its mirror site.
TRANSFER_TIME = np.pi / 2


def standard_couplings(n: int) -> Chain:
    """The engineered mirror-transfer solution on n sites.

    Couplings are J_k = sqrt(k(n-k)) for k = 1..n-1, transfer time pi/2.
    The resulting single-excitation spectrum is the uniformly spaced ladder
    {-(n-1), -(n-3), ..., n-1}.
    """
    if n < 2:
        raise ValueError("need n >= 2 sites")
    k = np.arange(1, n)
    return Chain(np.sqrt(k * (n - k)))


def verify_mirror(chain: Chain) -> float:
    """Worst-case deviation of the chain's evolution from exact mirror transfer.

    Compares every mirrored amplitude <n+1-k|e^{-iht0}|k> with the expected
    uniform phase (-i)^(n-1). Only those n amplitudes are formed, from the
    tridiagonal eigendecomposition, never the full propagator. Diagnostic
    only; small for engineered chains, order one for generic ones.
    """
    w, v = eig_sym_tridiag(chain)
    transfer = (v[::-1, :] * v) @ np.exp(-1j * w * TRANSFER_TIME)
    phase = (-1j) ** (chain.n - 1)
    return float(np.abs(transfer - phase).max())
