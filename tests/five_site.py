"""Closed forms of the five-site zero-mode case study, as a test oracle.

A five-site zero-diagonal chain with spectrum {0, +-3, +-5} is fixed in
closed form by its odd-site zero mode, and which zero modes admit such a
chain is one inequality in two coupling ratios.  The tests check
``synthesis.zero_mode_chain`` and the null-vector flow against these
forms.  Only numpy is imported here, never ``spinforge``, so a fault in
the package cannot also corrupt the oracle that checks it.
"""

import numpy as np


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
