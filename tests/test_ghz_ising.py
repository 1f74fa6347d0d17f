import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spinforge.ghz_ising import (
    GHZ_TIME,
    IsingChain,
    brute_force_evolve,
    dense_hamiltonian,
    dense_spin_hamiltonian,
    ghz_overlaps,
    ghz_target,
    ising_from_pst,
    majorana_blocks,
    mirror_deviation,
    one_particle_map,
    overlap_estimate,
    overlap_exact,
    perturb_sweep,
    spin_hamiltonian,
)
from spinforge.pst import standard_couplings


def ghz_chain(n):
    return ising_from_pst(standard_couplings(2 * n))


def majorana(band):
    """Antisymmetric one-particle matrix s with the band B1, J1, ..., Bn on its
    superdiagonal, built here so that it does not depend on the package."""
    s = np.diag(band, 1)
    return s - s.T


def zeros_state(n):
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    return psi


class TestIsingFromPst:
    def test_four_site_split(self):
        chain = ising_from_pst(standard_couplings(4))
        assert np.allclose(chain.fields, [np.sqrt(3), np.sqrt(3)])
        assert np.allclose(chain.couplings, [2.0])

    def test_six_site_split(self):
        chain = ising_from_pst(standard_couplings(6))
        assert np.allclose(chain.fields, [np.sqrt(5), 3.0, np.sqrt(5)])
        assert np.allclose(chain.couplings, [np.sqrt(8), np.sqrt(8)])

    def test_single_qubit(self):
        chain = ising_from_pst(standard_couplings(2))
        assert chain.fields.tolist() == [1.0]
        assert chain.couplings.size == 0

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            ising_from_pst(standard_couplings(5))

    @pytest.mark.parametrize("n", [1, 2, 4, 9])
    def test_round_trip_to_transfer_band(self, n):
        source = standard_couplings(2 * n)
        assert np.array_equal(ising_from_pst(source).band(), source.couplings)


class TestMajoranaMatrix:
    def test_single_qubit_band(self):
        s = majorana(IsingChain(fields=[1.0], couplings=[]).band())
        assert np.array_equal(s, [[0.0, 1.0], [-1.0, 0.0]])

    def test_two_qubit_band(self):
        s = majorana(ghz_chain(2).band())
        assert np.allclose(np.diagonal(s, 1), [np.sqrt(3), 2.0, np.sqrt(3)])

    @pytest.mark.parametrize("n", [2, 5, 21])
    def test_odd_integer_ladder_spectrum(self, n):
        w = np.linalg.eigvalsh(1j * majorana(standard_couplings(2 * n).couplings))
        expected = np.arange(-(2 * n - 1), 2 * n, 2)
        assert np.abs(w - expected).max() < 1e-9


class TestGhzTarget:
    def test_single_qubit(self):
        assert np.allclose(ghz_target(1), [1 / np.sqrt(2), -1j / np.sqrt(2)])

    def test_three_qubits_support(self):
        psi = ghz_target(3)
        assert np.nonzero(psi)[0].tolist() == [0, 7]
        assert psi[7] == -1j / np.sqrt(2)

    def test_normalized(self):
        assert abs(np.linalg.norm(ghz_target(6)) - 1.0) < 1e-14


class TestBruteForceEvolve:
    def test_zero_time(self):
        psi0 = ghz_target(3)
        out = brute_force_evolve(ghz_chain(3), 0.0, psi0)
        assert np.abs(out - psi0).max() < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        psi0 = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi0 /= np.linalg.norm(psi0)
        out = brute_force_evolve(ghz_chain(4), 0.37, psi0)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    @pytest.mark.parametrize("n", range(1, 9))
    def test_quarter_period_reaches_ghz(self, n):
        psi = brute_force_evolve(ghz_chain(n), GHZ_TIME, zeros_state(n))
        assert abs(np.vdot(ghz_target(n), psi)) >= 1 - 1e-8

    @pytest.mark.parametrize("n", range(2, 7))
    def test_four_step_cycle_parity_closure(self, n):
        # two full periods return the all-zeros state up to the exact many-body
        # phase (-1)^n: every eigenvalue is an odd integer, so total energies
        # share the parity of n and e^{-i pi H} = (-1)^n on the whole space
        psi = zeros_state(n)
        for _ in range(4):
            psi = brute_force_evolve(ghz_chain(n), GHZ_TIME, psi)
        assert np.abs(psi - (-1.0) ** n * zeros_state(n)).max() < 1e-8

    @pytest.mark.xfail(
        strict=True,
        reason="four quarter-period steps close to (-1)^n times the identity; "
        "no qubit count yields a -i closure",
    )
    @pytest.mark.parametrize("n", [3, 4])
    def test_four_step_cycle_minus_i_closure_literal(self, n):
        psi = zeros_state(n)
        for _ in range(4):
            psi = brute_force_evolve(ghz_chain(n), GHZ_TIME, psi)
        assert np.abs(psi - (-1j) * zeros_state(n)).max() < 1e-8

    @pytest.mark.parametrize("n", range(1, 9))
    def test_half_period_reaches_all_ones(self, n):
        psi = brute_force_evolve(ghz_chain(n), 2 * GHZ_TIME, zeros_state(n))
        expected = np.zeros(1 << n, dtype=complex)
        expected[-1] = -1j if n % 2 else 1.0
        assert np.abs(psi - expected).max() < 1e-8

    @pytest.mark.xfail(
        strict=True,
        reason="even chains reach the all-ones state with phase +1, not -i",
    )
    def test_half_period_minus_i_phase_even_literal(self):
        n = 4
        psi = brute_force_evolve(ghz_chain(n), 2 * GHZ_TIME, zeros_state(n))
        expected = np.zeros(1 << n, dtype=complex)
        expected[-1] = -1j
        assert np.abs(psi - expected).max() < 1e-8

    def test_size_limit(self):
        with pytest.raises(ValueError, match="12"):
            brute_force_evolve(ghz_chain(13), 0.1, np.zeros(1 << 13))


class TestGlobalPhase:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_brute_force(self, n):
        # <GHZ|psi(t0)> is +1 for odd n and (-1)^(n/2) e^{i pi/4} for even n
        psi = brute_force_evolve(ghz_chain(n), GHZ_TIME, zeros_state(n))
        overlap = np.vdot(ghz_target(n), psi)
        phase = 1.0 if n % 2 else (-1.0) ** (n // 2) * np.exp(1j * np.pi / 4)
        assert abs(overlap - phase) < 1e-8


class TestMirrorDeviation:
    def test_twenty_one_qubit_chain(self):
        assert mirror_deviation(ghz_chain(21)) < 1e-9

    def test_small_chain(self):
        assert mirror_deviation(ghz_chain(2)) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_perturbed_chain_breaks_mirror(self, seed):
        rng = np.random.default_rng(seed)
        base = ghz_chain(21)
        chain = IsingChain(
            fields=base.fields * (1 + rng.uniform(-0.05, 0.05, 21)),
            couplings=base.couplings * (1 + rng.uniform(-0.05, 0.05, 20)),
        )
        assert mirror_deviation(chain) > 1e-3

    def test_factor_of_two_convention(self):
        # pin the time convention by brute force at n=3: conjugating each
        # Majorana operator by e^{-iHt} must reproduce the orthogonal
        # one-particle map evaluated at Hamiltonian time t
        n = 3
        chain = ghz_chain(n)
        t = 0.3
        w_small = one_particle_map(chain, t)
        h = dense_hamiltonian(chain)
        ew, ev = np.linalg.eigh(h)
        u = (ev * np.exp(-1j * ew * t)) @ ev.conj().T
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]])
        z = np.diag([1.0 + 0j, -1.0])
        eye = np.eye(2, dtype=complex)

        def kron_chain(ops):
            out = ops[0]
            for op in ops[1:]:
                out = np.kron(out, op)
            return out

        def majorana_op(k):
            m = (k + 1) // 2
            ops = [x] * (m - 1) + [z if k % 2 else y] + [eye] * (n - m)
            return kron_chain(ops)

        ops = [majorana_op(k) for k in range(1, 2 * n + 1)]
        for k in range(2 * n):
            heisenberg = u.conj().T @ ops[k] @ u
            rebuilt = sum(w_small[k, m] * ops[m] for m in range(2 * n))
            assert np.abs(heisenberg - rebuilt).max() < 1e-10


class TestOneParticleMap:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), t=st.floats(0.0, 2.0))
    def test_matches_expm_of_majorana_matrix(self, data, n, t):
        # signed bands with exact zeros exercise the sign rule of the phases
        entry = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
        band = np.array(data.draw(st.lists(entry, min_size=2 * n - 1,
                                           max_size=2 * n - 1)))
        chain = IsingChain(fields=band[0::2], couplings=band[1::2])
        expected = scipy.linalg.expm(2.0 * t * majorana(band))
        assert np.abs(one_particle_map(chain, t) - expected).max() < 1e-12

    @pytest.mark.parametrize("band", [
        [1.3], [-0.7], [0.0],
        [0.0, 1.1, -0.4, 0.8, 1.9],
        [1.2, -0.5, 0.0, 0.9, 0.7, 2.0, 0.0],
    ])
    def test_matches_expm_single_qubit_and_zero_field(self, band):
        band = np.array(band)
        chain = IsingChain(fields=band[0::2], couplings=band[1::2])
        for t in (0.0, 0.45, GHZ_TIME, 1.7):
            expected = scipy.linalg.expm(2.0 * t * majorana(band))
            assert np.abs(one_particle_map(chain, t) - expected).max() < 1e-12

    def test_non_orthonormal_singular_vectors_raise(self, monkeypatch):
        svd = np.linalg.svd

        def sloppy_svd(a):
            u, sigma, vt = svd(a)
            return u * (1.0 + 1e-8), sigma, vt

        monkeypatch.setattr(np.linalg, "svd", sloppy_svd)
        with pytest.raises(ValueError, match="not orthogonal"):
            one_particle_map(ghz_chain(4), GHZ_TIME)


class TestBasisMap:
    """The quarter period carries the basis state flipped at the set positions
    of x onto the GHZ state flipped at the mirrored positions, with no phase."""

    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_all_basis_states_follow_rule(self, n):
        chain = ghz_chain(n)
        ghz_image = brute_force_evolve(chain, GHZ_TIME, zeros_state(n))
        idx = np.arange(1 << n)
        for code in range(1 << n):
            x = format(code, f"0{n}b")
            psi0 = np.zeros(1 << n, dtype=complex)
            psi0[code] = 1.0
            evolved = brute_force_evolve(chain, GHZ_TIME, psi0)
            mask = int(x[::-1], 2)
            dressed = ghz_image[idx ^ mask]
            assert np.abs(evolved - dressed).max() < 1e-8


def pairing(n, extra):
    """(2n+1)-square antisymmetric matrix pairing modes 2m-1, 2m for
    m = 1..n-1 with sign +1, plus the pairs in ``extra`` as (a, b, sign)."""
    g = np.zeros((2 * n + 1, 2 * n + 1))
    for a, b, sign in [(2 * m - 1, 2 * m, 1.0) for m in range(1, n)] + extra:
        g[a, b], g[b, a] = sign, -sign
    return g


def gaussian_trace_overlap(w):
    """2^-n/2 |det(W~ - G_A W~ G_B)|^1/4 with the products formed, W~ = W + 1
    on one ancilla mode eta = 2n."""
    n = w.shape[0] // 2
    padded = np.eye(2 * n + 1)
    padded[:2 * n, :2 * n] = w
    g_a = pairing(n, [(2 * n - 1, 2 * n, 1.0)])
    g_b = pairing(n, [(0, 2 * n, -1.0)])
    det = np.linalg.det(padded - g_a @ padded @ g_b)
    return abs(det) ** 0.25 / 2.0 ** (n / 2)


def zeros_evolved_overlap(n, x, zz, yy):
    """|<GHZ| e^{-iHt} |0...0>| by dense evolution of the spin chain."""
    w, v = np.linalg.eigh(dense_spin_hamiltonian(n, x=x, zz=zz, yy=yy))
    psi = v @ (np.exp(-1j * w * GHZ_TIME) * v[0])
    return abs(np.vdot(ghz_target(n), psi))


class TestOverlapEstimate:
    def test_perfect_two_qubit_chain(self):
        chain = ghz_chain(2)
        assert overlap_estimate(chain) == pytest.approx(1.0, abs=1e-9)
        w = one_particle_map(chain, GHZ_TIME)
        padded = np.eye(5)
        padded[:4, :4] = w
        product = pairing(2, [(3, 4, 1.0)]) @ padded @ pairing(2, [(0, 4, -1.0)])
        assert abs(np.linalg.det(padded - product)) == pytest.approx(16.0, abs=1e-9)
        assert abs(w[3, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_twenty_one_qubit_chain_snaps_to_one(self):
        assert overlap_estimate(ghz_chain(21)) == 1.0

    @pytest.mark.parametrize("n", [1, 3, 8, 21])
    def test_mirror_chains_estimate_one(self, n):
        chain = ghz_chain(n)
        assert mirror_deviation(chain) < 1e-9
        assert overlap_estimate(chain) == pytest.approx(1.0, abs=1e-6)

    def test_tracks_brute_force_under_perturbation(self):
        n = 5
        rng = np.random.default_rng(11)
        base = ghz_chain(n).band()
        close = 0
        trials = 40
        for _ in range(trials):
            band = base * (1 + rng.uniform(-0.04, 0.04, base.size))
            chain = IsingChain(fields=band[0::2], couplings=band[1::2])
            gap = abs(overlap_estimate(chain) - overlap_exact(chain))
            close += gap <= 0.05
        assert close >= 0.9 * trials

    @pytest.mark.parametrize("n", range(1, 9))
    def test_ising_chains_match_dense_evolution(self, n):
        rng = np.random.default_rng(90 + n)
        base = ghz_chain(n).band()
        for scale in (0.0, 0.01, 0.1, 0.3, 0.6):
            band = base * (1 + rng.uniform(-scale, scale, base.size))
            chain = IsingChain(fields=band[0::2], couplings=band[1::2])
            assert abs(overlap_estimate(chain) - overlap_exact(chain)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_zy_chains_match_dense_evolution(self, n):
        # X fields, ZZ and YY couplings: the engineered bands split between
        # ZZ and YY, disordered, and fully random signed bands
        rng = np.random.default_rng(110 + n)
        base = ghz_chain(n)
        for scale in (0.0, 0.1, 0.6):
            share = rng.uniform(0.0, 1.0, n - 1)
            engineered = (base.fields * (1 + rng.uniform(-scale, scale, n)),
                          base.couplings * share * (1 + rng.uniform(-scale, scale, n - 1)),
                          base.couplings * (1 - share) * (1 + rng.uniform(-scale, scale, n - 1)))
            signed = (rng.normal(size=n), rng.normal(size=n - 1), rng.normal(size=n - 1))
            for x, zz, yy in (engineered, signed):
                got = ghz_overlaps(majorana_blocks(x[None], zz[None], yy[None]))[0]
                assert abs(got - zeros_evolved_overlap(n, x, zz, yy)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_explicit_product_estimator(self, n):
        # 2^-n/2 |det(W~ - G_A W~ G_B)|^1/4 with dense pairing matrices and
        # the products formed, against the index moves of ghz_overlaps
        rng = np.random.default_rng(70 + n)
        base = ghz_chain(n).band()
        for scale in (0.0, 0.01, 0.05, 0.3):
            band = base * (1 + rng.uniform(-scale, scale, base.size))
            chain = IsingChain(fields=band[0::2], couplings=band[1::2])
            explicit = gaussian_trace_overlap(one_particle_map(chain, GHZ_TIME))
            assert abs(overlap_estimate(chain) - min(explicit, 1.0)) < 1e-13

    def test_overflowing_phases_raise(self):
        chain = IsingChain(fields=[1e308, 1e308], couplings=[1e308])
        with pytest.raises(ValueError, match="overflows"):
            overlap_estimate(chain)


class TestPerturbSweep:
    def test_zero_strength_is_exactly_one(self):
        (point,) = perturb_sweep(6, [0.0], samples=12, seed=5)
        assert point.mean == 1.0
        assert point.stddev == 0.0
        assert np.all(point.samples == 1.0)

    def test_deterministic_under_seed(self):
        a = perturb_sweep(5, [3.0, 0.0, 1.0], samples=20, seed=42)
        b = perturb_sweep(5, [3.0, 0.0, 1.0], samples=20, seed=42)
        for p, q in zip(a, b):
            assert np.array_equal(p.samples, q.samples)

    def test_values_in_range_and_disorder_hurts(self):
        weak, strong = perturb_sweep(8, [1.0, 8.0], samples=40, seed=2)
        for point in (weak, strong):
            assert np.all((0.0 <= point.samples) & (point.samples <= 1.0))
        assert strong.mean < weak.mean

    @pytest.mark.parametrize("n", [1, 6, 21])
    @pytest.mark.parametrize("samples", [1, 63, 130])
    def test_blocks_match_per_sample_estimates(self, n, samples):
        xs, seed = [4.0, 0.0, 1.0, 4.0, -0.0], 17
        band = ghz_chain(n).band()
        unperturbed = overlap_estimate(ghz_chain(n))
        points = perturb_sweep(n, xs, samples, seed)
        assert [p.x_percent for p in points] == xs
        for x, point in zip(xs, points):
            assert point.samples.shape == (samples,)
            if x == 0.0:
                assert np.all(point.samples == unperturbed)
                continue
            expected = np.empty(samples)
            for index in range(samples):
                u = np.random.default_rng([seed, index]).uniform(-1.0, 1.0, band.size)
                perturbed = band * (1.0 + (x / 100.0) * u)
                chain = IsingChain(fields=perturbed[0::2], couplings=perturbed[1::2])
                expected[index] = overlap_estimate(chain)
            assert np.abs(point.samples - expected).max() < 1e-13

    def test_long_chain_estimate_does_not_overflow(self):
        # 2^n sqrt|det| overflows a double from n = 512; the estimate is
        # taken in log space, so a slightly perturbed 520-qubit chain
        # reports an overlap just below 1 rather than a clamped 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            (point,) = perturb_sweep(520, [0.001], 2, seed=0)
        assert np.all((0.999 < point.samples) & (point.samples < 1.0))

    @pytest.mark.parametrize("x", [np.inf, np.nan])
    def test_non_finite_disorder_rejected(self, x):
        for xs in ([x], [x, 1.0], [0.0, 2.0, x], [1.0, x, 0.0]):
            with pytest.raises(ValueError, match="chain parameters must be finite"):
                perturb_sweep(3, xs, 2, seed=0)


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1j], [1j, 0.0]])
PAULI_Z = np.diag([1.0 + 0j, -1.0])


def site_operator(n, ops):
    """Kronecker product with ``ops[q]`` on qubit q (1-based) and 1 elsewhere."""
    out = np.ones((1, 1), dtype=complex)
    for q in range(1, n + 1):
        out = np.kron(out, ops.get(q, np.eye(2)))
    return out


class TestSpinHamiltonian:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_explicit_pauli_products(self, n):
        rng = np.random.default_rng(40 + n)
        x, zz, xx, yy = (rng.normal(size=size) for size in (n, n - 1, n - 1, n - 1))
        expected = sum(x[m] * site_operator(n, {m + 1: PAULI_X}) for m in range(n))
        for m in range(n - 1):
            for coeff, op in ((zz, PAULI_Z), (xx, PAULI_X), (yy, PAULI_Y)):
                expected = expected + coeff[m] * site_operator(n, {m + 1: op, m + 2: op})
        got = spin_hamiltonian(n, x=x, zz=zz, xx=xx, yy=yy).toarray()
        assert got.shape == (1 << n, 1 << n)
        assert np.abs(got - expected).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exchange_identity(self, n):
        # (XX + YY)/2 on a bond is the hopping term |01><10| + |10><01|
        rng = np.random.default_rng(60 + n)
        j = rng.uniform(0.5, 2.0, n - 1)
        lower = np.array([[0.0, 0.0], [1.0, 0.0]])
        expected = np.zeros((1 << n, 1 << n))
        for m in range(n - 1):
            hop = site_operator(n, {m + 1: lower, m + 2: lower.T}).real
            expected += j[m] * (hop + hop.T)
        h = spin_hamiltonian(n, xx=j / 2, yy=j / 2)
        assert np.array_equal(h.toarray(), expected)
        # the entries where XX and YY cancel are not stored
        assert h.nnz == np.count_nonzero(expected)

    def test_coefficient_count_checked(self):
        with pytest.raises(ValueError):
            spin_hamiltonian(3, zz=np.ones(3))
