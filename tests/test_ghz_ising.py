import itertools
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (evolve, ghz_overlap, ghz_target, ising_band, spin_hamiltonian,
                             zeros_state)
from spinforge import ghz_ising
from spinforge.chainio import ChainDocument, document_from_json, document_to_json, ising_chain
from spinforge.ghz_ising import (
    GHZ_TIME,
    ghz_overlaps,
    majorana_blocks,
    mirror_deviation,
    one_particle_map,
    overlap_estimate,
    perturb_sweep,
)
from spinforge.numerics import Chain, propagator
from spinforge.pst import standard_couplings, verify_mirror


def ghz_chain(n):
    return standard_couplings(2 * n)


def split(chain):
    """X fields and ZZ couplings of an Ising chain, read off its band."""
    return chain.couplings[0::2], chain.couplings[1::2]


def majorana(band):
    """Antisymmetric one-particle matrix s with the band B1, J1, ..., Bn on its
    superdiagonal, built here so that it does not depend on the package."""
    s = np.diag(band, 1)
    return s - s.T


def full_mirror_deviation(c):
    """Reference mirror deviation: the whole 2n x 2n one-particle map against
    the signed mirror permutation, mode k to mode 2n+1-k with sign (-1)^k."""
    w = one_particle_map(c, GHZ_TIME)
    dim = c.n
    target = np.zeros((dim, dim))
    k = np.arange(1, dim + 1)
    target[dim - k, k - 1] = (-1.0) ** k
    return float(np.abs(w - target).max())


class TestIsingFromPst:
    """The Ising chain of n qubits is the transfer chain of 2n sites: its X
    fields and ZZ couplings are the band's even and odd entries."""

    def test_single_qubit(self):
        chain = standard_couplings(2)
        fields, zz = split(chain)
        assert fields.tolist() == [1.0]
        assert zz.size == 0
        assert abs(overlap_estimate(chain) - ghz_overlap(fields, zz)) < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 9])
    def test_round_trip_to_transfer_band(self, n):
        # the band goes out as n fields and n - 1 couplings and comes back
        # bit for bit
        source = standard_couplings(2 * n)
        written = ChainDocument(kind="ising", n=n, fields=source.couplings[0::2],
                                couplings=source.couplings[1::2])
        doc = document_from_json(document_to_json(written))
        assert (doc.n, doc.fields.size, doc.couplings.size) == (n, n, n - 1)
        assert np.array_equal(ising_chain(doc).couplings, source.couplings)


class TestMajoranaMatrix:
    def test_single_qubit_band(self):
        s = majorana(ghz_chain(1).couplings)
        assert np.array_equal(s, [[0.0, 1.0], [-1.0, 0.0]])

    def test_two_qubit_band(self):
        s = majorana(ghz_chain(2).couplings)
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
        psi0, chain = ghz_target(3), ghz_chain(3)
        out = evolve(spin_hamiltonian(3, *split(chain)), 0.0, psi0)
        assert np.abs(out - psi0).max() < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        psi0 = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi0 /= np.linalg.norm(psi0)
        chain = ghz_chain(4)
        out = evolve(spin_hamiltonian(4, *split(chain)), 0.37, psi0)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    @pytest.mark.parametrize("n", range(1, 9))
    def test_quarter_period_reaches_ghz(self, n):
        chain = ghz_chain(n)
        assert ghz_overlap(*split(chain)) >= 1 - 1e-8

    @pytest.mark.parametrize("n", range(2, 7))
    def test_four_step_cycle_parity_closure(self, n):
        # two full periods return the all-zeros state up to the exact many-body
        # phase (-1)^n: every eigenvalue is an odd integer, so total energies
        # share the parity of n and e^{-i pi H} = (-1)^n on the whole space
        chain, psi = ghz_chain(n), zeros_state(n)
        for _ in range(4):
            psi = evolve(spin_hamiltonian(n, *split(chain)), GHZ_TIME, psi)
        assert np.abs(psi - (-1.0) ** n * zeros_state(n)).max() < 1e-8

    @pytest.mark.xfail(
        strict=True,
        reason="four quarter-period steps close to (-1)^n times the identity; "
        "no qubit count yields a -i closure",
    )
    @pytest.mark.parametrize("n", [3, 4])
    def test_four_step_cycle_minus_i_closure_literal(self, n):
        chain, psi = ghz_chain(n), zeros_state(n)
        for _ in range(4):
            psi = evolve(spin_hamiltonian(n, *split(chain)), GHZ_TIME, psi)
        assert np.abs(psi - (-1j) * zeros_state(n)).max() < 1e-8

    @pytest.mark.parametrize("n", range(1, 9))
    def test_half_period_reaches_all_ones(self, n):
        chain = ghz_chain(n)
        psi = evolve(spin_hamiltonian(n, *split(chain)), 2 * GHZ_TIME,
                     zeros_state(n))
        expected = np.zeros(1 << n, dtype=complex)
        expected[-1] = -1j if n % 2 else 1.0
        assert np.abs(psi - expected).max() < 1e-8

    @pytest.mark.xfail(
        strict=True,
        reason="even chains reach the all-ones state with phase +1, not -i",
    )
    def test_half_period_minus_i_phase_even_literal(self):
        n = 4
        chain = ghz_chain(n)
        psi = evolve(spin_hamiltonian(n, *split(chain)), 2 * GHZ_TIME,
                     zeros_state(n))
        expected = np.zeros(1 << n, dtype=complex)
        expected[-1] = -1j
        assert np.abs(psi - expected).max() < 1e-8


class TestGlobalPhase:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_brute_force(self, n):
        # <GHZ|psi(t0)> is +1 for odd n and (-1)^(n/2) e^{i pi/4} for even n
        chain = ghz_chain(n)
        psi = evolve(spin_hamiltonian(n, *split(chain)), GHZ_TIME,
                     zeros_state(n))
        overlap = np.vdot(ghz_target(n), psi)
        phase = 1.0 if n % 2 else (-1.0) ** (n // 2) * np.exp(1j * np.pi / 4)
        assert abs(overlap - phase) < 1e-8


class TestMirrorDeviation:
    def test_twenty_one_qubit_chain(self):
        assert mirror_deviation(ghz_chain(21)) < 1e-9

    def test_small_chain(self):
        assert mirror_deviation(ghz_chain(2)) < 1e-12

    @pytest.mark.parametrize("x", [0.0, 1.0, 30.0])
    def test_blocks_match_the_whole_map(self, x):
        # bit for bit: the blocks hold every entry of the map, the odd-even
        # block as minus the transpose of the even-odd one
        for n in range(1, 61):
            rng = np.random.default_rng([n, int(x)])
            fields, zz = split(ghz_chain(n))
            chain = Chain(ising_band(fields * (1 + x / 100 * rng.uniform(-1, 1, n)),
                                     zz * (1 + x / 100 * rng.uniform(-1, 1, n - 1))))
            assert mirror_deviation(chain) == full_mirror_deviation(chain)

    @pytest.mark.parametrize("seed", range(4))
    def test_perturbed_chain_breaks_mirror(self, seed):
        rng = np.random.default_rng(seed)
        fields, zz = split(ghz_chain(21))
        chain = Chain(ising_band(fields * (1 + rng.uniform(-0.05, 0.05, 21)),
                                 zz * (1 + rng.uniform(-0.05, 0.05, 20))))
        assert mirror_deviation(chain) > 1e-3

    def test_factor_of_two_convention(self):
        # pin the time convention by brute force at n=3: conjugating each
        # Majorana operator by e^{-iHt} must reproduce the orthogonal
        # one-particle map evaluated at Hamiltonian time t
        n = 3
        chain = ghz_chain(n)
        t = 0.3
        w_small = one_particle_map(chain, t)
        u = evolve(spin_hamiltonian(n, *split(chain)), t, np.eye(1 << n))
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
        expected = scipy.linalg.expm(2.0 * t * majorana(band))
        assert np.abs(one_particle_map(Chain(band), t) - expected).max() < 1e-12

    @pytest.mark.parametrize("band", [
        [1.3], [-0.7], [0.0],
        [0.0, 1.1, -0.4, 0.8, 1.9],
        [1.2, -0.5, 0.0, 0.9, 0.7, 2.0, 0.0],
    ])
    def test_matches_expm_single_qubit_and_zero_field(self, band):
        chain = Chain(band)
        for t in (0.0, 0.45, GHZ_TIME, 1.7):
            expected = scipy.linalg.expm(2.0 * t * majorana(chain.couplings))
            assert np.abs(one_particle_map(chain, t) - expected).max() < 1e-12

    def test_non_orthonormal_singular_vectors_raise(self, monkeypatch):
        svd = np.linalg.svd

        def sloppy_svd(a):
            u, sigma, vt = svd(a)
            return u * (1.0 + 1e-8), sigma, vt

        monkeypatch.setattr(np.linalg, "svd", sloppy_svd)
        with pytest.raises(ValueError, match="not orthonormal"):
            one_particle_map(ghz_chain(4), GHZ_TIME)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_refused(self, t):
        with pytest.raises(ValueError, match="evolution time must be finite"):
            one_particle_map(ghz_chain(4), t)


class TestBandIsTheTransferChain:
    def test_ising_chain_is_its_transfer_chain(self):
        # with G = diag(i^k), k = 0..2n-1, exp(2ts) is Re(G* e^{-iH 2t} G)
        # for the XX chain H of the same couplings, whose imaginary part
        # vanishes; so the engineered band passes both mirror checks
        rng = np.random.default_rng(130)
        for n in (1, 2, 5, 21):
            g = 1j ** np.arange(2 * n)
            for t in (0.3, np.pi / 4, 1.7):
                chain = Chain(rng.uniform(-2.0, 2.0, 2 * n - 1))
                gauged = g.conj()[:, None] * propagator(chain, 2 * t) * g
                assert np.abs(one_particle_map(chain, t) - gauged.real).max() <= 1e-12
                assert np.abs(gauged.imag).max() <= 1e-12
        for n in range(2, 22):
            chain = standard_couplings(2 * n)
            assert mirror_deviation(chain) <= 1e-12
            assert verify_mirror(chain) <= 1e-12


class TestEvenSiteGate:
    @pytest.mark.parametrize("sites", [1, 3, 5, 43])
    def test_odd_chain_refused(self, sites):
        chain = Chain(np.ones(sites - 1))
        for check in (overlap_estimate, mirror_deviation,
                      lambda c: one_particle_map(c, 0.3)):
            with pytest.raises(ValueError, match=r"\Atransfer chain must have an even "
                                                 r"number of sites\Z"):
                check(chain)


class TestBasisMap:
    """The quarter period carries the basis state flipped at the set positions
    of x onto the GHZ state flipped at the mirrored positions, with no phase."""

    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_all_basis_states_follow_rule(self, n):
        chain = ghz_chain(n)
        h = spin_hamiltonian(n, *split(chain))
        ghz_image = evolve(h, GHZ_TIME, zeros_state(n))
        idx = np.arange(1 << n)
        for code in range(1 << n):
            x = format(code, f"0{n}b")
            psi0 = np.zeros(1 << n, dtype=complex)
            psi0[code] = 1.0
            evolved = evolve(h, GHZ_TIME, psi0)
            mask = int(x[::-1], 2)
            dressed = ghz_image[idx ^ mask]
            assert np.abs(evolved - dressed).max() < 1e-8


def pairing(n, extra, ancillas=1):
    """(2n + ancillas)-square antisymmetric matrix pairing modes 2m-1, 2m for
    m = 1..n-1 with sign +1, plus the pairs in ``extra`` as (a, b, sign)."""
    g = np.zeros((2 * n + ancillas, 2 * n + ancillas))
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


def block_map(c, t):
    """exp(2ts) for the Majorana matrix s with even-odd block ``c``, from
    the dense evolution under the Hermitian i s for time 2t."""
    n = c.shape[0]
    s = np.zeros((2 * n, 2 * n))
    s[0::2, 1::2], s[1::2, 0::2] = c, -c.T
    return evolve(1j * s, 2 * t, np.eye(2 * n)).real


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
        base = ghz_chain(n).couplings
        close = 0
        trials = 40
        for _ in range(trials):
            band = base * (1 + rng.uniform(-0.04, 0.04, base.size))
            gap = abs(overlap_estimate(Chain(band)) - ghz_overlap(band[0::2], band[1::2]))
            close += gap <= 0.05
        assert close >= 0.9 * trials

    @pytest.mark.parametrize("n", range(1, 9))
    def test_ising_chains_match_dense_evolution(self, n):
        rng = np.random.default_rng(90 + n)
        base = ghz_chain(n).couplings
        for scale in (0.0, 0.01, 0.1, 0.3, 0.6):
            band = base * (1 + rng.uniform(-scale, scale, base.size))
            assert abs(overlap_estimate(Chain(band)) - ghz_overlap(band[0::2], band[1::2])) < 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_zy_chains_match_dense_evolution(self, n):
        # X fields, ZZ and YY couplings: the engineered bands split between
        # ZZ and YY, disordered, and fully random signed bands
        rng = np.random.default_rng(110 + n)
        fields, zz = split(ghz_chain(n))
        for scale in (0.0, 0.1, 0.6):
            share = rng.uniform(0.0, 1.0, n - 1)
            engineered = (fields * (1 + rng.uniform(-scale, scale, n)),
                          zz * share * (1 + rng.uniform(-scale, scale, n - 1)),
                          zz * (1 - share) * (1 + rng.uniform(-scale, scale, n - 1)))
            signed = (rng.normal(size=n), rng.normal(size=n - 1), rng.normal(size=n - 1))
            for x, zz, yy in (engineered, signed):
                got = ghz_overlaps(majorana_blocks(x[None], zz[None], yy[None]))[0]
                assert abs(got - ghz_overlap(x, zz, yy)) < 1e-12

    @pytest.mark.parametrize("n", [*range(1, 13), 21, 60])
    def test_matches_explicit_product_estimator(self, n):
        # 2^-n/2 |det(W~ - G_A W~ G_B)|^1/4 with dense pairing matrices and
        # the products formed, against the (n+1)-square determinant of
        # ghz_overlaps; the zy blocks are the gamma = 0 chain (field n, ZZ and
        # YY both the n-site transfer couplings, overlap 1) under disorder
        rng = np.random.default_rng(70 + n)
        base = ghz_chain(n).couplings
        transfer = standard_couplings(n).couplings if n > 1 else np.zeros(0)
        for scale in (0.0, 0.01, 0.05, 0.3):
            chain = Chain(base * (1 + rng.uniform(-scale, scale, base.size)))
            explicit = gaussian_trace_overlap(one_particle_map(chain, GHZ_TIME))
            assert abs(overlap_estimate(chain) - min(explicit, 1.0)) < 1e-13
            x, zz, yy = (v * (1 + rng.uniform(-scale, scale, v.size))
                         for v in (np.full(n, float(n)), transfer, transfer))
            c = majorana_blocks(x[None], zz[None], yy[None])
            explicit = gaussian_trace_overlap(block_map(c[0], GHZ_TIME))
            assert abs(ghz_overlaps(c)[0] - min(explicit, 1.0)) < 1e-13

    def test_second_ancilla_pairs_with_the_same_sign_on_both_sides(self):
        # overlap^4 = 2^-2(n+1) |det(G_A + W^ G_B W^T)| with W^ = W + 1 + 1 once
        # eta' = 2n + 1 pairs mode 0 on the GHZ side and mode 2n - 1 on the
        # all-zeros side, both with sign +1; with opposite signs it fails
        n, eta, eta2 = 5, 10, 11
        rng = np.random.default_rng(29)
        chain = Chain(ghz_chain(n).couplings * (1 + rng.uniform(-0.3, 0.3, 2 * n - 1)))
        padded = np.eye(2 * n + 2)
        padded[:2 * n, :2 * n] = one_particle_map(chain, GHZ_TIME)
        g_a = pairing(n, [(2 * n - 1, eta, 1.0), (0, eta2, 1.0)], ancillas=2)
        explicit = {}
        for sign in (1.0, -1.0):
            g_b = pairing(n, [(eta, 0, 1.0), (2 * n - 1, eta2, sign)], ancillas=2)
            det = np.linalg.det(g_a + padded @ g_b @ padded.T)
            explicit[sign] = abs(det) ** 0.25 / 2.0 ** ((n + 1) / 2)
        got = overlap_estimate(chain)
        assert 0.1 < got < 0.99
        assert abs(got - ghz_overlap(*split(chain))) < 1e-12
        assert abs(got - explicit[1.0]) < 1e-13
        assert abs(got - explicit[-1.0]) > 0.1

    def test_overflowing_phases_raise(self):
        chain = Chain([1e308, 1e308, 1e308])
        with pytest.raises(ValueError, match="overflows"):
            overlap_estimate(chain)

    @pytest.mark.parametrize("factor, refused", [(0.5, False), (2.0, True)])
    def test_phases_without_digits_raise(self, factor, refused):
        # past eps * 2t sigma = 1e-10 the rounding of a phase outgrows the
        # map's orthonormality gate, so its cosines and sines are refused
        chain = ghz_chain(5)
        fields, zz = split(chain)
        block = majorana_blocks(fields[None], zz[None])[0]
        sigma = np.linalg.svd(block, compute_uv=False).max()
        t = factor * 1e-10 / np.finfo(float).eps / (2.0 * sigma)
        if refused:
            with pytest.raises(ValueError, match="chain parameters are too large"):
                one_particle_map(chain, t)
        else:
            w = one_particle_map(chain, t)
            assert np.abs(w.T @ w - np.eye(10)).max() < 1e-10


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
        band = ghz_chain(n).couplings
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
                expected[index] = overlap_estimate(Chain(band * (1.0 + (x / 100.0) * u)))
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

    @staticmethod
    def on_workers(monkeypatch, workers, overlaps=None):
        """Give the sweep ``workers`` usable cores and record the thread of
        every block's overlap call; ``overlaps`` replaces ghz_overlaps."""
        monkeypatch.setattr(ghz_ising, "_usable_cores", lambda: workers)
        evaluate = overlaps or ghz_ising.ghz_overlaps
        calls = []

        def recorded(c):
            calls.append((threading.get_ident(), c.shape[0]))
            return evaluate(c)

        monkeypatch.setattr(ghz_ising, "ghz_overlaps", recorded)
        return calls

    def test_samples_do_not_depend_on_worker_count(self, monkeypatch):
        n, xs, seed = 21, [2.0, 0.0, 10.0], 3
        calls = self.on_workers(monkeypatch, 1)
        perturb_sweep(n, [1.0], 100, seed)
        block = max(size for _, size in calls)
        assert block > 2
        interval = sys.getswitchinterval()
        for samples in (1, block - 1, block + 1, 1000):
            runs = []
            for workers in (1, 2, 3):
                calls = self.on_workers(monkeypatch, workers)
                # frequent interpreter-lock handovers between the workers
                sys.setswitchinterval(1e-5)
                try:
                    points = perturb_sweep(n, xs, samples, seed)
                finally:
                    sys.setswitchinterval(interval)
                runs.append(np.array([p.samples for p in points]))
                # the x = 0 row is one call in this thread; no block runs here
                threads = {thread for thread, _ in calls[1:]}
                assert calls[0][0] == threading.get_ident()
                assert threading.get_ident() not in threads
                assert 1 <= len(threads) <= min(workers, -(-samples // block))
            assert np.array_equal(runs[0], runs[1])
            assert np.array_equal(runs[0], runs[2])

    @pytest.mark.parametrize("workers", [1, 3])
    def test_worker_error_is_raised_unchanged(self, monkeypatch, workers):
        # every block fails at the x = inf row, in a worker; block 0's error
        # reaches the caller
        self.on_workers(monkeypatch, workers)
        with pytest.raises(ValueError, match=r"\Achain parameters must be finite\Z"):
            perturb_sweep(21, [10.0, np.inf], 1000, seed=0)

    def test_failing_block_cancels_the_queue(self, monkeypatch):
        original, order = ghz_ising.ghz_overlaps, itertools.count()

        def fail_first(c):
            if next(order) == 0:
                raise MemoryError("Unable to allocate 1 TiB for an array")
            return original(c)

        calls = self.on_workers(monkeypatch, 2, fail_first)
        with pytest.raises(MemoryError, match="1 TiB"):
            perturb_sweep(21, [1.0], 2000, seed=0)
        blocks = -(-2000 // max(size for _, size in calls))
        assert blocks > 100
        assert len(calls) < blocks // 4

    def test_no_worker_outlives_the_call(self, monkeypatch):
        before = set(threading.enumerate())
        monkeypatch.setattr(ghz_ising, "_usable_cores", lambda: 3)
        perturb_sweep(21, [1.0, 0.0], 100, seed=0)
        assert set(threading.enumerate()) == before
        with pytest.raises(ValueError, match="must be finite"):
            perturb_sweep(21, [1.0, np.nan], 100, seed=0)
        assert set(threading.enumerate()) == before


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
        got = spin_hamiltonian(n, x=x, zz=zz, xx=xx, yy=yy)
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
        assert np.array_equal(spin_hamiltonian(n, xx=j / 2, yy=j / 2), expected)

    def test_coefficient_count_checked(self):
        with pytest.raises(ValueError):
            spin_hamiltonian(3, zz=np.ones(3))
