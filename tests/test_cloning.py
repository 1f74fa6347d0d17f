import json

import numpy as np
import pytest

from dense_reference import clone_images, evolve, ising_band, spin_hamiltonian
from spinforge import cloning
from spinforge.cli import main
from spinforge.cloning import (
    BRUTE_FORCE_MAX_M,
    SIX_DESIGN_INPUTS,
    _candidate_ladders,
    AsymmetryProfile,
    CloneReport,
    CompressedState,
    analytic_fidelity,
    brute_force_pipeline,
    clone_report,
    clone_weight_state,
    default_offset,
    design_w_chain,
    exchange_evolve_dense,
    ghz_helper_chain,
    ising_evolve_dense,
    pipeline_run,
    profile_from_betas,
    reduced_qubit_state,
    symmetric_profile,
)
from spinforge import numerics
from spinforge.chainio import document_from_xx, make_provenance, xx_chain
from spinforge.numerics import Chain, FlowStallError, StageBreachError, propagator
from spinforge.pst import standard_couplings
from spinforge.synthesis import produced_state


def dense(chain):
    """The chain's single-excitation Hamiltonian as a dense matrix."""
    return np.diag(chain.couplings, 1) + np.diag(chain.couplings, -1)


def random_input(rng):
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    return psi / np.linalg.norm(psi)


def sectors(state):
    """A CompressedState's sector amplitudes (amp0, amp1, excitation, hole) as
    one vector: sectors are orthogonal, so its vdot is the inner product."""
    return np.hstack([state.amp0, state.amp1, state.one_exc, state.m_minus_one_exc])


def random_compressed(m, rng):
    amps = rng.normal(size=4 * m + 4).view(complex)
    amps /= np.linalg.norm(amps)
    return CompressedState(amp0=amps[0], amp1=amps[1],
                           one_exc=amps[2:m + 2], m_minus_one_exc=amps[m + 2:])


class TestAsymmetryProfile:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 11])
    def test_symmetric_weights(self, n):
        p = symmetric_profile(n)
        assert np.allclose(p.betas, 1.0 / np.sqrt(n * (n + 1)))
        assert p.a ** 2 + p.b2 == pytest.approx(1.0, abs=1e-12)
        assert p.m == 2 * n - 1

    def test_single_clone_weight(self):
        assert symmetric_profile(1).betas[0] == pytest.approx(1 / np.sqrt(2))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rescaling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.1, 2.0, size=4)
        scale = rng.uniform(0.5, 10.0)
        assert np.allclose(profile_from_betas(raw).betas,
                           profile_from_betas(scale * raw).betas)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            profile_from_betas([1.0, -0.5])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            profile_from_betas([0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="weights must be finite"):
            profile_from_betas([bad, 1.0, 1.0])

    @pytest.mark.filterwarnings("error")
    def test_huge_weights_do_not_overflow(self):
        p = profile_from_betas([1.0, 1e308])
        assert p.betas == pytest.approx([0.0, 1.0 / np.sqrt(2.0)], abs=1e-300)
        assert p.a ** 2 + p.b2 == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(profile_from_betas([1e300, 2e300]).betas,
                              profile_from_betas([1.0, 2.0]).betas)

    def test_sums_derive_from_the_weights(self):
        p = AsymmetryProfile(symmetric_profile(3).betas)
        assert p.n_clones == 3
        assert p.a == float(p.betas.sum())
        assert p.b2 == float((p.betas ** 2).sum())

    @pytest.mark.parametrize("betas", [[np.nan, 0.5], [np.nan, np.nan],
                                       [np.inf, 0.5], [1e200, 0.5]])
    def test_non_finite_or_unnormalized_weights_rejected(self, betas):
        with pytest.raises(ValueError, match="A\\^2 \\+ B\\^2 = 1"):
            AsymmetryProfile(betas=np.array(betas))

    @pytest.mark.parametrize("betas", [[], [[0.5, 0.5]]])
    def test_weights_are_one_non_empty_list(self, betas):
        with pytest.raises(ValueError, match="one weight per clone"):
            AsymmetryProfile(betas=np.array(betas))


class TestAnalyticFidelity:
    @pytest.mark.parametrize("n", [1, 2, 3, 11])
    def test_symmetric_value(self, n):
        p = symmetric_profile(n)
        for clone in range(1, n + 1):
            assert analytic_fidelity(p, clone) == pytest.approx(
                (2 * n + 1) / (3 * n), abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        p = profile_from_betas(rng.uniform(0.0, 1.0, size=5))
        fids = [analytic_fidelity(p, c) for c in range(1, 6)]
        assert min(fids) >= 0.5 and max(fids) <= 1.0

    def test_clone_index_checked(self):
        with pytest.raises(ValueError):
            analytic_fidelity(symmetric_profile(2), 3)


class TestDefaultOffset:
    @pytest.mark.parametrize("n,expected", [(2, 0), (3, 2), (4, 2), (5, 4),
                                            (6, 4), (11, 10)])
    def test_seed_site_is_odd(self, n, expected):
        k = default_offset(n)
        assert k == expected
        assert (k + 1) % 2 == 1


class TestCloneMapTarget:
    def test_two_clone_zero_image(self):
        """The |0> image pairs the empty register with the two hole strings."""
        p = symmetric_profile(2)
        image0, _ = clone_images(p.betas)
        vec = CompressedState(*image0).embed()
        expected = np.zeros(8, dtype=complex)
        expected[0b000] = p.a
        expected[0b011] = p.betas[0]
        expected[0b110] = p.betas[1]
        assert np.abs(vec - expected).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_images_orthonormal(self, n):
        image0, image1 = (np.hstack(image) for image in clone_images(symmetric_profile(n).betas))
        assert np.linalg.norm(image0) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(image1) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(image0, image1)) < 1e-12

    def test_images_are_global_flips(self):
        (amp0, _, one, hole), (_, amp1, one_flipped, hole_flipped) = clone_images(
            profile_from_betas([3.0, 1.0, 2.0]).betas)
        assert amp1 == amp0
        assert np.allclose(one_flipped, hole)
        assert np.allclose(hole_flipped, one)


class TestCompressedState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            CompressedState(amp0=1.0, amp1=1.0,
                            one_exc=np.zeros(3), m_minus_one_exc=np.zeros(3))

    def test_nan_amplitude_refused(self):
        with pytest.raises(ValueError, match="normalized"):
            CompressedState(amp0=np.nan, amp1=1.0,
                            one_exc=np.zeros(3), m_minus_one_exc=np.zeros(3))

    @pytest.mark.parametrize("one, hole", [(np.zeros(3), np.zeros(4)),
                                           (np.zeros((3, 1)), np.zeros((3, 1)))])
    def test_sectors_are_equal_length_vectors(self, one, hole):
        with pytest.raises(ValueError, match="one amplitude per site"):
            CompressedState(amp0=1.0, amp1=0.0, one_exc=one, m_minus_one_exc=hole)

    @pytest.mark.parametrize("m,seed", [(3, 0), (5, 1), (7, 2)])
    def test_embed_places_sectors(self, m, seed):
        state = random_compressed(m, np.random.default_rng(seed))
        vec = state.embed()
        assert vec[0] == state.amp0
        assert vec[-1] == state.amp1
        full = (1 << m) - 1
        for j in range(m):
            bit = 1 << (m - 1 - j)
            assert vec[bit] == state.one_exc[j]
            assert vec[full ^ bit] == state.m_minus_one_exc[j]

    @pytest.mark.parametrize("m", [3, 5])
    def test_inner_matches_dense(self, m):
        rng = np.random.default_rng(9)
        a, b = random_compressed(m, rng), random_compressed(m, rng)
        assert np.vdot(sectors(a), sectors(b)) == pytest.approx(np.vdot(a.embed(), b.embed()))


class TestExchangeEvolution:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_single_excitation_matches_propagator(self, seed):
        """The dense evolver restricted to one excitation is the m x m kernel."""
        rng = np.random.default_rng(seed)
        m = 5
        couplings = rng.uniform(0.3, 1.5, size=m - 1)
        t = float(rng.uniform(0.5, 3.0))
        u = propagator(dense(Chain(couplings)), t)
        for j in range(m):
            vec = np.zeros(1 << m, dtype=complex)
            vec[1 << (m - 1 - j)] = 1.0
            out = exchange_evolve_dense(couplings, t, vec)
            recovered = np.array([out[1 << (m - 1 - i)] for i in range(m)])
            assert np.abs(recovered - u[:, j]).max() < 1e-12

    def test_extremal_strings_are_stationary(self):
        couplings = np.array([1.0, 0.7, 1.3, 0.4])
        for index in (0, (1 << 5) - 1):
            vec = np.zeros(1 << 5, dtype=complex)
            vec[index] = 1.0
            out = exchange_evolve_dense(couplings, 1.7, vec)
            assert abs(out[index] - 1.0) < 1e-12

    def test_size_cap(self):
        couplings = np.ones(BRUTE_FORCE_MAX_M)
        vec = np.zeros(1 << (BRUTE_FORCE_MAX_M + 1), dtype=complex)
        vec[0] = 1.0
        with pytest.raises(ValueError):
            exchange_evolve_dense(couplings, 1.0, vec)


class TestOracleCircuits:
    """Both gate circuits against dense evolution under the Pauli-string
    Hamiltonian, on random chains and a block of six random columns."""

    TIMES = (0.37, np.pi / 4, 1.3)

    @staticmethod
    def block(rng, m):
        cols = rng.normal(size=(1 << m, 6)) + 1j * rng.normal(size=(1 << m, 6))
        return cols / np.linalg.norm(cols, axis=0)

    @pytest.mark.parametrize("m", range(2, 10))
    def test_ising_circuit_is_the_evolution_up_to_one_sign(self, m):
        rng = np.random.default_rng(70 + m)
        for t in self.TIMES:
            fields, zz = rng.uniform(-2.0, 2.0, m), rng.uniform(-2.0, 2.0, m - 1)
            chain = Chain(ising_band(fields, zz))
            block = self.block(rng, m)
            exact = evolve(spin_hamiltonian(m, x=fields, zz=zz), t, block)
            out = ising_evolve_dense(chain, t, block)
            # one sign for the whole block, not one per column
            sign = np.sign(np.vdot(exact[:, 0], out[:, 0]).real)
            assert np.abs(out - sign * exact).max() < 1e-12
            single = ising_evolve_dense(chain, t, block[:, 0])
            assert single.shape == (1 << m,)
            assert np.abs(single - out[:, 0]).max() < 1e-12

    @pytest.mark.parametrize("m", range(2, 10))
    def test_exchange_circuit_is_the_evolution(self, m):
        rng = np.random.default_rng(80 + m)
        for t in self.TIMES:
            hop = rng.uniform(-2.0, 2.0, m - 1)
            block = self.block(rng, m)
            exact = evolve(spin_hamiltonian(m, xx=hop / 2.0, yy=hop / 2.0), t, block)
            assert np.abs(exchange_evolve_dense(hop, t, block) - exact).max() < 1e-12

    def test_inputs_are_left_alone(self):
        rng = np.random.default_rng(90)
        block = self.block(rng, 4)
        kept = block.copy()
        ising_evolve_dense(Chain(np.ones(7)), 0.5, block)
        exchange_evolve_dense(np.ones(3), 0.5, block)
        assert np.array_equal(block, kept)

    def test_ising_circuit_refuses_an_odd_chain(self):
        # five sites are no Ising band; the block fits two qubits, so only
        # the even-site gate stands in the way
        block = self.block(np.random.default_rng(91), 2)
        with pytest.raises(ValueError, match="even number of sites"):
            ising_evolve_dense(Chain(np.ones(4)), 0.5, block)

    def test_ising_size_cap(self):
        m = BRUTE_FORCE_MAX_M + 1
        with pytest.raises(ValueError, match="limited to"):
            ising_evolve_dense(Chain(np.ones(2 * m - 1)), 1.0, np.zeros(1 << m))


class TestPipelineAgreement:
    @pytest.mark.parametrize("n_clones,seed", [(2, 0), (2, 1), (3, 2), (3, 3),
                                               (4, 4)])
    def test_compressed_matches_brute_force_on_designed_chains(self, n_clones, seed):
        rng = np.random.default_rng(seed)
        p = profile_from_betas(rng.uniform(0.2, 1.0, size=n_clones))
        ghz = ghz_helper_chain(p.m)
        w = design_w_chain(p)
        psi = random_input(rng)
        out = pipeline_run(ghz, w, p, psi)
        oracle = brute_force_pipeline(ghz, w, p, psi)
        assert np.abs(out.embed() - oracle).max() < 1e-8

    @pytest.mark.parametrize("m,seed", [(3, 5), (5, 6), (7, 7), (9, 8)])
    def test_agreement_off_design(self, m, seed):
        """Any exchange chain, offset, and time: the bookkeeping stays exact."""
        rng = np.random.default_rng(seed)
        p = profile_from_betas(rng.uniform(0.2, 1.0, size=(m + 1) // 2))
        ghz = ghz_helper_chain(m)
        w = Chain(rng.uniform(0.3, 1.2, size=m - 1))
        k = int(rng.integers(0, m - 1))
        t = float(rng.uniform(0.5, 3.0))
        psi = random_input(rng)
        out = pipeline_run(ghz, w, p, psi, k=k, w_time=t)
        oracle = brute_force_pipeline(ghz, w, p, psi, k=k, w_time=t)
        assert np.abs(out.embed() - oracle).max() < 1e-8

    @pytest.mark.parametrize("m", [3, 5, 7, 9, 11])
    def test_gate_stages_at_every_offset(self, m):
        """With the exchange stage off, the closed-form gate output is the
        dense gate-by-gate state at every offset, for both basis inputs."""
        rng = np.random.default_rng(m)
        p = profile_from_betas(rng.uniform(0.2, 1.0, size=(m + 1) // 2))
        ghz = ghz_helper_chain(m)
        w = Chain(np.ones(m - 1))
        basis = np.eye(2, dtype=complex)
        for k in range(m - 1):
            oracle = brute_force_pipeline(ghz, w, p, basis, k=k, w_time=0.0)
            for col in range(2):
                out = pipeline_run(ghz, w, p, basis[:, col], k=k, w_time=0.0)
                assert np.abs(out.embed() - oracle[:, col]).max() < 1e-12

    def test_output_hits_clone_map(self):
        """End to end the pipeline realizes the cloning map on both basis states."""
        p = symmetric_profile(3)
        ghz = ghz_helper_chain(p.m)
        w = design_w_chain(p)
        image0, image1 = clone_images(p.betas)
        for psi, image in [(np.array([1.0, 0.0]), image0),
                           (np.array([0.0, 1.0]), image1)]:
            out = pipeline_run(ghz, w, p, psi)
            assert abs(abs(np.vdot(sectors(out), np.hstack(image))) - 1.0) < 1e-9

    def test_ghz_stage_failure_is_named(self):
        p = symmetric_profile(2)
        w = design_w_chain(p)
        band = ghz_helper_chain(3).couplings.copy()
        band[0::2] *= 1.5
        broken = Chain(band)
        with pytest.raises(StageBreachError, match="ghz stage"):
            clone_report(broken, w, p)

    @pytest.mark.parametrize("sites", [5, 7, 8])
    def test_helper_chain_of_the_wrong_size_refused(self, sites):
        # a three-qubit register takes the six-site band of its helper chain
        p = symmetric_profile(2)
        w = design_w_chain(p)
        ghz = standard_couplings(sites)
        for run in (pipeline_run, brute_force_pipeline):
            with pytest.raises(ValueError, match="chain sizes and profile disagree"):
                run(ghz, w, p, SIX_DESIGN_INPUTS[0])
        with pytest.raises(ValueError, match="chain sizes and profile disagree"):
            clone_report(ghz, w, p)

    def test_w_stage_failure_is_named(self):
        p = symmetric_profile(2)
        ghz = ghz_helper_chain(3)
        with pytest.raises(StageBreachError, match="w stage"):
            clone_report(ghz, Chain([1.0, 1.0]), p, method="brute_force")

    def test_nan_stage_tolerance_passes_no_stage(self):
        p = symmetric_profile(2)
        w = design_w_chain(p)
        with pytest.raises(StageBreachError, match="ghz stage"):
            clone_report(ghz_helper_chain(3), w, p, stage_tol=np.nan)

    def test_one_clone_has_no_register_to_fit(self):
        # no offset leaves a helper and an input inside a one-site register
        for run in (pipeline_run, brute_force_pipeline):
            with pytest.raises(ValueError, match="offset"):
                run(Chain([1.0]), Chain([]), symmetric_profile(1), SIX_DESIGN_INPUTS[0])

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_exchange_time_refused(self, t):
        p = symmetric_profile(2)
        ghz, w = ghz_helper_chain(3), design_w_chain(p)
        for run in (pipeline_run, brute_force_pipeline):
            with pytest.raises(ValueError, match="evolution time must be finite"):
                run(ghz, w, p, SIX_DESIGN_INPUTS[0], w_time=t)


class TestOnePassPerReport:
    @pytest.mark.parametrize("m,seed", [(3, 10), (5, 11), (7, 12), (9, 13)])
    def test_oracle_block_matches_single_columns(self, m, seed):
        rng = np.random.default_rng(seed)
        p = profile_from_betas(rng.uniform(0.2, 1.0, size=(m + 1) // 2))
        ghz = ghz_helper_chain(m)
        w = Chain(rng.uniform(0.3, 1.2, size=m - 1))
        k = int(rng.integers(0, m - 1))
        t = float(rng.uniform(0.5, 3.0))
        block = np.column_stack([random_input(rng) for _ in range(6)])
        out = brute_force_pipeline(ghz, w, p, block, k=k, w_time=t)
        assert out.shape == (1 << m, 6)
        for col in range(6):
            single = brute_force_pipeline(ghz, w, p, block[:, col], k=k, w_time=t)
            assert np.abs(out[:, col] - single).max() < 1e-12

    @staticmethod
    def counting(monkeypatch, name, module=cloning):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_brute_force_report_runs_three_gate_circuits(self, monkeypatch):
        p = profile_from_betas([2.0, 1.0, 1.0])
        w = design_w_chain(p)
        ising = self.counting(monkeypatch, "ising_evolve_dense")
        exchange = self.counting(monkeypatch, "exchange_evolve_dense")
        clone_report(ghz_helper_chain(p.m), w, p, method="brute_force")
        assert len(ising) == 2
        assert len(exchange) == 1

    def test_brute_force_report_solves_each_exchange_chain_twice(self, monkeypatch):
        # once for the w-stage check, once for the oracle's exchange circuit
        p = profile_from_betas([2.0, 1.0, 1.0])
        w = design_w_chain(p)
        solves = self.counting(monkeypatch, "eig_sym_tridiag", numerics)
        clone_report(ghz_helper_chain(p.m), w, p, method="brute_force")
        assert [np.array_equal(chain.couplings, w.couplings) for chain, in solves] == [True, True]

    def test_compressed_report_checks_the_stages_once(self, monkeypatch):
        p = profile_from_betas([3, 1, 2, 1, 1, 2])
        w = design_w_chain(p)
        deviations = self.counting(monkeypatch, "mirror_deviation")
        propagators = self.counting(monkeypatch, "propagator")
        clone_report(ghz_helper_chain(p.m), w, p)
        assert len(deviations) == 1
        # one column, (chain, time, k), serves the w stage check and the
        # spread of all inputs; no call forms the whole operator
        assert [len(args) for args in propagators] == [3]

    def test_brute_force_report_checks_the_stages_once(self, monkeypatch):
        p = profile_from_betas([2.0, 1.0, 1.0])
        w = design_w_chain(p)
        deviations = self.counting(monkeypatch, "mirror_deviation")
        propagators = self.counting(monkeypatch, "propagator")
        clone_report(ghz_helper_chain(p.m), w, p, method="brute_force")
        assert len(deviations) == 1
        # one column for the w-stage check, and the whole operator that the
        # exchange circuit of the oracle factors
        assert [len(args) for args in propagators] == [3, 2]

    @pytest.mark.parametrize("m,seed", [(3, 20), (5, 21), (9, 22), (21, 23)])
    def test_compressed_block_matches_single_inputs(self, m, seed):
        rng = np.random.default_rng(seed)
        p = profile_from_betas(rng.uniform(0.2, 1.0, size=(m + 1) // 2))
        ghz = ghz_helper_chain(m)
        w = Chain(rng.uniform(0.3, 1.2, size=m - 1))
        k = int(rng.integers(0, m - 1))
        t = float(rng.uniform(0.5, 3.0))
        block = np.column_stack(SIX_DESIGN_INPUTS)
        states = pipeline_run(ghz, w, p, block, k=k, w_time=t)
        assert len(states) == len(SIX_DESIGN_INPUTS)
        for col, state in enumerate(states):
            single = pipeline_run(ghz, w, p, block[:, col], k=k, w_time=t)
            assert state.amp0 == single.amp0 and state.amp1 == single.amp1
            assert np.array_equal(state.one_exc, single.one_exc)
            assert np.array_equal(state.m_minus_one_exc, single.m_minus_one_exc)


class TestFrozenFidelities:
    def test_two_clones_five_sixths(self):
        p = symmetric_profile(2)
        report = clone_report(ghz_helper_chain(3), design_w_chain(p), p,
                              method="brute_force")
        assert np.abs(report.fidelities - 5 / 6).max() < 1e-12
        assert report.spread < 1e-12

    def test_three_clones_seven_ninths(self):
        p = symmetric_profile(3)
        w = design_w_chain(p)
        ghz = ghz_helper_chain(5)
        for method in ("brute_force", "compressed"):
            report = clone_report(ghz, w, p, method=method)
            assert np.abs(report.fidelities - 7 / 9).max() < 1e-12

    def test_three_clone_input_spread(self):
        """Beyond two clones the fidelity depends on the input axis."""
        p = symmetric_profile(3)
        report = clone_report(ghz_helper_chain(5), design_w_chain(p), p)
        assert report.spread == pytest.approx(1 / 12, abs=1e-10)

    def test_asymmetric_three_clones(self):
        p = profile_from_betas([2.0, 1.0, 1.0])
        w = design_w_chain(p)
        report = clone_report(ghz_helper_chain(5), w, p, method="brute_force")
        expected = np.array([29 / 33, 47 / 66, 47 / 66])
        assert np.abs(report.fidelities - expected).max() < 1e-12
        assert report.spread == pytest.approx(1 / 11, abs=1e-10)
        analytic = [analytic_fidelity(p, c) for c in (1, 2, 3)]
        assert np.abs(report.fidelities - analytic).max() < 1e-12

    def test_eleven_clones_compressed(self):
        p = symmetric_profile(11)
        w = design_w_chain(p)
        report = clone_report(ghz_helper_chain(21), w, p, method="compressed")
        assert np.abs(report.fidelities - 23 / 33).max() < 1e-6
        assert report.max_stage_residual < 1e-6

    def test_report_json_fields(self, tmp_path):
        # the report document ``simulate clone`` writes: every report field
        out = tmp_path / "clone2.json"
        assert main(["simulate", "clone", "--n-clones", "2", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"n_clones", "betas", "fidelities", "spread",
                                "method", "max_stage_residual", "provenance"}
        assert payload["n_clones"] == 2
        assert payload["betas"] == pytest.approx([1 / np.sqrt(6)] * 2)
        assert payload["method"] == "compressed"
        assert payload["fidelities"] == pytest.approx([5 / 6, 5 / 6])
        assert 0.0 <= payload["max_stage_residual"] < 1e-6

    def test_report_validation(self):
        with pytest.raises(ValueError):
            CloneReport(betas=np.array([1.0]),
                        fidelities=np.array([0.2]), spread=0.0,
                        method="compressed", max_stage_residual=0.0)
        with pytest.raises(ValueError):
            CloneReport(betas=np.array([1.0]),
                        fidelities=np.array([0.9]), spread=0.0,
                        method="guess", max_stage_residual=0.0)
        with pytest.raises(ValueError, match="one fidelity per clone"):
            CloneReport(betas=np.array([0.5, 0.5]),
                        fidelities=np.array([0.9]), spread=0.0,
                        method="compressed", max_stage_residual=0.0)
        with pytest.raises(ValueError, match="must lie in"):
            CloneReport(betas=np.array([0.5, 0.5]),
                        fidelities=np.array([0.9, np.nan]), spread=0.0,
                        method="compressed", max_stage_residual=0.0)


class TestReducedDensity:
    @pytest.mark.parametrize("m,seed", [(5, 0), (7, 1), (9, 2)])
    def test_closed_form_matches_dense_trace(self, m, seed):
        state = random_compressed(m, np.random.default_rng(seed))
        vec = state.embed()
        for site in range(1, m + 1):
            assert np.abs(reduced_qubit_state(state, site)
                          - reduced_qubit_state(vec, site)).max() < 1e-12

    def test_three_qubit_register(self):
        """Holes and excitations overlap after tracing a three-site register."""
        state = random_compressed(3, np.random.default_rng(3))
        for site in (1, 2, 3):
            rho = reduced_qubit_state(state, site)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
            assert np.abs(rho - rho.conj().T).max() < 1e-12
            assert np.abs(rho - reduced_qubit_state(state.embed(), site)).max() < 1e-12

    def test_dense_vector_partial_trace(self):
        rng = np.random.default_rng(4)
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        vec /= np.linalg.norm(vec)
        rho = reduced_qubit_state(vec, 2)
        tensor = vec.reshape(2, 2, 2, 2)
        expected = np.einsum("aibc,ajbc->ij", tensor, tensor.conj())
        assert np.abs(rho - expected).max() < 1e-12

    def test_site_bounds(self):
        state = random_compressed(5, np.random.default_rng(5))
        with pytest.raises(ValueError):
            reduced_qubit_state(state, 6)


class TestAverageFidelity:
    def test_design_inputs_are_normalized(self):
        for psi in SIX_DESIGN_INPUTS:
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


class TestDesignWChain:
    @pytest.mark.parametrize("n_clones", [2, 3, 4, 5])
    def test_designed_chain_spreads_the_seed(self, n_clones):
        p = symmetric_profile(n_clones)
        w = design_w_chain(p)
        source = default_offset(n_clones) + 1
        produced = produced_state(w.couplings, source)
        assert np.abs(produced - clone_weight_state(p)).max() < 1e-8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_asymmetric_profiles(self, seed):
        rng = np.random.default_rng(seed)
        p = profile_from_betas(rng.uniform(0.1, 1.0, size=4))
        w = design_w_chain(p)
        source = default_offset(4) + 1
        produced = produced_state(w.couplings, source)
        assert np.abs(produced - clone_weight_state(p)).max() < 1e-6

    @pytest.mark.parametrize("weights, ladder", [
        ([1.0] * 4, 0),
        ([2, 1, 1, 1, 1], 1),
        ([3, 1, 2, 1, 1, 2], 2),
        ([1, 2, 1, 3, 1, 2, 1], 1),
    ])
    def test_bench_profiles_take_the_first_ladder_with_a_root(self, weights,
                                                               ladder):
        p = profile_from_betas(weights)
        w = design_w_chain(p)
        produced = produced_state(w.couplings, default_offset(p.n_clones) + 1)
        assert np.abs(produced - clone_weight_state(p)).max() < 1e-12
        positive = _candidate_ladders(p.m)[ladder]
        spectrum = np.concatenate([-positive[::-1], [0.0], positive])
        vals = np.linalg.eigvalsh(dense(w))
        assert np.abs(vals - spectrum).max() <= 1e-10 * spectrum.max()

    @pytest.mark.parametrize("weights, ladder", [
        # the only ladder with a root is base 21
        ([0.673, 0.655, 0.006, 0.512], 4),
        # the first ladder with a root is base 11
        ([0.135, 0.021, 0.513, 0.023, 0.502], 3),
    ])
    def test_profiles_whose_root_is_on_a_fallback_ladder(self, weights, ladder):
        p = profile_from_betas(weights)
        w = design_w_chain(p)
        positive = _candidate_ladders(p.m)[ladder]
        spectrum = np.concatenate([-positive[::-1], [0.0], positive])
        vals = np.linalg.eigvalsh(dense(w))
        assert np.abs(vals - spectrum).max() <= 1e-10 * spectrum.max()
        report = clone_report(ghz_helper_chain(p.m), w, p)
        analytic = [analytic_fidelity(p, c) for c in range(1, p.n_clones + 1)]
        assert np.abs(report.fidelities - analytic).max() < 1e-9

    @pytest.mark.parametrize("n_clones", range(4, 11))
    def test_random_profiles_pass_the_residual_gate(self, n_clones):
        rng = np.random.default_rng(900 + n_clones)
        for _ in range(3):
            p = profile_from_betas(rng.uniform(0.1, 1.0, size=n_clones))
            w = design_w_chain(p)
            produced = produced_state(w.couplings, default_offset(n_clones) + 1)
            # the gate's floor, max(tol, 1e-8), with the default tol of 1e-6
            assert np.abs(produced - clone_weight_state(p)).max() < 1e-8

    def test_even_seed_site_rejected(self):
        with pytest.raises(ValueError):
            design_w_chain(symmetric_profile(3), k=1)

    def test_unreachable_pattern_raises_a_stall_without_trace(self):
        with pytest.raises(FlowStallError, match="^spread-chain design: the direct "
                           "zero-mode solve found no chain") as excinfo:
            design_w_chain(profile_from_betas([0, 1, 1]))
        assert excinfo.value.trace is None

    def test_chain_is_field_free(self):
        # a Chain holds couplings only, so its xx document has zero fields
        w = design_w_chain(symmetric_profile(2))
        doc = document_from_xx(w, make_provenance("test"))
        assert doc.fields.tolist() == [0.0] * 3
        assert np.array_equal(xx_chain(doc).couplings, w.couplings)
