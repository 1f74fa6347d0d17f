"""Tests for the isospectral synthesis flows."""

import dataclasses

import numpy as np
import pytest

from spinforge import synthesis
from spinforge.cloning import (
    _candidate_spectra,
    clone_weight_state,
    default_offset,
    profile_from_betas,
)
from spinforge.numerics import Spectrum, SymTridiag
from spinforge.synthesis import (
    SynthesisTask,
    NullVectorTask,
    ConvergenceState,
    synthesis_flow_commutator,
    synthesis_flow_nullvector,
    reflection_check,
    case_study_generator,
    boundary_value,
    chain_from_spectrum,
    zero_mode,
    reflection_target,
    three_site_couplings,
    five_site_couplings,
    zero_mode_chain,
    produced_state,
    sign_gauge,
    apply_sign_gauge,
    fold_couplings,
    unfold_couplings,
    mirror_target_fold,
    wstate_chain,
    _null_vector_system,
    _saturating_box,
)

FIVE_SITE = Spectrum(values=(-5.0, -3.0, 0.0, 3.0, 5.0))


def random_reachable_mode(rng, margin=0.05):
    """Odd-site zero-mode target inside the reachable region."""
    while True:
        v = np.abs(rng.normal(size=3))
        v /= np.linalg.norm(v)
        g1, g2 = v[1] / v[0], v[1] / v[2]
        if boundary_value(g1, g2) >= margin:
            return v * np.array([1.0, -1.0, 1.0])


def mirror_state_unfold(half_state):
    """Lift a half-chain state (centre first) to the mirror-symmetric chain."""
    side = np.asarray(half_state)[1:] / np.sqrt(2.0)
    return np.concatenate([side[::-1], np.asarray(half_state)[:1], side])


def embed_odd(v):
    full = np.zeros(2 * v.size - 1)
    full[0::2] = v
    return full


class TestStepSizeRule:
    """The null-vector flow's box size eps * sqrt(1 - chi^2)."""

    @pytest.mark.parametrize("chi,eps,expected", [
        (0.0, 0.1, 0.1),
        (1.0, 0.1, 0.0),
        (-1.0, 0.2, 0.0),
        (0.8, 0.1, 0.06),
    ])
    def test_reference_values(self, chi, eps, expected):
        assert _saturating_box(eps, chi) == pytest.approx(expected, abs=1e-15)

    def test_formula_everywhere(self):
        rng = np.random.default_rng(7)
        for chi in rng.uniform(-1, 1, size=25):
            assert _saturating_box(0.3, chi) == pytest.approx(
                0.3 * np.sqrt(1 - chi ** 2), rel=1e-12)


class TestConvergenceState:
    def test_chi_range_enforced(self):
        with pytest.raises(ValueError):
            ConvergenceState(chi=1.5, delta=0.1, iterations=0)

    def test_delta_positive(self):
        with pytest.raises(ValueError):
            ConvergenceState(chi=0.0, delta=0.0, iterations=0)

    def test_csv_round_trip(self):
        state = ConvergenceState(chi=0.5, delta=0.1, iterations=2)
        state.record(0, 0.25, 0.1, 1e-12)
        state.record(1, 0.5, 0.09, 2e-12)
        lines = state.to_csv().strip().splitlines()
        assert lines[0] == "iteration,chi,delta,off_band_residual"
        assert len(lines) == 3
        it, chi, delta, off = lines[2].split(",")
        assert int(it) == 1
        assert float(chi) == pytest.approx(0.5)
        assert float(delta) == pytest.approx(0.09)

    def test_polishes_is_a_declared_field(self):
        declared = {f.name: f for f in dataclasses.fields(ConvergenceState)}
        assert "polishes" in declared
        first = ConvergenceState(chi=0.5, delta=0.1, iterations=0)
        second = ConvergenceState(chi=0.5, delta=0.1, iterations=0)
        first.polishes.append((3, False))
        assert second.polishes == []


class TestTaskValidation:
    def test_synthesis_task_norm(self):
        with pytest.raises(ValueError):
            SynthesisTask(spectrum=FIVE_SITE, source=1,
                          target=np.ones(5), time=np.pi)

    def test_synthesis_task_source_range(self):
        target = np.zeros(5)
        target[0] = 1.0
        with pytest.raises(ValueError):
            SynthesisTask(spectrum=FIVE_SITE, source=6, target=target, time=np.pi)

    def test_null_vector_needs_unique_zero(self):
        bad = Spectrum(values=(-2.0, -1.0, 0.0, 0.0, 1.0, 2.0, 3.0))
        lam = np.zeros(7)
        lam[0] = 1.0
        with pytest.raises(ValueError):
            NullVectorTask(spectrum=bad, target_null_vector=lam)

    def test_null_vector_needs_symmetry(self):
        bad = Spectrum(values=(-4.0, -3.0, 0.0, 3.0, 5.0))
        lam = np.zeros(5)
        lam[0] = 1.0
        with pytest.raises(ValueError):
            NullVectorTask(spectrum=bad, target_null_vector=lam)

    def test_null_vector_odd_support_only(self):
        lam = np.ones(5) / np.sqrt(5)
        with pytest.raises(ValueError):
            NullVectorTask(spectrum=FIVE_SITE, target_null_vector=lam)

    def test_reflectionless_spectrum_rejected(self):
        evens = Spectrum(values=(-4.0, -2.0, 0.0, 2.0, 4.0))
        lam = embed_odd(np.array([1.0, -1.0, 1.0]) / np.sqrt(3))
        task = NullVectorTask(spectrum=evens, target_null_vector=lam)
        with pytest.raises(ValueError, match="reflection"):
            synthesis_flow_nullvector(task)

    def test_commutator_checks_spectrum(self):
        target = np.zeros(5)
        target[0] = 1.0
        task = SynthesisTask(spectrum=FIVE_SITE, source=3, target=target, time=np.pi)
        wrong = SymTridiag(np.zeros(5), np.array([1.0, 1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            synthesis_flow_commutator(wrong, task)


class TestChainConstruction:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lanczos_chain_matches_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        positive = np.sort(rng.uniform(0.5, 8.0, size=4))
        values = np.concatenate([-positive[::-1], [0.0], positive])
        couplings = chain_from_spectrum(values)
        assert (couplings > 0).all()
        h = SymTridiag(np.zeros(9), couplings).to_dense()
        assert np.linalg.eigvalsh(h) == pytest.approx(values, abs=1e-8)

    def test_asymmetric_spectrum_rejected(self):
        with pytest.raises(ValueError):
            chain_from_spectrum([-2.0, 0.0, 1.0])

    def test_zero_mode_annihilated(self):
        couplings = chain_from_spectrum(FIVE_SITE.values)
        lam, svs = zero_mode(couplings)
        h = SymTridiag(np.zeros(5), couplings).to_dense()
        assert np.abs(h @ lam).max() < 1e-12
        assert np.sort(svs) == pytest.approx([3.0, 5.0], abs=1e-9)

    def test_positive_chain_mode_alternates(self):
        rng = np.random.default_rng(11)
        positive = np.sort(rng.uniform(0.5, 9.0, size=5))
        values = np.concatenate([-positive[::-1], [0.0], positive])
        lam, _ = zero_mode(chain_from_spectrum(values))
        odd = lam[0::2]
        odd = odd * np.sign(odd[0])
        assert (np.sign(odd) == [(-1.0) ** k for k in range(6)]).all()


class TestReflectionCheck:
    def test_odd_integer_spectrum_reflects(self):
        chain = SymTridiag(np.zeros(5), chain_from_spectrum(FIVE_SITE.values))
        assert reflection_check(chain, np.pi) <= 1e-9

    def test_even_spectrum_does_not_reflect(self):
        chain = SymTridiag(np.zeros(5), chain_from_spectrum([-4.0, -2.0, 0.0, 2.0, 4.0]))
        assert reflection_check(chain, np.pi) > 0.5

    def test_zero_time_deviation(self):
        # at t = 0 the propagator is the identity, whose best-phase distance
        # from the reflection is twice the largest squared mode amplitude
        couplings = chain_from_spectrum(FIVE_SITE.values)
        chain = SymTridiag(np.zeros(5), couplings)
        lam, _ = zero_mode(couplings)
        expected = 2.0 * np.max(lam ** 2)
        value = reflection_check(chain, 0.0)
        assert value == pytest.approx(expected, rel=1e-10)
        assert value > 0.3


class TestCaseStudyGenerator:
    def test_zero_weights(self):
        j = (1.0, 2.0, 3.0, 4.0)
        assert case_study_generator(j, 0.0, 0.0) == pytest.approx([0.0, 0.0, 0.0])

    def test_requires_positive_couplings(self):
        with pytest.raises(ValueError):
            case_study_generator((1.0, -2.0, 3.0, 4.0), 1.0, 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_orthogonal_to_zero_mode(self, seed):
        rng = np.random.default_rng(seed)
        j = rng.uniform(0.5, 5.0, size=4)
        lam = np.array([j[1] * j[3], -j[0] * j[3], j[0] * j[2]])
        for a, b in rng.uniform(-2, 2, size=(6, 2)):
            vec = case_study_generator(j, a, b)
            assert abs(vec @ lam) < 1e-9 * np.linalg.norm(lam) * max(np.linalg.norm(vec), 1)

    def test_spans_orthogonal_complement_generically(self):
        rng = np.random.default_rng(123)
        j = rng.uniform(0.5, 5.0, size=4)
        while abs(j[0] ** 2 + j[1] ** 2 - j[2] ** 2 - j[3] ** 2) < 1e-3:
            j = rng.uniform(0.5, 5.0, size=4)
        va = case_study_generator(j, 1.0, 0.0)
        vb = case_study_generator(j, 0.0, 1.0)
        assert np.linalg.matrix_rank(np.stack([va, vb]), tol=1e-9) == 2

    def test_rank_drops_on_degenerate_set(self):
        # J1^2 + J2^2 = J3^2 + J4^2 collapses the family to one direction
        j = (2.0, 1.0, 2.0, 1.0)
        va = case_study_generator(j, 1.0, 0.0)
        vb = case_study_generator(j, 0.0, 1.0)
        assert np.linalg.matrix_rank(np.stack([va, vb]), tol=1e-9) == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_pattern_preserving_generators(self, seed):
        # Independent construction: antisymmetric generators on the odd and
        # even blocks that keep the hopping pattern bidiagonal act on the
        # zero mode; their image must coincide with the (a, b) family.
        rng = np.random.default_rng(seed)
        j1, j2, j3, j4 = rng.uniform(0.5, 3.0, size=4)
        x = np.array([[j1, j2, 0.0], [0.0, j3, j4]])
        lam = np.array([j2 * j4, -j1 * j4, j1 * j3])

        def leak(params):
            a01, a02, a12, b = params
            odd = np.array([[0, a01, a02], [-a01, 0, a12], [-a02, -a12, 0]])
            even = np.array([[0, b], [-b, 0]])
            dx = x @ odd - even @ x
            return np.array([dx[0, 2], dx[1, 0]])

        constraint = np.array([leak(row) for row in np.eye(4)]).T
        free = np.linalg.svd(constraint)[2][2:]
        image = []
        for a01, a02, a12, _ in free:
            odd = np.array([[0, a01, a02], [-a01, 0, a12], [-a02, -a12, 0]])
            image.append(odd @ lam)
        va = case_study_generator((j1, j2, j3, j4), 1.0, 0.0)
        vb = case_study_generator((j1, j2, j3, j4), 0.0, 1.0)
        stacked = np.vstack([image, va, vb])
        scale = np.abs(stacked).max()
        assert np.linalg.matrix_rank(stacked, tol=1e-9 * scale) == 2
        assert abs(va @ lam) < 1e-9 * scale * np.linalg.norm(lam)


class TestBoundaryValue:
    def test_boundary_point(self):
        gamma = np.sqrt(9.0 / 8.0)
        assert boundary_value(gamma, gamma) == pytest.approx(0.0, abs=1e-12)

    def test_forbidden_and_reachable_signs(self):
        assert boundary_value(1.0, 1.0) < 0
        assert boundary_value(2.0, 2.0) > 0

    def test_rejects_nonpositive_ratios(self):
        with pytest.raises(ValueError):
            boundary_value(-1.0, 2.0)


class TestClosedForms:
    @pytest.mark.parametrize("branch", [1, -1])
    def test_five_site_spectrum_and_mode(self, branch):
        rng = np.random.default_rng(42 + branch)
        for _ in range(5):
            v = random_reachable_mode(rng)
            couplings = five_site_couplings(v, branch=branch)
            assert (couplings > 0).all()
            h = SymTridiag(np.zeros(5), couplings).to_dense()
            assert np.linalg.eigvalsh(h) == pytest.approx(
                [-5.0, -3.0, 0.0, 3.0, 5.0], abs=1e-9)
            lam, _ = zero_mode(couplings, v)
            assert lam[0::2] == pytest.approx(v, abs=1e-9)

    def test_branches_differ(self):
        v = random_reachable_mode(np.random.default_rng(5))
        assert np.abs(five_site_couplings(v, branch=1)
                      - five_site_couplings(v, branch=-1)).max() > 1e-6

    def test_forbidden_raises(self):
        v = np.array([1.0, -1.0, 1.0]) / np.sqrt(3)
        with pytest.raises(ValueError, match="forbidden"):
            five_site_couplings(v)

    def test_three_site(self):
        v = np.array([0.8, 0.0, -0.6])
        couplings = three_site_couplings(v)
        h = SymTridiag(np.zeros(3), couplings).to_dense()
        assert np.linalg.eigvalsh(h) == pytest.approx([-3.0, 0.0, 3.0], abs=1e-12)
        lam, _ = zero_mode(couplings, v)
        assert lam == pytest.approx(v, abs=1e-12)


def spread_target(weights):
    """Zero mode a clone spread chain needs, as ``design_w_chain`` reads it."""
    p = profile_from_betas(weights)
    return p.m, reflection_target(default_offset(p.n_clones) + 1,
                                  clone_weight_state(p))


def first_root(m, target):
    for index, spectrum in enumerate(_candidate_spectra(m)):
        couplings = zero_mode_chain(spectrum, target)
        if couplings is not None:
            return index, spectrum, couplings
    return None, None, None


class TestZeroModeChain:
    """The direct ratio-fixed solve behind the clone spread chains."""

    @pytest.mark.parametrize("seed", range(4))
    def test_five_sites_land_on_a_closed_form_branch(self, seed):
        rng = np.random.default_rng(600 + seed)
        for _ in range(5):
            v = random_reachable_mode(rng)
            couplings = zero_mode_chain(FIVE_SITE, embed_odd(v))
            assert couplings is not None
            gap = min(np.abs(couplings - five_site_couplings(v, branch=b)).max()
                      for b in (1, -1))
            assert gap < 1e-12

    @pytest.mark.parametrize("n_clones", range(4, 11))
    def test_random_profiles_reproduce_a_ladder(self, n_clones):
        rng = np.random.default_rng(700 + n_clones)
        for weights in [rng.uniform(0.1, 1.0, size=n_clones),
                        rng.integers(1, 4, size=n_clones)]:
            m, target = spread_target(weights)
            index, spectrum, couplings = first_root(m, target)
            assert index is not None, weights
            assert (couplings > 0).all()
            vals = np.linalg.eigvalsh(SymTridiag(np.zeros(m), couplings).to_dense())
            top = np.abs(spectrum.values).max()
            assert np.abs(vals - spectrum.values).max() <= 1e-10 * top
            lam, _ = zero_mode(couplings, target)
            assert np.abs(lam - target).max() < 1e-10

    def test_forbidden_five_site_target_has_no_chain(self):
        forbidden = embed_odd(np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0))
        assert zero_mode_chain(FIVE_SITE, forbidden) is None

    def test_vanishing_odd_component_has_no_chain(self):
        m, target = spread_target([1, 0, 1, 1, 1, 1])
        assert target[2] == 0.0
        assert all(zero_mode_chain(s, target) is None
                   for s in _candidate_spectra(m))

    def test_size_mismatch_is_a_value_error(self):
        with pytest.raises(ValueError):
            zero_mode_chain(FIVE_SITE, np.ones(7) / np.sqrt(7.0))


class TestNullVectorFlow:
    @pytest.mark.parametrize("seed", range(3))
    def test_reachable_targets_converge(self, seed):
        rng = np.random.default_rng(seed)
        v = random_reachable_mode(rng)
        task = NullVectorTask(spectrum=FIVE_SITE, target_null_vector=embed_odd(v))
        chain, report = synthesis_flow_nullvector(task)
        assert report.status == "converged"
        assert report.chi >= 1 - 1e-6
        assert np.sum(chain.offdiag ** 2) == pytest.approx(34.0, abs=1e-6)
        h = chain.to_dense()
        assert np.linalg.eigvalsh(h) == pytest.approx(FIVE_SITE.values, abs=1e-8)

    def test_forbidden_target_stalls_on_boundary(self):
        v = np.array([1.0, -1.0, 1.0]) / np.sqrt(3)
        task = NullVectorTask(spectrum=FIVE_SITE, target_null_vector=embed_odd(v))
        chain, report = synthesis_flow_nullvector(task)
        assert report.status == "stalled"
        j = chain.offdiag
        landing = boundary_value(abs(j[0] / j[1]), abs(j[3] / j[2]))
        assert abs(landing) < 1e-3
        assert np.sum(j ** 2) == pytest.approx(34.0, abs=1e-6)

    def test_chi_monotone_and_log_linear(self, monkeypatch):
        rng = np.random.default_rng(9)
        v = random_reachable_mode(rng)
        task = NullVectorTask(spectrum=FIVE_SITE, target_null_vector=embed_odd(v))
        # the bare flow, with every root handover refused
        monkeypatch.setattr(synthesis, "polish_null_vector_root",
                            lambda *args: None)
        _, report = synthesis_flow_nullvector(task)
        chis = np.array([row[1] for row in report.history])
        assert (np.diff(chis) >= -1e-14).all()
        # exponential approach: log(1 - chi) falls roughly linearly
        gap = 1.0 - chis
        keep = gap > 1e-12
        its = np.arange(chis.size)[keep]
        logs = np.log(gap[keep])
        slope = np.polyfit(its, logs, 1)[0]
        assert slope < 0
        corr = np.corrcoef(its, logs)[0, 1]
        assert corr < -0.9

    def test_trivial_target_zero_iterations(self):
        couplings = chain_from_spectrum(FIVE_SITE.values)
        lam, _ = zero_mode(couplings)
        task = NullVectorTask(spectrum=FIVE_SITE, target_null_vector=lam)
        _, report = synthesis_flow_nullvector(task)
        assert report.status == "converged"
        assert report.iterations == 0

    def test_off_band_residuals_recorded_small(self):
        rng = np.random.default_rng(21)
        v = random_reachable_mode(rng)
        task = NullVectorTask(spectrum=FIVE_SITE, target_null_vector=embed_odd(v))
        _, report = synthesis_flow_nullvector(task)
        offs = [row[3] for row in report.history]
        assert max(offs) <= 1e-8

    @pytest.mark.parametrize("tol", [-1.0, 0.0, 1.0, 2.0, np.nan, np.inf])
    def test_rejects_tolerance_outside_unit_interval(self, tol):
        v = np.array([1.0, -1.0, 1.0]) / np.sqrt(3)
        task = NullVectorTask(spectrum=FIVE_SITE, target_null_vector=embed_odd(v))
        with pytest.raises(ValueError, match="tol"):
            synthesis_flow_nullvector(task, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            wstate_chain(9, tol=tol)


def clone_task(weights, ladder):
    """Null-vector task of a clone spread chain on one candidate ladder."""
    p = profile_from_betas(weights)
    source = default_offset(p.n_clones) + 1
    target = reflection_target(source, clone_weight_state(p))
    return NullVectorTask(spectrum=_candidate_spectra(p.m)[ladder],
                          target_null_vector=target)


class TestRootHandover:
    """The flow hands over to the root polish once chi reaches 0.99."""

    @pytest.mark.parametrize("task, attempts", [
        # consecutive ladder at n = 11: stalls below 0.99, never polished
        (clone_task([3, 1, 2, 1, 1, 2], 0), 0),
        # base-3 ladder: the handover and the final polish are both refused
        (clone_task([3, 1, 2, 1, 1, 2], 1), 2),
        # the forbidden five-site target of criterion 10
        (NullVectorTask(spectrum=FIVE_SITE, target_null_vector=embed_odd(
            np.array([1.0, -1.0, 1.0]) / np.sqrt(3))), None),
    ])
    def test_stalls_are_untouched(self, task, attempts, monkeypatch):
        chain, report = synthesis_flow_nullvector(task)
        monkeypatch.setattr(synthesis, "polish_null_vector_root",
                            lambda *args: None)
        bare_chain, bare = synthesis_flow_nullvector(task)
        assert report.status == bare.status == "stalled"
        assert report.iterations == bare.iterations
        assert report.history == bare.history
        assert np.array_equal(chain.offdiag, bare_chain.offdiag)
        assert not any(accepted for _, accepted in report.polishes)
        if attempts is not None:
            assert len(report.polishes) == attempts

    def test_forty_one_sites_converge_in_few_iterations(self):
        design = wstate_chain(41)
        assert design.flow.status == "converged"
        assert design.flow.iterations < 100
        assert design.overlap >= 1 - 1e-9


class TestPolishJacobian:
    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
    def test_matches_central_differences(self, n):
        rng = np.random.default_rng(n)
        j = rng.uniform(0.5, 2.0, size=n - 1)
        lam, svs = zero_mode(j)
        # a nearby target and spectrum keep the residual away from zero
        target = lam.copy()
        target[0::2] += rng.normal(scale=0.05, size=(n + 1) // 2)
        target /= np.linalg.norm(target)
        vals = 1.01 * np.concatenate([-svs, [0.0], svs])
        residual, jacobian = _null_vector_system(vals, target)
        h = 1e-6
        numeric = np.column_stack([(residual(j + h * e) - residual(j - h * e))
                                   / (2.0 * h) for e in np.eye(n - 1)])
        analytic = jacobian(j)
        assert analytic.shape == numeric.shape
        assert np.abs(analytic - numeric).max() <= 1e-6 * np.abs(analytic).max()


class TestCommutatorFlow:
    def test_trivial_target_zero_iterations(self):
        couplings = chain_from_spectrum(FIVE_SITE.values)
        h0 = SymTridiag(np.zeros(5), couplings)
        psi = produced_state(couplings, 3, np.pi)
        assert np.abs(psi.imag).max() < 1e-12
        target = psi.real / np.linalg.norm(psi.real)
        task = SynthesisTask(spectrum=FIVE_SITE, source=3, target=target, time=np.pi)
        _, report = synthesis_flow_commutator(h0, task)
        assert report.status == "converged"
        assert report.iterations == 0
        assert report.chi == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_cross_validates_with_null_vector_method(self, seed):
        rng = np.random.default_rng(100 + seed)
        v = random_reachable_mode(rng)
        lam_full = embed_odd(v)
        reflector = np.eye(5) - 2.0 * np.outer(lam_full, lam_full)
        target = reflector[:, 2]
        task = SynthesisTask(spectrum=FIVE_SITE, source=3, target=target, time=np.pi)
        h0 = SymTridiag(np.zeros(5), chain_from_spectrum(FIVE_SITE.values))
        chain_c, report_c = synthesis_flow_commutator(h0, task)
        assert report_c.status == "converged"
        assert report_c.chi >= 1 - 1e-6

        nv_task = NullVectorTask(spectrum=FIVE_SITE, target_null_vector=lam_full)
        chain_n, report_n = synthesis_flow_nullvector(nv_task)
        assert report_n.status == "converged"
        psi_c = produced_state(chain_c.offdiag, 3, np.pi)
        psi_n = produced_state(chain_n.offdiag, 3, np.pi)
        assert abs(np.vdot(psi_c, psi_n)) == pytest.approx(1.0, abs=1e-5)

    def test_overlap_history_monotone(self):
        rng = np.random.default_rng(31)
        v = random_reachable_mode(rng)
        lam_full = embed_odd(v)
        target = (np.eye(5) - 2.0 * np.outer(lam_full, lam_full))[:, 2]
        task = SynthesisTask(spectrum=FIVE_SITE, source=3, target=target, time=np.pi)
        h0 = SymTridiag(np.zeros(5), chain_from_spectrum(FIVE_SITE.values))
        _, report = synthesis_flow_commutator(h0, task)
        vals = np.array([row[1] for row in report.history])
        assert (np.diff(vals) >= -1e-13).all()

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(71)
        v = random_reachable_mode(rng)
        lam_full = embed_odd(v)
        target = (np.eye(5) - 2.0 * np.outer(lam_full, lam_full))[:, 2]
        task = SynthesisTask(spectrum=FIVE_SITE, source=3, target=target, time=np.pi)
        h0 = SymTridiag(np.zeros(5), chain_from_spectrum(FIVE_SITE.values))
        chain, _ = synthesis_flow_commutator(h0, task)
        assert np.linalg.eigvalsh(chain.to_dense()) == pytest.approx(
            FIVE_SITE.values, abs=1e-8)


class TestMirrorReduction:
    def test_fold_unfold_round_trip(self):
        rng = np.random.default_rng(13)
        half = rng.uniform(1.0, 5.0, size=5)
        assert fold_couplings(unfold_couplings(half)) == pytest.approx(half)

    def test_unfold_contains_half_spectrum(self):
        rng = np.random.default_rng(17)
        half = rng.uniform(1.0, 5.0, size=5)
        full = unfold_couplings(half)
        h_full = SymTridiag(np.zeros(11), full).to_dense()
        h_half = SymTridiag(np.zeros(6), half).to_dense()
        full_eigs = np.linalg.eigvalsh(h_full)
        for value in np.linalg.eigvalsh(h_half):
            assert np.min(np.abs(full_eigs - value)) < 1e-9

    def test_state_fold_round_trip(self):
        rng = np.random.default_rng(19)
        half = rng.normal(size=6)
        half /= np.linalg.norm(half)
        lifted = mirror_state_unfold(half)
        assert np.linalg.norm(lifted) == pytest.approx(1.0, abs=1e-12)
        assert mirror_target_fold(lifted) == pytest.approx(half)

    def test_fold_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            fold_couplings(np.array([1.0, 2.0, 3.0, 4.0]))

    def test_evolution_commutes_with_reduction(self):
        # evolving the folded state on the half chain matches folding the
        # full-chain evolution of the symmetric lift
        rng = np.random.default_rng(23)
        half = rng.uniform(1.0, 4.0, size=5)
        full = unfold_couplings(half)
        state_half = rng.normal(size=6)
        state_half /= np.linalg.norm(state_half)
        lifted = mirror_state_unfold(state_half)
        t = 0.7
        psi_full = produced_state_vector(full, lifted, t)
        psi_half = produced_state_vector(half, state_half, t)
        assert np.abs(mirror_target_fold_complex(psi_full) - psi_half).max() < 1e-10


def produced_state_vector(couplings, state, time):
    n = len(state)
    h = SymTridiag(np.zeros(n), np.asarray(couplings, dtype=float)).to_dense()
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * time)) @ (v.T @ state)


def mirror_target_fold_complex(state):
    re = mirror_target_fold(state.real)
    im = mirror_target_fold(state.imag)
    return re + 1j * im


class TestSignGauge:
    def test_gauge_preserves_magnitudes(self):
        rng = np.random.default_rng(37)
        couplings = rng.uniform(1.0, 4.0, size=8)
        signs = rng.choice([-1.0, 1.0], size=9)
        gauged = apply_sign_gauge(couplings, signs)
        assert np.abs(gauged) == pytest.approx(couplings)

    def test_gauge_fixes_produced_signs(self):
        design_target = np.zeros(9)
        design_target[0::2] = 1.0 / np.sqrt(5)
        couplings = chain_from_spectrum([-7.0, -5.0, -3.0, -1.0, 0.0,
                                         1.0, 3.0, 5.0, 7.0])
        psi = produced_state(couplings, 5, np.pi)
        signs = sign_gauge(psi, design_target)
        gauged = apply_sign_gauge(couplings, signs)
        psi_g = produced_state(gauged, 5, np.pi)
        support = np.abs(psi_g) > 1e-9
        aligned = np.real(psi_g[support]) * design_target[support]
        assert (aligned > 0).all() or (aligned < 0).all()


@pytest.fixture(scope="module")
def design():
    return wstate_chain(21)


class TestWstateChain:

    def test_full_chain_revival(self, design):
        target = np.zeros(21)
        target[0::2] = 1.0 / np.sqrt(11)
        psi = produced_state(design.couplings, design.source, design.time)
        assert abs(np.vdot(target, psi)) >= 0.999

    def test_half_chain_revival(self, design):
        assert design.half_overlap >= 0.999

    def test_full_and_half_solutions_agree(self, design):
        psi_full = produced_state(design.couplings, design.source, design.time)
        psi_half = produced_state(design.half_couplings, 1, design.time)
        lifted = mirror_state_unfold(psi_half)
        phase = np.vdot(lifted, psi_full)
        phase /= abs(phase)
        assert np.abs(psi_full - phase * lifted).max() < 1e-6

    def test_flow_hands_over_to_the_polish(self, design):
        flow = design.flow
        assert flow.status == "converged"
        assert flow.iterations < 100
        assert flow.polishes == [(flow.iterations, True)]
        # the record ends on the polished iterate, at the reported chi
        assert flow.history[-1][0] == flow.iterations
        assert flow.history[-1][1] == pytest.approx(flow.chi, abs=1e-12)

    def test_gauge_preserves_magnitudes(self, design):
        raw = np.abs(unfold_couplings(np.abs(design.half_couplings)))
        assert np.abs(design.couplings) == pytest.approx(raw, rel=1e-9)

    def test_commutator_flow_accepts_designed_chain(self, design):
        # the designed chain already solves the task, so the overlap flow
        # verifies it without taking a single step
        target = np.zeros(21)
        target[0::2] = 1.0 / np.sqrt(11)
        h = SymTridiag(np.zeros(21), design.couplings)
        vals = np.sort(np.linalg.eigvalsh(h.to_dense()))
        task = SynthesisTask(spectrum=Spectrum(values=tuple(vals)),
                             source=design.source, target=target, time=design.time)
        _, report = synthesis_flow_commutator(h, task)
        assert report.status == "converged"
        assert report.iterations == 0
        assert report.chi >= 0.999

    def test_smaller_size(self):
        design = wstate_chain(13)
        assert design.overlap >= 0.999
        assert design.half_overlap >= 0.999

    def test_rejects_incompatible_size(self):
        with pytest.raises(ValueError):
            wstate_chain(11)


class TestReflectionTarget:
    def test_reflection_maps_source_to_target(self):
        rng = np.random.default_rng(41)
        v = np.abs(rng.normal(size=3))
        target = np.zeros(5)
        target[0::2] = v / np.linalg.norm(v)
        lam = reflection_target(3, target)
        reflector = np.eye(5) - 2.0 * np.outer(lam, lam)
        phi = np.zeros(5)
        phi[2] = 1.0
        # the reflection reaches the target up to the alternating sign gauge
        gauged = target * np.array([1.0, 1.0, -1.0, 1.0, 1.0])
        assert reflector @ phi == pytest.approx(-gauged) or \
            reflector @ phi == pytest.approx(gauged)

    def test_alternating_gauge_relates_by_signs(self):
        target = np.zeros(5)
        target[0::2] = np.array([0.6, 0.64, 0.48])
        plain = target + np.eye(5)[0]
        plain /= np.linalg.norm(plain)
        alternating = reflection_target(1, target)
        assert alternating == pytest.approx(plain * [1, 1, -1, 1, 1], abs=1e-12)
        assert alternating[0] > 0

    def test_requires_odd_source(self):
        target = np.zeros(5)
        target[0] = 1.0
        with pytest.raises(ValueError):
            reflection_target(2, target)
