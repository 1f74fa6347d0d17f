"""Tests for the isospectral synthesis flows."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import least_squares, linprog

from spinforge import cloning, numerics, synthesis
from spinforge.cloning import (
    _candidate_spectra,
    clone_weight_state,
    default_offset,
    design_w_chain,
    profile_from_betas,
    symmetric_profile,
)
from spinforge.numerics import Chain, FlowStallError
from spinforge.synthesis import (
    NullVectorTask,
    ConvergenceState,
    synthesis_flow_nullvector,
    reflection_check,
    boundary_value,
    chain_from_spectrum,
    zero_mode,
    reflection_target,
    three_site_couplings,
    five_site_couplings,
    zero_mode_chain,
    produced_state,
    sign_gauge,
    unfold_couplings,
    mirror_target_fold,
    wstate_chain,
    isospectral_step,
    _lp_direction,
    _null_vector_system,
    _off_pattern_rows,
    _saturating_box,
)

FIVE_SITE = np.array([-5.0, -3.0, 0.0, 3.0, 5.0])


def dense(couplings):
    """Zero-diagonal tridiagonal matrix with ``couplings`` off the diagonal."""
    couplings = np.asarray(couplings, dtype=float)
    return np.diag(couplings, 1) + np.diag(couplings, -1)


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
            ConvergenceState(chi=1.5, iterations=0)

    def test_csv_round_trip(self):
        state = ConvergenceState(chi=0.5, iterations=2)
        state.trace.rows.append((0, 0.25, 0.1, 1e-12))
        state.trace.rows.append((1, 0.5, 0.09, 2e-12))
        lines = state.trace.to_csv().strip().splitlines()
        assert lines[0] == "iteration,chi,delta,off_band_residual"
        assert len(lines) == 3
        it, chi, delta, off = lines[2].split(",")
        assert int(it) == 1
        assert float(chi) == pytest.approx(0.5)
        assert float(delta) == pytest.approx(0.09)

    def test_polishes_is_a_declared_field(self):
        declared = {f.name: f for f in dataclasses.fields(ConvergenceState)}
        assert "polishes" in declared
        first = ConvergenceState(chi=0.5, iterations=0)
        second = ConvergenceState(chi=0.5, iterations=0)
        first.polishes.append((3, False))
        first.trace.rows.append((0, 0.5, 0.1, 0.0))
        assert second.polishes == []
        assert second.trace.rows == []


class TestTaskValidation:
    def test_null_vector_needs_unique_zero(self):
        bad = np.array([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0, 3.0])
        lam = np.zeros(7)
        lam[0] = 1.0
        with pytest.raises(ValueError):
            NullVectorTask(spectrum=bad, target_null_vector=lam)

    def test_null_vector_needs_symmetry(self):
        bad = np.array([-4.0, -3.0, 0.0, 3.0, 5.0])
        lam = np.zeros(5)
        lam[0] = 1.0
        with pytest.raises(ValueError):
            NullVectorTask(spectrum=bad, target_null_vector=lam)

    def test_null_vector_odd_support_only(self):
        lam = np.ones(5) / np.sqrt(5)
        with pytest.raises(ValueError):
            NullVectorTask(spectrum=FIVE_SITE, target_null_vector=lam)

    def test_nan_target_rejected(self):
        lam = embed_odd(np.array([1.0, np.nan, 1.0]))
        with pytest.raises(ValueError, match="normalised"):
            NullVectorTask(spectrum=FIVE_SITE, target_null_vector=lam)
        lam = embed_odd(np.array([1.0, 0.0, 0.0]))
        lam[1] = np.nan
        with pytest.raises(ValueError, match="vanish on even sites"):
            NullVectorTask(spectrum=FIVE_SITE, target_null_vector=lam)

    def test_reflectionless_spectrum_rejected(self):
        evens = np.array([-4.0, -2.0, 0.0, 2.0, 4.0])
        lam = embed_odd(np.array([1.0, -1.0, 1.0]) / np.sqrt(3))
        task = NullVectorTask(spectrum=evens, target_null_vector=lam)
        with pytest.raises(ValueError, match="reflection"):
            synthesis_flow_nullvector(task)

class TestChainConstruction:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lanczos_chain_matches_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        positive = np.sort(rng.uniform(0.5, 8.0, size=4))
        values = np.concatenate([-positive[::-1], [0.0], positive])
        couplings = chain_from_spectrum(values)
        assert (couplings > 0).all()
        h = dense(couplings)
        assert np.linalg.eigvalsh(h) == pytest.approx(values, abs=1e-8)

    @pytest.mark.parametrize("m, ladder", [(m, ladder) for m in range(5, 20, 2)
                                           for ladder in range(5)])
    def test_every_clone_ladder_is_rebuilt(self, m, ladder):
        # the base-21 ladder reaches 21^8 at m = 19; dense eigvalsh is
        # accurate to eps * |H|, so the bound is relative to the top value
        spectrum = _candidate_spectra(m)[ladder]
        couplings = chain_from_spectrum(spectrum)
        assert (couplings > 0).all()
        values = np.linalg.eigvalsh(dense(couplings))
        top = np.abs(spectrum).max()
        assert np.abs(values - spectrum).max() <= 1e-14 * top

    def test_asymmetric_spectrum_rejected(self):
        with pytest.raises(ValueError):
            chain_from_spectrum([-2.0, 0.0, 1.0])

    def test_zero_mode_annihilated(self):
        couplings = chain_from_spectrum(FIVE_SITE)
        lam = zero_mode(couplings)
        h = dense(couplings)
        assert np.abs(h @ lam).max() < 1e-12
        assert np.linalg.eigvalsh(h)[3:] == pytest.approx([3.0, 5.0], abs=1e-9)

    def test_even_chain_is_refused(self):
        # an even chain's block is square and, with nonzero couplings, invertible
        with pytest.raises(ValueError, match="odd number of sites"):
            zero_mode(np.ones(3))
        with pytest.raises(ValueError, match="odd number of sites"):
            synthesis.polish_null_vector_root(np.ones(3), [-2.0, -1.0, 1.0, 2.0],
                                              [1.0, 0.0, 0.0, 0.0])

    def test_positive_chain_mode_alternates(self):
        rng = np.random.default_rng(11)
        positive = np.sort(rng.uniform(0.5, 9.0, size=5))
        values = np.concatenate([-positive[::-1], [0.0], positive])
        lam = zero_mode(chain_from_spectrum(values))
        odd = lam[0::2]
        odd = odd * np.sign(odd[0])
        assert (np.sign(odd) == [(-1.0) ** k for k in range(6)]).all()


class TestReflectionCheck:
    def test_odd_integer_spectrum_reflects(self):
        chain = Chain(chain_from_spectrum(FIVE_SITE))
        assert reflection_check(chain, np.pi) <= 1e-9

    def test_even_spectrum_does_not_reflect(self):
        chain = Chain(chain_from_spectrum([-4.0, -2.0, 0.0, 2.0, 4.0]))
        assert reflection_check(chain, np.pi) > 0.5

    def test_zero_time_deviation(self):
        # at t = 0 the propagator is the identity, whose best-phase distance
        # from the reflection is twice the largest squared mode amplitude
        couplings = chain_from_spectrum(FIVE_SITE)
        chain = Chain(couplings)
        lam = zero_mode(couplings)
        expected = 2.0 * np.max(lam ** 2)
        value = reflection_check(chain, 0.0)
        assert value == pytest.approx(expected, rel=1e-10)
        assert value > 0.3

    def test_one_decomposition_per_check(self, monkeypatch):
        chain = Chain(chain_from_spectrum(FIVE_SITE))
        calls = []
        original = numerics.eig_sym_tridiag

        def counted(h):
            calls.append(h)
            return original(h)

        monkeypatch.setattr(numerics, "eig_sym_tridiag", counted)
        monkeypatch.setattr(synthesis, "eig_sym_tridiag", counted)
        assert reflection_check(chain, np.pi) <= 1e-9
        assert calls == [chain]


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
            h = dense(couplings)
            assert np.linalg.eigvalsh(h) == pytest.approx(
                [-5.0, -3.0, 0.0, 3.0, 5.0], abs=1e-9)
            lam = zero_mode(couplings, v)
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
        h = dense(couplings)
        assert np.linalg.eigvalsh(h) == pytest.approx([-3.0, 0.0, 3.0], abs=1e-12)
        lam = zero_mode(couplings, v)
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
            vals = np.linalg.eigvalsh(dense(couplings))
            top = np.abs(spectrum).max()
            assert np.abs(vals - spectrum).max() <= 1e-10 * top
            lam = zero_mode(couplings, target)
            assert np.abs(lam - target).max() < 1e-10

    def test_degenerate_trial_point_only_rejects_the_step(self):
        # LM tries a point on this base-21 ladder where the smallest positive
        # eigenvalue comes out as exactly 0; the start must go on from there
        m, target = spread_target([2, 3, 1, 1, 3, 3, 2, 3, 1])
        spectrum = _candidate_spectra(m)[4]
        couplings = zero_mode_chain(spectrum, target)
        assert couplings is not None
        vals = np.linalg.eigvalsh(dense(couplings))
        assert np.abs(vals - spectrum).max() <= 1e-10 * spectrum.max()
        lam = zero_mode(couplings, target)
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


# The clone-asym bench profiles and the zero-mode survey of the
# direct-solve change, as raw clone weights.
SURVEY_PROFILES = (
    "2,1,1", "1,1,1,1", "2,1,1,1,1", "3,1,2,1,1,2", "1,2,1,3,1,2,1",
    "0.855,0.723,0.294,0.213", "0.438,0.778,0.762,0.472", "0.68,0.842,0.16,0.584",
    "0.78,0.843,0.297,0.536", "0.43,0.339,0.818,0.604", "0.606,0.339,0.728,0.154",
    "3,3,1,2", "2,1,3,2", "0.674,0.992,0.187,0.556,0.457",
    "0.285,0.895,0.586,0.651,0.357", "0.6,0.76,0.279,0.338,0.393",
    "0.563,0.51,0.545,0.641,0.808", "0.762,0.645,0.822,0.442,0.416",
    "0.298,0.752,0.439,0.439,0.675", "3,2,1,3,2", "2,3,2,2,2",
    "0.984,0.136,0.211,0.518,0.968,0.225", "0.393,0.273,0.389,0.15,0.672,0.162",
    "0.978,0.236,0.366,0.147,0.742,0.459", "0.567,0.722,0.139,0.334,0.477,0.184",
    "0.174,0.104,0.728,0.483,0.897,0.227", "0.452,0.982,0.276,0.391,0.994,0.9",
    "1,3,3,1,3,3", "2,1,3,2,2,3",
)


def scipy_lm(system, x0):
    """MINPACK lmder through SciPy, with the tolerances, scaling and budget the numpy port uses."""
    sol = least_squares(lambda x: system(x)[0], x0, jac=lambda x: system(x)[1](),
                        method="lm", ftol=1e-15, xtol=1e-15, gtol=1e-15,
                        x_scale="jac", max_nfev=100 * np.size(x0))
    return sol.x, sol.fun


class TestLevenbergMarquardtRoots:
    """The numpy lmder port reaches the roots SciPy's MINPACK reaches."""

    @pytest.mark.parametrize("profile", SURVEY_PROFILES)
    def test_same_root_on_every_ladder(self, profile, monkeypatch):
        m, target = spread_target([float(w) for w in profile.split(",")])
        ladders = _candidate_spectra(m)
        ours = [zero_mode_chain(s, target) for s in ladders]
        monkeypatch.setattr(synthesis, "levenberg_marquardt", scipy_lm)
        theirs = [zero_mode_chain(s, target) for s in ladders]
        assert any(c is not None for c in theirs)
        for mine, ref in zip(ours, theirs):
            assert (mine is None) == (ref is None)
            if ref is not None:
                assert np.abs(mine - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_rootless_ladder_is_refused_by_the_gate(self, monkeypatch):
        m, target = spread_target([3, 1, 2, 1, 1, 2])
        original, ends = synthesis.levenberg_marquardt, []

        def recorded(*args, **kwargs):
            x, fun = original(*args, **kwargs)
            ends.append(np.abs(fun).max())
            return x, fun

        monkeypatch.setattr(synthesis, "levenberg_marquardt", recorded)
        assert zero_mode_chain(_candidate_spectra(m)[0], target) is None
        assert ends and min(ends) > 1e-10


class TestEachPointFactoredOnce:
    """Each point Levenberg-Marquardt evaluates is factored once.

    The solver's first argument is wrapped to count evaluations, so at a
    split residual/Jacobian convention the separate Jacobian's
    factorizations show up as a surplus.
    """

    @staticmethod
    def count_evaluations(monkeypatch, evaluations, returns):
        original = synthesis.levenberg_marquardt

        def counted(system, *rest):
            def evaluate(*args):
                evaluations.append(1)
                return system(*args)

            result = original(evaluate, *rest)
            returns.append(1)
            return result

        monkeypatch.setattr(synthesis, "levenberg_marquardt", counted)

    def test_spread_chain_solves_each_point_once(self, monkeypatch):
        # one eigensolve per evaluation: each start's gate reads the
        # residuals the solver returns; every ladder of the profile is tried
        m, target = spread_target([3, 1, 2, 1, 1, 2])
        evaluations, returns, solves = [], [], []
        original = synthesis.eig_sym_tridiag
        monkeypatch.setattr(synthesis, "eig_sym_tridiag",
                            lambda chain: solves.append(1) or original(chain))
        self.count_evaluations(monkeypatch, evaluations, returns)
        for spectrum in _candidate_spectra(m):
            zero_mode_chain(spectrum, target)
        assert len(returns) >= 3
        assert len(solves) == len(evaluations)

    def test_w21_polish_takes_one_eigensolve_per_point(self, monkeypatch):
        # the chain eigensolve is the only SVD of the block, either way round
        calls = []
        with monkeypatch.context() as patch:
            original = synthesis.polish_null_vector_root
            patch.setattr(synthesis, "polish_null_vector_root",
                          lambda *args: calls.append(args) or original(*args))
            wstate_chain(21)
        assert calls
        couplings, vals, target = calls[0]
        block = numerics.chain_block(couplings).shape
        evaluations, returns, svds, solves = [], [], [], []
        svd = np.linalg.svd

        def counted_svd(a, *args, **kwargs):
            if np.shape(a) in (block, block[::-1]):
                svds.append(1)
            return svd(a, *args, **kwargs)

        original = synthesis.eig_sym_tridiag
        monkeypatch.setattr(synthesis, "eig_sym_tridiag",
                            lambda chain: solves.append(1) or original(chain))
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        self.count_evaluations(monkeypatch, evaluations, returns)
        synthesis.polish_null_vector_root(couplings, vals, target)
        assert len(returns) == 1 and len(evaluations) > 1
        assert len(solves) == len(svds) == len(evaluations)


class TestIsospectralStep:
    # a zero bound gives zero generators, which leave the matrix alone
    @pytest.mark.parametrize("shape, bound", [((3, 4), 0.5), ((3, 3), 0.5),
                                              ((5, 2), 0.5), ((3, 4), 0.0)])
    def test_a_acts_on_columns_then_b_on_rows(self, shape, bound):
        rng = np.random.default_rng(sum(shape))
        rows, cols = shape
        x = rng.normal(size=shape)
        a, b = np.zeros((cols, cols)), np.zeros((rows, rows))
        a[np.triu_indices(cols, 1)] = upper_a = rng.uniform(-bound, bound, cols * (cols - 1) // 2)
        b[np.triu_indices(rows, 1)] = upper_b = rng.uniform(-bound, bound, rows * (rows - 1) // 2)
        expected = scipy.linalg.expm(b.T - b) @ x @ scipy.linalg.expm(a - a.T)
        out = isospectral_step(x, np.concatenate([upper_a, upper_b]))
        assert np.abs(out - expected).max() < 1e-12
        assert np.linalg.svd(out, compute_uv=False) == pytest.approx(
            np.linalg.svd(x, compute_uv=False), abs=1e-12)

    @pytest.mark.parametrize("shape", [(3, 4), (3, 3)])
    def test_central_difference_matches_off_pattern_rows(self, shape):
        # the null-vector flow's linearised pattern constraint reads the
        # generators in the step's packing: the blocks of 7 and 6 sites
        rng = np.random.default_rng(shape[1])
        x = rng.normal(size=shape)
        rows, mask = _off_pattern_rows(x)
        p = rng.normal(size=rows.shape[1])
        errors = []
        for h in (1e-3, 5e-4):
            diff = (isospectral_step(x, h * p) - isospectral_step(x, -h * p)) / (2 * h)
            errors.append(np.abs(diff[mask] - rows @ p).max())
        assert errors[1] <= 1e-5
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.05)


def lp_problem(shape, seed, rank=None):
    """Random LP of the flow's shape: rows (m, h^2), zero even-generator gradient.

    The flow's generator vector holds h(h+1)/2 odd parameters, then the
    h(h-1)/2 even ones, whose gradient entries are zero.  With ``rank``,
    the rows are a product of rank ``rank``.
    """
    m, n = shape
    rng = np.random.default_rng(seed)
    if rank is None:
        rows = rng.normal(size=shape)
    else:
        rows = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
    h = int(round(np.sqrt(n)))
    gradient = rng.normal(size=n)
    gradient[n - h * (h - 1) // 2:] = 0.0
    return rows, gradient, 0.1 * rng.uniform(0.01, 1.0)


def highs_vertex(rows, gradient, box):
    """The vertex HiGHS picks, solved exactly: its coordinates at a bound
    kept, the others from the equality constraints."""
    n = gradient.size
    res = linprog(-gradient, A_eq=rows, b_eq=np.zeros(rows.shape[0]),
                  bounds=[(-box, box)] * n, method="highs")
    assert res.success
    at = np.abs(res.x) == box
    p = np.where(at, res.x, 0.0)
    p[~at] = np.linalg.lstsq(rows[:, ~at], -rows[:, at] @ p[at], rcond=None)[0]
    return p


class TestLpDirection:
    """The numpy simplex returns the vertex HiGHS finds, exactly.

    HiGHS's own objective carries its feasibility tolerances (up to 1e-10
    relative at 210 x 225), so the value is compared with HiGHS's vertex
    solved exactly.
    """

    @pytest.mark.parametrize("shape, rank, seed", [
        ((2, 4), None, 0), ((2, 4), None, 1), ((2, 4), None, 2),
        ((20, 25), None, 0), ((20, 25), None, 1), ((20, 25), None, 2),
        ((90, 100), None, 0), ((90, 100), None, 1),
        ((210, 225), None, 0), ((210, 225), None, 1),
        ((20, 25), 12, 0), ((90, 100), 70, 0),
    ])
    def test_matches_highs(self, shape, rank, seed):
        rows, gradient, box = lp_problem(shape, seed, rank)
        p, gain = _lp_direction(rows, gradient, box)
        reference = highs_vertex(rows, gradient, box)
        assert gain == float(gradient @ p)
        assert gain == pytest.approx(float(gradient @ reference), rel=1e-12)
        at = np.abs(reference) == box
        assert np.array_equal(np.abs(p) == box, at)
        assert np.array_equal(p[at], reference[at])
        assert np.abs(rows @ p).max() <= 1e-13 * box * np.linalg.norm(rows, np.inf)
        assert np.abs(p).max() <= box
        free = gradient.size - np.linalg.matrix_rank(rows)
        assert np.count_nonzero(np.abs(p) == box) >= free

    @pytest.mark.parametrize("shape", [(2, 4), (20, 25), (210, 225)])
    def test_row_space_gradient_gains_nothing(self, shape):
        rows, _, box = lp_problem(shape, 3)
        y = np.random.default_rng(4).normal(size=shape[0])
        for gradient in (rows.T @ y, np.zeros(shape[1])):
            p, gain = _lp_direction(rows, gradient, box)
            assert gain == 0.0
            assert not p.any()

    def test_without_rows_every_coordinate_rides_its_bound(self):
        # the three-site half chain of the symmetric 3-clone design has no
        # off-pattern entry, so its LP has no rows; a zero gradient entry
        # leaves its coordinate free, and the vertex still puts it at a bound
        gradient = np.array([0.5, 0.0, -2.0, 1.0])
        p, gain = _lp_direction(np.zeros((0, 4)), gradient, 0.1)
        assert np.array_equal(np.abs(p), np.full(4, 0.1))
        assert np.array_equal(p[gradient != 0], 0.1 * np.sign(gradient[gradient != 0]))
        assert gain == pytest.approx(0.35, rel=1e-15)

    def test_row_space_gradient_stalls_the_flow(self, monkeypatch):
        # the flow's gradient projected onto the row space of its constraint
        solve = synthesis._lp_direction

        def row_space_only(rows, gradient, box):
            y = np.linalg.lstsq(rows.T, gradient, rcond=None)[0]
            return solve(rows, rows.T @ y, box)

        monkeypatch.setattr(synthesis, "_lp_direction", row_space_only)
        v = random_reachable_mode(np.random.default_rng(0))
        task = NullVectorTask(spectrum=FIVE_SITE, target_null_vector=embed_odd(v))
        _, report = synthesis_flow_nullvector(task)
        assert (report.status, report.iterations) == ("stalled", 1)


class TestNullVectorFlow:
    @pytest.mark.parametrize("seed", range(3))
    def test_reachable_targets_converge(self, seed):
        rng = np.random.default_rng(seed)
        v = random_reachable_mode(rng)
        task = NullVectorTask(spectrum=FIVE_SITE, target_null_vector=embed_odd(v))
        chain, report = synthesis_flow_nullvector(task)
        assert report.status == "converged"
        assert report.chi >= 1 - 1e-6
        assert np.sum(chain.couplings ** 2) == pytest.approx(34.0, abs=1e-6)
        h = dense(chain.couplings)
        assert np.linalg.eigvalsh(h) == pytest.approx(FIVE_SITE, abs=1e-8)

    def test_forbidden_target_stalls_on_boundary(self):
        v = np.array([1.0, -1.0, 1.0]) / np.sqrt(3)
        task = NullVectorTask(spectrum=FIVE_SITE, target_null_vector=embed_odd(v))
        chain, report = synthesis_flow_nullvector(task)
        assert report.status == "stalled"
        j = chain.couplings
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
        chis = np.array([row[1] for row in report.trace.rows])
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
        couplings = chain_from_spectrum(FIVE_SITE)
        lam = zero_mode(couplings)
        task = NullVectorTask(spectrum=FIVE_SITE, target_null_vector=lam)
        _, report = synthesis_flow_nullvector(task)
        assert report.status == "converged"
        assert report.iterations == 0

    def test_one_site_task_converges_at_once(self):
        task = NullVectorTask(spectrum=[0.0], target_null_vector=[1.0])
        chain, report = synthesis_flow_nullvector(task)
        assert (chain.n, report.status, report.iterations) == (1, "converged", 0)

    def test_off_band_residuals_recorded_small(self):
        rng = np.random.default_rng(21)
        v = random_reachable_mode(rng)
        task = NullVectorTask(spectrum=FIVE_SITE, target_null_vector=embed_odd(v))
        _, report = synthesis_flow_nullvector(task)
        offs = [row[3] for row in report.trace.rows]
        assert max(offs) <= 1e-8

    @pytest.mark.parametrize("tol", [-1.0, 0.0, 1.0, 2.0, np.nan, np.inf])
    def test_rejects_tolerance_outside_unit_interval(self, tol):
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
    """The flow hands over to the root polish once chi reaches 0.99, and
    retries it 1, 2, 4, 8, ... iterations later."""

    @pytest.mark.parametrize("task, attempts", [
        # consecutive ladder at n = 11: stalls below 0.99, never polished
        (clone_task([3, 1, 2, 1, 1, 2], 0), 0),
        # base-3 ladder: the handover at iteration 17 and its retries at
        # 18, 19, 21, 25, 33, 49, 81 and 145 are all refused
        (clone_task([3, 1, 2, 1, 1, 2], 1), 9),
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
        assert report.trace.rows == bare.trace.rows
        assert np.array_equal(chain.couplings, bare_chain.couplings)
        assert not any(accepted for _, accepted in report.polishes)
        if attempts is not None:
            assert len(report.polishes) == attempts

    def test_forty_one_sites_converge_in_few_iterations(self):
        design = wstate_chain(41)
        assert design.flow.status == "converged"
        assert design.flow.iterations < 100
        assert design.overlap >= 1 - 1e-9

    def test_forty_five_sites_land_on_the_second_retry_at_every_budget(self):
        # the budget bounds the flow but never moves its trajectory, so every
        # budget from the landing iteration on returns the same chain
        designs = [wstate_chain(45, budget=b) for b in (15, 20, 400)] + [wstate_chain(45)]
        for design in designs:
            assert design.flow.polishes == [(13, False), (14, False), (15, True)]
            assert np.array_equal(design.couplings, designs[0].couplings)
        with pytest.raises(FlowStallError, match="did not converge: budget"):
            wstate_chain(45, budget=14)

    def test_one_polish_site(self):
        # a static check: the flow polishes from one place in its loop, and
        # nothing else in the package calls the polish
        def calls(tree, name):
            return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]

        package = Path(synthesis.__file__).resolve().parent
        trees = {path.name: ast.parse(path.read_text(), str(path))
                 for path in sorted(package.glob("*.py"))}
        flow = next(node for node in trees["synthesis.py"].body
                    if getattr(node, "name", None) == "synthesis_flow_nullvector")
        assert len(calls(flow, "polish")) == 1
        assert sum(len(calls(tree, "polish_null_vector_root"))
                   for tree in trees.values()) == 1


class TestPolishJacobian:
    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
    def test_matches_central_differences(self, n):
        rng = np.random.default_rng(n)
        j = rng.uniform(0.5, 2.0, size=n - 1)
        lam = zero_mode(j)
        svs = numerics.eig_sym_tridiag(Chain(j))[0][n // 2 + 1:]
        # a nearby target and spectrum keep the residual away from zero
        target = lam.copy()
        target[0::2] += rng.normal(scale=0.05, size=(n + 1) // 2)
        target /= np.linalg.norm(target)
        vals = 1.01 * np.concatenate([-svs, [0.0], svs])
        system = _null_vector_system(vals, target)
        h = 1e-6
        numeric = np.column_stack([(system(j + h * e)[0] - system(j - h * e)[0])
                                   / (2.0 * h) for e in np.eye(n - 1)])
        analytic = system(j)[1]()
        assert analytic.shape == numeric.shape
        assert np.abs(analytic - numeric).max() <= 1e-6 * np.abs(analytic).max()


class TestReflectorCrossCheck:
    @pytest.mark.parametrize("seed", range(3))
    def test_cross_validates_with_null_vector_method(self, seed):
        # a chain whose zero mode is lam evolves the source into column
        # `source` of the reflector 1 - 2 lam lam^T, up to a global phase
        rng = np.random.default_rng(100 + seed)
        v = random_reachable_mode(rng)
        lam_full = embed_odd(v)
        reflector = np.eye(5) - 2.0 * np.outer(lam_full, lam_full)
        nv_task = NullVectorTask(spectrum=FIVE_SITE, target_null_vector=lam_full)
        chain_n, report_n = synthesis_flow_nullvector(nv_task)
        assert report_n.status == "converged"
        psi_n = produced_state(chain_n.couplings, 3)
        assert abs(np.vdot(reflector[:, 2], psi_n)) >= 1 - 1e-6


class TestMirrorReduction:
    def test_fold_unfold_round_trip(self):
        rng = np.random.default_rng(13)
        half = rng.uniform(1.0, 5.0, size=5)
        full = unfold_couplings(half)
        assert full == pytest.approx(full[::-1])
        # the centre pair strengthened by sqrt(2), then the left half inward
        folded = np.concatenate([[np.sqrt(2.0) * full[4]], full[:4][::-1]])
        assert folded == pytest.approx(half)

    def test_unfold_contains_half_spectrum(self):
        rng = np.random.default_rng(17)
        half = rng.uniform(1.0, 5.0, size=5)
        full = unfold_couplings(half)
        h_full = dense(full)
        h_half = dense(half)
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
    w, v = np.linalg.eigh(dense(couplings))
    return (v * np.exp(-1j * w * time)) @ (v.T @ state)


def mirror_target_fold_complex(state):
    re = mirror_target_fold(state.real)
    im = mirror_target_fold(state.imag)
    return re + 1j * im


UNIFORM_NINE = np.where(np.arange(9) % 2 == 0, 1.0 / np.sqrt(5), 0.0)

# Every design that gauges its chain: the W chains (full and half chain) and
# the clone-asym benchmark profiles with the symmetric 5- and 11-clone ones.
GAUGED_DESIGNS = {
    "W9": lambda: wstate_chain(9),
    "W13": lambda: wstate_chain(13),
    "W21": lambda: wstate_chain(21),
    "clone 2,1,1": lambda: design_w_chain(profile_from_betas([2, 1, 1])),
    "clone symmetric 4": lambda: design_w_chain(symmetric_profile(4)),
    "clone 2,1,1,1,1": lambda: design_w_chain(profile_from_betas([2, 1, 1, 1, 1])),
    "clone 3,1,2,1,1,2": lambda: design_w_chain(profile_from_betas([3, 1, 2, 1, 1, 2])),
    "clone 1,2,1,3,1,2,1": lambda: design_w_chain(
        profile_from_betas([1, 2, 1, 3, 1, 2, 1])),
    "clone symmetric 5": lambda: design_w_chain(symmetric_profile(5)),
    "clone symmetric 11": lambda: design_w_chain(symmetric_profile(11)),
}


class TestSignGauge:
    def test_gauge_preserves_magnitudes(self):
        rng = np.random.default_rng(37)
        couplings = rng.uniform(1.0, 4.0, size=8)
        gauged, _ = sign_gauge(couplings, 5, UNIFORM_NINE)
        assert np.abs(gauged) == pytest.approx(couplings)

    def test_gauge_fixes_produced_signs(self):
        couplings = chain_from_spectrum([-7.0, -5.0, -3.0, -1.0, 0.0,
                                         1.0, 3.0, 5.0, 7.0])
        gauged, psi_g = sign_gauge(couplings, 5, UNIFORM_NINE)
        assert np.abs(psi_g - produced_state(gauged, 5)).max() <= 1e-15
        support = np.abs(psi_g) > 1e-9
        aligned = np.real(psi_g[support]) * UNIFORM_NINE[support]
        assert (aligned > 0).all() or (aligned < 0).all()

    @pytest.mark.parametrize("design", GAUGED_DESIGNS)
    def test_returned_state_is_the_gauged_chains_state(self, monkeypatch, design):
        """S psi s_source, formed without a second evolution, is the state a
        fresh evolution of the gauged couplings produces."""
        calls = []

        def recorded(couplings, source, target):
            gauged, state = sign_gauge(couplings, source, target)
            calls.append((gauged, source, state))
            return gauged, state

        monkeypatch.setattr(synthesis, "sign_gauge", recorded)
        monkeypatch.setattr(cloning, "sign_gauge", recorded)
        GAUGED_DESIGNS[design]()
        assert calls
        for gauged, source, state in calls:
            assert np.abs(state - produced_state(gauged, source)).max() <= 1e-15

    @pytest.mark.parametrize("source", [0, 6])
    def test_source_outside_the_chain_refused(self, source):
        # source 0 once wrapped round to the column of site 5
        couplings = [1.0, 2.0, 2.0, 1.0]
        with pytest.raises(ValueError, match="basis index"):
            produced_state(couplings, source)
        with pytest.raises(ValueError, match="basis index"):
            sign_gauge(couplings, source, np.ones(5))


@pytest.fixture(scope="module")
def design():
    return wstate_chain(21)


class TestWstateChain:

    def test_full_chain_revival(self, design):
        target = np.zeros(21)
        target[0::2] = 1.0 / np.sqrt(11)
        psi = produced_state(design.couplings, (21 + 1) // 2)
        assert abs(np.vdot(target, psi)) >= 0.999

    def test_half_chain_revival(self, design):
        assert design.half_overlap >= 0.999

    def test_full_and_half_solutions_agree(self, design):
        psi_full = produced_state(design.couplings, (21 + 1) // 2)
        psi_half = produced_state(design.half_couplings, 1)
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
        assert flow.trace.rows[-1][0] == flow.iterations
        assert flow.trace.rows[-1][1] == pytest.approx(flow.chi, abs=1e-12)

    def test_gauge_preserves_magnitudes(self, design):
        raw = np.abs(unfold_couplings(np.abs(design.half_couplings)))
        assert np.abs(design.couplings) == pytest.approx(raw, rel=1e-9)

    def test_smaller_size(self):
        design = wstate_chain(13)
        assert design.overlap >= 0.999
        assert design.half_overlap >= 0.999

    def test_rejects_incompatible_size(self):
        with pytest.raises(ValueError):
            wstate_chain(11)

    def test_missed_revival_raises_with_the_flow_trace(self, monkeypatch):
        # a flow stopped at chi >= 0.99 leaves a W9 chain that revives to 0.9686
        monkeypatch.setattr(synthesis, "_CONVERGED_CHI", 0.99)
        with pytest.raises(FlowStallError) as excinfo:
            wstate_chain(9, tol=0.01)
        assert str(excinfo.value) == (
            "revival check: 1 - overlap = 3.1e-02 exceeds tol = 1.0e-02")
        trace = excinfo.value.trace
        assert trace.header == "iteration,chi,delta,off_band_residual"
        assert len(trace.rows) == 11 and trace.rows[-1][1] >= 0.99

    @pytest.mark.parametrize("n", [5, 9, 21])
    def test_tolerance_never_moves_the_couplings(self, n):
        # tol judges the finished chain only: the flow runs to its own stop
        couplings = [wstate_chain(n, tol=tol).couplings
                     for tol in (1e-12, 1e-6, 1e-3, 0.05, 0.5)]
        assert all(np.array_equal(c, couplings[0]) for c in couplings[1:])

    def test_revival_message_reads_the_shortfall(self):
        # W17 revives to within one rounding of 1, which a tol of 1e-16 refuses
        with pytest.raises(FlowStallError, match=r"^revival check: 1 - overlap = "
                           r"\d\.\de-16 exceeds tol = 1\.0e-16$"):
            wstate_chain(17, tol=1e-16)


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

    @pytest.mark.parametrize("source", [-1, 0, 7])
    def test_source_outside_the_chain_refused(self, source):
        # -1 once named site 4 from the end, an even site, and 7 ran past
        # the end into numpy's bare IndexError
        target = np.zeros(5)
        target[0::2] = 1.0 / np.sqrt(3.0)
        with pytest.raises(ValueError, match=rf"source must be a site in 1\.\.5, got {source}"):
            reflection_target(source, target)

    @pytest.mark.parametrize("source", [3.0, True])
    def test_source_that_is_not_an_integer_refused(self, source):
        target = np.zeros(5)
        target[0::2] = 1.0 / np.sqrt(3.0)
        with pytest.raises(ValueError, match="source must be a site in 1..5"):
            reflection_target(source, target)
        assert reflection_target(np.int64(3), target) == pytest.approx(
            reflection_target(3, target))
