import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spinforge import isoflow
from spinforge.ghz_ising import dense_hamiltonian, ising_from_pst
from spinforge.isoflow import (
    GammaMatrix,
    _direction,
    _member,
    gamma_seed,
    interpolate_gamma,
    structure_residual,
    target_ladder,
    validate_seed,
    zy_ghz_overlap,
    zy_hamiltonian,
)
from spinforge.numerics import FlowStallError, isospectral_step, solve_affine
from spinforge.pst import standard_couplings


def parameter_system(x, feedback=0.0):
    """The direction system at ``x`` with its columns in the parameter layout.

    ``isoflow._system`` stores the columns in its LU factor's order; this
    puts them back in the order of the unknowns: the strict upper triangles
    of a and b, then the gamma rate.
    """
    rows, rhs = isoflow._system(x.to_dense(), x.gamma, feedback, 1.0)
    return rows[:, np.argsort(isoflow._pattern(x.n)[-1])], rhs


def family_member(n, gamma, seed=0):
    """Random matrix satisfying the band structure exactly."""
    rng = np.random.default_rng(seed)
    diag = rng.uniform(1, 3, (n + 1) // 2)
    diag = np.concatenate([diag, diag[: n // 2][::-1]])
    j = rng.uniform(0.5, 2, (n - 1 + 1) // 2)
    j = np.concatenate([j, j[: (n - 1) // 2][::-1]])
    return GammaMatrix(
        diag=diag, upper=j * (1 + gamma), lower=j * (1 - gamma), gamma=gamma
    )


def oracle_system(xd, gamma, feedback):
    """Dense reference for the direction system at ``xd``.

    Loops over the unit generators, forms dX = X a - b X with numpy from the
    band part of ``xd`` and reads off the off-band, mirror, ratio and
    gamma-rate functionals; the right-hand side reads the full ``xd``.
    """
    n = xd.shape[0]
    r = (1.0 - gamma) / (1.0 + gamma)

    def functionals(dx):
        off = [dx[i, j] for i in range(n) for j in range(n) if abs(i - j) >= 2]
        mirror_diag = [dx[k, k] - dx[n - 1 - k, n - 1 - k] for k in range(n // 2)]
        mirror_upper = [dx[k, k + 1] - dx[n - 2 - k, n - 1 - k] for k in range((n - 1) // 2)]
        ratio = [dx[k + 1, k] - r * dx[k, k + 1] for k in range(n - 1)]
        return np.array(off + mirror_diag + mirror_upper + ratio + [0.0])

    bands = np.triu(np.tril(xd, 1), -1)
    columns = []
    for side in ("a", "b"):
        for k, l in zip(*np.triu_indices(n, 1)):
            g = np.zeros((n, n))
            g[k, l], g[l, k] = 1.0, -1.0
            columns.append(functionals(bands @ g if side == "a" else -g @ bands))
    rate = np.zeros(columns[0].size)
    rate[-n:-1] = np.diag(bands, 1) * (2.0 / (1.0 + gamma) ** 2)
    rate[-1] = 1.0
    rhs = -feedback * functionals(xd)
    rhs[-1] = 1.0
    return np.column_stack(columns + [rate]), rhs


@st.composite
def band_members(draw):
    n = draw(st.integers(2, 9))
    gamma = draw(st.floats(0.0, 1.0))
    values = st.floats(0.5, 2.0)
    diag = draw(st.lists(values, min_size=(n + 1) // 2, max_size=(n + 1) // 2))
    j = draw(st.lists(values, min_size=n // 2, max_size=n // 2))
    diag = np.array(diag + diag[: n // 2][::-1])
    j = np.array(j + j[: (n - 1) // 2][::-1])
    return GammaMatrix(diag=diag, upper=j * (1 + gamma), lower=j * (1 - gamma), gamma=gamma)


class TestGammaMatrix:
    def test_dense_round_trip(self):
        x = family_member(5, 0.4)
        dense = x.to_dense()
        assert np.array_equal(np.diag(dense), x.diag)
        assert np.array_equal(np.diag(dense, 1), x.upper)
        assert np.array_equal(np.diag(dense, -1), x.lower)

    def test_ratio_property(self):
        x = family_member(4, 0.25)
        assert np.allclose(x.lower / x.upper, 0.75 / 1.25)

    def test_couplings_strip_the_deformation(self):
        x = family_member(4, 0.6, seed=3)
        assert np.allclose(x.couplings() * (1 + x.gamma), x.upper)

    def test_band_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GammaMatrix(diag=np.ones(3), upper=np.ones(3), lower=np.ones(2), gamma=0.0)

    def test_gamma_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            GammaMatrix(diag=np.ones(2), upper=[1.0], lower=[1.0], gamma=1.5)

    def test_broken_ratio_rejected(self):
        with pytest.raises(ValueError, match="structure"):
            GammaMatrix(diag=np.ones(3), upper=[1.0, 1.0], lower=[0.2, 0.2], gamma=0.0)


class TestSeeds:
    def test_hopping_endpoint_entries(self):
        x = gamma_seed(5, 0.0)
        assert np.array_equal(x.diag, np.full(5, 5.0))
        assert np.allclose(x.upper, standard_couplings(5).couplings)
        assert np.array_equal(x.upper, x.lower)

    def test_bidiagonal_endpoint_entries(self):
        x = gamma_seed(2, 1.0)
        assert np.allclose(x.to_dense(), [[np.sqrt(3), 2.0], [0.0, np.sqrt(3)]])

    @pytest.mark.parametrize("n", [1, 2, 5, 21])
    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_seeds_sit_on_the_ladder(self, n, gamma):
        assert validate_seed(gamma_seed(n, gamma)) < 1e-9

    def test_interior_gamma_has_no_seed(self):
        with pytest.raises(ValueError):
            gamma_seed(4, 0.3)

    def test_validation_catches_off_ladder_matrix(self):
        x = gamma_seed(4, 0.0)
        bad = GammaMatrix(
            diag=1.01 * x.diag, upper=1.01 * x.upper, lower=1.01 * x.lower, gamma=0.0
        )
        with pytest.raises(ValueError, match="ladder"):
            validate_seed(bad)


class TestGammaConstraints:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 21])
    def test_square_system(self, n):
        rows, rhs = parameter_system(gamma_seed(n, 0.0))
        assert rows.shape == (n * (n - 1) + 1,) * 2
        assert rhs.shape == (n * (n - 1) + 1,)

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_unique_direction_for_two_sites(self, gamma):
        rows, rhs = parameter_system(gamma_seed(2, gamma))
        assert np.linalg.matrix_rank(rows.toarray()) == 3
        sol = solve_affine(rows, rhs)
        assert sol[-1] == pytest.approx(1.0, abs=1e-10)

    def test_structured_point_has_homogeneous_structure_rows(self):
        _, rhs = parameter_system(family_member(5, 0.3), feedback=1.0)
        assert np.abs(rhs[:-1]).max() < 1e-12
        assert rhs[-1] == 1.0

    def test_mirror_violation_feeds_back_linearly(self):
        x = gamma_seed(4, 0.0)
        values = []
        for eps in (1e-4, 2e-4):
            diag = x.diag.copy()
            diag[0] += eps
            bent = GammaMatrix(diag=diag, upper=x.upper, lower=x.lower, gamma=0.0)
            _, rhs = parameter_system(bent, feedback=1.0)
            values.append(rhs[isoflow._pattern(4)[0].index("mirror_diag[0]")])
        assert values[0] == pytest.approx(-1e-4, rel=1e-9)
        assert values[1] / values[0] == pytest.approx(2.0, rel=1e-9)


class TestSparseAssembly:
    @settings(max_examples=60, deadline=None)
    @given(x=band_members(), feedback=st.floats(0.0, 1e3))
    def test_constraints_match_the_dense_oracle(self, x, feedback):
        got_rows, got_rhs = parameter_system(x, feedback)
        rows, rhs = oracle_system(x.to_dense(), x.gamma, feedback)
        assert scipy.sparse.issparse(got_rows)
        np.testing.assert_array_equal(got_rows.toarray(), rows)
        np.testing.assert_array_equal(got_rhs, rhs)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_matrix_reads_bands_and_rhs_reads_the_full_iterate(self, n):
        x = family_member(n, 0.4, seed=n)
        xd = x.to_dense() + 1e-4 * np.random.default_rng(n).normal(size=(n, n))
        got_rows, got_rhs = isoflow._system(xd, 0.4, 50.0, 1.0)
        rows, rhs = oracle_system(xd, 0.4, 50.0)
        np.testing.assert_array_equal(got_rows.toarray(), rows[:, isoflow._pattern(n)[-1]])
        np.testing.assert_array_equal(got_rhs, rhs)

    @pytest.mark.parametrize("n", [3, 8, 21])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
    def test_lu_direction_matches_min_norm_lstsq(self, n, gamma):
        # Members on the singular-value ladder: seeds at the endpoints and the
        # flowed member between them.  Random band members can be far worse
        # conditioned (1e7 at n = 21), where any two solvers part ways.
        x = gamma_seed(n, gamma) if gamma in (0.0, 1.0) else interpolate_gamma(n, 0.0, gamma)[0]
        rows, rhs = parameter_system(x, feedback=1.0)
        ref = np.linalg.lstsq(rows.toarray(), rhs, rcond=None)[0]
        assert np.abs(_direction(x.to_dense(), x.gamma, 1.0) - ref).max() <= 1e-10

    @pytest.mark.parametrize("n", [3, 8, 21])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
    def test_fixed_column_order_matches_colamd_bit_for_bit(self, n, gamma):
        # COLAMD reads the pattern only, so the order found once per n is the
        # order SuperLU would find at every step
        x = gamma_seed(n, gamma) if gamma in (0.0, 1.0) else interpolate_gamma(n, 0.0, gamma)[0]
        rows, rhs = parameter_system(x, feedback=1.0)
        colamd = scipy.sparse.linalg.splu(rows).solve(rhs)
        fixed = solve_affine(*isoflow._system(x.to_dense(), x.gamma, 1.0, 1.0))
        assert fixed.tobytes() == colamd[isoflow._pattern(n)[-1]].tobytes()

    def test_singular_factor_falls_back_to_lstsq(self):
        zero = GammaMatrix(diag=np.zeros(4), upper=np.zeros(3), lower=np.zeros(3), gamma=0.5)
        with pytest.raises(RuntimeError, match="singular"):
            scipy.sparse.linalg.splu(parameter_system(zero)[0])
        sol = _direction(zero.to_dense(), zero.gamma, 0.0)
        assert np.array_equal(sol, np.append(np.zeros(12), 1.0))


def generators(sol, n):
    """The antisymmetric a and b packed in a direction, and its gamma rate."""
    a, b = np.zeros((2, n, n))
    ki, li = np.triu_indices(n, 1)
    a[ki, li], b[ki, li] = np.split(sol[:-1], 2)
    return a - a.T, b - b.T, sol[-1]


class TestFlowDirection:
    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_direction_is_structured(self, n, gamma):
        x = gamma_seed(n, gamma)
        a, b, rate = generators(_direction(x.to_dense(), x.gamma, 0.0), n)
        assert rate == pytest.approx(1.0, abs=1e-9)
        xd = x.to_dense()
        dx = xd @ a - b @ xd
        off = dx - np.diag(np.diag(dx)) - np.diag(np.diag(dx, 1), 1)
        off -= np.diag(np.diag(dx, -1), -1)
        assert np.abs(off).max() < 1e-10
        assert np.abs(np.diag(dx) - np.diag(dx)[::-1]).max() < 1e-10


def unit_rate_step(x, delta):
    """One orthogonal step of length delta at x, projected onto the bands."""
    xd = x.to_dense()
    sol = _direction(xd, x.gamma, 0.0)
    return _member(isospectral_step(xd, delta * sol[:-1]), x.gamma + delta * sol[-1])


class TestFlowStepUnitary:
    def test_zero_generators_leave_matrix_alone(self):
        xd = gamma_seed(4, 1.0).to_dense()
        out = isospectral_step(xd, np.zeros(12))
        assert np.abs(out - xd).max() < 1e-14

    def test_offband_rows_are_the_step_derivative(self):
        # the direction system's unknowns use isospectral_step's packing
        x = family_member(5, 0.3, seed=4)
        p = np.random.default_rng(5).normal(size=20)
        h = 1e-4
        xd = x.to_dense()
        diff = (isospectral_step(xd, h * p) - isospectral_step(xd, -h * p)) / (2 * h)
        rows, _ = parameter_system(x)
        offband = np.abs(np.subtract.outer(np.arange(5), np.arange(5))) >= 2
        linear = rows[: offband.sum()] @ np.append(p, 0.0)
        assert np.abs(diff[offband] - linear).max() <= 1e-6

    def test_tiny_step_preserves_singular_values(self):
        out = unit_rate_step(gamma_seed(5, 0.0), 1e-5)
        drift = np.abs(out.singular_values() - target_ladder(5)).max()
        assert drift <= 1e-10

    def test_two_half_steps_match_full_step_to_second_order(self):
        x = gamma_seed(5, 0.0)
        gaps = []
        for delta in (1e-2, 1e-3):
            full = unit_rate_step(x, delta)
            again = unit_rate_step(unit_rate_step(x, delta / 2), delta / 2)
            gaps.append(np.abs(full.to_dense() - again.to_dense()).max())
        assert gaps[0] < 2e-4
        assert gaps[1] < 2e-6
        assert gaps[0] / gaps[1] == pytest.approx(100.0, rel=0.2)

    def test_leakage_is_second_order(self):
        x = gamma_seed(5, 0.0)
        delta = 1e-2
        sol = _direction(x.to_dense(), x.gamma, 0.0)
        dense = isospectral_step(x.to_dense(), delta * sol[:-1])
        off = dense.copy()
        for band in (-1, 0, 1):
            off -= np.diag(np.diag(dense, band), band)
        leak = np.abs(off).max()
        assert leak <= 1e-4
        sv = np.sort(np.linalg.svd(dense, compute_uv=False))
        assert np.abs(sv - target_ladder(5)).max() < 1e-12


class TestStructureResidual:
    def test_exact_member_measures_zero(self):
        assert structure_residual(family_member(6, 0.5)) < 1e-14

    def test_mirror_violation_measured(self):
        x = gamma_seed(4, 0.0)
        diag = x.diag.copy()
        diag[0] += 3e-4
        bent = GammaMatrix(diag=diag, upper=x.upper, lower=x.lower, gamma=0.0)
        assert structure_residual(bent) == pytest.approx(3e-4, rel=1e-9)

    def test_ratio_violation_measured(self):
        x = gamma_seed(4, 0.0)
        lower = x.lower.copy()
        lower[1] += 2e-4
        bent = GammaMatrix(diag=x.diag, upper=x.upper, lower=lower, gamma=0.0)
        assert structure_residual(bent) == pytest.approx(2e-4 / x.upper[1], rel=1e-6)


class TestZyHamiltonian:
    def test_matches_ising_limit(self):
        for n in (2, 4):
            h_zy = zy_hamiltonian(gamma_seed(n, 1.0))
            h_ising = dense_hamiltonian(ising_from_pst(standard_couplings(2 * n)))
            assert np.abs(h_zy - h_ising).max() < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_many_body_spectrum_is_signed_sums(self, seed):
        n = 3
        x = family_member(n, 0.4, seed=seed)
        sv = np.linalg.svd(x.to_dense(), compute_uv=False)
        signs = np.array(np.meshgrid(*[[-1, 1]] * n)).reshape(n, -1).T
        expected = np.sort(signs @ sv)
        got = np.linalg.eigvalsh(zy_hamiltonian(x))
        assert np.abs(expected - got).max() < 1e-10

    def test_size_gate(self):
        with pytest.raises(ValueError):
            zy_hamiltonian(gamma_seed(13, 0.0))

    def test_ising_endpoint_makes_ghz(self):
        assert zy_ghz_overlap(gamma_seed(3, 1.0)) >= 1 - 1e-9

    def test_six_site_overlap_never_exceeds_one(self):
        x, _ = interpolate_gamma(6, 0.0, 0.5)
        assert 0.999 <= zy_ghz_overlap(x) <= 1.0


class TestInterpolateGamma:
    def test_single_site_rejected_before_seeding(self):
        with pytest.raises(ValueError, match="two sites"):
            interpolate_gamma(1, 0.0, 0.5)

    def test_equal_endpoints_return_seed(self):
        x, trace = interpolate_gamma(5, 1.0, 1.0, step=1e-2)
        assert np.array_equal(x.to_dense(), gamma_seed(5, 1.0).to_dense())
        assert trace.rows == []

    def test_unitary_mode_hits_ladder_and_structure(self):
        x, trace = interpolate_gamma(5, 0.0, 0.7, step=1e-3)
        assert x.gamma == pytest.approx(0.7, abs=1e-9)
        assert np.abs(x.singular_values() - target_ladder(5)).max() <= 1e-6
        assert structure_residual(x) <= 1e-6
        assert len(trace.rows) >= 700

    def test_forty_one_sites_hold_ladder_and_structure(self):
        x, trace = interpolate_gamma(41, 0.0, 0.2)
        assert x.gamma == pytest.approx(0.2, abs=1e-9)
        assert np.abs(x.singular_values() - target_ladder(41)).max() <= 1e-6
        assert structure_residual(x) <= 1e-6
        assert len(trace.rows) >= 200

    def test_backward_flow_recovers_the_hopping_seed(self):
        x, _ = interpolate_gamma(5, 1.0, 0.0, step=1e-3)
        assert np.abs(x.to_dense() - gamma_seed(5, 0.0).to_dense()).max() <= 1e-5

    def test_flows_from_both_ends_meet_at_the_same_member(self):
        a, _ = interpolate_gamma(4, 0.0, 0.5, step=1e-3)
        b, _ = interpolate_gamma(4, 1.0, 0.5, step=1e-3)
        assert np.abs(a.to_dense() - b.to_dense()).max() <= 1e-6

    def test_endpoint_consistency_against_bidiagonal_seed(self):
        x, _ = interpolate_gamma(5, 0.0, 1.0, step=1e-3)
        target = gamma_seed(5, 1.0).singular_values()
        assert np.abs(x.singular_values() - target).max() <= 1e-5

    def test_interpolated_chain_builds_ghz(self):
        x, _ = interpolate_gamma(6, 0.0, 0.5, step=1e-3)
        assert zy_ghz_overlap(x) >= 0.999

    def test_trace_csv_layout(self):
        _, trace = interpolate_gamma(3, 0.0, 0.02, step=1e-2)
        lines = trace.to_csv().strip().split("\n")
        assert lines[0] == "step,gamma,sv_drift,structure_residual"
        assert len(lines) == len(trace.rows) + 1
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(0.01)

    def test_deterministic(self):
        _, t1 = interpolate_gamma(4, 0.0, 0.1, step=2e-3)
        _, t2 = interpolate_gamma(4, 0.0, 0.1, step=2e-3)
        assert t1.to_csv() == t2.to_csv()

    def test_step_budget_error_carries_trace(self):
        with pytest.raises(FlowStallError) as excinfo:
            interpolate_gamma(4, 0.0, 0.7, step=1e-3, max_steps=5)
        assert len(excinfo.value.trace.rows) == 5

    def test_seedless_start_rejected(self):
        with pytest.raises(ValueError):
            interpolate_gamma(4, 0.3, 0.7, step=1e-3)
