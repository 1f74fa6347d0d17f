import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import ghz_overlap, spin_hamiltonian
from spinforge.ghz_ising import overlap_estimate
from spinforge.isoflow import (
    GammaMatrix,
    _ladder_system,
    _mirror_classes,
    gamma_seed,
    interpolate_gamma,
    structure_residual,
    target_ladder,
    validate_seed,
    zy_ghz_overlap,
)
from spinforge.numerics import FlowStallError
from spinforge.pst import standard_couplings


def family_member(n, gamma, seed=0):
    """Random matrix satisfying the band structure exactly."""
    rng = np.random.default_rng(seed)
    diag = rng.uniform(1, 3, (n + 1) // 2)
    diag = np.concatenate([diag, diag[: n // 2][::-1]])
    j = rng.uniform(0.5, 2, (n - 1 + 1) // 2)
    j = np.concatenate([j, j[: (n - 1) // 2][::-1]])
    return GammaMatrix(diag=diag, couplings=j, gamma=gamma)


def mirror_classes(x):
    """The n free values of a family member: the diagonal's first half, then
    the upper band's."""
    return np.concatenate([x.diag[: (x.n + 1) // 2], x.upper[: x.n // 2]])


def ratio(gamma):
    return (1.0 - gamma) / (1.0 + gamma)


def gamma_rate(x):
    """The Newton system at ``x`` and the rate of sigma in gamma.

    With lower = r upper, d sigma_a / d gamma = r'(gamma) sum_k U_k+1,a V_ka
    upper_k; the tangent of the family is J t = -rate.
    """
    theta, expand = mirror_classes(x), _mirror_classes(x.n)
    xd, _, jacobian = _ladder_system(theta, expand, ratio(x.gamma))
    u, _, vt = np.linalg.svd(xd)
    u, v = u[:, ::-1], vt[::-1].T
    rate = -2.0 / (1.0 + x.gamma) ** 2 * (u[1:] * v[:-1]).T @ np.diag(xd, 1)
    return theta, expand, jacobian, rate


def band_rate(x):
    """d X / d gamma along the family at the member ``x``, as a dense matrix."""
    n = x.n
    _, expand, jacobian, rate = gamma_rate(x)
    bands = expand @ np.linalg.solve(jacobian, -rate)
    upper = np.diag(x.to_dense(), 1)
    lower = -2.0 / (1.0 + x.gamma) ** 2 * upper + ratio(x.gamma) * bands[n:]
    return np.diag(bands[:n]) + np.diag(bands[n:], 1) + np.diag(lower, -1)


def oracle_system(x):
    """Dense reference for the Newton system at ``x``.

    Builds the matrix and one unit band perturbation per mirror class entry
    by entry, and reads d sigma_a as the full gradient u_a v_a^T against
    each perturbation.
    """
    n, r = x.n, ratio(x.gamma)
    theta = mirror_classes(x)
    xd, unit = np.zeros((n, n)), np.zeros((n, n, n))
    for i in range(n):
        c = min(i, n - 1 - i)
        xd[i, i] = theta[c]
        unit[c, i, i] += 1.0
    for k in range(n - 1):
        c = (n + 1) // 2 + min(k, n - 2 - k)
        xd[k, k + 1], xd[k + 1, k] = theta[c], r * theta[c]
        unit[c, k, k + 1] += 1.0
        unit[c, k + 1, k] += r
    u, s, vt = np.linalg.svd(xd)
    u, s, v = u[:, ::-1], s[::-1], vt[::-1].T
    jacobian = np.array([[np.sum(np.outer(u[:, a], v[:, a]) * unit[c]) for c in range(n)]
                         for a in range(n)])
    return xd, s - target_ladder(n), jacobian


@st.composite
def band_members(draw):
    n = draw(st.integers(2, 9))
    gamma = draw(st.floats(0.0, 1.0))
    values = st.floats(0.5, 2.0)
    diag = draw(st.lists(values, min_size=(n + 1) // 2, max_size=(n + 1) // 2))
    j = draw(st.lists(values, min_size=n // 2, max_size=n // 2))
    diag = np.array(diag + diag[: n // 2][::-1])
    j = np.array(j + j[: (n - 1) // 2][::-1])
    return GammaMatrix(diag=diag, couplings=j, gamma=gamma)


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
        assert np.array_equal(x.upper, x.couplings * (1 + 0.6))
        assert np.array_equal(x.lower, x.couplings * (1 - 0.6))

    def test_band_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GammaMatrix(diag=np.ones(3), couplings=np.ones(3), gamma=0.0)

    def test_gamma_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            GammaMatrix(diag=np.ones(2), couplings=[1.0], gamma=1.5)

    @pytest.mark.parametrize("band", ["diag", "upper"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_band_rejected(self, band, value):
        # the structure gate cannot catch these: inf - inf makes its
        # residual NaN, and NaN > STRUCTURE_GATE is false; a non-finite
        # coupling is first seen in the upper band
        fields = {"diag": np.ones(3), "couplings": np.ones(2)}
        fields["diag" if band == "diag" else "couplings"][1] = value
        with pytest.raises(ValueError, match=f"the {band} band must be finite"):
            GammaMatrix(**fields, gamma=0.0)


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
        bad = GammaMatrix(diag=1.01 * x.diag, couplings=1.01 * x.couplings, gamma=0.0)
        with pytest.raises(ValueError, match="ladder"):
            validate_seed(bad)


class TestGammaConstraints:
    """The Newton system: n mirror classes against n singular values."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 21])
    def test_square_system(self, n):
        x = gamma_seed(n, 0.0)
        expand = _mirror_classes(n)
        assert expand.shape == (2 * n - 1, n)
        _, miss, jacobian = _ladder_system(mirror_classes(x), expand, 1.0)
        assert jacobian.shape == (n, n)
        assert miss.shape == (n,)

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_unique_direction_for_two_sites(self, gamma):
        x = gamma_seed(2, gamma)
        _, miss, jacobian = _ladder_system(mirror_classes(x), _mirror_classes(2),
                                           ratio(gamma))
        assert np.linalg.matrix_rank(jacobian) == 2
        assert np.abs(np.linalg.solve(jacobian, miss)).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 8])
    def test_classes_rebuild_the_member(self, n):
        x = family_member(n, 0.3, seed=n)
        xd, miss, _ = _ladder_system(mirror_classes(x), _mirror_classes(n), ratio(0.3))
        assert np.abs(xd - x.to_dense()).max() <= 1e-15
        assert np.abs(miss - (x.singular_values() - target_ladder(n))).max() <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("gamma", [0.0, 0.4, 1.0])
    def test_jacobian_matches_central_differences(self, n, gamma):
        x = family_member(n, gamma, seed=10 * n)
        theta, expand = mirror_classes(x), _mirror_classes(n)
        _, _, jacobian = _ladder_system(theta, expand, ratio(gamma))
        h = 1e-6
        columns = []
        for c in range(n):
            e = np.zeros(n)
            e[c] = h
            plus = _ladder_system(theta + e, expand, ratio(gamma))[1]
            minus = _ladder_system(theta - e, expand, ratio(gamma))[1]
            columns.append((plus - minus) / (2 * h))
        assert np.abs(jacobian - np.column_stack(columns)).max() <= 1e-7

    def test_structured_point_has_homogeneous_structure_rows(self):
        # the classes carry the mirror and ratio structure, so a Newton step
        # from a structured point leaves it exact: there is nothing to feed back
        x = family_member(5, 0.3)
        theta, expand = mirror_classes(x), _mirror_classes(5)
        xd, miss, jacobian = _ladder_system(theta, expand, ratio(0.3))
        assert structure_residual(x) < 1e-15
        assert np.abs(miss).max() > 1.0
        stepped, _, _ = _ladder_system(theta - np.linalg.solve(jacobian, miss), expand,
                                       ratio(0.3))
        member = GammaMatrix(diag=np.diag(stepped), couplings=np.diag(stepped, 1) / 1.3,
                             gamma=0.3)
        assert structure_residual(member) < 1e-15

    def test_mirror_violation_feeds_back_linearly(self):
        # a mirror-symmetric member has mirror-symmetric singular vectors, so
        # bending one diagonal end moves sigma by half its class's column
        x = gamma_seed(4, 0.0)
        _, _, jacobian = _ladder_system(mirror_classes(x), _mirror_classes(4), 1.0)
        values = []
        for eps in (1e-4, 2e-4):
            diag = x.diag.copy()
            diag[0] += eps
            bent = GammaMatrix(diag=diag, couplings=x.couplings, gamma=0.0)
            values.append(bent.singular_values() - target_ladder(4))
        assert values[0] == pytest.approx(1e-4 * jacobian[:, 0] / 2, rel=1e-3)
        assert values[1] / values[0] == pytest.approx(np.full(4, 2.0), rel=1e-4)


class TestSparseAssembly:
    """The Newton system reads each singular value's gradient u_a v_a^T only
    at the 3n - 2 band entries of X and sums it over the mirror classes."""

    @settings(max_examples=60, deadline=None)
    @given(x=band_members())
    def test_constraints_match_the_dense_oracle(self, x):
        xd, miss, jacobian = _ladder_system(mirror_classes(x), _mirror_classes(x.n),
                                            ratio(x.gamma))
        ref_xd, ref_miss, ref_jacobian = oracle_system(x)
        np.testing.assert_array_equal(xd, ref_xd)
        np.testing.assert_array_equal(miss, ref_miss)
        assert np.abs(jacobian - ref_jacobian).max() <= 1e-13

    @pytest.mark.parametrize("n", [3, 8, 21])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
    def test_lu_direction_matches_min_norm_lstsq(self, n, gamma):
        # the corrector's LU solve is the least-squares solution only where
        # the Jacobian is nonsingular; members on the ladder, seeds at the
        # endpoints and the continued member between them, are such points
        x = gamma_seed(n, gamma) if gamma in (0.0, 1.0) else interpolate_gamma(n, 0.0, gamma)[0]
        _, _, jacobian, rate = gamma_rate(x)
        assert jacobian.shape == (n, n)
        ref = np.linalg.lstsq(jacobian, -rate, rcond=None)[0]
        assert np.abs(np.linalg.solve(jacobian, -rate) - ref).max() <= 1e-10


class TestFlowDirection:
    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_direction_is_structured(self, n, gamma):
        # the tangent of the family: mirror-symmetric bands whose ratio moves
        # with gamma, and singular values that hold to first order
        x = gamma_seed(n, gamma)
        dx = band_rate(x)
        assert np.array_equal(dx, np.triu(np.tril(dx, 1), -1))
        for band in (-1, 0, 1):
            assert np.abs(np.diag(dx, band) - np.diag(dx, band)[::-1]).max() < 1e-10
        dr = -2.0 / (1.0 + gamma) ** 2
        lower = dr * x.upper + ratio(gamma) * np.diag(dx, 1)
        assert np.abs(np.diag(dx, -1) - lower).max() < 1e-14
        u, _, vt = np.linalg.svd(x.to_dense())
        assert np.abs(np.diag(u.T @ dx @ vt.T)).max() < 1e-10
        theta, expand, jacobian, rate = gamma_rate(x)
        delta = -1e-4 if gamma == 1.0 else 1e-4
        misses = [np.abs(_ladder_system(theta + h * np.linalg.solve(jacobian, -rate),
                                        expand, ratio(gamma + h))[1]).max()
                  for h in (delta, delta / 2)]
        assert misses[0] <= 1e-6
        assert misses[0] / misses[1] == pytest.approx(4.0, rel=0.05)


class TestStructureResidual:
    def test_exact_member_measures_zero(self):
        assert structure_residual(family_member(6, 0.5)) < 1e-14

    def test_mirror_violation_measured(self):
        x = gamma_seed(4, 0.0)
        diag = x.diag.copy()
        diag[0] += 3e-4
        bent = GammaMatrix(diag=diag, couplings=x.couplings, gamma=0.0)
        assert structure_residual(bent) == pytest.approx(3e-4, rel=1e-9)

    def test_coupling_violation_measured_on_the_upper_band(self):
        # the residual reads the bands, so a bent coupling counts (1 + gamma) times
        x = interpolate_gamma(4, 0.0, 0.5)[0]
        couplings = x.couplings.copy()
        couplings[0] += 2e-4
        bent = GammaMatrix(diag=x.diag, couplings=couplings, gamma=0.5)
        assert structure_residual(bent) == pytest.approx(3e-4, rel=1e-9)


class TestZyHamiltonian:
    """The spin Hamiltonian of a family member x has X fields x.diag, ZZ
    couplings on the upper band and YY couplings on the lower."""

    def test_matches_ising_limit(self):
        for n in (2, 4):
            seed = gamma_seed(n, 1.0)
            chain = standard_couplings(2 * n)
            zy = spin_hamiltonian(n, x=seed.diag, zz=seed.upper, yy=seed.lower)
            ising = spin_hamiltonian(n, x=chain.couplings[0::2], zz=chain.couplings[1::2])
            assert np.abs(zy - ising).max() < 1e-12
            assert zy_ghz_overlap(seed) == overlap_estimate(chain)

    @pytest.mark.parametrize("seed", range(3))
    def test_many_body_spectrum_is_signed_sums(self, seed):
        n = 3
        x = family_member(n, 0.4, seed=seed)
        sv = np.linalg.svd(x.to_dense(), compute_uv=False)
        signs = np.array(np.meshgrid(*[[-1, 1]] * n)).reshape(n, -1).T
        expected = np.sort(signs @ sv)
        got = np.linalg.eigvalsh(spin_hamiltonian(n, x=x.diag, zz=x.upper, yy=x.lower))
        assert np.abs(expected - got).max() < 1e-10

    @pytest.mark.parametrize("n", range(2, 9))
    def test_overlap_matches_dense_evolution(self, n):
        for gamma, seed in ((0.0, n), (0.3, n + 10), (0.8, n + 20)):
            x = family_member(n, gamma, seed=seed)
            assert abs(zy_ghz_overlap(x) - ghz_overlap(x.diag, x.upper, x.lower)) < 1e-12

    def test_twenty_one_site_member_makes_ghz(self):
        # the member design gamma writes at n = 21, past any dense evolution
        x, _ = interpolate_gamma(21, 0.0, 0.7)
        assert 1 - 1e-11 <= zy_ghz_overlap(x) <= 1.0

    def test_ising_endpoint_makes_ghz(self):
        assert zy_ghz_overlap(gamma_seed(3, 1.0)) >= 1 - 1e-9

    def test_six_site_overlap_never_exceeds_one(self):
        x, _ = interpolate_gamma(6, 0.0, 0.5)
        assert 0.999 <= zy_ghz_overlap(x) <= 1.0


# Members the Toda-like flow of the earlier implementation reached (step
# 1e-3 from gamma = 0): the first halves of the diagonal and of the upper
# band.  Its bands are mirror-symmetric to 1e-14 and its integration error
# is about 1e-12 at n = 6 and 5e-11 at n = 21.
FLOW_MEMBERS = {
    (6, 0.5): (
        [5.375964433689121, 5.674020796566159, 5.959221511924601],
        [3.5937333131793077, 4.325856783971741, 4.499999999999717],
    ),
    (21, 0.7): (
        [14.123150877539747, 14.773751376553243, 16.200276684842382,
         17.489246020265423, 18.518678664482298, 19.327626545243035,
         19.953575805299664, 20.421034449378915, 20.745575552370088,
         20.936812404296575, 21.000000000001936],
        [10.310721445689323, 12.921961863487816, 14.323613587700578,
         15.327437585122988, 16.10570419655634, 16.712432422353746,
         17.175082989179323, 17.51038632622818, 17.72882323250142,
         17.83659454481003],
    ),
}


def assert_on_ladder(x):
    n = x.n
    assert np.abs(x.singular_values() - target_ladder(n)).max() <= 1e-12 * (2 * n - 1)
    assert structure_residual(x) <= 1e-15


class TestInterpolateGamma:
    def test_single_site_rejected_before_seeding(self):
        with pytest.raises(ValueError, match="two sites"):
            interpolate_gamma(1, 0.0, 0.5)

    def test_equal_endpoints_return_seed(self):
        x, trace = interpolate_gamma(5, 1.0, 1.0)
        assert np.array_equal(x.to_dense(), gamma_seed(5, 1.0).to_dense())
        assert trace.rows == []

    def test_unitary_mode_hits_ladder_and_structure(self):
        x, trace = interpolate_gamma(5, 0.0, 0.7)
        assert x.gamma == 0.7
        assert np.abs(x.singular_values() - target_ladder(5)).max() <= 1e-6
        assert structure_residual(x) <= 1e-6
        assert trace.rows[-1][1] == 0.7

    def test_forty_one_sites_hold_ladder_and_structure(self):
        x, trace = interpolate_gamma(41, 0.0, 0.2)
        assert x.gamma == 0.2
        assert np.abs(x.singular_values() - target_ladder(41)).max() <= 1e-6
        assert structure_residual(x) <= 1e-6
        assert [row[1] for row in trace.rows] == sorted(row[1] for row in trace.rows)

    @pytest.mark.parametrize("n, gamma", sorted(FLOW_MEMBERS))
    def test_matches_the_flow_members(self, n, gamma):
        diag_half, upper_half = (np.array(v) for v in FLOW_MEMBERS[n, gamma])
        diag = np.concatenate([diag_half, diag_half[: n // 2][::-1]])
        upper = np.concatenate([upper_half, upper_half[: (n - 1) // 2][::-1]])
        x, _ = interpolate_gamma(n, 0.0, gamma)
        scale = 1e-10 * diag.max()
        assert np.abs(x.diag - diag).max() <= scale
        assert np.abs(x.upper - upper).max() <= scale
        assert np.abs(x.lower - ratio(gamma) * upper).max() <= scale

    @pytest.mark.parametrize("n", range(2, 31))
    @pytest.mark.parametrize("ends", [(0.0, 1.0), (1.0, 0.0)], ids=["up", "down"])
    def test_ladder_and_structure_hold_across_the_range(self, n, ends):
        x, trace = interpolate_gamma(n, *ends)
        assert x.gamma == ends[1]
        assert_on_ladder(x)
        assert max(row[2] for row in trace.rows) <= 1e-12 * (2 * n - 1)
        # each member's bands are built mirror-symmetric from its classes
        assert [row[3] for row in trace.rows] == [0.0] * len(trace.rows)

    def test_forty_nine_sites_cross_the_whole_range(self):
        # the whole range at a size where other step rules met an exactly
        # singular Jacobian
        x, _ = interpolate_gamma(49, 0.0, 1.0)
        assert_on_ladder(x)

    def test_singular_jacobian_halves_the_step(self, monkeypatch):
        plain, plain_trace = interpolate_gamma(6, 0.0, 0.5)
        solve, calls = np.linalg.solve, []

        def first_call_singular(a, b):
            calls.append(1)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", first_call_singular)
        x, trace = interpolate_gamma(6, 0.0, 0.5)
        assert trace.rows[0][1] == plain_trace.rows[0][1] / 2
        assert np.abs(x.to_dense() - plain.to_dense()).max() <= 1e-12

    def test_step_collapse_is_a_stall(self, monkeypatch):
        def always_singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", always_singular)
        with pytest.raises(FlowStallError, match="step collapsed") as excinfo:
            interpolate_gamma(6, 0.0, 0.5)
        assert excinfo.value.trace.rows == []

    def test_backward_flow_recovers_the_hopping_seed(self):
        x, _ = interpolate_gamma(5, 1.0, 0.0)
        assert np.abs(x.to_dense() - gamma_seed(5, 0.0).to_dense()).max() <= 1e-5

    def test_flows_from_both_ends_meet_at_the_same_member(self):
        a, _ = interpolate_gamma(4, 0.0, 0.5)
        b, _ = interpolate_gamma(4, 1.0, 0.5)
        assert np.abs(a.to_dense() - b.to_dense()).max() <= 1e-12 * 7

    def test_both_ends_meet_at_twenty_one_sites(self):
        a, _ = interpolate_gamma(21, 0.0, 0.5)
        b, _ = interpolate_gamma(21, 1.0, 0.5)
        assert np.abs(a.to_dense() - b.to_dense()).max() <= 1e-12 * 41

    def test_endpoint_consistency_against_bidiagonal_seed(self):
        x, _ = interpolate_gamma(5, 0.0, 1.0)
        target = gamma_seed(5, 1.0).singular_values()
        assert np.abs(x.singular_values() - target).max() <= 1e-5

    def test_interpolated_chain_builds_ghz(self):
        x, _ = interpolate_gamma(6, 0.0, 0.5)
        assert zy_ghz_overlap(x) >= 0.999

    def test_trace_csv_layout(self):
        _, trace = interpolate_gamma(3, 0.0, 0.02)
        lines = trace.to_csv().strip().split("\n")
        assert lines[0] == "step,gamma,sv_drift,structure_residual"
        assert len(lines) == len(trace.rows) + 1
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(0.02 / 8)
        assert float(lines[-1].split(",")[1]) == 0.02

    def test_deterministic(self):
        _, t1 = interpolate_gamma(4, 0.0, 0.1)
        _, t2 = interpolate_gamma(4, 0.0, 0.1)
        assert t1.to_csv() == t2.to_csv()

    def test_step_budget_error_carries_trace(self):
        with pytest.raises(FlowStallError, match="corrector budget of 5 iterations") as excinfo:
            interpolate_gamma(4, 0.0, 0.7, max_steps=5)
        assert len(excinfo.value.trace.rows) >= 1

    def test_seedless_start_rejected(self):
        with pytest.raises(ValueError):
            interpolate_gamma(4, 0.3, 0.7)
