import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.optimize import least_squares

from spinforge.ghz_ising import spin_hamiltonian
from spinforge.numerics import (
    Chain,
    antisym_exp,
    chebyshev_propagate,
    eig_sym_tridiag,
    levenberg_marquardt,
    propagator,
    solve_affine,
)
from spinforge.pst import standard_couplings


def dense(chain):
    """The chain's single-excitation Hamiltonian as a dense matrix."""
    return np.diag(chain.couplings, 1) + np.diag(chain.couplings, -1)


def random_chain(rng, n):
    return Chain(rng.uniform(-2.0, 2.0, n - 1))


class TestChain:
    def test_couplings_must_be_a_list(self):
        with pytest.raises(ValueError):
            Chain(np.zeros((2, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Chain(np.array([1.0, np.nan]))

    def test_one_site_chain_has_no_couplings(self):
        assert Chain([]).n == 1 and Chain([2.0, 1.0]).n == 3


class TestEig:
    def test_two_by_two(self):
        s, v = eig_sym_tridiag(Chain([1.0]))
        assert np.allclose(s, [-1.0, 1.0], atol=1e-12)
        assert np.abs(v.T @ v - np.eye(2)).max() < 1e-12

    def test_four_site_transfer_band(self):
        # independent oracle: dense symmetric eigensolve of the same matrix
        m = Chain([np.sqrt(3), 2.0, np.sqrt(3)])
        s, _ = eig_sym_tridiag(m)
        assert np.abs(s - np.linalg.eigvalsh(dense(m))).max() < 1e-10
        assert np.allclose(s, [-3.0, -1.0, 1.0, 3.0], atol=1e-9)

    def test_single_site(self):
        s, v = eig_sym_tridiag(Chain([]))
        assert s.tolist() == [0.0]
        assert v.shape == (1, 1)

    @pytest.mark.parametrize("seed,n", [(0, 3), (1, 17), (2, 64), (3, 128)])
    def test_reconstruction_and_orthonormality(self, seed, n):
        rng = np.random.default_rng(seed)
        m = random_chain(rng, n)
        s, v = eig_sym_tridiag(m)
        rebuilt = (v * s) @ v.T
        assert np.abs(rebuilt - dense(m)).max() < 1e-10
        assert np.abs(v.T @ v - np.eye(n)).max() < 1e-10

    def test_degenerate_cluster_stays_orthonormal(self):
        # a zero coupling splits the chain into two identical three-site
        # blocks, so every eigenvalue, the zero mode too, is twofold
        m = Chain([1.0, 1.0, 0.0, 1.0, 1.0])
        s, v = eig_sym_tridiag(m)
        assert np.abs(v.T @ v - np.eye(6)).max() < 1e-10
        assert np.abs(s - np.linalg.eigvalsh(dense(m))).max() < 1e-10
        rebuilt = (v * s) @ v.T
        assert np.abs(rebuilt - dense(m)).max() < 1e-10

    def test_three_fold_clusters_stay_orthonormal(self):
        # three identical three-site blocks: three threefold clusters, one
        # of them at zero
        m = Chain([1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0])
        s, v = eig_sym_tridiag(m)
        assert np.abs(v.T @ v - np.eye(9)).max() < 1e-10
        assert np.abs(s - np.linalg.eigvalsh(dense(m))).max() < 1e-10
        assert np.abs((v * s) @ v.T - dense(m)).max() < 1e-10


class TestZeroDiagonalEig:
    """The bidiagonal-SVD path against dense ``eigh`` and LAPACK ``stemr``."""

    @pytest.mark.parametrize("n", range(2, 41))
    def test_matches_dense_and_tridiagonal_solvers(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            m = random_chain(rng, n)
            s, v = eig_sym_tridiag(m)
            eigh = np.linalg.eigvalsh(dense(m))
            stemr = scipy.linalg.eigh_tridiagonal(np.zeros(n), m.couplings,
                                                  eigvals_only=True)
            scale = np.abs(eigh).max()
            assert np.abs(s - eigh).max() <= 1e-13 * scale
            assert np.abs(s - stemr).max() <= 1e-13 * scale
            assert np.all(np.diff(s) >= 0.0)
            assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-14
            assert np.abs((v * s) @ v.T - dense(m)).max() <= 1e-13 * scale

    @pytest.mark.parametrize("n", range(3, 41, 2))
    def test_odd_chain_zero_mode_lives_on_odd_sites(self, n):
        # 1-based odd sites are the even array positions
        m = random_chain(np.random.default_rng(200 + n), n)
        s, v = eig_sym_tridiag(m)
        zero = v[:, n // 2]
        assert s[n // 2] == 0.0
        assert not zero[1::2].any()
        assert np.abs(dense(m) @ zero).max() <= 1e-14

    @pytest.mark.parametrize("couplings", [[1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]])
    def test_split_chain_clusters_stay_orthonormal(self, couplings):
        # zero couplings split the chain into identical blocks: every
        # eigenvalue of a block is degenerate across the blocks
        m = Chain(couplings)
        s, v = eig_sym_tridiag(m)
        assert np.abs(v.T @ v - np.eye(m.n)).max() <= 1e-14
        assert np.abs((v * s) @ v.T - dense(m)).max() <= 1e-14

    @pytest.mark.parametrize("n", [42, 520, 1040])
    def test_transfer_chain_spectrum_is_the_integer_ladder(self, n):
        s, v = eig_sym_tridiag(standard_couplings(n))
        assert np.abs(s - np.arange(-(n - 1), n, 2)).max() <= 1e-12
        assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-14


class TestPropagator:
    def test_zero_time_is_identity(self):
        h = np.array([[1.0, 2.0], [2.0, -1.0]])
        assert np.abs(propagator(h, 0.0) - np.eye(2)).max() < 1e-14

    def test_two_site_transfer(self):
        u = propagator(dense(Chain([1.0])), np.pi / 2)
        out = u @ np.array([1.0, 0.0])
        assert np.abs(out - np.array([0.0, -1.0j])).max() < 1e-12

    def test_pi_phase(self):
        u = propagator(np.diag([1.0, -1.0]), np.pi)
        assert np.abs(u + np.eye(2)).max() < 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            propagator(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    @pytest.mark.parametrize("m", [
        Chain([]),
        # twofold-degenerate spectrum, as in TestEig
        Chain([1.0, 0.0, 1.0]),
        random_chain(np.random.default_rng(4), 2),
        random_chain(np.random.default_rng(5), 17),
        random_chain(np.random.default_rng(6), 42),
    ])
    @pytest.mark.parametrize("t", [0.0, 0.9, np.pi])
    def test_tridiagonal_matches_dense(self, m, t):
        u = propagator(m, t)
        assert np.abs(u - propagator(dense(m), t)).max() < 1e-12
        assert np.abs(u.conj().T @ u - np.eye(m.n)).max() < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_unitarity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        h = a + a.conj().T
        u = propagator(h, rng.uniform(0.1, 5.0))
        assert np.abs(u.conj().T @ u - np.eye(9)).max() < 1e-10


def random_spin_hamiltonian(rng, m):
    bonds = [rng.normal(size=m - 1) for _ in range(3)]
    return spin_hamiltonian(m, x=rng.normal(size=m), zz=bonds[0], xx=bonds[1],
                            yy=bonds[2])


def random_states(rng, dim, columns):
    block = rng.normal(size=(dim, columns)) + 1j * rng.normal(size=(dim, columns))
    return block / np.linalg.norm(block, axis=0)


class TestChebyshevPropagate:
    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("t", [0.4, -1.7, 6.0])
    def test_matches_dense_exponential(self, m, t):
        rng = np.random.default_rng(10 * m)
        h = random_spin_hamiltonian(rng, m)
        exact = scipy.linalg.expm(-1j * t * h.toarray())
        energies = np.linalg.eigvalsh(h.toarray())
        interval = (energies[0], energies[-1])
        block = random_states(rng, 1 << m, 6)
        assert np.abs(chebyshev_propagate(h, t, block, interval) - exact @ block).max() < 1e-12
        single = chebyshev_propagate(h, t, block[:, 0], interval)
        assert single.shape == (1 << m,)
        assert np.abs(single - exact @ block[:, 0]).max() < 1e-12

    def test_zero_time_is_the_identity(self):
        rng = np.random.default_rng(5)
        h = random_spin_hamiltonian(rng, 4)
        block = random_states(rng, 16, 6)
        energies = np.linalg.eigvalsh(h.toarray())
        interval = (energies[0], energies[-1])
        assert np.abs(chebyshev_propagate(h, 0.0, block, interval) - block).max() < 1e-12

    def test_zero_hamiltonian_is_the_identity(self):
        block = random_states(np.random.default_rng(6), 8, 6)
        h = scipy.sparse.csr_matrix((8, 8))
        assert np.abs(chebyshev_propagate(h, 2.5, block, (0.0, 0.0)) - block).max() < 1e-12


def rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def rosenbrock_jacobian(x):
    return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


class TestLevenbergMarquardt:
    def test_square_root_matches_minpack(self):
        x, fun = levenberg_marquardt(rosenbrock, rosenbrock_jacobian, [-1.2, 1.0])
        ref = least_squares(rosenbrock, [-1.2, 1.0], jac=rosenbrock_jacobian,
                            method="lm", ftol=1e-15, xtol=1e-15, gtol=1e-15,
                            x_scale="jac", max_nfev=200)
        assert np.abs(x - ref.x).max() < 1e-12
        assert np.abs(x - 1.0).max() < 1e-12
        assert np.abs(fun).max() < 1e-12

    def test_overdetermined_fit_matches_minpack(self):
        # a two-exponential fit with a nonzero residual at the optimum
        t = np.linspace(0.0, 3.0, 12)
        data = 2.0 * np.exp(-1.3 * t) + 0.05 * np.cos(7.0 * t)

        def fun(p):
            return p[0] * np.exp(-p[1] * t) - data

        def jac(p):
            return np.column_stack([np.exp(-p[1] * t), -p[0] * t * np.exp(-p[1] * t)])

        x, res = levenberg_marquardt(fun, jac, [1.0, 0.5])
        ref = least_squares(fun, [1.0, 0.5], jac=jac, method="lm", ftol=1e-15,
                            xtol=1e-15, gtol=1e-15, x_scale="jac", max_nfev=200)
        assert np.abs(x - ref.x).max() < 1e-12
        assert np.abs(res - ref.fun).max() < 1e-12

    def test_residual_errors_propagate(self):
        calls = []

        def fun(x):
            calls.append(x)
            if len(calls) > 1:
                raise ValueError("left the domain")
            return rosenbrock(x)

        with pytest.raises(ValueError, match="left the domain"):
            levenberg_marquardt(fun, rosenbrock_jacobian, [-1.2, 1.0])

    def test_fewer_residuals_than_unknowns_rejected(self):
        with pytest.raises(ValueError):
            levenberg_marquardt(lambda x: x[:1], lambda x: np.eye(2)[:1], [1.0, 2.0])


class TestAntisymExp:
    def test_zero_gives_identity(self):
        assert np.abs(antisym_exp(np.zeros((4, 4))) - np.eye(4)).max() < 1e-14

    @pytest.mark.parametrize("theta", [0.3, -1.2, np.pi / 5])
    def test_planar_rotation(self, theta):
        g = np.array([[0.0, theta], [-theta, 0.0]])
        expected = np.array(
            [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
        )
        assert np.abs(antisym_exp(g) - expected).max() < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_inverse_orthogonal_and_special(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (7, 7))
        g = a - a.T
        r = antisym_exp(g)
        assert np.abs(r @ antisym_exp(-g) - np.eye(7)).max() < 1e-10
        assert np.abs(r.T @ r - np.eye(7)).max() < 1e-10
        assert abs(np.linalg.det(r) - 1.0) < 1e-10
        assert np.abs(r - scipy.linalg.expm(g)).max() < 1e-10

    def test_not_antisymmetric_rejected(self):
        with pytest.raises(ValueError):
            antisym_exp(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestSolveAffine:
    def test_consistent_redundant_system(self):
        rows = np.array([[1.0, 0.0], [2.0, 0.0]])
        sol = solve_affine(rows, np.array([1.0, 2.0]))
        assert np.abs(sol - [1.0, 0.0]).max() < 1e-12

    @pytest.mark.parametrize("shape", [(5, 5), (4, 7), (9, 6)])
    def test_dense_rows_keep_the_lstsq_solution_bit_for_bit(self, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        rows = rng.normal(size=shape)
        rows[-1] = rows[0]  # a redundant row keeps the system consistent
        rhs = rows @ rng.normal(size=shape[1])
        sol = solve_affine(rows, rhs)
        ref = np.linalg.lstsq(rows, rhs, rcond=None)[0]
        assert np.array_equal(sol, ref)
