import numpy as np
import pytest

from spinforge.numerics import Chain, eig_sym_tridiag
from spinforge.pst import standard_couplings, verify_mirror


class TestStandardCouplings:
    def test_two_sites(self):
        chain = standard_couplings(2)
        assert chain.couplings.tolist() == [1.0]

    def test_four_sites(self):
        chain = standard_couplings(4)
        assert np.allclose(chain.couplings, [np.sqrt(3), 2.0, np.sqrt(3)])

    def test_three_sites(self):
        assert np.allclose(standard_couplings(3).couplings, [np.sqrt(2)] * 2)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            standard_couplings(1)

    def test_mirror_symmetry_of_couplings(self):
        j = standard_couplings(9).couplings
        assert np.allclose(j, j[::-1])

    @pytest.mark.parametrize("n", [2, 5, 12, 33])
    def test_ladder_spectrum(self, n):
        chain = standard_couplings(n)
        s, _ = eig_sym_tridiag(chain)
        expected = np.arange(-(n - 1), n, 2)
        assert np.abs(s - expected).max() < 1e-9


class TestVerifyMirror:
    def test_two_sites_exact(self):
        assert verify_mirror(standard_couplings(2)) < 1e-12

    @pytest.mark.parametrize("n", [3, 8, 21, 64])
    def test_engineered_chains_transfer(self, n):
        assert verify_mirror(standard_couplings(n)) < 1e-9

    def test_uniform_chain_does_not_transfer(self):
        chain = Chain(np.ones(3))
        assert verify_mirror(chain) > 0.1
