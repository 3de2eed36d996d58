import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precodesim.exceptions import DimensionError
from precodesim.numerics import _hpd_inverse, as_complex_matrix, complex_normal
from helpers import complex_gaussian


def hpd_inverse(a):
    """The package's HPD inverse core under the errstate its callers enter."""
    with np.errstate(all="ignore"):
        return _hpd_inverse(a)


class TestSolveHpd:
    # a 2-D system solved the package's way: hpd_inverse, then a product
    def test_matches_generic_solve(self):
        a0 = complex_gaussian(5, 6, 6, 1.0)
        a = a0 @ a0.conj().T + 0.1 * np.eye(6)
        b = complex_gaussian(6, 6, 3, 1.0)
        inv, ok = hpd_inverse(a)
        assert ok
        assert np.allclose(inv @ b, np.linalg.solve(a, b), atol=1e-10)

    def test_residual(self):
        a0 = complex_gaussian(9, 4, 4, 1.0)
        a = a0 @ a0.conj().T + np.eye(4)
        b = complex_gaussian(10, 4, 2, 1.0)
        inv, ok = hpd_inverse(a)
        assert ok
        assert np.linalg.norm(a @ inv @ b - b) < 1e-11


def hpd_stack(rng, nb, n, cond):
    """``nb`` Hermitian positive definite ``n x n`` matrices with
    eigenvalues spread geometrically over ``cond`` and random scale."""
    q, _ = np.linalg.qr(complex_normal(rng, (nb, n, n)))
    eig = np.geomspace(1.0, cond, n) * 10.0 ** rng.uniform(-3, 3, (nb, 1))
    a = (q * eig[:, None, :]) @ np.conj(q.swapaxes(-1, -2))
    return (a + np.conj(a.swapaxes(-1, -2))) / 2


class TestHpdInverse:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 64),
           st.floats(0.0, 8.0), st.integers(0, 2**32 - 1))
    def test_stack_matches_solve_oracle(self, nb, n, k, log_cond, seed):
        rng = np.random.default_rng(seed)
        a = hpd_stack(rng, nb, n, 10.0**log_cond)
        b = complex_normal(rng, (nb, n, k))
        inv, ok = hpd_inverse(a)
        assert ok.shape == (nb,) and ok.all()
        x = inv @ b
        want = np.linalg.solve(a, b)
        rel = np.linalg.norm(x - want, axis=(-2, -1)) / np.linalg.norm(want, axis=(-2, -1))
        assert rel.max() <= 1e-10

    def test_member_alone_equals_member_in_stack(self):
        rng = np.random.default_rng(7)
        a = hpd_stack(rng, 6, 8, 1e4)
        b = complex_normal(rng, (6, 64, 8))
        inv = hpd_inverse(a)[0]
        for i in range(len(a)):
            alone = hpd_inverse(a[i])[0]
            assert np.array_equal(inv[i], alone)
            assert np.array_equal(hpd_inverse(a[i:i + 1])[0][0], alone)
            assert np.array_equal((b @ inv)[i], b[i] @ alone)

    @pytest.mark.parametrize("bad", [
        np.diag([1.0, -1.0]),                  # indefinite
        np.array([[1.0, 1.0], [1.0, 1.0]]),    # singular
        np.zeros((2, 2)),
    ])
    def test_member_not_hpd_is_masked(self, bad):
        # the failing member reads False and NaN; every other member keeps
        # the bits of its inverse alone
        a = hpd_stack(np.random.default_rng(3), 5, 2, 10.0)
        a[2] = bad
        inv, ok = hpd_inverse(a)
        assert ok.tolist() == [True, True, False, True, True]
        assert np.isnan(inv[2]).all()
        for i in (0, 1, 3, 4):
            assert np.array_equal(inv[i], hpd_inverse(a[i])[0])
        alone, ok_alone = hpd_inverse(a[2])
        assert not ok_alone and np.isnan(alone).all()


class TestComplexGaussian:
    def test_deterministic(self):
        a = complex_gaussian(1234, 10, 10, 1.0)
        b = complex_gaussian(1234, 10, 10, 1.0)
        c = complex_gaussian(1235, 10, 10, 1.0)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_moments(self):
        z = complex_gaussian(77, 500, 200, 2.0).ravel()
        var = np.mean(np.abs(z) ** 2)
        assert 1.96 < var < 2.04
        assert abs(np.mean(z)) < 0.02

    def test_circularity(self):
        # pseudo-variance E[z^2] of a circular draw is near zero
        z = complex_gaussian(78, 500, 200, 1.0).ravel()
        assert abs(np.mean(z**2)) < 0.02

    def test_bad_variance(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                complex_gaussian(1, 2, 2, bad)
            with pytest.raises(ValueError):
                complex_normal(np.random.default_rng(0), (2,), bad)

    def test_streaming_variant_consistent(self):
        rng = np.random.default_rng(55)
        z = complex_normal(rng, (1000,), 4.0)
        assert z.shape == (1000,)
        assert 3.5 < np.mean(np.abs(z) ** 2) < 4.5


class TestValidation:
    def test_as_complex_matrix_converts(self):
        m = as_complex_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.complex128
        assert m.shape == (2, 2)

    def test_rejects_vector(self):
        with pytest.raises(DimensionError):
            as_complex_matrix(np.ones(3))
