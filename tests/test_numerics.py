import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precodesim.exceptions import DimensionError, NotHpdError, NumericalError
from precodesim.numerics import (
    SvdResult,
    as_complex_matrix,
    complex_normal,
    hpd_inverse,
    reduced_svd,
)
from helpers import complex_gaussian, reduced_svd_loop


def reconstruct(r):
    """``u^H @ diag(s) @ v`` of an :class:`SvdResult`."""
    return r.u.conj().T @ (r.s[:, None] * r.v)


def gram_eig_rank_k(m, keep):
    """Independent rank-k approximation via eigendecomposition of m^H m.

    Uses a different LAPACK path than the SVD under test; phase-free
    because it only needs the right singular subspace projector.
    """
    w, vecs = np.linalg.eigh(m.conj().T @ m)
    top = vecs[:, ::-1][:, :keep]
    proj = top @ top.conj().T
    return m @ proj, np.sqrt(np.maximum(w[::-1][:keep], 0.0))


class TestReducedSvd:
    def test_identity(self):
        r = reduced_svd(np.eye(2), keep=2)
        assert np.allclose(r.s, [1.0, 1.0])
        assert np.allclose(reconstruct(r), np.eye(2), atol=1e-14)

    def test_diagonal_keep_one(self):
        r = reduced_svd(np.diag([3.0, 1.0]), keep=1)
        assert r.s.shape == (1,)
        assert abs(r.s[0] - 3.0) < 1e-14
        assert np.allclose(r.v, [[1.0, 0.0]], atol=1e-14)
        assert np.allclose(r.u, [[1.0, 0.0]], atol=1e-14)

    def test_shapes_and_order(self):
        m = complex_gaussian(7, 5, 9, 1.0)
        r = reduced_svd(m, keep=3)
        assert r.u.shape == (3, 5)
        assert r.s.shape == (3,)
        assert r.v.shape == (3, 9)
        assert np.all(np.diff(r.s) <= 1e-12)
        assert np.all(r.s >= 0)

    def test_row_orthonormality(self):
        m = complex_gaussian(11, 6, 4, 1.0)
        r = reduced_svd(m, keep=4)
        assert np.allclose(r.u @ r.u.conj().T, np.eye(4), atol=1e-12)
        assert np.allclose(r.v @ r.v.conj().T, np.eye(4), atol=1e-12)

    def test_full_reconstruction(self):
        m = complex_gaussian(3, 4, 6, 1.0)
        r = reduced_svd(m, keep=4)
        assert np.linalg.norm(reconstruct(r) - m) < 1e-12 * np.linalg.norm(m)

    def test_rank_k_matches_gram_oracle(self):
        for seed in range(5):
            m = complex_gaussian(100 + seed, 8, 12, 1.0)
            r = reduced_svd(m, keep=2)
            approx, s_oracle = gram_eig_rank_k(m, 2)
            assert np.linalg.norm(reconstruct(r) - approx) < 1e-9
            assert np.allclose(r.s, s_oracle, atol=1e-9)

    def test_phase_convention(self):
        m = complex_gaussian(23, 5, 7, 1.0)
        r = reduced_svd(m, keep=5)
        for row in r.v:
            pivot = row[np.argmax(np.abs(row))]
            assert abs(pivot.imag) < 1e-13
            assert pivot.real > 0

    def test_determinism(self):
        m = complex_gaussian(42, 6, 6, 1.0)
        a = reduced_svd(m, keep=3)
        b = reduced_svd(m.copy(), keep=3)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.s, b.s)
        assert np.array_equal(a.v, b.v)

    def test_keep_out_of_range(self):
        m = np.eye(3)
        with pytest.raises(DimensionError):
            reduced_svd(m, keep=0)
        with pytest.raises(DimensionError):
            reduced_svd(m, keep=4)

    def test_nonfinite_rejected(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = np.nan
        with pytest.raises(NumericalError):
            reduced_svd(m, keep=1)

    def test_result_is_dataclass(self):
        r = reduced_svd(np.eye(2), keep=1)
        assert isinstance(r, SvdResult)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 20), st.floats(0.0, 1.0),
           st.floats(-250.0, 250.0), st.integers(0, 2**32 - 1))
    def test_phases_equal_the_pair_loop_bit_for_bit(self, rows, cols, share, log_scale, seed):
        # the vectorized phase fix keeps the bits of fixing one pair at a time
        m = complex_gaussian(seed, rows, cols, 1.0) * 10.0**log_scale
        keep = 1 + int(share * (min(rows, cols) - 1))
        got, want = reduced_svd(m, keep), reduced_svd_loop(m, keep)
        for a, b in ((got.u, want.u), (got.s, want.s), (got.v, want.v)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSolveHpd:
    # a 2-D system solved the package's way: hpd_inverse, then a product
    def test_matches_generic_solve(self):
        a0 = complex_gaussian(5, 6, 6, 1.0)
        a = a0 @ a0.conj().T + 0.1 * np.eye(6)
        b = complex_gaussian(6, 6, 3, 1.0)
        x = hpd_inverse(a) @ b
        assert np.allclose(x, np.linalg.solve(a, b), atol=1e-10)

    def test_residual(self):
        a0 = complex_gaussian(9, 4, 4, 1.0)
        a = a0 @ a0.conj().T + np.eye(4)
        b = complex_gaussian(10, 4, 2, 1.0)
        x = hpd_inverse(a) @ b
        assert np.linalg.norm(a @ x - b) < 1e-11


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
        x = hpd_inverse(a) @ b
        want = np.linalg.solve(a, b)
        rel = np.linalg.norm(x - want, axis=(-2, -1)) / np.linalg.norm(want, axis=(-2, -1))
        assert rel.max() <= 1e-10

    def test_member_alone_equals_member_in_stack(self):
        rng = np.random.default_rng(7)
        a = hpd_stack(rng, 6, 8, 1e4)
        b = complex_normal(rng, (6, 64, 8))
        inv = hpd_inverse(a)
        for i in range(len(a)):
            alone = hpd_inverse(a[i])
            assert np.array_equal(inv[i], alone)
            assert np.array_equal(hpd_inverse(a[i:i + 1])[0], alone)
            assert np.array_equal((b @ inv)[i], b[i] @ alone)

    @pytest.mark.parametrize("bad", [
        np.diag([1.0, -1.0]),                  # indefinite
        np.array([[1.0, 1.0], [1.0, 1.0]]),    # singular
        np.zeros((2, 2)),
    ])
    def test_member_not_hpd_raises(self, bad):
        a = hpd_stack(np.random.default_rng(3), 5, 2, 10.0)
        a[2] = bad
        with pytest.raises(NotHpdError):
            hpd_inverse(a)
        with pytest.raises(NotHpdError):
            hpd_inverse(a[2])


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
