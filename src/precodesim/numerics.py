"""Dense complex linear-algebra kernel shared by all other modules.

Matrices are ``numpy.ndarray`` of ``complex128``, 2-D or stacked along
leading batch axes.  The entry points are :func:`reduced_svd`, the stacked
Hermitian positive definite inverse :func:`hpd_inverse` and
:func:`complex_normal`; everything here is a pure function of its inputs.

Every Hermitian positive definite system of the package (the ridges of all
precoders and the MMSE blocks) goes through :func:`hpd_inverse`: a Cholesky
factorization tests definiteness, then the inverse is formed and matrix
products apply it.  Both are numpy calls that
loop over a stack one matrix at a time, so there is one solve path, one BLAS
library and no per-matrix Python loop.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, NotHpdError, NumericalError, check_positive

__all__ = ["RANK_TOLERANCE", "SvdResult", "as_complex_matrix", "reduced_svd", "hpd_inverse",
           "complex_normal"]

# Singular values below RANK_TOLERANCE * s_max are treated as rank
# deficiency by callers that need to invert.
RANK_TOLERANCE = 1e-12


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate ``a`` as a finite 2-D complex matrix and return it as
    a ``complex128`` array (copying only if a conversion is needed)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise NumericalError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class SvdResult:
    """Reduced singular value decomposition ``m = u^H @ diag(s) @ v``.

    Attributes
    ----------
    u : ndarray, shape (keep, rows)
        Left factors; rows are orthonormal.
    s : ndarray, shape (keep,)
        Singular values, nonnegative and descending.
    v : ndarray, shape (keep, cols)
        Right singular vectors by rows; rows are orthonormal.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def reduced_svd(m, keep: int) -> SvdResult:
    """Top-``keep`` singular triplets of a complex matrix.

    The phase ambiguity is fixed by rotating each singular pair so that
    the largest-magnitude entry of each row of ``v`` is real and
    positive, which makes results reproducible across runs.

    Parameters
    ----------
    m : array_like, shape (rows, cols)
        Complex matrix to decompose.
    keep : int
        Number of leading singular triplets to return,
        ``1 <= keep <= min(rows, cols)``.

    Raises
    ------
    DimensionError
        If ``keep`` is out of range.
    NumericalError
        If the underlying SVD iteration fails to converge.
    """
    m = as_complex_matrix(m)
    rank_cap = min(m.shape)
    if not 1 <= keep <= rank_cap:
        raise DimensionError(
            f"keep={keep} out of range [1, {rank_cap}] for shape {m.shape}"
        )
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc

    u = u[:, :keep].copy()
    s = s[:keep].copy()
    v = vh[:keep].copy()
    # Unit-norm rows always have a nonzero largest entry.
    for i in range(keep):
        pivot = v[i, np.argmax(np.abs(v[i]))]
        phase = pivot / abs(pivot)
        v[i] *= np.conj(phase)
        u[:, i] *= phase
    return SvdResult(u=u.conj().T, s=s, v=v)


def hpd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of a stack ``a`` (shape ``(..., n, n)``) of
    finite Hermitian matrices, unchecked otherwise; raises NotHpdError
    unless every one is positive definite.  The Cholesky factor only tests
    definiteness (numpy has no stacked triangular solve); the inverse comes
    from LU.  Each matrix is its own LAPACK call, so a member's bits do not
    depend on the rest of the stack."""
    try:
        np.linalg.cholesky(a)
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise NotHpdError(f"matrix is not positive definite: {exc}") from exc


def complex_normal(rng: np.random.Generator, shape, variance: float = 1.0) -> np.ndarray:
    """Circularly symmetric complex Gaussian draws from an existing RNG.

    Per-entry variance is ``variance`` (real and imaginary parts carry
    ``variance / 2`` each).
    """
    check_positive("variance", variance)
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
