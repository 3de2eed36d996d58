"""Dense complex linear-algebra kernel shared by all other modules.

Matrices are plain 2-D ``numpy.ndarray`` of ``complex128`` in row-major
order.  The entry points are :func:`reduced_svd`, the Hermitian positive
definite solve :func:`solve_hpd` (unchecked: :func:`cholesky_solve`) and
:func:`complex_gaussian`; everything here is a pure function of its inputs.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zposv

from .exceptions import DimensionError, NotHpdError, NumericalError

__all__ = [
    "RANK_TOLERANCE",
    "SvdResult",
    "as_complex_matrix",
    "reduced_svd",
    "solve_hpd",
    "cholesky_solve",
    "complex_gaussian",
    "complex_normal",
]

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

    def reconstruct(self) -> np.ndarray:
        """Return ``u^H @ diag(s) @ v`` (thin reconstruction)."""
        return self.u.conj().T @ (self.s[:, None] * self.v)


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


def solve_hpd(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` for Hermitian positive definite ``a``.

    Uses a Cholesky factorization; a non-positive pivot raises
    :class:`NotHpdError` rather than returning garbage.
    """
    a = as_complex_matrix(a, "a")
    b = as_complex_matrix(b, "b")
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"a must be square, got {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise DimensionError(f"a {a.shape} and b {b.shape} do not conform")
    return cholesky_solve(a, b)


def cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`solve_hpd` without its checks, for ``complex128`` arrays
    the caller built itself, square, conforming and finite."""
    x, info = zposv(a, b, lower=True)[1:]
    if info > 0:
        raise NotHpdError(f"matrix is not positive definite (leading minor {info})")
    return x


def complex_normal(rng: np.random.Generator, shape, variance: float = 1.0) -> np.ndarray:
    """Circularly symmetric complex Gaussian draws from an existing RNG.

    Per-entry variance is ``variance`` (real and imaginary parts carry
    ``variance / 2`` each).
    """
    if variance <= 0:
        raise ValueError(f"variance must be positive, got {variance}")
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def complex_gaussian(rng_seed: int, rows: int, cols: int, variance: float) -> np.ndarray:
    """Seeded i.i.d. circularly symmetric complex Gaussian matrix.

    Deterministic for a given seed; per-entry variance is ``variance``.
    """
    rng = np.random.default_rng(rng_seed)
    return complex_normal(rng, (rows, cols), variance)
