"""Dense complex linear-algebra kernel shared by all other modules.

Matrices are ``numpy.ndarray`` of ``complex128``, 2-D or stacked along
leading batch axes.  The entry points are :func:`align_phase`, the phase
convention of singular pairs, the stacked Hermitian positive definite
inverse :func:`hpd_inverse` and :func:`complex_normal`; everything here is
a pure function of its inputs.

Every Hermitian positive definite system of the package (the ridges of all
precoders and the MMSE blocks) goes through :func:`hpd_inverse`: a Cholesky
factorization tests definiteness, then the inverse is formed and matrix
products apply it.  Both are numpy calls that
loop over a stack one matrix at a time, so there is one solve path, one BLAS
library and no per-matrix Python loop.  A member that is not positive
definite fails alone, in a mask that the callers read.  Each public stacked
kernel (:func:`hpd_inverse` here, ``ridge_stack``, ``mmse_stack`` and
``mmse_sinr_stack``) is one ``np.errstate`` around a private core, so none
warns; the search's evaluation runs the cores under one ``np.errstate``.
"""

import numpy as np
from numpy.linalg import _umath_linalg

from .exceptions import DimensionError, NumericalError, check_positive

__all__ = ["RANK_TOLERANCE", "as_complex_matrix", "align_phase", "hpd_inverse",
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
    if not np.isfinite(m).all():
        raise NumericalError(f"{name} contains non-finite entries")
    return m


def align_phase(u, vh):
    """Rotate stacked singular pairs, left vectors as the columns of ``u``
    (``(..., rows, keep)``) and right ones as the rows of ``vh``, so that the
    largest-magnitude entry of each row of ``vh`` is real and positive
    (unit rows always have a nonzero one); returns the rotated ``(u^H, vh)``.
    ``np.hypot`` has the bits of a scalar ``abs``, which the array ``abs`` of
    complex numbers does not always give: each phase has its own pair's bits."""
    pivot = np.take_along_axis(vh, abs(vh).argmax(-1)[..., None], -1)
    phase = pivot / np.hypot(pivot.real, pivot.imag)
    return (u * phase.mT).conj().mT, vh * phase.conj()


def hpd_inverse(a: np.ndarray):
    """Inverse of each matrix of a stack ``a`` (shape ``(..., n, n)``) of
    finite Hermitian matrices, unchecked otherwise, and the mask ``ok`` of
    those that are positive definite (finite Cholesky factor); any other has
    an all-NaN inverse, and none raises or warns.  The Cholesky factor only
    tests definiteness (numpy has no stacked triangular solve); the inverse
    comes from LU.  Each matrix is its own LAPACK call, so a member's bits do
    not depend on the rest of the stack.  Both are the gufuncs behind
    ``np.linalg.cholesky`` and ``np.linalg.inv``, called without their
    per-call argument handling, which costs more than a small stack's LAPACK
    work."""
    with np.errstate(all="ignore"):
        return _hpd_inverse(a)


def _hpd_inverse(a: np.ndarray):
    """:func:`hpd_inverse` under the caller's ``np.errstate``: a member that
    is not positive definite warns unless the caller ignores invalid values."""
    sig = "D->D" if a.dtype.kind == "c" else "d->d"
    ok = np.isfinite(_umath_linalg.cholesky_lo(a, signature=sig)).all(axis=(-2, -1))
    inv = _umath_linalg.inv(a, signature=sig)
    if not ok.all():
        inv[~ok] = np.nan
    return inv, ok


def complex_normal(rng: np.random.Generator, shape, variance: float = 1.0) -> np.ndarray:
    """Circularly symmetric complex Gaussian draws from an existing RNG.

    Per-entry variance is ``variance`` (real and imaginary parts carry
    ``variance / 2`` each).
    """
    check_positive("variance", variance)
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
