"""Seeded draws shared by the test modules."""

import numpy as np

from precodesim.numerics import complex_normal


def complex_gaussian(rng_seed: int, rows: int, cols: int, variance: float) -> np.ndarray:
    """Seeded i.i.d. circularly symmetric complex Gaussian matrix.

    Deterministic for a given seed; per-entry variance is ``variance``.
    """
    rng = np.random.default_rng(rng_seed)
    return complex_normal(rng, (rows, cols), variance)
