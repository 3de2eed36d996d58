"""Seeded draws and the public closed-form builders, shared by the test
modules."""

import numpy as np

from precodesim.numerics import complex_normal
from precodesim.precoding import arzf, mrt, rzf, wrzf, zf

# Closed-form token -> its public builder(decomp, power, noise_var), one
# call per precoder.
BUILDERS = {
    "mrt": lambda d, p, nv: mrt(d, p),
    "zf_v": lambda d, p, nv: zf(d, p, basis="v"),
    "zf_f": lambda d, p, nv: zf(d, p, basis="f"),
    "rzf_v": lambda d, p, nv: rzf(d, p, nv, basis="v"),
    "rzf_f": lambda d, p, nv: rzf(d, p, nv, basis="f"),
    "wrzf": wrzf,
    "arzf": arzf,
}


def complex_gaussian(rng_seed: int, rows: int, cols: int, variance: float) -> np.ndarray:
    """Seeded i.i.d. circularly symmetric complex Gaussian matrix.

    Deterministic for a given seed; per-entry variance is ``variance``.
    """
    rng = np.random.default_rng(rng_seed)
    return complex_normal(rng, (rows, cols), variance)
