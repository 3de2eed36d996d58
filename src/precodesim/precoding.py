"""Linear precoder construction and transmit-power normalization.

Every builder returns a :class:`Precoder` holding the raw (closed-form)
weight matrix together with the scalar gain that scales it to the power
budget.  Raw matrices are what the algebraic identities speak about;
``weights`` (gain times raw) is what a transmitter would apply.

Matched transmission is ``V^H``, and every ridge closed form is the one
formula ``raw = V^H inv(V V^H + diag(r)) diag(c)`` on the layer rows ``V``,
with the ridge ``r`` and column scale ``c`` of its token in :data:`RIDGES`.
Any set of closed forms at any set of noise levels is built as one stack.

Normalization is per antenna: one scalar gain caps every antenna at
``power / num_tx``, with the most-loaded antenna hitting the cap, so
layer directions never change.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelDecomposition
from .exceptions import (
    ConfigError, DimensionError, NotHpdError, SingularGramError, ZeroMatrixError, check_positive)
from .numerics import as_complex_matrix, hpd_inverse

__all__ = ["Precoder", "RIDGES", "CLOSED_FORMS", "closed_stack", "closed_forms", "mrt", "zf", "rzf",
           "wrzf", "arzf", "parametric_rzf"]

# Ridge token -> (ridge r, column scale c) of decomposition d at power p and
# noise variance nv.  An f-basis form F^H inv(F F^H + lam I), F = diag(s) V,
# is the v-basis ridge lam / s^2 with columns scaled by 1 / s, so rzf_f's
# ridge is arzf's.
RIDGES = {
    "zf_v": lambda d, p, nv: (0.0, 1.0),
    "zf_f": lambda d, p, nv: (0.0, 1.0 / d.s),
    "rzf_v": lambda d, p, nv: (d.dims.total_layers * nv / p, 1.0),
    "rzf_f": lambda d, p, nv: (RIDGES["arzf"](d, p, nv)[0], 1.0 / d.s),
    "wrzf": lambda d, p, nv: (nv / p * float(np.sum(d.s**-2.0)), 1.0),
    "arzf": lambda d, p, nv: (d.dims.total_layers * nv / p / d.s**2, 1.0),
}
CLOSED_FORMS = ("mrt", *RIDGES)
# The closed forms that do not depend on the noise level.
NOISE_FREE = ("mrt", "zf_v", "zf_f")


@dataclass(frozen=True)
class Precoder:
    """A raw precoding matrix plus its power-normalizing gain.

    Attributes
    ----------
    raw : ndarray, shape (num_tx, total_layers)
        Closed-form weight matrix before power scaling.
    gain : float
        Scalar applied to ``raw`` to meet the power budget.
    """

    raw: np.ndarray
    gain: float

    def __post_init__(self):
        object.__setattr__(self, "raw", as_complex_matrix(self.raw, "raw"))
        check_positive("gain", self.gain)

    @property
    def weights(self) -> np.ndarray:
        """Power-scaled weights ``gain * raw``."""
        return self.gain * self.raw


def normalize(raw: np.ndarray, power):
    """Scalar gain that makes the largest row norm of ``raw`` equal
    ``sqrt(power / num_tx)``, one per matrix of a stack ``raw``; ``power`` is
    one number, or one per matrix trusted to be positive and finite."""
    if not isinstance(power, np.ndarray):
        check_positive("power", power)
    denom = np.linalg.norm(raw, axis=-1).max(axis=-1) * np.sqrt(raw.shape[-2])
    if (denom == 0).any():
        raise ZeroMatrixError("cannot normalize an all-zero precoder")
    return np.sqrt(power) / denom


def _check_nonnegative(name: str, a: np.ndarray) -> None:
    if not (np.isfinite(a).all() and (a >= 0).all()):
        raise ConfigError(f"{name} entries must be finite and >= 0")


def check_reg(reg_vec, total_layers: int) -> np.ndarray:
    """``reg_vec`` as a float array of ``total_layers`` finite entries
    ``>= 0``, else DimensionError or ConfigError."""
    reg_vec = np.asarray(reg_vec, dtype=float)
    if reg_vec.shape != (total_layers,):
        raise DimensionError(f"reg_vec shape {reg_vec.shape} != ({total_layers},)")
    _check_nonnegative("reg_vec", reg_vec)
    return reg_vec


def gram_stack(v: np.ndarray) -> np.ndarray:
    """``v[b] @ v[b]^H`` for a stack ``v`` of layer rows."""
    return v @ np.conj(v.swapaxes(-1, -2))


def ridge_stack(gram: np.ndarray, vh: np.ndarray, reg: np.ndarray, scale, power):
    """Raw weights ``vh[b] X[b] diag(scale[b])`` with ``X[b] = inv(gram[b] +
    diag(reg[b]))``, of a stack of per-layer ridges ``reg`` (shape
    ``(B, layers)``), with ``gram`` from :func:`gram_stack` of the layer rows
    ``v`` and with ``vh = v^H`` and ``scale`` broadcast against the stack,
    their :func:`normalize` gains at ``power``, and ``X``.  The inputs are
    trusted: finite, ``reg >= 0``, ``scale >= 0`` and ``power > 0``.  Each
    matrix is its own LAPACK or BLAS call, so members do not change each
    other's bits.  Dependent rows under a zero ridge raise SingularGramError."""
    k = gram.copy()
    idx = np.arange(k.shape[-1])
    k[:, idx, idx] += reg
    try:
        x = hpd_inverse(k)
    except NotHpdError as exc:
        raise SingularGramError("precoding basis has numerically dependent rows") from exc
    raw = vh @ x
    raw *= scale
    return raw, normalize(raw, power), x


def closed_stack(decomp: ChannelDecomposition, tokens, power: float, noise_vars):
    """Raw weights ``(levels, tokens, num_tx, total_layers)`` and gains
    ``(levels, tokens)`` of the closed forms ``tokens`` (of
    :data:`CLOSED_FORMS`) at each of the noise variances ``noise_vars``, in
    order.  The :data:`NOISE_FREE` forms are built once and shared by every
    level: ``mrt`` is one ``V^H``, and ``zf_v`` and ``zf_f`` are one member
    each of the one gram ``V V^H`` and one :func:`ridge_stack` that also hold
    every other form at every level.  Its ridges and column scales are
    checked to be finite and ``>= 0`` (else ConfigError), so each member has
    the bits of its one-level build.  ``noise_vars`` may be ``[None]`` if only
    :data:`NOISE_FREE` forms are asked for; otherwise a None is a ConfigError
    that names the forms needing a noise variance."""
    check_positive("power", power)
    unknown = [t for t in tokens if t not in CLOSED_FORMS]
    if unknown:
        raise ConfigError(f"unknown closed forms {unknown}, valid: {CLOSED_FORMS}")
    free = [t for t in tokens if t in NOISE_FREE and t != "mrt"]
    noisy = [t for t in tokens if t not in NOISE_FREE]
    for nv in noise_vars:
        if nv is not None:
            check_positive("noise_var", nv)
        elif noisy:
            raise ConfigError(f"closed forms {noisy} need a noise variance, got None")
    vh, levels, f, q = decomp.v.conj().T, len(noise_vars), len(free), len(noisy)
    if f + q:  # mrt alone inverts nothing
        # ridge and column scale of each member: the shared forms, then the
        # rest level by level
        rc = np.empty((f + levels * q, 2, decomp.dims.total_layers))
        per_level, nv = rc[f:].reshape(levels, q, *rc.shape[1:]), np.reshape(noise_vars, (-1, 1))
        with np.errstate(over="ignore"):  # an overflowing ridge fails the check
            for b, t in enumerate(free):
                rc[b, 0], rc[b, 1] = RIDGES[t](decomp, power, None)
            for b, t in enumerate(noisy):
                per_level[:, b, 0], per_level[:, b, 1] = RIDGES[t](decomp, power, nv)
        _check_nonnegative("ridge and column scale", rc)
        gram = gram_stack(decomp.v[None]).repeat(len(rc), axis=0)
        r, g, _ = ridge_stack(gram, vh, rc[:, 0], rc[:, 1, None], power)
    shape = (levels, len(tokens))
    raw, gain = np.empty((*shape, *vh.shape), dtype=complex), np.empty(shape)
    for j, t in enumerate(tokens):
        if t == "mrt":
            raw[:, j], gain[:, j] = vh, normalize(vh, power)
        else:
            at = free.index(t) if t in free else slice(f + noisy.index(t), None, q)
            raw[:, j], gain[:, j] = r[at], g[at]
    return raw, gain


def closed_forms(decomp: ChannelDecomposition, tokens, power: float, noise_var=None) -> tuple:
    """The closed forms ``tokens`` at one point, in token order: the
    one-level :func:`closed_stack`."""
    raw, gain = closed_stack(decomp, tokens, power, [noise_var])
    return tuple(Precoder(raw=r, gain=g) for r, g in zip(raw[0], gain[0]))


def mrt(decomp: ChannelDecomposition, power: float) -> Precoder:
    """Matched transmission: raw weights are the conjugated layer rows."""
    return closed_forms(decomp, ("mrt",), power)[0]


def zf(decomp: ChannelDecomposition, power: float, basis: str = "v") -> Precoder:
    """Zero-forcing pseudoinverse of the layer rows (``basis="v"``) or of
    the singular-value-weighted rows (``basis="f"``).  Raises
    :class:`SingularGramError` when the layer rows are numerically
    dependent."""
    return closed_forms(decomp, (f"zf_{basis}",), power)[0]


def rzf(decomp: ChannelDecomposition, power: float, noise_var: float, basis: str = "v") -> Precoder:
    """Ridge-regularized zero forcing on the chosen basis, with the ridge
    ``total_layers * noise_var / power``."""
    return closed_forms(decomp, (f"rzf_{basis}",), power, noise_var)[0]


def wrzf(decomp: ChannelDecomposition, power: float, noise_var: float) -> Precoder:
    """Ridge on the layer rows sized by the total inverse channel gain,
    ``noise_var / power * sum(1 / s^2)``."""
    return closed_forms(decomp, ("wrzf",), power, noise_var)[0]


def arzf(decomp: ChannelDecomposition, power: float, noise_var: float) -> Precoder:
    """Gain-adapted ridge: each layer's ridge entry is
    ``total_layers * noise_var / power`` divided by that layer's squared
    singular value, so weak layers are regularized harder."""
    return closed_forms(decomp, ("arzf",), power, noise_var)[0]


def parametric_rzf(decomp: ChannelDecomposition, reg_vec, power: float) -> Precoder:
    """Per-layer diagonal ridge on the layer rows.

    ``raw = V^H @ inv(V V^H + diag(reg_vec))`` with elementwise
    nonnegative ``reg_vec`` of length ``total_layers``; the searched
    ridge builds stacks of these with :func:`ridge_stack`.
    """
    reg_vec = check_reg(reg_vec, decomp.dims.total_layers)
    check_positive("power", power)
    v = decomp.v[None]
    raw, gain, _ = ridge_stack(gram_stack(v), np.conj(v.swapaxes(1, 2)), reg_vec[None], 1.0, power)
    return Precoder(raw=raw[0], gain=gain[0])
