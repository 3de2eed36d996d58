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

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelDecomposition
from .exceptions import (
    ConfigError, DimensionError, SingularGramError, ZeroMatrixError, check_positive)
from .numerics import _hpd_inverse, as_complex_matrix

__all__ = ["Precoder", "RIDGES", "CLOSED_FORMS", "closed_stack", "mrt", "zf", "rzf", "wrzf", "arzf",
           "parametric_rzf"]

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


def _gain(raw: np.ndarray, power):
    """Row norms of a stack ``raw``, and each matrix's scalar gain that makes
    its largest row norm ``sqrt(power / num_tx)``: infinite for an all-zero
    matrix, which warns unless the caller ignores division by zero."""
    # np.linalg.norm(raw, axis=-1) without its argument handling
    norms = np.sqrt(np.add.reduce((raw.conj() * raw).real, axis=-1))
    return norms, np.sqrt(power) / (norms.max(axis=-1) * math.sqrt(raw.shape[-2]))


def _check_nonnegative(name: str, a: np.ndarray) -> None:
    if not (np.isfinite(a).all() and (a >= 0).all()):
        raise ConfigError(f"{name} entries must be finite and >= 0")


def check_reg(reg_vec, total_layers: int) -> np.ndarray:
    """``reg_vec`` as a float array of ``total_layers`` finite entries
    ``>= 0``, else DimensionError or ConfigError (also for complex, bool or
    text entries and for a ragged sequence)."""
    try:
        reg_vec = np.asarray(reg_vec)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise ConfigError("reg_vec must hold real numbers, got a ragged sequence") from None
    if reg_vec.dtype.kind not in "iuf":
        raise ConfigError(f"reg_vec must hold real numbers, got dtype {reg_vec.dtype}")
    reg_vec = reg_vec.astype(float, copy=False)
    if reg_vec.shape != (total_layers,):
        raise DimensionError(f"reg_vec shape {reg_vec.shape} != ({total_layers},)")
    _check_nonnegative("reg_vec", reg_vec)
    return reg_vec


def gram_stack(v: np.ndarray) -> np.ndarray:
    """``v[b] @ v[b]^H`` for a stack ``v`` of layer rows."""
    return v @ np.conj(v.swapaxes(-1, -2))


def ridge_stack(gram: np.ndarray, vh: np.ndarray, reg: np.ndarray, scale, power):
    """Raw weights ``vh[b] X[b] diag(scale[b])`` with ``X[b] = inv(gram[b] +
    diag(reg[b]))``, of a stack of per-layer ridges ``reg`` (shape ``(*B,
    layers)``, any batch axes ``B``), with ``gram`` from :func:`gram_stack`
    of the layer rows ``v`` and with ``vh = v^H`` and ``scale`` (None: no
    column scale) broadcast against the stack, their per-antenna gains at
    ``power``, ``X``, each member's most-loaded antenna (its largest row
    norm) and the mask ``ok`` of members whose gain is finite: a system that
    is not positive definite gives a NaN gain, all-zero raw weights an
    infinite one, and neither raises or warns.  The inputs are trusted:
    finite, ``reg >= 0``, ``scale >= 0`` and ``power > 0``.  Each matrix is
    its own LAPACK or BLAS call, so members do not change each other's
    bits."""
    with np.errstate(all="ignore"):
        return _ridge_stack(gram.copy(), vh, reg, scale, power)


def _ridge_stack(k: np.ndarray, vh: np.ndarray, reg: np.ndarray, scale, power):
    """:func:`ridge_stack` of the gram stack ``k``, which it overwrites with
    ``k + diag(reg)``, under the caller's ``np.errstate``."""
    k.reshape(*k.shape[:-2], -1)[..., :: k.shape[-1] + 1] += reg
    x = _hpd_inverse(k)[0]
    raw = vh @ x
    if scale is not None:
        raw *= scale
    norms, gain = _gain(raw, power)
    return raw, gain, x, norms.argmax(axis=-1), np.isfinite(gain)


def require_built(ok, gain) -> None:
    """Unless every ``ok`` of :func:`ridge_stack` holds, raise
    SingularGramError for a NaN gain, else ZeroMatrixError for an infinite one."""
    if not ok.all():
        if np.isnan(gain).any():
            raise SingularGramError("precoding basis has numerically dependent rows")
        if np.isinf(gain).any():
            raise ZeroMatrixError("cannot normalize an all-zero precoder")


def closed_stack(decomp, tokens, power: float, noise_vars):
    """Raw weights ``(levels, tokens, num_tx, total_layers)`` and gains
    ``(levels, tokens)`` of the closed forms ``tokens`` (of
    :data:`CLOSED_FORMS`) at each of the noise variances ``noise_vars``, in
    order.  Given a list of S decompositions of one dims, ``noise_vars``
    holds one such row per decomposition, and the results carry a leading
    seed axis of S: one decomposition is the list of one without that axis.
    The :data:`NOISE_FREE` forms are built once per decomposition and shared
    by its levels: ``mrt`` is one ``V^H``, and ``zf_v`` and ``zf_f`` are one
    member each of the one :func:`ridge_stack`, on each decomposition's gram
    ``V V^H``, that also holds every other form at every level.  Its ridges
    and column scales are checked to be finite and ``>= 0`` (else
    ConfigError), so each member has the bits of its one-level build.
    ``noise_vars`` may be ``[None]`` if only :data:`NOISE_FREE` forms are
    asked for; otherwise a None is a ConfigError that names the forms needing
    a noise variance."""
    many = not isinstance(decomp, ChannelDecomposition)
    decomps, rows = (list(decomp), list(noise_vars)) if many else ([decomp], [noise_vars])
    check_positive("power", power)
    unknown = [t for t in tokens if t not in CLOSED_FORMS]
    if unknown:
        raise ConfigError(f"unknown closed forms {unknown}, valid: {CLOSED_FORMS}")
    if many and (not decomps or len(rows) != len(decomps) or any(
            d.dims != decomps[0].dims or len(nvs) != len(rows[0])
            for d, nvs in zip(decomps[1:], rows[1:]))):
        raise DimensionError("closed_stack needs decompositions of one dims, each with as many "
                             "noise variances as the first")
    free = [t for t in tokens if t in NOISE_FREE and t != "mrt"]
    noisy = [t for t in tokens if t not in NOISE_FREE]
    for nv in (nv for nvs in rows for nv in nvs):
        if nv is not None:
            check_positive("noise_var", nv)
        elif noisy:
            raise ConfigError(f"closed forms {noisy} need a noise variance, got None")
    # stacked, each V keeps its memory layout, and so the order of the row
    # norms' sums, as alone
    v = np.stack([d.v for d in decomps])
    vh, levels, f, q = v.conj().swapaxes(1, 2), len(rows[0]), len(free), len(noisy)
    if f + q:  # mrt alone inverts nothing
        # ridge and column scale of each decomposition's members: the shared
        # forms, then the rest level by level
        rc = np.empty((len(decomps), f + levels * q, 2, decomps[0].dims.total_layers))
        with np.errstate(over="ignore"):  # an overflowing ridge fails the check
            for d, nvs, own in zip(decomps, rows, rc):
                per_level, nv = own[f:].reshape(levels, q, *own.shape[1:]), np.reshape(nvs, (-1, 1))
                for b, t in enumerate(free):
                    own[b, 0], own[b, 1] = RIDGES[t](d, power, None)
                for b, t in enumerate(noisy):
                    per_level[:, b, 0], per_level[:, b, 1] = RIDGES[t](d, power, nv)
        _check_nonnegative("ridge and column scale", rc)
        gram = gram_stack(v)[:, None].repeat(rc.shape[1], axis=1)
        r, g, _, _, ok = ridge_stack(gram, vh[:, None], rc[:, :, 0], rc[:, :, 1, None], power)
        require_built(ok, g)
    if "mrt" in tokens:  # the ridge forms' gain rule, on V^H
        with np.errstate(divide="ignore"):
            mrt_gain = _gain(vh, power)[1]
        require_built(np.isfinite(mrt_gain), mrt_gain)
    shape = (len(decomps), levels, len(tokens))
    raw, gain = np.empty((*shape, *vh.shape[1:]), dtype=complex), np.empty(shape)
    for j, t in enumerate(tokens):
        if t == "mrt":
            raw[:, :, j], gain[:, :, j] = vh[:, None], mrt_gain[:, None]
        elif t in free:  # one member, shared by the levels
            b = free.index(t)
            raw[:, :, j], gain[:, :, j] = r[:, b:b + 1], g[:, b:b + 1]
        else:
            at = slice(f + noisy.index(t), None, q)
            raw[:, :, j], gain[:, :, j] = r[:, at], g[:, at]
    return (raw, gain) if many else (raw[0], gain[0])


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
    raw, gain, _, _, ok = ridge_stack(gram_stack(v), np.conj(v.swapaxes(1, 2)), reg_vec[None],
                                      None, power)
    require_built(ok, gain)
    return Precoder(raw=raw[0], gain=gain[0])
