"""Linear precoder construction and transmit-power normalization.

Every builder returns a :class:`Precoder` holding the raw (closed-form)
weight matrix together with the scalar gain that scales it to the power
budget.  Raw matrices are what the algebraic identities speak about;
``weights`` (gain times raw) is what a transmitter would apply.

Normalization is per antenna: one scalar gain caps every antenna at
``power / num_tx``, with the most-loaded antenna hitting the cap, so
layer directions never change.
"""

from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelDecomposition
from .exceptions import (
    ConfigError,
    DimensionError,
    NotHpdError,
    NumericalError,
    SingularGramError,
    ZeroMatrixError,
    check_positive,
)
from .numerics import hpd_inverse

__all__ = [
    "Precoder",
    "normalize",
    "mrt",
    "zf",
    "rzf",
    "wrzf",
    "arzf",
    "parametric_rzf",
]

BASES = ("v", "f")


@dataclass(frozen=True)
class Precoder:
    """A raw precoding matrix plus its power-normalizing gain.

    Attributes
    ----------
    raw : ndarray, shape (num_tx, total_layers)
        Closed-form weight matrix before power scaling.
    gain : float
        Scalar applied to ``raw`` to meet the power budget.
    method : str
        Label of the constructing method.
    """

    raw: np.ndarray
    gain: float
    method: str

    @property
    def weights(self) -> np.ndarray:
        """Power-scaled weights ``gain * raw``."""
        return self.gain * self.raw


def normalize(raw: np.ndarray, power: float) -> float:
    """Scalar gain that makes the largest row norm of ``raw`` equal
    ``sqrt(power / num_tx)``."""
    check_positive("power", power)
    denom = np.linalg.norm(raw, axis=1).max() * np.sqrt(raw.shape[0])
    if denom == 0:
        raise ZeroMatrixError("cannot normalize an all-zero precoder")
    return np.sqrt(power) / denom


def _scaled(raw: np.ndarray, power: float, method: str) -> Precoder:
    """``raw`` with the gain that fits it to the power budget."""
    return Precoder(raw=raw, gain=normalize(raw, power), method=method)


def _ridge_inverse(gram: np.ndarray) -> np.ndarray:
    """:func:`hpd_inverse` of a ridged gram (stack), whose failure means
    dependent basis rows."""
    try:
        return hpd_inverse(gram)
    except NotHpdError as exc:
        raise SingularGramError("precoding basis has numerically dependent rows") from exc


def _ridge_solve(basis: np.ndarray, reg_diag) -> np.ndarray:
    """``basis^H @ inv(basis basis^H + diag(reg_diag))``; ``None``: no
    ridge.  The gram of an ``f`` basis can overflow, and a finite gram
    implies a finite basis, so only the gram is checked."""
    gram = basis @ basis.conj().T
    if reg_diag is not None:
        idx = np.arange(gram.shape[0])
        gram[idx, idx] += reg_diag
    if not np.isfinite(gram).all():
        raise NumericalError("gram of the precoding basis contains non-finite entries")
    return basis.conj().T @ _ridge_inverse(gram)


def _basis(decomp: ChannelDecomposition, which: str) -> np.ndarray:
    if which == "v":
        return decomp.v
    if which == "f":
        return decomp.s[:, None] * decomp.v
    raise ConfigError(f"unknown basis {which!r}, expected one of {BASES}")


def mrt(decomp: ChannelDecomposition, power: float) -> Precoder:
    """Matched transmission: raw weights are the conjugated layer rows."""
    raw = decomp.v.conj().T
    return _scaled(raw, power, "mrt")


def zf(decomp: ChannelDecomposition, power: float, basis: str = "v") -> Precoder:
    """Zero-forcing pseudoinverse of the chosen basis.

    ``basis="v"`` inverts the layer rows directly; ``basis="f"``
    inverts the singular-value-weighted rows.  Raises
    :class:`SingularGramError` when the basis rows are numerically
    dependent.
    """
    raw = _ridge_solve(_basis(decomp, basis), None)
    return _scaled(raw, power, f"zf_{basis}")


def rzf(
    decomp: ChannelDecomposition,
    power: float,
    noise_var: float,
    basis: str = "v",
    reg=None,
) -> Precoder:
    """Ridge-regularized zero forcing on the chosen basis.

    The default ridge is ``total_layers * noise_var / power``.  An
    explicit ``reg=0`` reproduces :func:`zf` exactly (the ridge term is
    skipped, not added as a zero).
    """
    if reg is None:
        check_positive("noise_var", noise_var)
        reg = decomp.dims.total_layers * noise_var / power
    if reg < 0 or not np.isfinite(reg):
        raise ConfigError(f"reg must be finite and >= 0, got {reg}")
    b = _basis(decomp, basis)
    raw = _ridge_solve(b, None if reg == 0 else np.full(len(b), float(reg)))
    return _scaled(raw, power, f"rzf_{basis}")


def wrzf(decomp: ChannelDecomposition, power: float, noise_var: float) -> Precoder:
    """Ridge on the layer rows sized by the total inverse channel gain,
    ``reg = noise_var / power * sum(1 / s^2)``."""
    check_positive("noise_var", noise_var)
    reg = noise_var / power * float(np.sum(decomp.s**-2.0))
    p = rzf(decomp, power, noise_var, basis="v", reg=reg)
    return replace(p, method="wrzf")


def check_reg(reg_vec, total_layers: int) -> np.ndarray:
    """``reg_vec`` as a float array of ``total_layers`` finite entries
    ``>= 0``, else DimensionError or ConfigError."""
    reg_vec = np.asarray(reg_vec, dtype=float)
    if reg_vec.shape != (total_layers,):
        raise DimensionError(f"reg_vec shape {reg_vec.shape} != ({total_layers},)")
    if np.any(reg_vec < 0) or not np.all(np.isfinite(reg_vec)):
        raise ConfigError("reg_vec entries must be finite and >= 0")
    return reg_vec


def gram_stack(v: np.ndarray) -> np.ndarray:
    """``v[b] @ v[b]^H`` for a stack ``v`` of layer rows."""
    return v @ np.conj(v.swapaxes(-1, -2))


def ridge_stack(gram: np.ndarray, vh: np.ndarray, reg: np.ndarray, sqrt_power: np.ndarray):
    """Raw weights ``vh[b] inv(gram[b] + diag(reg[b]))`` of a stack of
    per-layer ridges, with ``gram`` from :func:`gram_stack` of the layer
    rows ``v`` and ``vh = v^H``, and the gains that fit each to its power
    budget (``sqrt_power[b]`` squared) as :func:`normalize` does.  The
    inputs are trusted: finite, ``reg >= 0`` and ``sqrt_power > 0``.  Each
    matrix is its own LAPACK or BLAS call, so one member's result does not
    depend on the others in the stack."""
    k = gram.copy()
    idx = np.arange(k.shape[-1])
    k[:, idx, idx] += reg
    raw = vh @ _ridge_inverse(k)
    denom = np.linalg.norm(raw, axis=-1).max(axis=-1) * np.sqrt(vh.shape[-2])
    if np.any(denom == 0):
        raise ZeroMatrixError("cannot normalize an all-zero precoder")
    return raw, sqrt_power / denom


def parametric_rzf(decomp: ChannelDecomposition, reg_vec, power: float) -> Precoder:
    """Per-layer diagonal ridge on the layer rows.

    ``raw = V^H @ inv(V V^H + diag(reg_vec))`` with elementwise
    nonnegative ``reg_vec`` of length ``total_layers``; the searched
    ridge builds stacks of these with :func:`ridge_stack`.
    """
    reg_vec = check_reg(reg_vec, decomp.dims.total_layers)
    check_positive("power", power)
    v = decomp.v[None]
    raw, gain = ridge_stack(gram_stack(v), np.conj(v.swapaxes(1, 2)), reg_vec[None], np.sqrt([power]))
    return Precoder(raw=raw[0], gain=gain[0], method="parametric_rzf")


def arzf(decomp: ChannelDecomposition, power: float, noise_var: float) -> Precoder:
    """Gain-adapted ridge: each layer's ridge entry is
    ``total_layers * noise_var / power`` divided by that layer's squared
    singular value, so weak layers are regularized harder."""
    check_positive("noise_var", noise_var)
    lam = decomp.dims.total_layers * noise_var / power
    reg_vec = lam / decomp.s**2
    p = parametric_rzf(decomp, reg_vec, power)
    return replace(p, method="arzf")
