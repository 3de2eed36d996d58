"""Linear precoder construction and transmit-power normalization.

Every builder returns a :class:`Precoder` holding the raw (closed-form)
weight matrix together with the scalar gain that scales it to the power
budget.  Raw matrices are what the algebraic identities speak about;
``weights`` (gain times raw) is what a transmitter would apply.

Two normalization modes exist: ``"total"`` spends the full budget
``power`` summed over antennas, ``"per_antenna"`` caps every antenna at
``power / num_tx`` with the most-loaded antenna hitting the cap.  Both
use a single scalar gain, so layer directions never change.
"""

from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelDecomposition
from .exceptions import (
    ConfigError,
    DimensionError,
    NotHpdError,
    SingularGramError,
    ZeroMatrixError,
    check_positive,
)
from .numerics import solve_hpd

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
    norm_mode : str
        ``"total"`` or ``"per_antenna"``.
    """

    raw: np.ndarray
    gain: float
    method: str
    norm_mode: str

    @property
    def weights(self) -> np.ndarray:
        """Power-scaled weights ``gain * raw``."""
        return self.gain * self.raw


def normalize(raw: np.ndarray, power: float, mode: str = "per_antenna") -> float:
    """Scalar gain that fits ``raw`` to the power budget.

    ``"total"`` makes the Frobenius norm of the scaled matrix equal
    ``sqrt(power)``; ``"per_antenna"`` makes the largest row norm equal
    ``sqrt(power / num_tx)``.
    """
    check_positive("power", power)
    if mode == "total":
        denom = np.linalg.norm(raw)
    elif mode == "per_antenna":
        denom = np.linalg.norm(raw, axis=1).max() * np.sqrt(raw.shape[0])
    else:
        raise ConfigError(f"unknown normalization mode {mode!r}")
    if denom == 0:
        raise ZeroMatrixError("cannot normalize an all-zero precoder")
    return np.sqrt(power) / denom


def _scaled(raw: np.ndarray, power: float, norm_mode: str, method: str) -> Precoder:
    """``raw`` with the gain that fits it to the power budget."""
    return Precoder(raw=raw, gain=normalize(raw, power, norm_mode), method=method, norm_mode=norm_mode)


def _ridge_solve(basis: np.ndarray, reg_diag) -> np.ndarray:
    """``basis^H @ inv(basis basis^H + diag(reg_diag))`` via one
    Hermitian solve.  ``reg_diag=None`` means no ridge at all."""
    gram = basis @ basis.conj().T
    if reg_diag is not None:
        idx = np.arange(gram.shape[0])
        gram[idx, idx] += reg_diag
    try:
        x = solve_hpd(gram, basis)
    except NotHpdError as exc:
        raise SingularGramError(
            "precoding basis has numerically dependent rows"
        ) from exc
    return x.conj().T


def _basis(decomp: ChannelDecomposition, which: str) -> np.ndarray:
    if which == "v":
        return decomp.v
    if which == "f":
        return decomp.s[:, None] * decomp.v
    raise ConfigError(f"unknown basis {which!r}, expected one of {BASES}")


def mrt(decomp: ChannelDecomposition, power: float, norm_mode: str = "per_antenna") -> Precoder:
    """Matched transmission: raw weights are the conjugated layer rows."""
    raw = decomp.v.conj().T
    return _scaled(raw, power, norm_mode, "mrt")


def zf(
    decomp: ChannelDecomposition,
    power: float,
    basis: str = "v",
    norm_mode: str = "per_antenna",
) -> Precoder:
    """Zero-forcing pseudoinverse of the chosen basis.

    ``basis="v"`` inverts the layer rows directly; ``basis="f"``
    inverts the singular-value-weighted rows.  Raises
    :class:`SingularGramError` when the basis rows are numerically
    dependent.
    """
    raw = _ridge_solve(_basis(decomp, basis), None)
    return _scaled(raw, power, norm_mode, f"zf_{basis}")


def rzf(
    decomp: ChannelDecomposition,
    power: float,
    noise_var: float,
    basis: str = "v",
    reg=None,
    norm_mode: str = "per_antenna",
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
    return _scaled(raw, power, norm_mode, f"rzf_{basis}")


def wrzf(
    decomp: ChannelDecomposition,
    power: float,
    noise_var: float,
    norm_mode: str = "per_antenna",
) -> Precoder:
    """Ridge on the layer rows sized by the total inverse channel gain,
    ``reg = noise_var / power * sum(1 / s^2)``."""
    check_positive("noise_var", noise_var)
    reg = noise_var / power * float(np.sum(decomp.s**-2.0))
    p = rzf(decomp, power, noise_var, basis="v", reg=reg, norm_mode=norm_mode)
    return replace(p, method="wrzf")


def parametric_rzf(
    decomp: ChannelDecomposition,
    reg_vec,
    power: float,
    norm_mode: str = "per_antenna",
) -> Precoder:
    """Per-layer diagonal ridge on the layer rows.

    ``raw = V^H @ inv(V V^H + diag(reg_vec))`` with elementwise
    nonnegative ``reg_vec`` of length ``total_layers``.
    """
    reg_vec = np.asarray(reg_vec, dtype=float)
    lt = decomp.dims.total_layers
    if reg_vec.shape != (lt,):
        raise DimensionError(f"reg_vec shape {reg_vec.shape} != ({lt},)")
    if np.any(reg_vec < 0) or not np.all(np.isfinite(reg_vec)):
        raise ConfigError("reg_vec entries must be finite and >= 0")
    raw = _ridge_solve(decomp.v, reg_vec)
    return _scaled(raw, power, norm_mode, "parametric_rzf")


def arzf(
    decomp: ChannelDecomposition,
    power: float,
    noise_var: float,
    norm_mode: str = "per_antenna",
) -> Precoder:
    """Gain-adapted ridge: each layer's ridge entry is
    ``total_layers * noise_var / power`` divided by that layer's squared
    singular value, so weak layers are regularized harder."""
    check_positive("noise_var", noise_var)
    lam = decomp.dims.total_layers * noise_var / power
    reg_vec = lam / decomp.s**2
    p = parametric_rzf(decomp, reg_vec, power, norm_mode)
    return replace(p, method="arzf")
