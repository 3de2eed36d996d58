"""Link-quality metrics: per-layer SINR, per-user effective SINR and
spectral efficiency, and the single-user SINR scale used to place
noise levels.

Layer SINRs treat everything outside the layer's own coupling as
interference, including leakage from the same user's other layers.
Per-user aggregation uses the geometric mean of the user's layer
SINRs, so one dead layer drags the user's effective SINR down hard.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelDecomposition, ChannelSet
from .detection import DetectionSet
from .exceptions import DimensionError, ZeroSinrError, check_positive
from .precoding import Precoder

__all__ = [
    "MetricsReport",
    "sinr_terms",
    "layer_sinr",
    "effective_sinr",
    "user_se",
    "av_susinr",
    "report",
]


@dataclass(frozen=True)
class MetricsReport:
    """Evaluated link metrics for one (channel, precoder, detection)
    triple.  ``avg_se`` is ``sum_se`` divided by the user count."""

    layer_sinr: np.ndarray
    eff_sinr: np.ndarray
    user_se: np.ndarray
    sum_se: float
    min_se: float
    avg_se: float
    detection: str


def sinr_terms(g: np.ndarray, eff: np.ndarray, own: np.ndarray, noise_var: float):
    """``(coup, sig, den)`` of a :attr:`ChannelSet.groups` stack with
    detection blocks ``g`` and ``eff = h @ W``: ``coup = g @ eff``; row j's
    power at layer ``own[:, j]`` is the signal ``sig[:, j]``, at every other
    layer (own ones included) interference, which ``den[:, j]`` sums with
    the detected noise.  The layer SINRs are ``sig / den``; a ``sig`` or
    ``den`` that is not positive (underflow, NaN) raises ZeroSinrError."""
    coup = g @ eff
    mag = np.abs(coup) ** 2
    at = (np.arange(len(own))[:, None], np.arange(own.shape[1]), own)
    sig = mag[at]
    mag[at] = 0.0
    den = mag.sum(axis=2) + noise_var * (np.abs(g) ** 2).sum(axis=2)
    if not np.minimum(sig, den).min() > 0:
        raise ZeroSinrError("a layer's signal or interference-plus-noise power is not positive")
    return coup, sig, den


def layer_sinr(
    channels: ChannelSet, precoder: Precoder, detection: DetectionSet, noise_var: float
) -> np.ndarray:
    """Per-layer SINR under the given detection blocks (see
    :func:`sinr_terms`)."""
    check_positive("noise_var", noise_var)
    dims = channels.dims
    for k, g in enumerate(detection.blocks):
        if g.shape != (dims.layers[k], dims.rx[k]):
            raise DimensionError(
                f"detection block {k} shape {g.shape} != ({dims.layers[k]}, {dims.rx[k]})"
            )
    w = precoder.weights
    out = np.empty(dims.total_layers)
    for users, h, own in channels.groups:
        g = np.stack([detection.blocks[k] for k in users])
        _, sig, den = sinr_terms(g, h @ w, own, noise_var)
        out[own] = sig / den
    return out


def effective_sinr(sinrs: np.ndarray, dims) -> np.ndarray:
    """Geometric mean of each user's layer SINRs."""
    sinrs = np.asarray(sinrs, dtype=float)
    if sinrs.shape != (dims.total_layers,):
        raise DimensionError(f"sinr shape {sinrs.shape} != ({dims.total_layers},)")
    if not np.all(sinrs > 0):
        raise ZeroSinrError("nonpositive SINR cannot enter a geometric mean")
    layers = np.asarray(dims.layers)
    return np.exp(np.add.reduceat(np.log(sinrs), layers.cumsum() - layers) / layers)


def user_se(eff: np.ndarray, dims) -> np.ndarray:
    """Per-user spectral efficiency, layers times log2(1 + effective),
    exact also where the effective SINR is below double precision's
    epsilon."""
    return np.asarray(dims.layers, dtype=float) * (np.log1p(eff) / np.log(2.0))


def av_susinr(decomp: ChannelDecomposition, power: float, noise_var: float) -> float:
    """Geometric mean over users of the single-user SINR
    ``power / (layers_k * noise_var) * geomean(s_k^2)``, in linear
    scale."""
    check_positive("power", power)
    check_positive("noise_var", noise_var)
    logs = []
    for k in range(decomp.dims.num_users):
        s_k = decomp.s_block(k)
        logs.append(
            np.log(power / (decomp.dims.layers[k] * noise_var))
            + 2.0 * np.mean(np.log(s_k))
        )
    return float(np.exp(np.mean(logs)))


def report(
    channels: ChannelSet,
    precoder: Precoder,
    detection: DetectionSet,
    noise_var: float,
) -> MetricsReport:
    """Evaluate all metrics for one configuration."""
    dims = channels.dims
    sinrs = layer_sinr(channels, precoder, detection, noise_var)
    eff = effective_sinr(sinrs, dims)
    se = user_se(eff, dims)
    return MetricsReport(
        layer_sinr=sinrs,
        eff_sinr=eff,
        user_se=se,
        sum_se=float(se.sum()),
        min_se=float(se.min()),
        avg_se=float(se.sum() / dims.num_users),
        detection=detection.kind,
    )
