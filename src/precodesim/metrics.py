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
    "layer_sinr",
    "layer_sinr_conjugate",
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


def layer_sinr(
    channels: ChannelSet,
    precoder: Precoder,
    detection: DetectionSet,
    noise_var: float,
) -> np.ndarray:
    """Per-layer SINR under the given detection blocks.

    Layer l of user k sees signal through its own detection row and
    interference from every other layer in the system, plus detection-
    shaped noise.
    """
    check_positive("noise_var", noise_var)
    dims = channels.dims
    w = precoder.weights
    out = np.empty(dims.total_layers)
    for k in range(dims.num_users):
        eff = channels.blocks[k] @ w
        g = detection.blocks[k]
        if g.shape != (dims.layers[k], dims.rx[k]):
            raise DimensionError(
                f"detection block {k} shape {g.shape} != "
                f"({dims.layers[k]}, {dims.rx[k]})"
            )
        coup = g @ eff
        noise = noise_var * np.sum(np.abs(g) ** 2, axis=1)
        base = dims.layer_slice(k).start
        for j in range(dims.layers[k]):
            row = np.abs(coup[j]) ** 2
            sig = row[base + j]
            out[base + j] = sig / (row.sum() - sig + noise[j])
    return out


def layer_sinr_conjugate(
    decomp: ChannelDecomposition, precoder: Precoder, noise_var: float
) -> np.ndarray:
    """Closed-form per-layer SINR under channel-diagonalizing detection.

    Uses only the layer rows, singular values and weights:
    ``|t_ll|^2 / (sum_{i!=l} |t_li|^2 + noise_var / s_l^2)`` with
    ``T = V @ W``.
    """
    check_positive("noise_var", noise_var)
    t = decomp.v @ precoder.weights
    mag = np.abs(t) ** 2
    sig = np.diag(mag)
    interf = mag.sum(axis=1) - sig
    return sig / (interf + noise_var / decomp.s**2)


def effective_sinr(sinrs: np.ndarray, dims) -> np.ndarray:
    """Geometric mean of each user's layer SINRs."""
    sinrs = np.asarray(sinrs, dtype=float)
    if sinrs.shape != (dims.total_layers,):
        raise DimensionError(f"sinr shape {sinrs.shape} != ({dims.total_layers},)")
    if np.any(sinrs <= 0):
        raise ZeroSinrError("nonpositive SINR cannot enter a geometric mean")
    return np.array(
        [
            np.exp(np.mean(np.log(sinrs[dims.layer_slice(k)])))
            for k in range(dims.num_users)
        ]
    )


def user_se(eff: np.ndarray, dims) -> np.ndarray:
    """Per-user spectral efficiency, layers times log2(1 + effective)."""
    return np.asarray(dims.layers, dtype=float) * np.log2(1.0 + np.asarray(eff))


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
