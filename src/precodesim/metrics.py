"""Link-quality metrics: per-layer SINR, per-user effective SINR and
spectral efficiency.

Layer SINRs treat everything outside the layer's own coupling as
interference, including leakage from the same user's other layers.
Per-user aggregation uses the geometric mean of the user's layer
SINRs, so one dead layer drags the user's effective SINR down hard.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .detection import check_scoring, mmse_stack
from .exceptions import DimensionError, ZeroSinrError
from .precoding import Precoder

__all__ = ["MetricsReport", "require_positive", "mmse_sinr_stack", "layer_sinr", "effective_sinr",
           "user_se", "report", "evaluate", "evaluate_many"]


@dataclass(frozen=True)
class MetricsReport:
    """Evaluated link metrics for one (channel, precoder, receiver)
    triple, or for a stack of precoders with the batch axis first
    (:func:`evaluate_many`)."""

    layer_sinr: np.ndarray
    eff_sinr: np.ndarray
    user_se: np.ndarray
    sum_se: float
    min_se: float


def sinr_terms(g: np.ndarray, eff: np.ndarray, own: np.ndarray, noise_var):
    """``(coup, sig, den, ok)`` of a batch of :attr:`ChannelSet.groups`
    stacks (batch axis first, as in :func:`mmse_stack`) with detection
    blocks ``g`` and ``eff = h @ W``: ``coup = g @ eff``; row j's power at
    layer ``own[:, j]`` is the signal ``sig[..., j]``, at every other layer
    (own ones included) interference, which ``den[..., j]`` sums with the
    detected noise.  The layer SINRs are ``sig / den``.  ``ok[b]`` is False
    where a ``sig`` or ``den`` of member b is not positive (underflow, NaN);
    that member's terms are then set to 1, so the division stays defined,
    and :func:`require_positive` turns it into ZeroSinrError."""
    coup = g @ eff
    mag = np.abs(coup) ** 2
    nb, n, nl = g.shape[:3]
    at = (np.arange(nb)[:, None, None], np.arange(n)[:, None], np.arange(nl), own)
    sig = mag[at]
    mag[at] = 0.0
    den = mag.sum(axis=-1) + np.reshape(noise_var, (-1, 1, 1)) * (np.abs(g) ** 2).sum(axis=-1)
    ok = (np.minimum(sig, den) > 0).reshape(nb, -1).all(axis=-1)
    if not ok.all():
        sig[~ok] = den[~ok] = 1.0
    return coup, sig, den, ok


def require_positive(ok) -> None:
    """Raise ZeroSinrError unless every ``ok`` of :func:`sinr_terms` holds."""
    if not np.all(ok):
        raise ZeroSinrError("a layer's signal or interference-plus-noise power is not positive")


def mmse_sinr_stack(groups, w: np.ndarray, noise_var):
    """Layer SINRs ``(B, total_layers)`` under per-user MMSE detection of
    a batch of weights ``w`` (batch axis first), the stages
    ``(eff, ah, m_inv, g, coup, sig, den)`` of each ``(h, own)`` of ``groups``,
    ``h[b]`` being the :attr:`ChannelSet.groups` stack of batch member b,
    and the :func:`sinr_terms` ``ok`` of each member over all groups."""
    sinrs = np.empty((len(w), w.shape[-1]))
    ok = np.ones(len(w), dtype=bool)
    stages = []
    for h, own in groups:
        eff, ah, m_inv, g = mmse_stack(h, w, own, noise_var)
        coup, sig, den, ok_group = sinr_terms(g, eff, own, noise_var)
        ok &= ok_group
        sinrs[:, own] = sig / den
        stages.append((eff, ah, m_inv, g, coup, sig, den))
    return sinrs, stages, ok


def layer_sinr(channels: ChannelSet, precoder: Precoder, blocks, noise_var: float) -> np.ndarray:
    """Per-layer SINR under the detection ``blocks``, one per user in user
    order (see :func:`sinr_terms`)."""
    w = precoder.weights
    check_scoring(channels.dims, w[None], noise_var, blocks)
    out = np.empty(channels.dims.total_layers)
    for users, h, own in channels.groups:
        g = np.stack([blocks[k] for k in users])
        _, sig, den, ok = sinr_terms(g[None], (h @ w)[None], own, noise_var)
        require_positive(ok)
        out[own] = sig[0] / den[0]
    return out


def effective_sinr(sinrs: np.ndarray, dims) -> np.ndarray:
    """Geometric mean of each user's layer SINRs, over the last axis."""
    sinrs = np.asarray(sinrs, dtype=float)
    if sinrs.shape[-1:] != (dims.total_layers,):
        raise DimensionError(f"sinr shape {sinrs.shape} != (..., {dims.total_layers})")
    if not np.all(sinrs > 0):
        raise ZeroSinrError("nonpositive SINR cannot enter a geometric mean")
    layers = np.asarray(dims.layers)
    return np.exp(np.add.reduceat(np.log(sinrs), layers.cumsum() - layers, axis=-1) / layers)


def user_se(eff: np.ndarray, dims) -> np.ndarray:
    """Per-user spectral efficiency, layers times log2(1 + effective),
    exact also where the effective SINR is below double precision's
    epsilon."""
    return np.asarray(dims.layers, dtype=float) * (np.log1p(eff) / np.log(2.0))


def report(channels: ChannelSet, precoder: Precoder, blocks, noise_var: float) -> MetricsReport:
    """Evaluate all metrics for one configuration, under the detection
    ``blocks`` of :func:`layer_sinr`."""
    return _summary(layer_sinr(channels, precoder, blocks, noise_var), channels.dims)


def evaluate(channels: ChannelSet, precoder: Precoder, noise_var: float) -> MetricsReport:
    """All metrics of ``precoder`` under per-user MMSE detection from one
    :func:`mmse_stack` pass, bitwise equal to :func:`report` with
    :func:`mmse_detection`."""
    return _summary(_mmse_sinrs(channels, precoder.weights[None], noise_var)[0], channels.dims)


def evaluate_many(channels: ChannelSet, weights: np.ndarray, noise_var) -> MetricsReport:
    """:func:`evaluate` of each of a stack of weights ``(B, num_tx,
    total_layers)``, member b under ``noise_var[b]`` (or all under one
    ``noise_var``), from one batched :func:`mmse_sinr_stack` call and one
    summary: every array of the report has the batch axis first, and each
    member is bitwise as alone.  Any layer SINR that is not positive raises
    ZeroSinrError."""
    return _summary(_mmse_sinrs(channels, np.asarray(weights, dtype=complex), noise_var),
                    channels.dims)


def _mmse_sinrs(channels: ChannelSet, w: np.ndarray, noise_var) -> np.ndarray:
    check_scoring(channels.dims, w, noise_var)
    groups = [(h[None], own) for _, h, own in channels.groups]
    sinrs, _, ok = mmse_sinr_stack(groups, w, noise_var)
    require_positive(ok)
    return sinrs


def _summary(sinrs, dims) -> MetricsReport:
    """The report of layer SINRs ``sinrs``, batch axes first."""
    eff = effective_sinr(sinrs, dims)
    se = user_se(eff, dims)
    return MetricsReport(layer_sinr=sinrs, eff_sinr=eff, user_se=se, sum_se=se.sum(axis=-1),
                         min_se=se.min(axis=-1))
