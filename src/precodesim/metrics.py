"""Link-quality metrics: per-layer SINR, per-user effective SINR and
spectral efficiency.

Layer SINRs treat everything outside the layer's own coupling as
interference, including leakage from the same user's other layers.
Per-user aggregation uses the geometric mean of the user's layer
SINRs, so one dead layer drags the user's effective SINR down hard.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import ChannelSet, UserGroup
from .detection import _mmse_stack, check_scoring
from .exceptions import DimensionError, NotHpdError, ZeroSinrError
from .precoding import Precoder

__all__ = ["MetricsReport", "require_scored", "mmse_sinr_stack", "layer_sinr", "effective_sinr",
           "user_se", "report", "evaluate", "evaluate_many"]

_LN2 = math.log(2.0)


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


def sinr_terms(g: np.ndarray, eff: np.ndarray, group: UserGroup, noise_var):
    """``(coup, sig, den, ok)`` of a :class:`UserGroup` for a batch of
    weights W (batch axis first, as in :func:`mmse_stack`) with detection
    blocks ``g`` and ``eff = h @ W``: ``coup = g @ eff``; row j's power at
    layer ``own[:, j]`` is the signal ``sig[..., j]``, at every other layer
    (own ones included) interference, which ``den[..., j]`` sums with the
    detected noise.  The layer SINRs are ``sig / den``.  ``ok[b]`` is False
    where a ``sig`` or ``den`` of member b is not positive (underflow, NaN),
    which :func:`require_scored` turns into ZeroSinrError."""
    coup = g @ eff
    mag = np.abs(coup) ** 2
    nb, n, nl, _ = mag.shape
    flat = mag.reshape(nb, -1)
    sig = flat[:, group.lanes].reshape(nb, n, nl)
    flat[:, group.lanes] = 0.0
    den = mag.sum(axis=-1) + np.asarray(noise_var).reshape(-1, 1, 1) * (np.abs(g) ** 2).sum(axis=-1)
    ok = (np.minimum(sig, den) > 0).reshape(nb, -1).all(axis=-1)
    return coup, sig, den, ok


def require_scored(ok, stages=()) -> None:
    """Unless every ``ok`` of :func:`mmse_sinr_stack` (with its ``stages``)
    or of :func:`sinr_terms` holds, raise NotHpdError if an MMSE system of
    ``stages`` is not HPD, else ZeroSinrError."""
    if not ok.all():
        if not all(stage[-1].all() for stage in stages):
            raise NotHpdError("matrix is not positive definite")
        raise ZeroSinrError("a layer SINR, signal or interference-plus-noise power is not positive")


def mmse_sinr_stack(groups, w: np.ndarray, noise_var):
    """Layer SINRs ``(B, total_layers)`` under per-user MMSE detection of
    a batch of weights ``w`` (batch axis first), the stages
    ``(eff, ah, m_inv, g, coup, sig, den, hpd)`` of each :class:`UserGroup`
    of ``groups`` (see :func:`mmse_stack`) and the mask ``ok`` of members
    whose MMSE systems are HPD, whose :func:`sinr_terms` ``ok`` holds and
    whose layer SINRs do not underflow to 0.  A failed member's SINRs read
    1, so that aggregates of them stay defined.  Nothing warns."""
    with np.errstate(all="ignore"):
        return _mmse_sinr_stack(groups, [group.h for group in groups], w, noise_var)


def _mmse_sinr_stack(groups, hs, w: np.ndarray, noise_var):
    """:func:`mmse_sinr_stack` with the user blocks ``hs[i]`` in place of
    ``groups[i].h``, under the caller's ``np.errstate``: a failed member
    warns unless the caller ignores it."""
    sinrs, ok, stages = np.empty((len(w), w.shape[-1])), True, []
    for group, h in zip(groups, hs):
        eff, ah, m_inv, g, hpd = _mmse_stack(group, h, w, noise_var)
        coup, sig, den, ok_group = sinr_terms(g, eff, group, noise_var)
        ok = ok_group & hpd & ok
        sinrs[:, group.own] = sig / den
        stages.append((eff, ah, m_inv, g, coup, sig, den, hpd))
    ok &= (sinrs > 0).all(axis=-1)
    if not ok.all():
        sinrs[~ok] = 1.0
    return sinrs, stages, ok


def layer_sinr(channels: ChannelSet, precoder: Precoder, blocks, noise_var: float) -> np.ndarray:
    """Per-layer SINR under the detection ``blocks``, one per user in user
    order (see :func:`sinr_terms`)."""
    w = precoder.weights
    check_scoring(channels.dims, w[None], noise_var, blocks)
    out = np.empty(channels.dims.total_layers)
    for group in channels.groups:
        g = np.stack([blocks[k] for k in group.users])
        _, sig, den, ok = sinr_terms(g[None], (group.h @ w)[None], group, noise_var)
        require_scored(ok)
        out[group.own] = sig[0] / den[0]
    return out


def effective_sinr(sinrs: np.ndarray, dims) -> np.ndarray:
    """Geometric mean of each user's layer SINRs, over the last axis."""
    sinrs = np.asarray(sinrs, dtype=float)
    if sinrs.shape[-1:] != (dims.total_layers,):
        raise DimensionError(f"sinr shape {sinrs.shape} != (..., {dims.total_layers})")
    if not (sinrs > 0).all():
        raise ZeroSinrError("nonpositive SINR cannot enter a geometric mean")
    return _geomean(sinrs, dims)


def _geomean(sinrs: np.ndarray, dims) -> np.ndarray:
    """:func:`effective_sinr` of a float array of positive SINRs, unchecked."""
    layers, starts, _ = _layer_counts(dims.layers)
    return np.exp(np.add.reduceat(np.log(sinrs), starts, axis=-1) / layers)


def user_se(eff: np.ndarray, dims) -> np.ndarray:
    """Per-user spectral efficiency, layers times log2(1 + effective),
    exact also where the effective SINR is below double precision's
    epsilon."""
    return _layer_counts(dims.layers)[2] * (np.log1p(eff) / _LN2)


@lru_cache(maxsize=16)
def _layer_counts(layers: tuple):
    """Each user's layer count as an int array, the user's first layer, and
    the count as a float array; read-only, as every caller shares them."""
    counts = np.array(layers)
    out = counts, counts.cumsum() - counts, counts.astype(float)
    for a in out:
        a.setflags(write=False)
    return out


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
    member is bitwise as alone.  A member whose MMSE system is not HPD
    raises NotHpdError, and one with a layer SINR that is not positive
    ZeroSinrError."""
    return _summary(_mmse_sinrs(channels, np.asarray(weights, dtype=complex), noise_var),
                    channels.dims)


def _mmse_sinrs(channels: ChannelSet, w: np.ndarray, noise_var) -> np.ndarray:
    check_scoring(channels.dims, w, noise_var)
    sinrs, stages, ok = mmse_sinr_stack(channels.groups, w, noise_var)
    require_scored(ok, stages)
    return sinrs


def _summary(sinrs, dims) -> MetricsReport:
    """The report of layer SINRs ``sinrs``, batch axes first."""
    eff = effective_sinr(sinrs, dims)
    se = user_se(eff, dims)
    return MetricsReport(layer_sinr=sinrs, eff_sinr=eff, user_se=se, sum_se=se.sum(axis=-1),
                         min_se=se.min(axis=-1))
