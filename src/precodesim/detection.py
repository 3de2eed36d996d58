"""Receive-side detection matrices.

Each user applies its own detection block to its own antennas; the
package never forms a joint receiver across users.  Two constructions
are provided: a channel-diagonalizing one built from the decomposition
alone, and the per-user linear MMSE receiver for a given precoder.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelDecomposition, ChannelSet
from .exceptions import DimensionError, check_positive
from .precoding import Precoder
from .numerics import factor_hpd, solve_factored

__all__ = ["DetectionSet", "conjugate_detection", "mmse_block", "mmse_detection"]


@dataclass(frozen=True)
class DetectionSet:
    """Per-user detection blocks, ``blocks[k]`` of shape
    ``(layers[k], rx[k])``, applied as ``blocks[k] @ y_k``."""

    blocks: tuple
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        for k, g in enumerate(self.blocks):
            if g.ndim != 2:
                raise DimensionError(f"blocks[{k}] must be 2-D")


def conjugate_detection(decomp: ChannelDecomposition) -> DetectionSet:
    """Detection that diagonalizes each user's own channel.

    User k applies ``diag(1/s_k) @ u_k``; composing with the channel
    block reproduces the layer rows exactly, so the effective noise
    on layer l is scaled by ``1 / s_l``.
    """
    blocks = tuple(
        decomp.s_block(k)[:, None] ** -1.0 * decomp.u_blocks[k]
        for k in range(decomp.dims.num_users)
    )
    return DetectionSet(blocks=blocks, kind="conjugate")


def mmse_block(a: np.ndarray, noise_var: float):
    """Push-through MMSE block ``G = inv(A^H A + noise_var I) @ A^H`` of
    one user's effective matrix ``a`` (rx x L), the minimizer of
    ``||G A - I||^2 + noise_var ||G||^2``, and the Cholesky factor of that
    L x L system.  ``G`` equals ``A^H inv(A A^H + noise_var I)``, whose
    rx x rx system is singular to working precision at low noise."""
    m = a.conj().T @ a
    idx = np.arange(m.shape[0])
    m[idx, idx] += noise_var
    factor = factor_hpd(m)
    return solve_factored(factor, a.conj().T), factor


def mmse_detection(
    channels: ChannelSet, precoder: Precoder, noise_var: float
) -> DetectionSet:
    """Per-user linear MMSE receiver for the precoded own-user signal:
    user k's block is :func:`mmse_block` of ``A_k = H_k @ W_k`` (own
    layers only)."""
    check_positive("noise_var", noise_var)
    dims = channels.dims
    w = precoder.weights
    if w.shape != (dims.num_tx, dims.total_layers):
        raise DimensionError(
            f"precoder shape {w.shape} != ({dims.num_tx}, {dims.total_layers})"
        )
    blocks = tuple(
        mmse_block(channels.blocks[k] @ w[:, dims.layer_slice(k)], noise_var)[0]
        for k in range(dims.num_users)
    )
    return DetectionSet(blocks=blocks, kind="mmse")
