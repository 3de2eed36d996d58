"""Receive-side detection matrices.

Each user applies its own detection block to its own antennas; the
package never forms a joint receiver across users.  Two constructions
are provided: a channel-diagonalizing one built from the decomposition
alone, and the per-user linear MMSE receiver for a given precoder,
computed for all users of one shape at once.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelDecomposition, ChannelSet
from .exceptions import DimensionError, check_positive
from .numerics import hpd_inverse
from .precoding import Precoder

__all__ = ["DetectionSet", "conjugate_detection", "mmse_stack", "mmse_detection"]


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


def mmse_stack(h: np.ndarray, w: np.ndarray, own: np.ndarray, noise_var):
    """MMSE blocks of a batch of :attr:`ChannelSet.groups` stacks, batch
    axis first: ``h[b]`` is one stack of user blocks, ``w[b]`` its weights
    and ``noise_var`` a scalar or one value per ``b``.  Returns
    ``eff = h @ w``, ``ah = A^H`` for the own-layer columns
    ``A = eff[b, i][:, own[i]]``, the inverse ``m_inv`` of
    ``m = A^H A + noise_var I`` and ``g = m_inv A^H``, the minimizer of
    ``||G A - I||^2 + noise_var ||G||^2``.
    This L x L form equals ``A^H inv(A A^H + noise_var I)``, whose rx x rx
    system is singular to working precision at low noise.  Every matrix is
    its own BLAS or LAPACK call, so batch members do not change each other's
    bits.  A non-HPD ``m`` anywhere in the batch raises NotHpdError."""
    eff = h @ w[:, None]
    nb, n = eff.shape[:2]
    ah = eff.swapaxes(-1, -2)[np.arange(nb)[:, None, None], np.arange(n)[:, None], own].conj()
    m = ah @ np.conj(ah.swapaxes(-1, -2))
    m.reshape(nb, n, -1)[..., :: m.shape[-1] + 1] += np.reshape(noise_var, (-1, 1, 1))
    m_inv = hpd_inverse(m)
    return eff, ah, m_inv, m_inv @ ah


def mmse_detection(channels: ChannelSet, precoder: Precoder, noise_var: float) -> DetectionSet:
    """Per-user linear MMSE receiver for the precoded own-user signal:
    user k's block is the :func:`mmse_stack` block of ``A_k = H_k @ W_k``
    (own layers only)."""
    check_positive("noise_var", noise_var)
    dims = channels.dims
    w = precoder.weights
    if w.shape != (dims.num_tx, dims.total_layers):
        raise DimensionError(
            f"precoder shape {w.shape} != ({dims.num_tx}, {dims.total_layers})"
        )
    blocks = {}
    for users, h, own in channels.groups:
        blocks.update(zip(users, mmse_stack(h[None], w[None], own, noise_var)[3][0]))
    return DetectionSet(blocks=[blocks[k] for k in range(dims.num_users)], kind="mmse")
