"""Receive-side detection matrices.

Each user applies its own detection block to its own antennas, and a
receiver is the tuple of those blocks in user order; the package never
forms a joint receiver across users.  Two constructions
are provided: a channel-diagonalizing one built from the decomposition
alone, and the per-user linear MMSE receiver for a given precoder,
computed for all users of one shape at once.
"""

import numpy as np

from .channel import ChannelDecomposition, ChannelSet, SystemDims, UserGroup
from .exceptions import DimensionError, NotHpdError, check_positive
from .numerics import _hpd_inverse
from .precoding import Precoder

__all__ = ["check_scoring", "conjugate_detection", "mmse_stack", "mmse_detection"]


def check_scoring(dims: SystemDims, w, noise_var, blocks=None) -> None:
    """The one input check of every scoring entry point: a weight stack
    ``w`` of shape ``(B, num_tx, total_layers)`` with ``B >= 1``, a
    ``noise_var`` that is a scalar or one value per member, each positive
    and finite, and, if given, one detection block ``(layers[k], rx[k])``
    per user.  Raises DimensionError or ConfigError."""
    want = (dims.num_tx, dims.total_layers)
    if np.ndim(w) != 3 or np.shape(w)[1:] != want or len(w) < 1:
        raise DimensionError(f"weight stack shape {np.shape(w)} != (B >= 1, {want[0]}, {want[1]})")
    if np.ndim(noise_var) and np.shape(noise_var) != (len(w),):
        raise DimensionError(f"noise_var shape {np.shape(noise_var)} != () or ({len(w)},)")
    for nv in dict.fromkeys(np.ravel(noise_var).tolist()):
        check_positive("noise_var", nv)
    if blocks is not None and [np.shape(g) for g in blocks] != list(zip(dims.layers, dims.rx)):
        raise DimensionError(f"detection block shapes {[np.shape(g) for g in blocks]} != "
                             f"{list(zip(dims.layers, dims.rx))}")


def conjugate_detection(decomp: ChannelDecomposition) -> tuple:
    """Detection that diagonalizes each user's own channel: the tuple of
    per-user blocks, in user order.

    User k applies ``diag(1/s_k) @ u_k``; composing with the channel
    block reproduces the layer rows exactly, so the effective noise
    on layer l is scaled by ``1 / s_l``.
    """
    return tuple(
        decomp.s_block(k)[:, None] ** -1.0 * decomp.u_blocks[k]
        for k in range(decomp.dims.num_users)
    )


def mmse_stack(group: UserGroup, w: np.ndarray, noise_var):
    """MMSE blocks of a :class:`UserGroup` for a batch of weights, batch
    axis first: ``w[b]`` is member b's weights, ``noise_var`` a scalar or
    one value per ``b``, and ``group.h`` one stack of user blocks for every
    member, or a stack of S such stacks along a leading seed axis that the
    members follow seed-major: ``h[s]`` serves members ``s * B / S`` to
    ``(s + 1) * B / S - 1`` (``h[b]`` serves ``b`` when S is B).  Returns
    ``eff = h @ w``, ``ah = A^H`` for the own-layer columns ``A = eff[b,
    i][:, own[i]]``, the inverse ``m_inv`` of ``m = A^H A + noise_var I``
    and ``g = m_inv A^H``, the minimizer of ``||G A - I||^2 + noise_var
    ||G||^2``.
    This L x L form equals ``A^H inv(A A^H + noise_var I)``, whose rx x rx
    system is singular to working precision at low noise.  Every matrix is
    its own BLAS or LAPACK call, so batch members do not change each other's
    bits.  Last comes the mask ``ok`` of members whose every ``m`` is HPD;
    an ``m`` that is not, an overflowed one too, has an all-NaN ``m_inv`` and
    ``g``, and warns nothing."""
    with np.errstate(all="ignore"):
        return _mmse_stack(group, group.h, w, noise_var)


def _mmse_stack(group: UserGroup, h: np.ndarray, w: np.ndarray, noise_var):
    """:func:`mmse_stack` of ``group`` with the user blocks ``h`` in place of
    ``group.h``, under the caller's ``np.errstate``."""
    nb = len(w)
    # (seeds, members per seed, users, rows, layers), one product per block
    eff = h[..., None, :, :, :] @ w.reshape(*h.shape[:-3], -1, 1, *w.shape[1:])
    eff = eff.reshape(nb, *eff.shape[-3:])
    _, n, rows, _ = eff.shape
    a_t = eff.reshape(nb, -1)[:, group.cols].reshape(nb, n, -1, rows)  # A^T
    ah = a_t.conj()
    m = ah @ a_t.swapaxes(-1, -2)
    m.reshape(nb, n, -1)[..., :: m.shape[-1] + 1] += np.asarray(noise_var).reshape(-1, 1, 1)
    m_inv, ok = _hpd_inverse(m)
    return eff, ah, m_inv, m_inv @ ah, ok.all(axis=-1)


def mmse_detection(channels: ChannelSet, precoder: Precoder, noise_var: float) -> tuple:
    """Per-user linear MMSE receiver for the precoded own-user signal: the
    tuple of per-user blocks, in user order, user k's block being the
    :func:`mmse_stack` block of ``A_k = H_k @ W_k`` (own layers only)."""
    w = precoder.weights
    check_scoring(channels.dims, w[None], noise_var)
    blocks = {}
    for group in channels.groups:
        *_, g, ok = mmse_stack(group, w[None], noise_var)
        if not ok.all():
            raise NotHpdError("matrix is not positive definite")
        blocks.update(zip(group.users, g[0]))
    return tuple(blocks[k] for k in range(channels.dims.num_users))
