"""Seeded draws, the public closed-form builders, a sweep row lookup,
the per-point and per-search oracles and a child interpreter on this
source tree, shared by the test modules."""

import os
import subprocess
import sys
from collections import namedtuple
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

import precodesim
from precodesim.channel import ChannelSet, SystemDims, calibrate_noise
from precodesim.exceptions import check_positive
from precodesim.metrics import evaluate_many
from precodesim.numerics import complex_normal
from precodesim.optimizer import OptConfig, optimize
from precodesim.precoding import arzf, closed_forms, mrt, rzf, wrzf, zf

# Closed-form token -> its public builder(decomp, power, noise_var), one
# call per precoder.
BUILDERS = {
    "mrt": lambda d, p, nv: mrt(d, p),
    "zf_v": lambda d, p, nv: zf(d, p, basis="v"),
    "zf_f": lambda d, p, nv: zf(d, p, basis="f"),
    "rzf_v": lambda d, p, nv: rzf(d, p, nv, basis="v"),
    "rzf_f": lambda d, p, nv: rzf(d, p, nv, basis="f"),
    "wrzf": wrzf,
    "arzf": arzf,
}

SRC = str(Path(precodesim.__file__).resolve().parent.parent)


def run_child(args, **env):
    """``python <args>`` in a fresh interpreter that imports this source
    tree, with ``env`` added to the environment."""
    child_env = dict(os.environ, **env)
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=child_env, capture_output=True,
                          text=True, timeout=300)


def complex_gaussian(rng_seed: int, rows: int, cols: int, variance: float) -> np.ndarray:
    """Seeded i.i.d. circularly symmetric complex Gaussian matrix.

    Deterministic for a given seed; per-entry variance is ``variance``.
    """
    rng = np.random.default_rng(rng_seed)
    return complex_normal(rng, (rows, cols), variance)


def gaussian_channels(seed=0, rx=(4, 4), layers=(2, 2), num_tx=12) -> ChannelSet:
    """Users with unit-variance i.i.d. Gaussian blocks, user ``k`` drawn
    from seed ``seed + k``."""
    blocks = tuple(complex_gaussian(seed + k, r, num_tx, 1.0) for k, r in enumerate(rx))
    return ChannelSet(dims=SystemDims(num_tx=num_tx, rx=rx, layers=layers), blocks=blocks)


def evaluate_point(channels, decomp, power, susinr_db, methods, opt_config=None):
    """All requested methods on one realization at one SINR level.

    Calibrates the noise variance for this realization, builds each
    precoder and scores it under per-user MMSE detection; returns a dict
    mapping method token to its metric report.
    """
    noise_var = calibrate_noise(decomp, power, susinr_db)
    closed = [m for m in methods if m != "opt"]
    pre = dict(zip(closed, closed_forms(decomp, closed, power, noise_var)))
    if "opt" in methods:
        res = optimize(decomp, channels, power, noise_var, opt_config or OptConfig())
        pre["opt"] = res.precoder
    rep = evaluate_many(channels, np.stack([pre[m].weights for m in methods]), noise_var)
    return {m: split(rep, b) for b, m in enumerate(methods)}


def split(rep, b):
    """Member ``b`` of a stacked :class:`MetricsReport`."""
    return replace(rep, **{f.name: getattr(rep, f.name)[b] for f in fields(rep)})


def row(result, susinr_db, method):
    """The one row of ``result`` at SINR level ``susinr_db`` and ``method``."""
    (found,) = [r for r in result.rows if (r.susinr_db, r.method) == (susinr_db, method)]
    return found


def av_susinr(decomp, power: float, noise_var: float) -> float:
    """Geometric mean over users of the single-user SINR
    ``power / (layers_k * noise_var) * geomean(s_k^2)``, in linear
    scale: the relation :func:`calibrate_noise` solves."""
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


def two_loop(grad_phi, pairs):
    """Standard limited-memory inverse-Hessian application for the
    minimization direction, one search at a time: ``pairs`` holds
    ``(s, y, 1 / (s y))``, oldest first."""
    q = grad_phi.copy()
    alphas = []
    for s, yv, rho in reversed(pairs):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * yv
    s, yv, rho = pairs[-1]
    q *= float(s @ yv) / float(yv @ yv)
    for (s, yv, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(yv @ q)
        q += (a - b) * s
    return -q


# A reduced SVD ``m = u^H @ diag(s) @ v``: rows of ``u`` and ``v`` orthonormal.
Svd = namedtuple("Svd", "u s v")


def reduced_svd_loop(m, keep):
    """Top-``keep`` singular triplets of ``m`` as an :data:`Svd`, with the
    phase fixed one pair at a time: the largest-magnitude entry of each row
    of ``v`` is made real and positive by scalar arithmetic."""
    u, s, vh = np.linalg.svd(np.asarray(m, dtype=complex), full_matrices=False)
    u, s, v = u[:, :keep].copy(), s[:keep].copy(), vh[:keep].copy()
    for i in range(keep):
        pivot = v[i, np.argmax(np.abs(v[i]))]
        phase = pivot / abs(pivot)
        v[i] *= np.conj(phase)
        u[:, i] *= phase
    return Svd(u=u.conj().T, s=s, v=v)
