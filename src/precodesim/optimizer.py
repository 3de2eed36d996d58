"""Search over per-layer ridge weights that maximizes sum spectral
efficiency.

The variable is the diagonal of the ridge in the parametric precoder.
Search runs in elementwise log space, which keeps the ridge positive
without constraints.  Function values always come from the production
evaluation path (precoder build, per-user MMSE detection, metric
report), so the objective at the starting point is bit-identical to
the plain gain-adapted ridge.  The search follows a hand-rolled
forward-mode gradient through that same computation; central
differences (``gradient(mode="fd")``) are kept as its test oracle.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .channel import ChannelDecomposition, ChannelSet
from .detection import mmse_block, mmse_detection
from .exceptions import ConfigError, NumericalError, PrecodesimError, check_positive
from .metrics import effective_sinr, report, sinr_terms
from .numerics import solve_factored
from .precoding import parametric_rzf

__all__ = [
    "OptConfig",
    "OptResult",
    "default_start",
    "objective",
    "gradient",
    "optimize",
]

_LN2 = np.log(2.0)


@dataclass(frozen=True)
class OptConfig:
    """Knobs for :func:`optimize`.

    Stopping: gradient infinity norm at or below ``grad_tol``, or both
    the objective change and the ridge change falling to ``obj_tol`` /
    ``step_tol``, or ``max_iters`` accepted steps.
    """

    max_iters: int = 100
    grad_tol: float = 1e-5
    obj_tol: float = 1e-9
    step_tol: float = 1e-9
    memory: int = 10
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    init_step: float = 1.0
    max_backtracks: int = 30

    def __post_init__(self):
        if self.max_iters < 1 or self.memory < 1 or self.max_backtracks < 0:
            raise ConfigError("max_iters, memory must be >= 1; max_backtracks >= 0")
        for name in ("grad_tol", "obj_tol", "step_tol", "init_step"):
            check_positive(name, getattr(self, name))
        if not 0 < self.backtrack < 1:
            raise ConfigError("backtrack must be in (0, 1)")
        if not 0 < self.armijo_c1 < 1:
            raise ConfigError("armijo_c1 must be in (0, 1)")


@dataclass(frozen=True)
class OptResult:
    """Outcome of one search.

    ``trajectory`` rows are ``(iteration, objective, grad_norm, step)``
    with row 0 describing the starting point.  ``converged`` is False
    when the iteration limit was hit or the line search gave up; the
    returned point is still the best one seen.
    """

    reg_vec: np.ndarray
    precoder: object
    objective: float
    start_objective: float
    iterations: int
    converged: bool
    reason: str
    grad_norm: float
    trajectory: tuple


def default_start(decomp: ChannelDecomposition, power: float, noise_var: float) -> np.ndarray:
    """Gain-adapted ridge diagonal, the canonical starting point."""
    lam = decomp.dims.total_layers * noise_var / power
    return lam / decomp.s**2


def objective(
    decomp: ChannelDecomposition,
    channels: ChannelSet,
    reg_vec,
    power: float,
    noise_var: float,
) -> float:
    """Sum spectral efficiency of the parametric ridge precoder under
    per-user MMSE detection.  This is the production evaluation path."""
    pre = parametric_rzf(decomp, reg_vec, power)
    det = mmse_detection(channels, pre, noise_var)
    return report(channels, pre, det, noise_var).sum_se


def _forward_pass(decomp, channels, reg, power, noise_var):
    """Gradient of the objective at ridge diagonal ``reg`` with respect
    to its elementwise log ``u``.

    Forward mode: the weights, detection blocks and layer SINR terms come
    from ``parametric_rzf``, ``mmse_block`` and ``sinr_terms``; this pass
    only carries their directional derivatives, one per ``u_d``.
    """
    dims = decomp.dims
    lt = dims.total_layers
    pre = parametric_rzf(decomp, reg, power)
    w_raw, w = pre.raw, pre.weights

    # w_raw = V^H inv(K), K = V V^H + diag(r), and r_d inv(K)[d, :] is
    # (I - V w_raw)[d, :], so d w_raw / d u_d = -w_raw[:, d] (I - V w_raw)[d, :]
    dw_raw = -w_raw.T[:, :, None] * (np.eye(lt) - decomp.v @ w_raw)[:, None, :]
    # per-antenna gain sqrt(power / num_tx) / rho, rho the largest row norm
    rows = np.linalg.norm(w_raw, axis=1)
    top = int(np.argmax(rows))
    drho_rel = (dw_raw[:, top, :] @ w_raw[top].conj()).real / rows[top] ** 2
    dw = pre.gain * (dw_raw - drho_rel[:, None, None] * w_raw)

    sig, den = np.empty(lt), np.empty(lt)
    dsig, dden = np.empty((lt, lt)), np.empty((lt, lt))
    for k, h in enumerate(channels.blocks):
        sl = dims.layer_slice(k)
        eff, deff = h @ w, h @ dw
        a, da = eff[:, sl], deff[:, :, sl]
        g, factor = mmse_block(a, noise_var)
        # G = inv(M) A^H with M = A^H A + noise_var I: dG = inv(M) (dA^H - dM G)
        dah = np.conj(da.transpose(0, 2, 1))
        dm = dah @ a
        dm += np.conj(dm.transpose(0, 2, 1))
        dg = solve_factored(factor, np.eye(len(g))) @ (dah - dm @ g)
        coup, sig[sl], den[sl] = sinr_terms(g, eff, sl, noise_var)
        dmag = 2.0 * (coup.conj() * (dg @ eff + g @ deff)).real
        j = np.arange(len(g))
        dsig[:, sl] = dmag[:, j, sl.start + j]
        dmag[:, j, sl.start + j] = 0.0
        dden[:, sl] = dmag.sum(axis=2) + 2.0 * noise_var * (g.conj() * dg).real.sum(axis=2)

    eff_sinr = effective_sinr(sig / den, dims)
    # SE_k = L_k log2(1 + geomean_k), d geomean_k = geomean_k mean_j d log sinr_j
    dlog_sinr = dsig / sig - dden / den
    return dlog_sinr @ np.repeat(eff_sinr / (1.0 + eff_sinr), dims.layers) / _LN2


def gradient(
    decomp: ChannelDecomposition,
    channels: ChannelSet,
    reg_vec,
    power: float,
    noise_var: float,
    mode: str = "dual",
    fd_step: float = 1e-6,
) -> np.ndarray:
    """Gradient of the objective with respect to the elementwise log of
    ``reg_vec``.

    ``mode="dual"`` runs the analytic forward pass; ``mode="fd"`` takes
    central differences of the production objective with a relative
    step of ``fd_step`` per coordinate.
    """
    reg_vec = np.asarray(reg_vec, dtype=float)
    if np.any(reg_vec <= 0):
        raise ConfigError("gradient needs strictly positive reg entries")
    if mode == "dual":
        return _forward_pass(decomp, channels, reg_vec, power, noise_var)
    if mode != "fd":
        raise ConfigError(f"unknown gradient mode {mode!r}")
    u = np.log(reg_vec)
    g = np.empty(len(u))
    for i in range(len(u)):
        h = fd_step * max(1.0, abs(u[i]))
        up, dn = u.copy(), u.copy()
        up[i] += h
        dn[i] -= h
        jp = objective(decomp, channels, np.exp(up), power, noise_var)
        jm = objective(decomp, channels, np.exp(dn), power, noise_var)
        g[i] = (jp - jm) / (2.0 * h)
    return g


def _two_loop(grad_phi, pairs):
    """Standard limited-memory inverse-Hessian application for the
    minimization direction."""
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


def optimize(
    decomp: ChannelDecomposition,
    channels: ChannelSet,
    power: float,
    noise_var: float,
    config: OptConfig = OptConfig(),
) -> OptResult:
    """Maximize sum spectral efficiency over the ridge diagonal.

    Limited-memory quasi-Newton ascent in log space from the
    gain-adapted starting ridge, with backtracking line search.  Never
    raises on search stagnation: the best iterate seen is returned with
    ``converged=False`` and a reason string.  Fully deterministic.
    """

    def value_at(reg):
        # trial points may overflow exp or produce degenerate systems;
        # both just mean "reject this step"
        with np.errstate(all="ignore"):
            try:
                val = objective(decomp, channels, reg, power, noise_var)
            except (PrecodesimError, np.linalg.LinAlgError, FloatingPointError):
                return None
        return val if np.isfinite(val) else None

    def search(u_base, j_base, direction, slope):
        alpha = config.init_step
        for _ in range(config.max_backtracks + 1):
            cand = u_base + alpha * direction
            with np.errstate(over="ignore"):
                reg_try = np.exp(cand)
            val = value_at(reg_try)
            if val is not None and -val <= -j_base + config.armijo_c1 * alpha * slope:
                return cand, reg_try, val, alpha
            alpha *= config.backtrack
        return None

    # the search steps in u = log(reg) but evaluates at reg itself, so
    # the start (and a search that never moves) is exactly the arzf ridge,
    # and accepted ridge entries that underflow to zero stay differentiable
    reg = default_start(decomp, power, noise_var)
    u = np.log(reg)
    j_cur = value_at(reg)
    if j_cur is None:
        raise NumericalError("objective undefined at the starting ridge")
    j_start = j_cur
    g = _forward_pass(decomp, channels, reg, power, noise_var)
    gnorm = float(np.abs(g).max())
    traj = [(0, j_cur, gnorm, 0.0)]
    pairs = deque(maxlen=config.memory)
    converged = False
    reason = "iteration limit reached"
    accepted = 0

    for _ in range(config.max_iters):
        if gnorm <= config.grad_tol:
            converged = True
            reason = "gradient norm below tolerance"
            break
        g_phi = -g
        if pairs:
            p = _two_loop(g_phi, list(pairs))
        else:
            p = -g_phi
        slope = float(g_phi @ p)
        if slope >= 0:
            pairs.clear()
            p = -g_phi
            slope = float(g_phi @ p)

        found = search(u, j_cur, p, slope)
        if found is None and pairs:
            # curvature memory can point across a normalization kink;
            # drop it and retry along the raw gradient
            pairs.clear()
            p = g
            slope = float(g_phi @ p)
            found = search(u, j_cur, p, slope)
        if found is None:
            reason = "line search failed to find an acceptable step"
            break
        u_new, reg_new, j_new, alpha = found

        g_new = _forward_pass(decomp, channels, reg_new, power, noise_var)
        s = u_new - u
        yv = (-g_new) - (-g)
        sy = float(s @ yv)
        if sy > 1e-12:
            pairs.append((s, yv, 1.0 / sy))

        delta_j = abs(j_new - j_cur)
        delta_r = float(np.abs(reg_new - reg).max())
        u, reg, j_cur, g = u_new, reg_new, j_new, g_new
        gnorm = float(np.abs(g).max())
        accepted += 1
        traj.append((accepted, j_cur, gnorm, alpha))
        if delta_j <= config.obj_tol and delta_r <= config.step_tol:
            converged = True
            reason = "objective and ridge change below tolerance"
            break
    else:
        # loop exhausted; if the gradient is now small, call it converged
        if gnorm <= config.grad_tol:
            converged = True
            reason = "gradient norm below tolerance"

    return OptResult(
        reg_vec=reg,
        precoder=parametric_rzf(decomp, reg, power),
        objective=j_cur,
        start_objective=j_start,
        iterations=accepted,
        converged=converged,
        reason=reason,
        grad_norm=gnorm,
        trajectory=tuple(traj),
    )
