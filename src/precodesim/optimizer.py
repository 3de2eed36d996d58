"""Search over per-layer ridge weights that maximizes sum spectral
efficiency.

The variable is the diagonal of the ridge in the parametric precoder.
Search runs in elementwise log space, which keeps the ridge positive
without constraints.  Function values come from the production
evaluation kernel (precoder build, then :func:`mmse_stack` and
:func:`sinr_terms` per shape group of users, as in
:func:`mmse_detection` and :func:`report`), so the objective at the
starting point is bit-identical to the plain gain-adapted ridge.  The
search follows the reverse-mode (adjoint) gradient of that same
computation; its oracle, central differences of the objective, lives
in :mod:`verification`.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .channel import ChannelDecomposition, ChannelSet
from .detection import mmse_stack
from .exceptions import ConfigError, NumericalError, PrecodesimError, check_positive
from .metrics import effective_sinr, sinr_terms, user_se
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


def _evaluate(decomp, channels, reg, power, noise_var):
    """The precoder at ridge diagonal ``reg``, its layer SINRs and the
    kernel stages of each user shape group."""
    pre = parametric_rzf(decomp, reg, power)
    w = pre.weights
    sinrs = np.empty(decomp.dims.total_layers)
    stages = []
    for _, h, own in channels.groups:
        eff, ah, m, g = mmse_stack(h, w, own, noise_var)
        coup, sig, den = sinr_terms(g, eff, own, noise_var)
        sinrs[own] = sig / den
        stages.append((h, own, eff, ah, m, g, coup, sig, den))
    return pre, sinrs, stages


def objective(
    decomp: ChannelDecomposition, channels: ChannelSet, reg_vec, power: float, noise_var: float
) -> float:
    """Sum spectral efficiency of the parametric ridge precoder under
    per-user MMSE detection, bit-identical to :func:`report`'s
    ``sum_se`` for that precoder and its :func:`mmse_detection`."""
    dims = decomp.dims
    sinrs = _evaluate(decomp, channels, reg_vec, power, noise_var)[1]
    return float(user_se(effective_sinr(sinrs, dims), dims).sum())


def _adjoint(decomp, channels, reg, power, noise_var):
    """Gradient of the objective at ridge diagonal ``reg`` with respect to
    its elementwise log ``u``, in reverse mode.  ``x_bar`` is the adjoint
    of ``x``, ``dJ = Re sum(conj(x_bar) * dx)``: ``y = a @ b`` sends
    ``y_bar @ b^H`` to ``a`` and ``a^H @ y_bar`` to ``b``, and ``|z|^2``
    sends ``2 z`` times its own adjoint to ``z``."""
    dims = decomp.dims
    lt = dims.total_layers
    pre, sinrs, stages = _evaluate(decomp, channels, reg, power, noise_var)
    # SE_k = L_k log2(1 + geomean_k) and d geomean_k = geomean_k mean_j d log sinr_j
    geo = effective_sinr(sinrs, dims)
    dlog_sinr = np.repeat(geo / (1.0 + geo), dims.layers) / _LN2

    w_bar = np.zeros_like(pre.raw)
    for h, own, eff, ah, m, g, coup, sig, den in stages:
        at = (np.arange(len(own))[:, None], np.arange(own.shape[1]), own)
        sig_bar, den_bar = dlog_sinr[own] / sig, -dlog_sinr[own] / den
        coup_bar = np.repeat(den_bar[:, :, None], lt, axis=2)
        coup_bar[at] = sig_bar
        coup_bar = 2.0 * coup_bar * coup
        gh = np.conj(g.transpose(0, 2, 1))
        g_bar = coup_bar @ np.conj(eff.transpose(0, 2, 1))
        g_bar += 2.0 * noise_var * den_bar[:, :, None] * g
        eff_bar = gh @ coup_bar
        # g = inv(m) ah and m = ah ah^H + noise_var I
        ah_bar = np.linalg.solve(m, g_bar)
        m_bar = -ah_bar @ gh
        ah_bar += (m_bar + np.conj(m_bar.transpose(0, 2, 1))) @ ah
        eff_bar[at[0], :, own] += ah_bar.conj()
        w_bar += np.conj(h.reshape(-1, h.shape[2]).T) @ eff_bar.reshape(-1, lt)

    # w = gain raw with gain = sqrt(power / num_tx) / rho, rho the largest
    # row norm of raw
    w_raw = pre.raw
    top = int(np.argmax(np.linalg.norm(w_raw, axis=1)))
    gain_bar = float(np.sum(w_bar.conj() * w_raw).real)
    raw_bar = pre.gain * w_bar
    raw_bar[top] -= gain_bar * pre.gain / np.sum(np.abs(w_raw[top]) ** 2) * w_raw[top]
    # raw = V^H inv(K), K = V V^H + diag(r), so d raw = -raw diag(dr) inv(K),
    # and r_d inv(K)[d, :] is (I - V raw)[d, :]
    resid = np.eye(lt) - decomp.v @ w_raw
    return -np.sum(resid * (w_raw.T @ raw_bar.conj()), axis=1).real


def gradient(
    decomp: ChannelDecomposition, channels: ChannelSet, reg_vec, power: float, noise_var: float
) -> np.ndarray:
    """Gradient of the objective with respect to the elementwise log of
    ``reg_vec``, by reverse-mode differentiation of the objective's own
    evaluation chain, at about the cost of one more objective."""
    reg_vec = np.asarray(reg_vec, dtype=float)
    if np.any(reg_vec <= 0):
        raise ConfigError("gradient needs strictly positive reg entries")
    return _adjoint(decomp, channels, reg_vec, power, noise_var)


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
    g = _adjoint(decomp, channels, reg, power, noise_var)
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

        g_new = _adjoint(decomp, channels, reg_new, power, noise_var)
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
