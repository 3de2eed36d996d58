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
# At the max-row kink the gradient stays large and steps need long
# halving chains: on 18 traced opt_search searches, steps of more than 10
# halvings took 48% of the evaluations for 0.03% of the gain.
_WINDOW, _PROGRESS_TOL = 5, 1e-5


@dataclass(frozen=True)
class OptConfig:
    """Knobs for :func:`optimize`.

    Stopping, in this order: gradient infinity norm at or below
    ``grad_tol``; the objective gaining at most ``_PROGRESS_TOL * |J|``
    over the last ``_WINDOW`` accepted steps; ``max_iters`` steps.
    """

    max_iters: int = 100
    grad_tol: float = 1e-5
    memory: int = 10
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    init_step: float = 1.0
    max_backtracks: int = 30

    def __post_init__(self):
        if min(self.max_iters, self.memory) < 1 or self.max_backtracks < 0:
            raise ConfigError("max_iters, memory must be >= 1; max_backtracks >= 0")
        for name in ("grad_tol", "init_step"):
            check_positive(name, getattr(self, name))
        if not 0 < self.backtrack < 1:
            raise ConfigError("backtrack must be in (0, 1)")
        if not 0 < self.armijo_c1 < 1:
            raise ConfigError("armijo_c1 must be in (0, 1)")


@dataclass(frozen=True)
class OptResult:
    """Outcome of one search.

    ``trajectory`` rows are ``(iteration, objective, grad_norm, step)``
    with row 0 describing the starting point.  ``converged`` means the
    gradient test fired; otherwise ``reason`` is ``"progress stalled"``
    (plus ``" at a max-row kink"`` if the most-loaded antenna changed in
    the window), ``"iteration limit reached"`` or a line-search failure,
    and the returned point is still the best one seen.
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
    """Sum spectral efficiency at ridge diagonal ``reg``, with what its
    gradient reuses: the precoder, each user's effective SINR and the
    kernel stages of each user shape group."""
    dims = decomp.dims
    pre = parametric_rzf(decomp, reg, power)
    w = pre.weights
    sinrs = np.empty(dims.total_layers)
    stages = []
    for _, h, own in channels.groups:
        eff, ah, m, g = mmse_stack(h, w, own, noise_var)
        coup, sig, den = sinr_terms(g, eff, own, noise_var)
        sinrs[own] = sig / den
        stages.append((h, own, eff, ah, m, g, coup, sig, den))
    geo = effective_sinr(sinrs, dims)
    return float(user_se(geo, dims).sum()), pre, geo, stages


def objective(
    decomp: ChannelDecomposition, channels: ChannelSet, reg_vec, power: float, noise_var: float
) -> float:
    """Sum spectral efficiency of the parametric ridge precoder under
    per-user MMSE detection, bit-identical to :func:`report`'s
    ``sum_se`` for that precoder and its :func:`mmse_detection`."""
    return _evaluate(decomp, channels, reg_vec, power, noise_var)[0]


def _adjoint(decomp, noise_var, evaluation):
    """Gradient of the objective with respect to the elementwise log
    ``u`` of the ridge diagonal, in reverse mode from the ``_evaluate``
    result at that ridge, and the most-loaded antenna.  ``x_bar`` is the
    adjoint of ``x``, ``dJ = Re sum(conj(x_bar) * dx)``: ``y = a @ b`` sends
    ``y_bar @ b^H`` to ``a`` and ``a^H @ y_bar`` to ``b``, and ``|z|^2``
    sends ``2 z`` times its own adjoint to ``z``."""
    dims = decomp.dims
    lt = dims.total_layers
    _, pre, geo, stages = evaluation
    # SE_k = L_k log2(1 + geomean_k) and d geomean_k = geomean_k mean_j d log sinr_j
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
    return -np.sum(resid * (w_raw.T @ raw_bar.conj()), axis=1).real, top


def gradient(
    decomp: ChannelDecomposition, channels: ChannelSet, reg_vec, power: float, noise_var: float
) -> np.ndarray:
    """Gradient of the objective with respect to the elementwise log of
    ``reg_vec``, by reverse-mode differentiation of the objective's own
    evaluation chain, at about the cost of one more objective."""
    reg_vec = np.asarray(reg_vec, dtype=float)
    if np.any(reg_vec <= 0):
        raise ConfigError("gradient needs strictly positive reg entries")
    return _adjoint(decomp, noise_var, _evaluate(decomp, channels, reg_vec, power, noise_var))[0]


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
    gain-adapted starting ridge, with backtracking line search.  Each
    accepted ridge is evaluated once: its gradient and the returned
    precoder reuse the line search's evaluation.  Never raises on
    search stagnation: the best iterate seen is returned with
    ``converged=False`` and a reason string.  Fully deterministic.
    """

    def evaluate(reg):
        # trial points may overflow exp or produce degenerate systems;
        # both just mean "reject this step"
        with np.errstate(all="ignore"):
            try:
                ev = _evaluate(decomp, channels, reg, power, noise_var)
            except (PrecodesimError, np.linalg.LinAlgError, FloatingPointError):
                return None
        return ev if np.isfinite(ev[0]) else None

    def search(u_base, j_base, direction, slope):
        alpha = config.init_step
        for _ in range(config.max_backtracks + 1):
            cand = u_base + alpha * direction
            with np.errstate(over="ignore"):
                reg_try = np.exp(cand)
            ev = evaluate(reg_try)
            if ev is not None and -ev[0] <= -j_base + config.armijo_c1 * alpha * slope:
                return cand, reg_try, ev, alpha
            alpha *= config.backtrack
        return None

    # the search steps in u = log(reg) but evaluates at reg itself, so
    # the start (and a search that never moves) is exactly the arzf ridge,
    # and accepted ridge entries that underflow to zero stay differentiable
    reg = default_start(decomp, power, noise_var)
    u = np.log(reg)
    ev = evaluate(reg)
    if ev is None:
        raise NumericalError("objective undefined at the starting ridge")
    j_cur = j_start = ev[0]
    g, top = _adjoint(decomp, noise_var, ev)
    gnorm = float(np.abs(g).max())
    traj = [(0, j_cur, gnorm, 0.0)]
    pairs = deque(maxlen=config.memory)
    # objective and most-loaded antenna of the last _WINDOW + 1 iterates
    recent = deque([(j_cur, top)], maxlen=_WINDOW + 1)
    converged = False
    accepted = 0

    while True:
        if gnorm <= config.grad_tol:
            converged, reason = True, "gradient norm below tolerance"
            break
        if len(recent) > _WINDOW and j_cur - recent[0][0] <= _PROGRESS_TOL * abs(j_cur):
            kink = len({row for _, row in recent}) > 1
            reason = "progress stalled at a max-row kink" if kink else "progress stalled"
            break
        if accepted == config.max_iters:
            reason = "iteration limit reached"
            break
        p = _two_loop(-g, list(pairs)) if pairs else g
        found = search(u, j_cur, p, float(-g @ p)) if float(g @ p) > 0 else None
        if found is None and pairs:
            # curvature memory can point downhill or across a normalization
            # kink; drop it and retry along the raw gradient
            pairs.clear()
            found = search(u, j_cur, g, float(-g @ g))
        if found is None:
            reason = "line search failed to find an acceptable step"
            break
        u_new, reg, ev, alpha = found

        g_new, top = _adjoint(decomp, noise_var, ev)
        s = u_new - u
        yv = (-g_new) - (-g)
        sy = float(s @ yv)
        if sy > 1e-12:
            pairs.append((s, yv, 1.0 / sy))

        u, j_cur, g = u_new, ev[0], g_new
        gnorm = float(np.abs(g).max())
        accepted += 1
        traj.append((accepted, j_cur, gnorm, alpha))
        recent.append((j_cur, top))

    return OptResult(
        reg_vec=reg,
        precoder=ev[1],
        objective=j_cur,
        start_objective=j_start,
        iterations=accepted,
        converged=converged,
        reason=reason,
        grad_norm=gnorm,
        trajectory=tuple(traj),
    )
