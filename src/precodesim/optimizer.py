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
from scipy.linalg import cho_factor, cho_solve

from .channel import ChannelDecomposition, ChannelSet
from .detection import mmse_detection
from .exceptions import ConfigError, NumericalError, PrecodesimError, check_positive
from .metrics import report
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
    norm_mode: str = "per_antenna"

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
    norm_mode: str = "per_antenna",
) -> float:
    """Sum spectral efficiency of the parametric ridge precoder under
    per-user MMSE detection.  This is the production evaluation path."""
    pre = parametric_rzf(decomp, reg_vec, power, norm_mode)
    det = mmse_detection(channels, pre, noise_var)
    return report(channels, pre, det, noise_var).sum_se


def _forward_pass(decomp, channels, u, power, noise_var, norm_mode):
    """Objective value and analytic gradient with respect to ``u``
    (elementwise log of the ridge diagonal).

    Forward-mode: every intermediate carries a stack of directional
    tangents, one per parameter, pushed through the linear solves, the
    power normalization and the SINR aggregation.
    """
    dims = decomp.dims
    lt = dims.total_layers
    r = np.exp(u)
    v = decomp.v

    k_mat = v @ v.conj().T
    idx = np.arange(lt)
    k_mat[idx, idx] += r
    try:
        cho = cho_factor(k_mat, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"ridge system not positive definite: {exc}") from exc
    y = cho_solve(cho, v, check_finite=False)
    z = cho_solve(cho, np.eye(lt, dtype=complex), check_finite=False)
    w_raw = y.conj().T

    # d w_raw / d u_d = -r_d * conj(y[d,:]) outer conj(z[:,d])
    dw = -np.einsum("d,dt,ld->dtl", r, y.conj(), z.conj())

    if norm_mode == "per_antenna":
        row_norms = np.linalg.norm(w_raw, axis=1)
        t_star = int(np.argmax(row_norms))
        rho = row_norms[t_star]
        mu = np.sqrt(power / dims.num_tx) / rho
        drho = np.einsum("l,dl->d", w_raw[t_star].conj(), dw[:, t_star, :]).real / rho
        dmu = -np.sqrt(power / dims.num_tx) / rho**2 * drho
    elif norm_mode == "total":
        fro = np.linalg.norm(w_raw)
        mu = np.sqrt(power) / fro
        dfro = np.einsum("tl,dtl->d", w_raw.conj(), dw).real / fro
        dmu = -np.sqrt(power) / fro**2 * dfro
    else:
        raise ConfigError(f"unknown normalization mode {norm_mode!r}")

    w = mu * w_raw
    dw_full = dmu[:, None, None] * w_raw[None] + mu * dw

    total = 0.0
    grad = np.zeros(lt)
    for k in range(dims.num_users):
        h = channels.blocks[k]
        sl = dims.layer_slice(k)
        base = sl.start
        lk = dims.layers[k]

        eff = h @ w
        deff = np.einsum("rt,dtl->drl", h, dw_full)
        a = eff[:, sl]
        da = deff[:, :, sl]

        m = a @ a.conj().T
        ridx = np.arange(m.shape[0])
        m[ridx, ridx] += noise_var
        try:
            cho_m = cho_factor(m, lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"detection system failed for user {k}: {exc}") from exc
        q = cho_solve(cho_m, a, check_finite=False)
        g = q.conj().T

        dm = da @ a.conj().T + a[None] @ np.conj(np.transpose(da, (0, 2, 1)))
        rhs = da - dm @ q[None]
        dq = np.stack([cho_solve(cho_m, rhs[d], check_finite=False) for d in range(lt)])
        dg = np.conj(np.transpose(dq, (0, 2, 1)))

        coup = g @ eff
        dcoup = dg @ eff[None] + g[None] @ deff
        mag = np.abs(coup) ** 2
        dmag = 2.0 * (coup.conj()[None] * dcoup).real
        noise = noise_var * np.sum(np.abs(g) ** 2, axis=1)
        dnoise = 2.0 * noise_var * np.einsum("ji,dji->dj", g.conj(), dg).real

        sinr = np.empty(lk)
        dsinr = np.empty((lt, lk))
        for j in range(lk):
            sig = mag[j, base + j]
            denom = mag[j].sum() - sig + noise[j]
            dsig = dmag[:, j, base + j]
            ddenom = dmag[:, j, :].sum(axis=1) - dsig + dnoise[:, j]
            sinr[j] = sig / denom
            dsinr[:, j] = (dsig * denom - sig * ddenom) / denom**2
        if np.any(sinr <= 0):
            raise NumericalError("nonpositive layer SINR in forward pass")

        geo = np.exp(np.mean(np.log(sinr)))
        dgeo = geo * np.mean(dsinr / sinr[None, :], axis=1)
        total += lk * np.log2(1.0 + geo)
        grad += lk / ((1.0 + geo) * _LN2) * dgeo
    return total, grad


def gradient(
    decomp: ChannelDecomposition,
    channels: ChannelSet,
    reg_vec,
    power: float,
    noise_var: float,
    mode: str = "dual",
    fd_step: float = 1e-6,
    norm_mode: str = "per_antenna",
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
    u = np.log(reg_vec)
    if mode == "dual":
        _, g = _forward_pass(decomp, channels, u, power, noise_var, norm_mode)
        return g
    if mode != "fd":
        raise ConfigError(f"unknown gradient mode {mode!r}")
    g = np.empty(len(u))
    for i in range(len(u)):
        h = fd_step * max(1.0, abs(u[i]))
        up, dn = u.copy(), u.copy()
        up[i] += h
        dn[i] -= h
        jp = objective(decomp, channels, np.exp(up), power, noise_var, norm_mode)
        jm = objective(decomp, channels, np.exp(dn), power, noise_var, norm_mode)
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

    def value_at(u_try):
        # trial points may overflow exp or produce degenerate systems;
        # both just mean "reject this step"
        with np.errstate(all="ignore"):
            try:
                val = objective(
                    decomp, channels, np.exp(u_try), power, noise_var, config.norm_mode
                )
            except (PrecodesimError, np.linalg.LinAlgError, FloatingPointError):
                return None
        return val if np.isfinite(val) else None

    def search(u_base, j_base, direction, slope):
        alpha = config.init_step
        for _ in range(config.max_backtracks + 1):
            cand = u_base + alpha * direction
            val = value_at(cand)
            if val is not None and -val <= -j_base + config.armijo_c1 * alpha * slope:
                return cand, val, alpha
            alpha *= config.backtrack
        return None

    def grad_at(u_cur):
        # works in log space directly so that accepted points whose
        # ridge entries underflow to zero stay differentiable
        return _forward_pass(
            decomp, channels, u_cur, power, noise_var, config.norm_mode
        )[1]

    u = np.log(default_start(decomp, power, noise_var))
    j_cur = value_at(u)
    if j_cur is None:
        raise NumericalError("objective undefined at the starting ridge")
    j_start = j_cur
    g = grad_at(u)
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
        u_new, j_new, alpha = found

        g_new = grad_at(u_new)
        s = u_new - u
        yv = (-g_new) - (-g)
        sy = float(s @ yv)
        if sy > 1e-12:
            pairs.append((s, yv, 1.0 / sy))

        delta_j = abs(j_new - j_cur)
        delta_r = float(np.abs(np.exp(u_new) - np.exp(u)).max())
        u, j_cur, g = u_new, j_new, g_new
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

    reg = np.exp(u)
    return OptResult(
        reg_vec=reg,
        precoder=parametric_rzf(decomp, reg, power, config.norm_mode),
        objective=j_cur,
        start_objective=j_start,
        iterations=accepted,
        converged=converged,
        reason=reason,
        grad_norm=gnorm,
        trajectory=tuple(traj),
    )
