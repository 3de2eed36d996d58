"""Search over per-layer ridge weights that maximizes sum spectral
efficiency.

The variable is the diagonal of the ridge in the parametric precoder.
Search runs in elementwise log space, which keeps the ridge positive
without constraints.  Function values come from the production
evaluation kernel (ridge build, then :func:`mmse_stack` and
:func:`sinr_terms` per shape group of users, as in :func:`evaluate`),
so the objective at the starting point is bit-identical to the plain
gain-adapted ridge.  The search follows the reverse-mode (adjoint)
gradient of that same computation; its oracle, central differences of
the objective, lives in :mod:`verification`.

The kernel has a leading batch axis.  :func:`optimize_many` runs many
searches in lockstep: each round, every running search's pending trial
ridge goes through one batched evaluation and every accepted trial
through one batched adjoint.  Each matrix of a batch is its own BLAS or
LAPACK call and every reduction runs over a contiguous trailing axis, so
a search's bits do not depend on its batch companions, and
:func:`optimize` is a batch of one.  A member whose kernel raises fails
the whole stacked call, so such a round evaluates each member alone once
and the survivors together again.
"""

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .channel import ChannelDecomposition, ChannelSet
from .exceptions import (
    ConfigError,
    DimensionError,
    NumericalError,
    PrecodesimError,
    check_positive,
)
from .metrics import effective_sinr, mmse_sinr_stack, require_positive, user_se
from .precoding import RIDGES, Precoder, check_reg, gram_stack, ridge_stack

__all__ = [
    "OptConfig",
    "OptResult",
    "default_start",
    "objective",
    "gradient",
    "optimize",
    "optimize_many",
]

_LN2 = np.log(2.0)
# At the max-row kink the gradient stays large and steps need long
# halving chains: on 18 traced opt_search searches, steps of more than 10
# halvings took 48% of the evaluations for 0.03% of the gain.
_WINDOW, _PROGRESS_TOL = 5, 1e-5
# Searches per lockstep round.  Each round gathers every member's channel
# stack (64 KB at the default scale); on the default 440-search sweep (2
# vCPUs) 16, 32, 64 and 128 took 11-13, 11.7, 11.0 and 10.3 s at 83, 85,
# 92 and 104 MB peak RSS.
_BATCH = 64


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
    return RIDGES["arzf"](decomp, power, noise_var)[0]


@dataclass(frozen=True)
class _Evaluation:
    """Kernel results for the ridges ``reg[b]`` of problems ``idx[b]``: sum
    SE ``j`` (NaN where ``ok`` is False), the :func:`sinr_terms` ``ok``, raw
    weights and gains, each user's effective SINR ``geo`` and the stages of
    each user shape group, all batch axis first."""

    idx: np.ndarray
    j: np.ndarray
    ok: np.ndarray
    raw: np.ndarray
    gain: np.ndarray
    geo: np.ndarray
    stages: list

    def take(self, sel):
        """The members at positions ``sel``."""
        if sel == list(range(len(self.idx))):
            return self
        pick = lambda a: a[sel]
        return _Evaluation(
            self.idx[sel], self.j[sel], self.ok[sel], self.raw[sel], self.gain[sel], self.geo[sel],
            [tuple(map(pick, st)) for st in self.stages],
        )


class _Problems:
    """Per-search constants of one :func:`optimize_many` call, computed
    once and stacked: the layer rows ``v``, ``V^H``, the gram ``V V^H`` and
    the channel stacks of each user shape group, once per distinct
    (decomposition, channels) pair; the power, the noise variance and
    the starting ridge once per search."""

    def __init__(self, problems):
        scenes, scene = {}, []
        for decomp, channels, power, noise_var in problems:
            check_positive("power", power)
            check_positive("noise_var", noise_var)
            if decomp.dims != channels.dims or decomp.dims != problems[0][0].dims:
                raise DimensionError("every problem needs the dims of the first")
            key = (id(decomp), id(channels))
            scene.append(scenes.setdefault(key, (len(scenes), decomp, channels))[0])
        _, decomps, channel_sets = zip(*scenes.values())
        self.dims = decomps[0].dims
        self.scene = np.array(scene)
        self.v = np.stack([d.v for d in decomps])
        self.vh = np.conj(self.v.swapaxes(1, 2))
        self.gram = gram_stack(self.v)
        self.groups = [
            (np.stack([ch.groups[gi][1] for ch in channel_sets]), own)
            for gi, (_, _, own) in enumerate(channel_sets[0].groups)
        ]
        self.power = np.array([p[2] for p in problems])
        self.noise_var = np.array([p[3] for p in problems])
        self.start = [default_start(d, p, nv) for d, _, p, nv in problems]

    @cached_property
    def h_adjoint(self):
        """``conj(h)^T`` of each group's stacked users, ``(tx, users * rx)``."""
        return [np.conj(h.reshape(len(h), -1, h.shape[-1]).swapaxes(1, 2)) for h, _ in self.groups]

    def evaluate(self, idx, reg) -> _Evaluation:
        """The kernel at ridges ``reg[b]`` of problems ``idx[b]``.  A member
        whose SINR terms are not positive reads ``ok`` False; one whose
        build or MMSE system fails, or whose SINR underflows to 0, makes
        the whole batch raise."""
        at = self.scene[idx]
        raw, gain = ridge_stack(self.gram[at], self.vh[at], reg, 1.0, self.power[idx])
        w = gain[:, None, None] * raw
        groups = [(h[at], own) for h, own in self.groups]
        sinrs, stages, ok = mmse_sinr_stack(groups, w, self.noise_var[idx])
        geo = effective_sinr(sinrs, self.dims)
        j = np.where(ok, user_se(geo, self.dims).sum(axis=-1), np.nan)
        return _Evaluation(idx, j, ok, raw, gain, geo, stages)

    def adjoint(self, ev: _Evaluation):
        """Gradient of each member's objective with respect to the
        elementwise log ``u`` of its ridge diagonal, in reverse mode from
        its evaluation, and its most-loaded antenna.  ``x_bar`` is the
        adjoint of ``x``, ``dJ = Re sum(conj(x_bar) * dx)``: ``y = a @ b``
        sends ``y_bar @ b^H`` to ``a`` and ``a^H @ y_bar`` to ``b``, and
        ``|z|^2`` sends ``2 z`` times its own adjoint to ``z``."""
        dims = self.dims
        lt = dims.total_layers
        nb = len(ev.idx)
        rows = np.arange(nb)
        bi = rows[:, None, None]
        nv = self.noise_var[ev.idx][:, None, None, None]
        # SE_k = L_k log2(1 + geomean_k) and d geomean_k = geomean_k mean_j d log sinr_j
        dlog_sinr = np.repeat(ev.geo / (1.0 + ev.geo), dims.layers, axis=-1) / _LN2

        w_bar = np.zeros_like(ev.raw)
        for hh, (_, own), stage in zip(self.h_adjoint, self.groups, ev.stages):
            eff, ah, m_inv, g, coup, sig, den = stage
            users = np.arange(len(own))[:, None]
            at = (bi, users, np.arange(own.shape[1]), own)
            d = dlog_sinr[:, own]
            sig_bar, den_bar = d / sig, -d / den
            coup_bar = np.repeat(den_bar[..., None], lt, axis=-1)
            coup_bar[at] = sig_bar
            coup_bar = 2.0 * coup_bar * coup
            gh = np.conj(g.swapaxes(-1, -2))
            g_bar = coup_bar @ np.conj(eff.swapaxes(-1, -2))
            g_bar += 2.0 * nv * den_bar[..., None] * g
            eff_bar = gh @ coup_bar
            # g = m_inv ah with m_inv = inv(ah ah^H + noise_var I), Hermitian
            ah_bar = m_inv @ g_bar
            m_bar = -ah_bar @ gh
            ah_bar += (m_bar + np.conj(m_bar.swapaxes(-1, -2))) @ ah
            eff_bar[bi, users, :, own] += ah_bar.conj()
            w_bar += hh[self.scene[ev.idx]] @ eff_bar.reshape(nb, -1, lt)

        # w = gain raw with gain = sqrt(power / num_tx) / rho, rho the largest
        # row norm of raw
        w_raw, gain = ev.raw, ev.gain
        top = np.argmax(np.linalg.norm(w_raw, axis=-1), axis=-1)
        gain_bar = (w_bar.conj() * w_raw).reshape(nb, -1).sum(axis=-1).real
        raw_bar = gain[:, None, None] * w_bar
        top_row = w_raw[rows, top]
        raw_bar[rows, top] -= (
            gain_bar * gain / np.sum(np.abs(top_row) ** 2, axis=-1)
        )[:, None] * top_row
        # raw = V^H inv(K), K = V V^H + diag(r), so d raw = -raw diag(dr) inv(K),
        # and r_d inv(K)[d, :] is (I - V raw)[d, :]
        resid = np.eye(lt) - self.v[self.scene[ev.idx]] @ w_raw
        prod = w_raw.swapaxes(-1, -2) @ raw_bar.conj()
        return -np.sum(resid * prod, axis=-1).real, top


def _one(decomp, channels, reg_vec, power, noise_var):
    """A batch of one problem and its evaluation at the checked ridge."""
    problems = _Problems([(decomp, channels, power, noise_var)])
    reg = check_reg(reg_vec, decomp.dims.total_layers)
    ev = problems.evaluate(np.zeros(1, dtype=int), reg[None])
    require_positive(ev.ok)
    return problems, ev


def objective(
    decomp: ChannelDecomposition, channels: ChannelSet, reg_vec, power: float, noise_var: float
) -> float:
    """Sum spectral efficiency of the parametric ridge precoder under
    per-user MMSE detection, bit-identical to :func:`report`'s
    ``sum_se`` for that precoder and its :func:`mmse_detection`."""
    return float(_one(decomp, channels, reg_vec, power, noise_var)[1].j[0])


def gradient(
    decomp: ChannelDecomposition, channels: ChannelSet, reg_vec, power: float, noise_var: float
) -> np.ndarray:
    """Gradient of the objective with respect to the elementwise log of
    ``reg_vec``, by reverse-mode differentiation of the objective's own
    evaluation chain, at about the cost of one more objective."""
    if np.any(np.asarray(reg_vec, dtype=float) <= 0):
        raise ConfigError("gradient needs strictly positive reg entries")
    problems, ev = _one(decomp, channels, reg_vec, power, noise_var)
    return problems.adjoint(ev)[0][0]


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


def _search(reg, config):
    """One search as a coroutine.  It yields ``(ridge, bound)`` and is sent
    ``None`` if the trial is rejected, or ``(objective, gradient,
    most-loaded antenna, precoder)`` if it is accepted: its objective ``j``
    is finite and ``-j <= bound``.  The start's bound is ``inf``.  It
    returns the :class:`OptResult`."""

    def search(u_base, j_base, direction, slope):
        alpha = config.init_step
        for _ in range(config.max_backtracks + 1):
            cand = u_base + alpha * direction
            with np.errstate(over="ignore"):
                reg_try = np.exp(cand)
            got = yield reg_try, -j_base + config.armijo_c1 * alpha * slope
            if got is not None:
                return cand, reg_try, got, alpha
            alpha *= config.backtrack
        return None

    # the search steps in u = log(reg) but evaluates at reg itself, so
    # the start (and a search that never moves) is exactly the arzf ridge,
    # and accepted ridge entries that underflow to zero stay differentiable
    u = np.log(reg)
    got = yield reg, np.inf
    if got is None:
        raise NumericalError("objective undefined at the starting ridge")
    j_cur, g, top, pre = got
    j_start = j_cur
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
        found = (yield from search(u, j_cur, p, float(-g @ p))) if float(g @ p) > 0 else None
        if found is None and pairs:
            # curvature memory can point downhill or across a normalization
            # kink; drop it and retry along the raw gradient
            pairs.clear()
            found = yield from search(u, j_cur, g, float(-g @ g))
        if found is None:
            reason = "line search failed to find an acceptable step"
            break
        u_new, reg, (j_cur, g_new, top, pre), alpha = found

        s = u_new - u
        yv = (-g_new) - (-g)
        sy = float(s @ yv)
        if sy > 1e-12:
            pairs.append((s, yv, 1.0 / sy))

        u, g = u_new, g_new
        gnorm = float(np.abs(g).max())
        accepted += 1
        traj.append((accepted, j_cur, gnorm, alpha))
        recent.append((j_cur, top))

    return OptResult(
        reg_vec=reg,
        precoder=pre,
        objective=j_cur,
        start_objective=j_start,
        iterations=accepted,
        converged=converged,
        reason=reason,
        grad_norm=gnorm,
        trajectory=tuple(traj),
    )


def _try_evaluate(problems, idx, regs):
    """:meth:`_Problems.evaluate`, or None where the kernel raises."""
    try:
        return problems.evaluate(idx, regs)
    except (PrecodesimError, np.linalg.LinAlgError):
        return None


def _round(problems, idx, requests):
    """The answer to each search ``idx[k]``'s request ``(ridge, bound)``:
    one batched evaluation of every trial ridge, then one batched adjoint
    of the accepted ones.  Trial points may produce degenerate systems;
    that just means "reject this step".  One member's failure fails a
    stacked LAPACK call for the whole batch, so a failing batch has each
    member evaluated alone and the survivors evaluated again together;
    batch independence gives them the same bits."""
    idx = np.array(idx)
    regs = np.stack([reg for reg, _ in requests])
    keep = list(range(len(idx)))
    with np.errstate(all="ignore"):
        ev = _try_evaluate(problems, idx, regs)
        if ev is None:
            keep = [k for k in keep if _try_evaluate(problems, idx[[k]], regs[[k]]) is not None]
            ev = problems.evaluate(idx[keep], regs[keep]) if keep else None
    answers = [None] * len(idx)
    if ev is None:
        return answers
    sel = [b for b, k in enumerate(keep) if np.isfinite(ev.j[b]) and -ev.j[b] <= requests[k][1]]
    if sel:
        sub = ev.take(sel)
        g, top = problems.adjoint(sub)
        for b, pos in enumerate(sel):
            pre = Precoder(raw=sub.raw[b].copy(), gain=sub.gain[b], method="parametric_rzf")
            answers[keep[pos]] = (float(sub.j[b]), g[b], int(top[b]), pre)
    return answers


def optimize_many(problems, config: OptConfig = OptConfig(), done=None) -> list:
    """:func:`optimize` for each ``(decomp, channels, power, noise_var)`` of
    ``problems``, run in lockstep.

    Every search keeps its own quasi-Newton state, rules and stopping
    reasons.  Each round, the pending trial ridges of all running searches
    go through one batched evaluation, and the accepted ones through one
    batched adjoint; a finished search drops out.  Each result is bitwise
    the one the search gets alone.  The list holds one :class:`OptResult`
    per problem, in order, or the :class:`PrecodesimError` its search
    raised; ``done(i, result)``, if given, is called as search ``i`` ends.
    Inputs are validated once, here: a power or noise variance that is not
    positive and finite raises ConfigError, and problems whose dims differ
    raise DimensionError.
    """
    problems = list(problems)
    if not problems:
        return []
    stack = _Problems(problems)
    searches = [_search(r, config) for r in stack.start]
    results = [None] * len(searches)
    pending, answers = {}, {}
    unstarted = iter(range(len(searches)))

    def advance(i, answer):
        try:
            request = searches[i].send(answer)
            while not np.all(np.isfinite(request[0])):
                # a ridge that overflowed exp is rejected without a kernel call
                request = searches[i].send(None)
            pending[i] = request
            return
        except StopIteration as stop:
            results[i] = stop.value
        except PrecodesimError as exc:
            results[i] = exc
        pending.pop(i, None)
        if done is not None:
            done(i, results[i])

    while True:
        for i, answer in answers.items():
            advance(i, answer)
        # at most _BATCH searches run at once, which bounds the kernel's
        # working set; a finished search makes room for the next
        for i in islice(unstarted, _BATCH - len(pending)):
            advance(i, None)
        if not pending:
            return results
        idx = sorted(pending)
        answers = dict(zip(idx, _round(stack, idx, [pending[i] for i in idx])))


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
    ``converged=False`` and a reason string.  Fully deterministic; the
    batch of one of :func:`optimize_many`.
    """
    res = optimize_many([(decomp, channels, power, noise_var)], config)[0]
    if isinstance(res, PrecodesimError):
        raise res
    return res
