"""Search over per-layer ridge weights that maximizes sum spectral
efficiency.

The variable is the diagonal of the ridge in the parametric precoder,
searched in elementwise log space, which keeps it positive without
constraints.  Every ridge precoder is ``gain V^H X`` with the L x L
``X = inv(V V^H + diag(r))``, and per-user MMSE detection under white
noise is blind to a unitary on the user's antennas, so the search runs
in layer space: :func:`mmse_sinr_stack` sees the R factor of each
``H_k V^H`` (one QR per scene) and the weights ``gain X``.  Its
objective matches :func:`evaluate` of the same precoder to rounding, not
bit for bit; the precoder itself comes from the ridge formula, so a
search that never moves returns exactly the arzf weights.  The gradient
is the reverse-mode (adjoint) one of that same computation; its oracle,
central differences of the objective, lives in :mod:`verification`.

The kernel has a leading batch axis.  :func:`optimize_many` runs many
searches in lockstep.  Each line search hands over its whole
backtracking ladder, and a round evaluates a stretch of every running
search's ladder in one batch, then each search's first accepted trial in
one batched adjoint.  Each matrix of a batch is its own BLAS or LAPACK
call and every reduction runs over a contiguous trailing axis, so a
trial's bits do not depend on its batch companions: a search takes the
same steps however its ladders are cut, and :func:`optimize` is a batch
of one.  A trial whose kernel raises fails the whole stacked call, so
such a round evaluates each trial alone once and the survivors together
again.
"""

from collections import deque
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .channel import ChannelDecomposition, ChannelSet
from .exceptions import ConfigError, DimensionError, NumericalError, PrecodesimError, check_positive
from .metrics import effective_sinr, mmse_sinr_stack, require_positive, user_se
from .precoding import RIDGES, Precoder, check_reg, gram_stack, ridge_stack

__all__ = ["OptConfig", "OptResult", "default_start", "objective", "gradient", "optimize",
           "optimize_many"]

_LN2 = np.log(2.0)
# At the max-row kink the gradient stays large and steps need long
# halving chains: on 18 traced opt_search searches, steps of more than 10
# halvings took 48% of the evaluations for 0.03% of the gain.
_WINDOW, _PROGRESS_TOL = 5, 1e-5
# Searches running at once, and trial rows per round unless more searches
# run.  On the default 440-search sweep (2 vCPUs) 16, 32, 64, 128 and 256
# took 6.9, 5.5-6.1, 5.2-5.6, 4.3 and 5.2 s at 55, 57, 58, 63 and 71 MB
# peak RSS; an opt_search process (6 searches) rarely fills 32 rows.
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
    SE ``j`` (NaN where ``ok`` is False), the :func:`sinr_terms` ``ok``, the
    layer weights ``x``, raw weights and gains, each user's effective SINR
    ``geo`` and the stages of each user shape group, all batch axis first."""

    idx: np.ndarray
    j: np.ndarray
    ok: np.ndarray
    reg: np.ndarray
    x: np.ndarray
    raw: np.ndarray
    gain: np.ndarray
    geo: np.ndarray
    stages: list

    def take(self, sel):
        """The members at positions ``sel``."""
        pick = lambda a: a[sel]
        return _Evaluation(
            *map(pick, (self.idx, self.j, self.ok, self.reg, self.x, self.raw, self.gain, self.geo)),
            [tuple(map(pick, st)) for st in self.stages],
        )


class _Problems:
    """Per-search constants of one :func:`optimize_many` call, computed
    once and stacked: the layer rows ``v``, ``V^H``, the gram ``V V^H`` and,
    per user shape group, the R factors of the users' ``H_k V^H``
    (``min(rx_k, L)`` rows each), once per distinct (decomposition,
    channels) pair; the power, the noise variance and the starting ridge
    once per search."""

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
        # H_k W = (H_k V^H) gain X = Q_k (R_k gain X), and Q_k's orthonormal
        # columns drop out of every MMSE block, signal and noise term
        self.groups = [
            (np.linalg.qr(np.stack([ch.groups[gi][1] for ch in channel_sets]) @ self.vh[:, None],
                          mode="r"), own)
            for gi, (_, _, own) in enumerate(channel_sets[0].groups)
        ]
        self.power = np.array([p[2] for p in problems])
        self.noise_var = np.array([p[3] for p in problems])
        self.start = [default_start(d, p, nv) for d, _, p, nv in problems]

    def evaluate(self, idx, reg) -> _Evaluation:
        """The kernel at ridges ``reg[b]`` of problems ``idx[b]``.  A member
        whose SINR terms are not positive reads ``ok`` False; one whose
        build or MMSE system fails, or whose SINR underflows to 0, makes
        the whole batch raise."""
        at = self.scene[idx]
        raw, gain, x = ridge_stack(self.gram[at], self.vh[at], reg, 1.0, self.power[idx])
        groups = [(r[at], own) for r, own in self.groups]
        sinrs, stages, ok = mmse_sinr_stack(groups, gain[:, None, None] * x, self.noise_var[idx])
        geo = effective_sinr(sinrs, self.dims)
        j = np.where(ok, user_se(geo, self.dims).sum(axis=-1), np.nan)
        return _Evaluation(idx, j, ok, reg, x, raw, gain, geo, stages)

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
        at = self.scene[ev.idx]
        nv = self.noise_var[ev.idx][:, None, None, None]
        # SE_k = L_k log2(1 + geomean_k) and d geomean_k = geomean_k mean_j d log sinr_j
        dlog_sinr = np.repeat(ev.geo / (1.0 + ev.geo), dims.layers, axis=-1) / _LN2

        # w = gain x, the weights the kernel saw
        w_bar = np.zeros_like(ev.x)
        for (r, own), stage in zip(self.groups, ev.stages):
            eff, ah, m_inv, g, coup, sig, den = stage
            users = np.arange(len(own))[:, None]
            mine = (bi, users, np.arange(own.shape[1]), own)
            d = dlog_sinr[:, own]
            sig_bar, den_bar = d / sig, -d / den
            coup_bar = np.repeat(den_bar[..., None], lt, axis=-1)
            coup_bar[mine] = sig_bar
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
            w_bar += np.conj(r[at].reshape(nb, -1, lt).swapaxes(1, 2)) @ eff_bar.reshape(nb, -1, lt)

        # gain = sqrt(power / num_tx) / rho, rho the largest row norm of
        # raw = V^H x; raw_bar is zero off that row, so V raw_bar is the
        # outer product of V's column top and raw_bar's row top
        x, raw, gain = ev.x, ev.raw, ev.gain
        top = np.argmax(np.linalg.norm(raw, axis=-1), axis=-1)
        gain_bar = (w_bar.conj() * x).reshape(nb, -1).sum(axis=-1).real
        x_bar = gain[:, None, None] * w_bar
        top_row = raw[rows, top]
        top_bar = -(gain_bar * gain / np.sum(np.abs(top_row) ** 2, axis=-1))[:, None] * top_row
        x_bar += self.v[at, :, top][:, :, None] * top_bar[:, None, :]
        # x = inv(K), K = V V^H + diag(r), so dx = -x diag(dr) x, and
        # d/du_d = r_d d/dr_d
        prod = x.swapaxes(-1, -2) @ x_bar.conj()
        return -np.sum(ev.reg[:, :, None] * x * prod, axis=-1).real, top


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
    per-user MMSE detection, from the search's layer-space kernel: it
    matches :func:`evaluate`'s ``sum_se`` of that precoder to rounding
    (within 1e-12 relative), not bit for bit."""
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
    """One search as a coroutine.  Each line search yields its ladder
    ``(ridges, bounds)``, one row per step length in the order tried, and
    is sent ``None`` if every trial is rejected, or ``(k, (objective,
    gradient, most-loaded antenna, precoder))`` if trial ``k`` is the first
    accepted: its objective ``j`` is finite and ``-j <= bounds[k]``.  The
    start is a ladder of one with bound ``inf``.  It returns the
    :class:`OptResult`."""

    # the step lengths of every ladder, by repeated shrinking
    alphas = [config.init_step]
    for _ in range(config.max_backtracks):
        alphas.append(alphas[-1] * config.backtrack)
    alphas = np.array(alphas)

    def search(u_base, j_base, direction, slope):
        cands = u_base + alphas[:, None] * direction
        with np.errstate(over="ignore"):
            regs = np.exp(cands)
        got = yield regs, -j_base + config.armijo_c1 * alphas * slope
        if got is None:
            return None
        k, got = got
        return cands[k], regs[k], got, float(alphas[k])

    # the search steps in u = log(reg) but evaluates at reg itself, so
    # the start (and a search that never moves) is exactly the arzf ridge,
    # and accepted ridge entries that underflow to zero stay differentiable
    u = np.log(reg)
    got = yield reg[None], np.array([np.inf])
    if got is None:
        raise NumericalError("objective undefined at the starting ridge")
    j_cur, g, top, pre = got[1]
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
    """The answer to each search ``idx[k]``'s request ``(ridges, bounds)``,
    a stretch of its ladder: ``(t, (objective, gradient, most-loaded
    antenna, precoder))`` for its first accepted trial ``t``, or None if
    it accepted none.  One batched evaluation takes every trial ridge that
    is finite (one that is not is rejected unevaluated), then one batched
    adjoint the accepted ones.  Trial points may produce degenerate
    systems; that just means "reject this step".  One trial's failure
    fails a stacked LAPACK call for the whole batch, so a failing batch
    has each trial evaluated alone and the survivors evaluated again
    together; batch independence gives them the same bits."""
    counts = [len(bounds) for _, bounds in requests]
    first = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(len(idx)), counts)
    rows = np.asarray(idx)[owner]
    regs = np.concatenate([ridges for ridges, _ in requests])
    bounds = np.concatenate([b for _, b in requests])
    keep = np.flatnonzero(np.isfinite(regs).all(axis=-1))
    with np.errstate(all="ignore"):
        ev = _try_evaluate(problems, rows[keep], regs[keep]) if len(keep) else None
        if ev is None and len(keep) > 1:
            keep = [t for t in keep if _try_evaluate(problems, rows[[t]], regs[[t]]) is not None]
            ev = problems.evaluate(rows[keep], regs[keep]) if keep else None
    answers = [None] * len(idx)
    if ev is None:
        return answers
    keep = np.asarray(keep)
    good = np.flatnonzero(np.isfinite(ev.j) & (-ev.j <= bounds[keep]))
    # trials run in search order, then step order: the first good trial of
    # each search is its answer
    _, sel = np.unique(owner[keep[good]], return_index=True)
    if len(sel):
        sub = ev.take(good[sel])
        g, top = problems.adjoint(sub)
        for b, t in enumerate(keep[good[sel]]):
            pre = Precoder(raw=sub.raw[b].copy(), gain=sub.gain[b], method="parametric_rzf")
            answers[owner[t]] = (t - first[owner[t]], (float(sub.j[b]), g[b], int(top[b]), pre))
    return answers


def optimize_many(problems, config: OptConfig = OptConfig(), done=None) -> list:
    """:func:`optimize` for each ``(decomp, channels, power, noise_var)`` of
    ``problems``, run in lockstep.

    Every search keeps its own quasi-Newton state, rules and stopping
    reasons.  At most ``_BATCH`` searches run at once, and a finished one
    makes room for the next.  Each round evaluates a stretch of every
    running search's ladder in one batch of at most ``max(_BATCH,
    running searches)`` trials.  A stretch is one trial long in a line
    search's first round, and its width doubles after each round that
    rejects all of it; every search gets one trial, and the rest of the
    budget widens the stretches in search order.  The first
    accepted trials go through one batched adjoint.  Each result is
    bitwise the one the search gets alone, one trial per round.  The list holds one :class:`OptResult`
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
    # running search -> [ridges, bounds, trials rejected, stretch width]
    ladders, answers = {}, {}
    unstarted = iter(range(len(searches)))

    def advance(i, answer):
        try:
            ladders[i] = [*searches[i].send(answer), 0, 1]
            return
        except StopIteration as stop:
            results[i] = stop.value
        except PrecodesimError as exc:
            results[i] = exc
        ladders.pop(i, None)
        if done is not None:
            done(i, results[i])

    while True:
        for i, answer in answers.items():
            ladder = ladders[i]
            if answer is not None:
                advance(i, (ladder[2] + answer[0], answer[1]))
                continue
            ladder[2] += sent[i]
            ladder[3] *= 2
            if ladder[2] == len(ladder[1]):
                advance(i, None)
        for i in islice(unstarted, _BATCH - len(ladders)):
            advance(i, None)
        if not ladders:
            return results
        idx = sorted(ladders)
        spare, sent, requests = max(_BATCH, len(idx)) - len(idx), {}, []
        for i in idx:
            ridges, bounds, tried, width = ladders[i]
            sent[i] = min(width, len(bounds) - tried, spare + 1)
            spare -= sent[i] - 1
            stop = tried + sent[i]
            requests.append((ridges[tried:stop], bounds[tried:stop]))
        answers = dict(zip(idx, _round(stack, idx, requests)))


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
