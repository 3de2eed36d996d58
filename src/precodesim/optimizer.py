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
searches in lockstep, one row of its state arrays each: a round evaluates
a stretch of every running search's backtracking ladder in one batch,
then updates the rows as masks, and one masked two-loop recursion gives
every new direction.  Each matrix of a batch is its own BLAS or LAPACK
call, each dot product one ``ddot`` per row, and every other reduction
runs over a contiguous trailing axis, so a search's bits do not depend on
its batch companions and :func:`optimize` is a batch of one.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelDecomposition, ChannelSet
from .exceptions import (
    ConfigError, DimensionError, NumericalError, PrecodesimError, check_integer, check_positive,
    check_real)
from .metrics import effective_sinr, mmse_sinr_stack, require_positive, user_se
from .precoding import RIDGES, Precoder, check_reg, gram_stack, ridge_stack

__all__ = ["OptConfig", "OptResult", "default_start", "objective", "gradient", "optimize",
           "optimize_many"]

_LN2 = np.log(2.0)
# At the max-row kink the gradient stays large and steps need long
# halving chains: on 18 traced opt_search searches, steps of more than 10
# halvings took 48% of the evaluations for 0.03% of the gain.
_WINDOW, _PROGRESS_TOL = 5, 1e-5
_CONVERGED = "gradient norm below tolerance"
# Searches running at once, and trial rows per round unless more searches
# run.  On the default 440-search sweep (2 vCPUs) 32, 64 and 128 took
# 3.5-4.0, 3.0 and 2.8 s at 56, 58 and 62 MB peak RSS; an opt_search
# process (6 searches) rarely fills 32 rows.
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
        for name in ("max_iters", "memory", "max_backtracks"):
            check_integer(name, getattr(self, name))
        if min(self.max_iters, self.memory) < 1 or self.max_backtracks < 0:
            raise ConfigError("max_iters, memory must be >= 1; max_backtracks >= 0")
        for name in ("grad_tol", "init_step"):
            check_positive(name, getattr(self, name))
        for name in ("backtrack", "armijo_c1"):
            check_real(name, getattr(self, name))
            if not 0 < getattr(self, name) < 1:
                raise ConfigError(f"{name} must be in (0, 1)")


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


class _Evaluation(NamedTuple):
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
        return _Evaluation(*(a[sel] for a in self[:-1]),
                           [tuple(a[sel] for a in st) for st in self.stages])


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
            if not (isinstance(decomp, ChannelDecomposition) and isinstance(channels, ChannelSet)):
                raise ConfigError("each problem needs a ChannelDecomposition, then a ChannelSet, got "
                                  f"{type(decomp).__name__} and {type(channels).__name__}")
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


def objective(decomp: ChannelDecomposition, channels: ChannelSet, reg_vec, power: float,
              noise_var: float) -> float:
    """Sum spectral efficiency of the parametric ridge precoder under
    per-user MMSE detection, from the search's layer-space kernel: it
    matches :func:`evaluate`'s ``sum_se`` of that precoder to rounding
    (within 1e-12 relative), not bit for bit."""
    return float(_one(decomp, channels, reg_vec, power, noise_var)[1].j[0])


def gradient(decomp: ChannelDecomposition, channels: ChannelSet, reg_vec, power: float,
             noise_var: float) -> np.ndarray:
    """Gradient of the objective with respect to the elementwise log of
    ``reg_vec``, by reverse-mode differentiation of the objective's own
    evaluation chain, at about the cost of one more objective."""
    if np.any(np.asarray(reg_vec, dtype=float) <= 0):
        raise ConfigError("gradient needs strictly positive reg entries")
    problems, ev = _one(decomp, channels, reg_vec, power, noise_var)
    return problems.adjoint(ev)[0][0]


def _directions(g, s, y, rho):
    """The limited-memory quasi-Newton ascent direction ``H g`` of each row:
    the two-loop recursion (Nocedal & Wright, *Numerical Optimization*, 2nd
    ed., Alg. 7.4) over the row's curvature pairs ``s[b, i]``, ``y[b, i]``,
    ``rho[b, i] = 1 / (s y)``, oldest first.  Padding pairs at the front are
    zero with ``rho`` 0 and change nothing; each row's last pair, which
    scales the initial inverse Hessian, is real."""
    q, a = g.copy(), []
    slots = list(zip(s.swapaxes(0, 1), y.swapaxes(0, 1), rho.T))
    for s_i, y_i, rho_i in reversed(slots):
        a.append(rho_i * np.vecdot(s_i, q))
        q -= a[-1][:, None] * y_i
    s_i, y_i, _ = slots[-1]
    q *= (np.vecdot(s_i, y_i) / np.vecdot(y_i, y_i))[:, None]
    for (s_i, y_i, rho_i), a_i in zip(slots, reversed(a)):
        q += (a_i - rho_i * np.vecdot(y_i, q))[:, None] * s_i
    return q


def _try_evaluate(problems, idx, regs):
    """:meth:`_Problems.evaluate`, or None where the kernel raises."""
    try:
        return problems.evaluate(idx, regs)
    except (PrecodesimError, np.linalg.LinAlgError):
        return None


def _round(problems, idx, regs, bounds, sent):
    """Evaluate the trial ridges ``regs`` with Armijo bounds ``bounds``:
    ``sent[k]`` consecutive rows, a stretch of search ``idx[k]``'s ladder,
    for each ``k`` in order.  Find each search's first accepted trial: its
    objective ``j`` is finite and ``-j <= bound``.  Returns ``hit``, the
    positions ``k`` that accepted a trial, the trial's position in its
    stretch, and its evaluation, gradient and most-loaded antenna (``None``
    if nothing was accepted).  A ridge that is not finite is rejected
    unevaluated.  One trial's failure fails a stacked LAPACK call for the
    whole batch, so a failing batch has each trial evaluated alone and the
    survivors again together; batch independence gives them the same bits."""
    owner = np.repeat(np.arange(len(idx)), sent)
    rows = np.asarray(idx)[owner]
    keep = np.flatnonzero(np.isfinite(regs).all(axis=-1))
    with np.errstate(all="ignore"):
        ev = _try_evaluate(problems, rows[keep], regs[keep]) if len(keep) else None
        if ev is None and len(keep) > 1:
            keep = [t for t in keep if _try_evaluate(problems, rows[[t]], regs[[t]]) is not None]
            ev = problems.evaluate(rows[keep], regs[keep]) if keep else None
    if ev is not None:
        keep = np.asarray(keep)
        good = np.flatnonzero(np.isfinite(ev.j) & (-ev.j <= bounds[keep]))
        if len(good):
            # trials run in search order, then step order: keep each search's first
            who = owner[keep[good]]
            good = good[np.concatenate([[True], who[1:] != who[:-1]])]
            sub = ev if len(good) == len(ev.j) else ev.take(good)
            t = keep[good]
            hit = owner[t]
            return hit, t - (sent.cumsum() - sent)[hit], sub, *problems.adjoint(sub)
    return np.zeros(0, dtype=int), np.zeros(0, dtype=int), None, None, None


def optimize_many(problems, config: OptConfig = OptConfig(), done=None) -> list:
    """:func:`optimize` for each ``(decomp, channels, power, noise_var)`` of
    ``problems``, run in lockstep, one row of the state arrays per search.

    At most ``_BATCH`` searches run at once, and a finished one makes room
    for the next.  Each round evaluates a stretch of every running search's
    ladder in one batch of at most ``_BATCH`` trials.  A stretch is one
    trial long in a line search's first round, and its width doubles after
    each round that rejects all of it.  Each result is bitwise the one the
    search gets alone, one trial per round.
    The list holds one :class:`OptResult` per problem, in order, or the
    :class:`PrecodesimError` its search raised; ``done(i, result)``, if
    given, is called as search ``i`` ends.  Inputs are validated once,
    here: a ``config`` that is not an :class:`OptConfig`, a problem that does
    not start with a decomposition and a channel set, or a power or noise
    variance that is not positive and finite raises ConfigError, and
    problems whose dims differ raise DimensionError.
    """
    if not isinstance(config, OptConfig):
        raise ConfigError(f"config must be an OptConfig, got {config!r}")
    problems = list(problems)
    if not problems:
        return []
    stack = _Problems(problems)
    n, lt, m = len(problems), stack.dims.total_layers, config.memory
    # the step lengths of every ladder, by repeated shrinking
    alphas = np.cumprod([config.init_step] + [config.backtrack] * config.max_backtracks)
    armijo = config.armijo_c1 * alphas

    # One row per search.  It steps in u = log(reg) but evaluates at reg
    # itself, so the start (and a search that never moves) is exactly the
    # arzf ridge, and accepted ridge entries that underflow to zero stay
    # differentiable.  The start is a ladder of one, the last rung, with
    # bound inf and step 0; accepted is -1 until it is taken.
    reg = np.array(stack.start)
    u = np.log(reg)
    j, gnorm, slope, gain = (np.zeros(n) for _ in range(4))
    g, p = np.zeros((n, lt)), np.zeros((n, lt))
    raw = np.zeros((n, stack.dims.num_tx, lt), dtype=complex)
    # curvature pairs, newest last, and how many are real
    s_mem, y_mem, rho = np.zeros((n, m, lt)), np.zeros((n, m, lt)), np.zeros((n, m))
    pairs = np.zeros(n, dtype=int)
    # rungs of the current ladder tried so far, and the next stretch's width
    tried, width, accepted = np.full(n, len(alphas) - 1), np.ones(n, dtype=int), np.full(n, -1)
    # objective and most-loaded antenna of the last _WINDOW + 1 iterates, newest last
    recent_j, recent_top = np.zeros((n, _WINDOW + 1)), np.zeros((n, _WINDOW + 1), dtype=int)
    traj = [[] for _ in range(n)]
    results, live, begun = [None] * n, np.zeros(n, dtype=bool), 0

    while True:
        free = _BATCH - np.count_nonzero(live)
        live[begun:begun + free] = True
        begun = min(n, begun + free)
        run = np.flatnonzero(live)
        if not len(run):
            return results
        # every search gets one trial; the rest of the budget widens the
        # stretches in search order
        rung = tried[run]
        want = np.minimum(width[run], len(alphas) - rung) - 1
        spare = _BATCH - len(run) - (want.cumsum() - want)
        sent = 1 + np.minimum(want, np.maximum(spare, 0))
        end = sent.cumsum()
        trial = np.repeat(run, sent)
        step = np.arange(end[-1]) - np.repeat(end - sent - rung, sent)
        with np.errstate(over="ignore"):
            ridges = np.exp(u[trial] + alphas[step][:, None] * p[trial])
        bounds = -j[trial] + armijo[step] * slope[trial]
        fresh = accepted[run] < 0
        if np.count_nonzero(fresh):
            ridges[end[fresh] - 1], bounds[end[fresh] - 1] = reg[run[fresh]], np.inf
        hit, at, sub, g_new, top = _round(stack, run, ridges, bounds, sent)

        ended, failed = {}, []
        if len(hit) < len(run):
            rejected = np.ones(len(run), dtype=bool)
            rejected[hit] = False
            rej = run[rejected]
            tried[rej] += sent[rejected]
            width[rej] *= 2
            failed = rej[tried[rej] == len(alphas)].tolist()

        if len(hit):
            acc, fresh = run[hit], fresh[hit]
            k = tried[acc] + at
            u_new = u[acc] + alphas[k][:, None] * p[acc]
            s, y = u_new - u[acc], g[acc] - g_new
            sy = np.vecdot(s, y)
            # the start steps 0 from itself, so it adds no pair
            new = sy > 1e-12
            c = acc[new]
            s_mem[c, :-1], y_mem[c, :-1], rho[c, :-1] = s_mem[c, 1:], y_mem[c, 1:], rho[c, 1:]
            s_mem[c, -1], y_mem[c, -1], rho[c, -1] = s[new], y[new], 1.0 / sy[new]
            pairs[c] += pairs[c] < m
            gn, it = np.abs(g_new).max(axis=-1), accepted[acc] + 1
            u[acc], g[acc], reg[acc], j[acc], raw[acc], gain[acc], gnorm[acc], accepted[acc] = (
                u_new, g_new, sub.reg, sub.j, sub.raw, sub.gain, gn, it)
            recent_j[acc, :-1], recent_top[acc, :-1] = recent_j[acc, 1:], recent_top[acc, 1:]
            recent_j[acc, -1], recent_top[acc, -1] = sub.j, top
            steps = np.where(fresh, 0.0, alphas[k]).tolist()
            for i, row in zip(acc.tolist(), zip(it.tolist(), sub.j.tolist(), gn.tolist(), steps)):
                traj[i].append(row)

            conv, limit = gn <= config.grad_tol, it == config.max_iters
            stall = (it >= _WINDOW) & (sub.j - recent_j[acc, 0] <= _PROGRESS_TOL * np.abs(sub.j))
            stop = conv | stall | limit
            for b in np.flatnonzero(stop).tolist():
                i = int(acc[b])
                # the kink: the most-loaded antenna changed in the window
                kink = " at a max-row kink" if len(set(recent_top[i].tolist())) > 1 else ""
                ended[i] = (_CONVERGED if conv[b] else "progress stalled" + kink if stall[b]
                            else "iteration limit reached")
            go = acc[~stop]
            p[go] = g[go]
            mem = go[pairs[go] > 0]
            if len(mem):
                # slots that are padding in every row change nothing
                lo = m - pairs[mem].max()
                p[mem] = _directions(g[mem], s_mem[mem, lo:], y_mem[mem, lo:], rho[mem, lo:])
            gp = np.vecdot(g[go], p[go])
            slope[go], tried[go], width[go] = -gp, 0, 1
            failed += go[gp <= 0].tolist()

        if failed:
            for i in failed:
                if accepted[i] < 0:
                    ended[i] = NumericalError("objective undefined at the starting ridge")
                elif not pairs[i]:
                    ended[i] = "line search failed to find an acceptable step"
            # curvature memory can point downhill or across a normalization
            # kink; drop it and retry along the raw gradient
            retry = [i for i in failed if i not in ended]
            pairs[retry], s_mem[retry], y_mem[retry], rho[retry] = 0, 0.0, 0.0, 0.0
            p[retry], slope[retry] = g[retry], -np.vecdot(g[retry], g[retry])
            tried[retry], width[retry] = 0, 1

        # rows of ended searches are never written again, so results hold views
        for i in sorted(ended):
            live[i] = False
            results[i] = ended[i] if isinstance(ended[i], PrecodesimError) else OptResult(
                reg_vec=reg[i],
                precoder=Precoder(raw=raw[i], gain=gain[i]),
                objective=float(j[i]),
                start_objective=traj[i][0][1],
                iterations=int(accepted[i]),
                converged=ended[i] == _CONVERGED,
                reason=ended[i],
                grad_norm=float(gnorm[i]),
                trajectory=tuple(traj[i]),
            )
            if done is not None:
                done(i, results[i])


def optimize(decomp: ChannelDecomposition, channels: ChannelSet, power: float, noise_var: float,
             config: OptConfig = OptConfig()) -> OptResult:
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
