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
then updates the accepted and the rejected rows by index.  Each search
keeps one dense BFGS inverse Hessian, which takes the search's curvature
pair and gives its next direction.  A search's precoder is built once
more from its ridge when it ends.  Each matrix of a batch is its own BLAS
or LAPACK call, each dot product one ``ddot`` per row, and every other
reduction runs over a contiguous trailing axis, so a search's bits do
not depend on its batch companions and :func:`optimize` is a batch of
one.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelDecomposition, ChannelSet, UserGroup
from .exceptions import (
    ConfigError, DimensionError, NumericalError, PrecodesimError, check_integer, check_positive,
    check_real)
from .metrics import _LN2, _geomean, _mmse_sinr_stack, require_scored, user_se
from .precoding import (
    RIDGES, Precoder, _ridge_stack, check_reg, gram_stack, require_built, ridge_stack)

__all__ = ["OptConfig", "OptResult", "default_start", "objective", "gradient", "optimize",
           "optimize_many"]

# At the max-row kink the gradient stays large and steps need long
# halving chains: on 18 traced opt_search searches, steps of more than 10
# halvings took 48% of the evaluations for 0.03% of the gain.  So a search
# also stops once its last _WINDOW accepted steps gained at most
# _PROGRESS_TOL, in bit/s/Hz of sum SE, the same at every SINR.
_WINDOW, _PROGRESS_TOL = 5, 5e-4
_CONVERGED = "gradient norm below tolerance"
# Searches running at once, and trial rows per round unless more searches
# run.  On the default 440-search sweep (2 vCPUs, one BLAS thread, six
# alternating runs each) 32, 64 and 128 took 1.64-1.80, 1.45-1.78 and
# 1.36-1.48 s of CPU at 53.7, 54.6 and 56.6 MB peak RSS; an opt_search
# process (6 searches) rarely fills 32 rows.
_BATCH = 64


@dataclass(frozen=True)
class OptConfig:
    """Knobs for :func:`optimize`.

    Stopping, in this order: gradient infinity norm at or below
    ``grad_tol``; the objective gaining at most ``_PROGRESS_TOL`` (5e-4
    bit/s/Hz) over the last ``_WINDOW`` (5) accepted steps; ``max_iters``
    steps.
    """

    max_iters: int = 100
    grad_tol: float = 1e-5
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    init_step: float = 1.0
    max_backtracks: int = 30

    def __post_init__(self):
        for name in ("max_iters", "max_backtracks"):
            check_integer(name, getattr(self, name))
        if self.max_iters < 1 or self.max_backtracks < 0:
            raise ConfigError("max_iters must be >= 1; max_backtracks >= 0")
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
    SE ``j`` (NaN where the mask ``ok`` of built and scored members fails),
    the layer weights ``x``, the row of the raw weights at the most-loaded
    antenna ``top``, the gains, each user's effective SINR ``geo`` and the
    stages of each user shape group, all batch axis first."""

    idx: np.ndarray
    j: np.ndarray
    ok: np.ndarray
    reg: np.ndarray
    x: np.ndarray
    top_row: np.ndarray
    gain: np.ndarray
    top: np.ndarray
    geo: np.ndarray
    stages: list

    def take(self, sel):
        """The members at positions ``sel``."""
        return _Evaluation(*[a.take(sel, 0) for a in self[:-1]],
                           [tuple([a.take(sel, 0) for a in st]) for st in self.stages])


class _Problems:
    """Per-search constants of one :func:`optimize_many` call, computed
    once and stacked: the layer rows ``v``, ``V^H``, ``V^T``, the gram ``V
    V^H`` and, per :class:`UserGroup` of the channels, the group of the R
    factors of its users' ``H_k V^H`` (``min(rx_k, L)`` rows each) and, for
    the adjoint, their conjugates with the user and row axes merged, once per
    distinct (decomposition, channels) pair; the power, the noise variance,
    twice the noise variance and the starting ridge once per search."""

    def __init__(self, problems):
        scenes, scene = {}, []
        for problem in problems:
            if not (isinstance(problem, (tuple, list)) and len(problem) == 4):
                raise ConfigError("each problem must be a (decomp, channels, power, noise_var) "
                                  f"tuple, got {problem!r}")
            decomp, channels, power, noise_var = problem
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
            UserGroup.of(same[0].users,
                         np.linalg.qr(np.stack([g.h for g in same]) @ self.vh[:, None], mode="r"),
                         same[0].own, self.dims.total_layers)
            for same in zip(*[ch.groups for ch in channel_sets])
        ]
        # V^T, conj(R) and each group's users, for the adjoint
        self.vt = np.ascontiguousarray(self.v.swapaxes(1, 2))
        self.r_conj = [np.conj(group.h).reshape(len(decomps), -1, self.dims.total_layers)
                       for group in self.groups]
        self.users = [np.array(group.users) for group in self.groups]
        self.power = np.array([p[2] for p in problems])
        self.noise_var = np.array([p[3] for p in problems])
        self.two_noise_var = 2.0 * self.noise_var[:, None, None, None]
        self.start = [default_start(d, p, nv) for d, _, p, nv in problems]

    def evaluate(self, idx, reg) -> _Evaluation:
        """The kernel at ridges ``reg[b]`` of problems ``idx[b]``; it never
        raises or warns for a member, which reads ``ok`` False where its
        ridge is not finite (outside :func:`ridge_stack`'s inputs), its
        build fails or its scoring does (:func:`mmse_sinr_stack`)."""
        at = self.scene[idx]
        with np.errstate(all="ignore"):  # a failed build has non-finite weights
            raw, gain, x, top, built = _ridge_stack(
                self.gram.take(at, axis=0), self.vh.take(at, axis=0), reg, None, self.power[idx])
            sinrs, stages, ok = _mmse_sinr_stack(
                self.groups, [group.h.take(at, axis=0) for group in self.groups],
                gain[:, None, None] * x, self.noise_var[idx])
        ok &= built & np.isfinite(reg).all(axis=-1)
        geo = _geomean(sinrs, self.dims)
        j = np.where(ok, user_se(geo, self.dims).sum(axis=-1), np.nan)
        top_row = raw[np.arange(len(idx)), top]
        return _Evaluation(idx, j, ok, reg, x, top_row, gain, top, geo, stages)

    def adjoint(self, ev: _Evaluation):
        """Gradient of each member's objective with respect to the
        elementwise log ``u`` of its ridge diagonal, in reverse mode from
        its evaluation.  ``x_bar`` is the adjoint of ``x``, ``dJ = Re
        sum(conj(x_bar) * dx)``: ``y = a @ b`` sends ``y_bar @ b^H`` to ``a``
        and ``a^H @ y_bar`` to ``b``, and ``|z|^2`` sends ``2 z`` times its
        own adjoint to ``z``."""
        lt = self.dims.total_layers
        nb = len(ev.idx)
        at = self.scene[ev.idx]
        two_nv = self.two_noise_var.take(ev.idx, 0)
        # SE_k = L_k log2(1 + geomean_k) and d geomean_k = geomean_k mean_j d log sinr_j
        dlog_sinr = ev.geo / (1.0 + ev.geo) / _LN2

        # w = gain x, the weights the kernel saw
        w_bar = np.zeros(ev.x.shape, dtype=complex)
        for group, users, r_conj, stage in zip(self.groups, self.users, self.r_conj, ev.stages):
            eff, ah, m_inv, g, coup, sig, den, _ = stage
            d = dlog_sinr.take(users, axis=1)[:, :, None]
            sig_bar, den_bar = d / sig, -d / den
            coup_bar = den_bar[..., None].repeat(lt, axis=-1)
            coup_bar.reshape(nb, -1)[:, group.lanes] = sig_bar.reshape(nb, -1)
            coup_bar = 2.0 * coup_bar * coup
            gh = np.conj(g.swapaxes(-1, -2))
            g_bar = coup_bar @ np.conj(eff.swapaxes(-1, -2))
            g_bar += two_nv * den_bar[..., None] * g
            eff_bar = gh @ coup_bar
            # g = m_inv ah with m_inv = inv(ah ah^H + noise_var I), Hermitian
            ah_bar = m_inv @ g_bar
            m_bar = ah_bar @ gh  # the adjoint of m, negated
            ah_bar -= (m_bar + np.conj(m_bar.swapaxes(-1, -2))) @ ah
            eff_bar.reshape(nb, -1)[:, group.cols] += ah_bar.conj().reshape(nb, -1)
            w_bar += r_conj.take(at, axis=0).swapaxes(1, 2) @ eff_bar.reshape(nb, -1, lt)

        # gain = sqrt(power / num_tx) / rho, rho the largest row norm of
        # raw = V^H x; raw_bar is zero off that row, so V raw_bar is the
        # outer product of V's column top and raw_bar's row top
        x, top_row, gain = ev.x, ev.top_row, ev.gain
        gain_bar = (w_bar.conj() * x).reshape(nb, -1).sum(axis=-1).real
        x_bar = gain[:, None, None] * w_bar
        top_sq = np.add.reduce(np.abs(top_row) ** 2, axis=-1)
        top_bar = -(gain_bar * gain / top_sq)[:, None] * top_row
        x_bar += self.vt[at, ev.top][:, :, None] * top_bar[:, None, :]
        # x = inv(K), K = V V^H + diag(r), so dx = -x diag(dr) x, and
        # d/du_d = r_d d/dr_d
        prod = x.swapaxes(-1, -2) @ x_bar.conj()
        return -np.add.reduce(ev.reg[:, :, None] * x * prod, axis=-1).real


def _one(decomp, channels, reg_vec, power, noise_var):
    """A batch of one problem and its evaluation at the checked ridge, or
    the error of its failed build, else of its failed scoring."""
    problems = _Problems([(decomp, channels, power, noise_var)])
    reg = check_reg(reg_vec, decomp.dims.total_layers)
    ev = problems.evaluate(np.zeros(1, dtype=int), reg[None])
    require_built(ev.ok, ev.gain)
    require_scored(ev.ok, ev.stages)
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
    problems, ev = _one(decomp, channels, reg_vec, power, noise_var)
    if np.any(ev.reg <= 0):
        raise ConfigError("gradient needs strictly positive reg entries")
    return problems.adjoint(ev)[0]


def _bfgs(h, s, y):
    """Each row's inverse Hessian ``h[b]`` after the BFGS update (Nocedal &
    Wright, *Numerical Optimization*, 2nd ed., eq. 6.17) by its curvature pair
    ``s[b]``, ``y[b]`` with ``s y > 0``, expanded into row-wise dots and
    elementwise products: ``h[b]`` stays exactly symmetric, and its bits do not
    depend on the other rows."""
    rho = 1.0 / np.vecdot(s, y)
    hy = np.vecdot(h, y[:, None])
    shy = s[:, :, None] * hy[:, None]
    ss = s[:, :, None] * s[:, None]
    c = rho * (1.0 + rho * np.vecdot(y, hy))
    return h - rho[:, None, None] * (shy + shy.mT) + c[:, None, None] * ss


def _round(problems, idx, regs, bounds, sent):
    """Evaluate the trial ridges ``regs`` with Armijo bounds ``bounds``:
    ``sent[k]`` consecutive rows, a stretch of search ``idx[k]``'s ladder,
    for each ``k`` in order, in one :meth:`_Problems.evaluate`.  Find each
    search's first accepted trial: its objective ``j`` is finite (a failed
    trial's is NaN) and ``-j <= bound``.  Returns the rows of the accepted
    trials, one per accepting search in search order, and their evaluation
    and gradient from one :meth:`_Problems.adjoint` (``None`` if nothing was
    accepted)."""
    ev = problems.evaluate(idx.repeat(sent), regs)
    accept = (np.isfinite(ev.j) & (-ev.j <= bounds)).tolist()
    # trials run in search order, then step order: keep each search's first
    good, end = [], 0
    for m in sent.tolist():
        start, end = end, end + m
        good += [r for r in range(start, end) if accept[r]][:1]
    if good:
        sub = ev if len(good) == len(accept) else ev.take(np.array(good))
        return good, sub, problems.adjoint(sub)
    return good, None, None


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
    n, lt = len(problems), stack.dims.total_layers
    # the step lengths of every ladder, by repeated shrinking
    alphas = np.cumprod([config.init_step] + [config.backtrack] * config.max_backtracks)
    armijo, rungs, steps = (config.armijo_c1 * alphas).tolist(), len(alphas), alphas.tolist()
    eye = np.eye(lt)

    # One row per search.  It steps in u = log(reg) but evaluates at reg
    # itself, so the start (and a search that never moves) is exactly the
    # arzf ridge, and accepted ridge entries that underflow to zero stay
    # differentiable.  The start is a ladder of one, the last rung, with
    # bound inf and step 0, tried while the search has no trajectory.
    reg = np.array(stack.start)
    u = np.log(reg)
    g, p = np.zeros((n, lt)), np.zeros((n, lt))
    h = np.zeros((n, lt, lt))  # each search's inverse Hessian
    # Python values per search, which a round reads one at a time: whether
    # it has seen curvature, the objective and the slope along p, the rungs
    # of the current ladder tried so far and the next stretch's width
    curved, j, slope, tried, width = [False] * n, [0.0] * n, [0.0] * n, [rungs - 1] * n, [1] * n
    # (iteration, objective, gradient norm, step) and most-loaded antenna
    # of every iterate
    traj, tops = [[] for _ in range(n)], [[] for _ in range(n)]
    results, running, begun = [None] * n, [], 0

    while True:
        admitted = min(n - begun, _BATCH - len(running))
        if admitted:
            running += range(begun, begun + admitted)
            begun += admitted
        if not running:
            return results
        # every search gets one trial; the rest of the budget widens the
        # stretches in search order
        sent = [min(width[i], rungs - tried[i]) for i in running]
        if sum(sent) > _BATCH:
            spare = _BATCH - len(running)
            for q, want in enumerate(sent):
                sent[q] = 1 + min(want - 1, max(spare, 0))
                spare -= want - 1
        trial = [i for i, m in zip(running, sent) for _ in range(m)]
        step = [tried[i] + r for i, m in zip(running, sent) for r in range(m)]
        bounds = [armijo[k] * slope[i] - j[i] for i, k in zip(trial, step)]
        # the log ridges, kept for the accepted rows
        rows = np.array(trial)
        ut = u.take(rows, 0) + alphas.take(step)[:, None] * p.take(rows, 0)
        with np.errstate(over="ignore"):
            ridges = np.exp(ut)
        if admitted:
            # the searches admitted this round run last, each a ladder of
            # one: the start, which is accepted or ends the search
            ridges[-admitted:], bounds[-admitted:] = reg[running[-admitted:]], [np.inf] * admitted
        t, sub, g_new = _round(stack, np.array(running), ridges, np.array(bounds), np.array(sent))
        # searches that tried their last rung, some of which accepted it
        failed = []
        for i, m in zip(running, sent):
            tried[i] += m
            width[i] *= 2
            if tried[i] == rungs:
                failed.append(i)

        ended = {}
        if t:
            acc, k = [trial[r] for r in t], [step[r] for r in t]
            if failed:
                failed = sorted(set(failed).difference(acc))
            ix = np.array(acc)
            u_new = ut if len(t) == len(trial) else ut.take(t, 0)
            # the curvature pair of each search; the start steps 0 from itself
            s, y = u_new - u.take(ix, 0), g.take(ix, 0) - g_new
            new = [b for b, sy in enumerate(np.vecdot(s, y).tolist()) if sy > 1e-12]
            if new:
                c, s, y = [acc[b] for b in new], s.take(new, 0), y.take(new, 0)
                h_c = h.take(c, 0)
                fresh = [b for b, i in enumerate(c) if not curved[i]]
                if fresh:
                    # a search's first update scales the identity by s y / y y (eq. 6.20)
                    s_f, y_f = s.take(fresh, 0), y.take(fresh, 0)
                    h_c[fresh] = (np.vecdot(s_f, y_f) / np.vecdot(y_f, y_f))[:, None, None] * eye
                h[c] = _bfgs(h_c, s, y)
                for i in c:
                    curved[i] = True
            u[ix], g[ix], reg[ix] = u_new, g_new, sub.reg
            go = []
            rows = zip(acc, sub.j.tolist(), np.maximum.reduce(np.abs(g_new), axis=-1).tolist(), k,
                       sub.top.tolist())
            for b, (i, obj, gn, rung_k, top) in enumerate(rows):
                j[i] = obj
                path, seen = traj[i], tops[i]
                it = len(path)
                path.append((it, obj, gn, steps[rung_k] if it else 0.0))
                seen.append(top)
                if gn <= config.grad_tol:
                    ended[i] = _CONVERGED
                elif it >= _WINDOW and obj - path[-1 - _WINDOW][1] <= _PROGRESS_TOL:
                    # the kink: the most-loaded antenna changed in the window
                    kink = len(set(seen[-1 - _WINDOW:])) > 1
                    ended[i] = "progress stalled" + " at a max-row kink" * kink
                elif it == config.max_iters:
                    ended[i] = "iteration limit reached"
                else:
                    go.append(b)
            if go:
                gg = g_new if len(go) == len(acc) else g_new.take(go, 0)
                go = [acc[b] for b in go]
                # the quasi-Newton ascent direction H g, or g before any curvature
                bent = np.array([curved[i] for i in go])[:, None]
                dirs = np.where(bent, np.vecdot(h.take(go, 0), gg[:, None]), gg)
                gp = np.vecdot(gg, dirs)
                p[go] = dirs
                for i, v in zip(go, gp.tolist()):
                    slope[i], tried[i], width[i] = -v, 0, 1
                    if v <= 0:
                        failed.append(i)

        if failed:
            for i in failed:
                if not traj[i]:
                    ended[i] = NumericalError("objective undefined at the starting ridge")
                elif not curved[i]:
                    ended[i] = "line search failed to find an acceptable step"
            # the curvature can point downhill or across a normalization
            # kink; drop it and retry along the raw gradient
            retry = [i for i in failed if i not in ended]
            if retry:
                p[retry] = g_r = g.take(retry, 0)
                for i, v in zip(retry, np.vecdot(g_r, g_r).tolist()):
                    curved[i], slope[i], tried[i], width[i] = False, -v, 0, 1

        if ended:
            _finish(stack, ended, results, reg, j, traj, done)
            running = [i for i in running if i not in ended]


def _finish(stack, ended, results, reg, j, traj, done):
    """Record the searches ``ended`` (index -> reason or error), in index
    order.  A search's precoder is one :func:`ridge_stack` of its ridge,
    bitwise the build its evaluation made."""
    ids = [i for i in sorted(ended) if not isinstance(ended[i], PrecodesimError)]
    if ids:
        at = stack.scene[ids]
        raw, gain, _, _, _ = ridge_stack(stack.gram[at], stack.vh[at], reg[ids], None,
                                         stack.power[ids])
        built = dict(zip(ids, zip(raw, gain)))
    for i in sorted(ended):
        if isinstance(ended[i], PrecodesimError):
            results[i] = ended[i]
        else:
            path = traj[i]
            # rows of ended searches are never written again, so results hold views
            results[i] = OptResult(
                reg_vec=reg[i],
                precoder=Precoder(raw=built[i][0], gain=built[i][1]),
                objective=float(j[i]),
                start_objective=path[0][1],
                iterations=len(path) - 1,
                converged=ended[i] == _CONVERGED,
                reason=ended[i],
                grad_norm=path[-1][2],
                trajectory=tuple(path),
            )
        if done is not None:
            done(i, results[i])


def optimize(decomp: ChannelDecomposition, channels: ChannelSet, power: float, noise_var: float,
             config: OptConfig = OptConfig()) -> OptResult:
    """Maximize sum spectral efficiency over the ridge diagonal.

    BFGS ascent in log space from the gain-adapted starting ridge, with
    backtracking line search.  Each
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
