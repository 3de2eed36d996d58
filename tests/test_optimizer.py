import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import precodesim.optimizer as optimizer
from precodesim.channel import (
    ChannelDecomposition,
    ChannelSet,
    ScenarioConfig,
    SystemDims,
    calibrate_noise,
    decompose,
    generate_scenario,
)
from precodesim.detection import mmse_detection
from precodesim.exceptions import (
    ConfigError, DimensionError, NumericalError, SingularGramError, ZeroMatrixError)
from precodesim.metrics import effective_sinr, evaluate, mmse_sinr_stack, report, user_se
from precodesim.numerics import complex_normal
from helpers import complex_gaussian, evaluate_point, gaussian_channels
from precodesim.optimizer import (
    _PROGRESS_TOL,
    _WINDOW,
    OptConfig,
    OptResult,
    default_start,
    gradient,
    objective,
    optimize,
    optimize_many,
)
from precodesim.precoding import arzf, parametric_rzf, ridge_stack, zf
from precodesim.verification import central_differences


POWER, NV = 2.0, 0.2


class TestObjective:
    def test_start_matches_adapted_ridge_exactly(self):
        # the start is arzf's ridge bit for bit; its objective comes from
        # the layer-space kernel, which matches the full channel to rounding
        ch = gaussian_channels(seed=1)
        dec = decompose(ch)
        r0 = default_start(dec, POWER, NV)
        pre = arzf(dec, POWER, NV)
        assert np.array_equal(parametric_rzf(dec, r0, POWER).weights, pre.weights)
        rep = report(ch, pre, mmse_detection(ch, pre, NV), NV)
        assert abs(objective(dec, ch, r0, POWER, NV) - rep.sum_se) <= 1e-12 * rep.sum_se


class TestGradient:
    def test_adjoint_matches_central_differences(self):
        for seed in range(5):
            ch = gaussian_channels(seed=10 + seed)
            dec = decompose(ch)
            rng = np.random.default_rng(seed)
            r = default_start(dec, POWER, NV) * np.exp(rng.uniform(-1, 1, 4))
            gd = gradient(dec, ch, r, POWER, NV)
            gf = central_differences(dec, ch, r, POWER, NV)
            denom = max(np.abs(gf).max(), 1e-8)
            assert np.abs(gd - gf).max() / denom < 1e-4

    def test_single_layer_objective_flat(self):
        # one user, one layer: the ridge only rescales the raw weights
        # and normalization undoes it, so the gradient must vanish
        ch = gaussian_channels(seed=20, rx=(3,), layers=(1,), num_tx=6)
        dec = decompose(ch)
        for scale in (0.1, 1.0, 10.0):
            r = default_start(dec, POWER, NV) * scale
            g = gradient(dec, ch, r, POWER, NV)
            assert np.abs(g).max() < 1e-10
        j1 = objective(dec, ch, default_start(dec, POWER, NV), POWER, NV)
        j2 = objective(dec, ch, default_start(dec, POWER, NV) * 10, POWER, NV)
        assert abs(j1 - j2) < 1e-12

    def test_user_swap_equivariance(self):
        ch = gaussian_channels(seed=30)
        dec = decompose(ch)
        blocks = (ch.blocks[1], ch.blocks[0])
        ch_sw = ChannelSet(dims=ch.dims, blocks=blocks)
        dec_sw = decompose(ch_sw)
        r = default_start(dec, POWER, NV)
        r_sw = np.concatenate([r[2:], r[:2]])
        g = gradient(dec, ch, r, POWER, NV)
        g_sw = gradient(dec_sw, ch_sw, r_sw, POWER, NV)
        assert np.allclose(np.concatenate([g[2:], g[:2]]), g_sw, atol=1e-10)

    def test_positive_reg_required(self):
        ch = gaussian_channels()
        dec = decompose(ch)
        with pytest.raises(ConfigError):
            gradient(dec, ch, np.zeros(4), POWER, NV)


class TestPublicErrors:
    def test_failures_keep_their_error_types(self):
        # the stacked kernels mask a failed member; every one-point entry
        # point still raises the error of its first failing stage, and no
        # RuntimeWarning escapes
        v = complex_gaussian(5, 1, 8, 1.0)
        v /= np.linalg.norm(v)
        u = np.array([[1.0 + 0j, 0.0]])
        dec = ChannelDecomposition.from_blocks([u, u], [[1.0], [1.0]], [v, v])
        ch = ChannelSet(dims=dec.dims, blocks=(u.conj().T @ v, u.conj().T @ v))
        for call in (lambda: zf(dec, 1.0), lambda: parametric_rzf(dec, [0.0, 0.0], 1.0),
                     lambda: objective(dec, ch, np.zeros(2), 1.0, NV),
                     lambda: gradient(dec, ch, np.full(2, 1e-300), 1.0, NV)):
            with pytest.raises(SingularGramError):
                call()
        with pytest.raises(ZeroMatrixError):
            objective(dec, ch, np.full(2, 1e305), 1.0, NV)


class TestMixedShapes:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shapes=st.lists(st.tuples(st.integers(1, 2), st.integers(1, 3)), min_size=2, max_size=4),
        log_noise=st.floats(-2.0, 2.0),
    )
    def test_kernel_objective_and_gradient(self, seed, shapes, log_noise):
        # users fall into two or more (rx, layers) groups of the stacked kernel
        layers = tuple(l for l, _ in shapes)
        rx = tuple(l + extra for l, extra in shapes)
        assume(len(set(zip(rx, layers))) >= 2)
        rng = np.random.default_rng(seed)
        dims = SystemDims(num_tx=int(rng.integers(max(sum(layers), 8), 17)), rx=rx, layers=layers)
        ch = ChannelSet(dims=dims, blocks=tuple(complex_normal(rng, (r, dims.num_tx), 1.0) for r in rx))
        dec = decompose(ch)
        nv = 10.0**log_noise
        r = default_start(dec, POWER, nv) * np.exp(rng.uniform(-1, 1, dims.total_layers))
        pre = parametric_rzf(dec, r, POWER)
        rep = report(ch, pre, mmse_detection(ch, pre, nv), nv)

        w = pre.weights
        for k in range(dims.num_users):
            own = np.arange(dims.total_layers)[dims.layer_slice(k)]
            a = ch.blocks[k] @ w[:, own]
            g = a.conj().T @ np.linalg.inv(a @ a.conj().T + nv * np.eye(rx[k]))
            mag = np.abs(g @ ch.blocks[k] @ w) ** 2
            sig = mag[np.arange(len(own)), own]
            den = mag.sum(axis=1) - sig + nv * np.sum(np.abs(g) ** 2, axis=1)
            assert np.allclose(rep.layer_sinr[own], sig / den, rtol=1e-10, atol=0.0)

        assert abs(objective(dec, ch, r, POWER, nv) - rep.sum_se) <= 1e-12 * rep.sum_se
        top = np.sort(np.linalg.norm(pre.raw, axis=1))[::-1]
        assume(top[0] - top[1] >= 1e-6 * top[0])
        gd = gradient(dec, ch, r, POWER, nv)
        gf = central_differences(dec, ch, r, POWER, nv)
        assert np.abs(gd - gf).max() <= 1e-4 * max(np.abs(gf).max(), 1e-8)


class TestLayerSpace:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shapes=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3)), min_size=1, max_size=4),
        log_noise=st.floats(-2.0, 2.0),
    )
    def test_layer_sinrs_match_full_channel(self, seed, shapes, log_noise):
        # extra 0 gives rx_k = L_k; small users give rx_k < L, whose R
        # factors are rx_k x L
        layers = tuple(l for l, _ in shapes)
        rx = tuple(l + extra for l, extra in shapes)
        rng = np.random.default_rng(seed)
        dims = SystemDims(num_tx=int(rng.integers(max(sum(layers), 4), 17)), rx=rx, layers=layers)
        ch = ChannelSet(dims=dims, blocks=tuple(complex_normal(rng, (r, dims.num_tx), 1.0) for r in rx))
        dec = decompose(ch)
        nv = 10.0**log_noise
        lt = dims.total_layers
        regs = default_start(dec, POWER, nv) * np.exp(rng.uniform(-1, 1, (3, lt)))
        problems = optimizer._Problems([(dec, ch, POWER, nv)])
        for r, h in zip(problems.groups, ch.groups):
            assert r.h.shape[2:] == (min(h.h.shape[1], lt), lt)
        ev = problems.evaluate(np.zeros(len(regs), dtype=int), regs)
        for b, reg in enumerate(regs):
            pre = parametric_rzf(dec, reg, POWER)
            rep = report(ch, pre, mmse_detection(ch, pre, nv), nv)
            sinrs = np.empty(lt)
            for group, stage in zip(problems.groups, ev.stages):
                sinrs[group.own] = stage[5][b] / stage[6][b]
            assert np.allclose(sinrs, rep.layer_sinr, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("rx", [(4, 3, 4), (6, 3, 6)])
    def test_group_positions_match_four_axis_index(self, rx):
        # lanes and cols gather what indexing (member, user, layer, own
        # layer) and (member, user, own layer, row) gathered, on the channel
        # stacks (rx_k rows) and on the R factors (min(rx_k, L) rows, L = 5)
        dims = SystemDims(num_tx=8, rx=rx, layers=(2, 1, 2))
        rng = np.random.default_rng(7)
        ch = ChannelSet(dims=dims, blocks=tuple(complex_normal(rng, (r, 8), 1.0) for r in rx))
        problems = optimizer._Problems([(decompose(ch), ch, POWER, NV)])
        lt, nb = dims.total_layers, 3
        for group in (*ch.groups, *problems.groups):
            (n, nl), rows = group.own.shape, group.h.shape[-2]
            mag, eff = rng.standard_normal((nb, n, nl, lt)), rng.standard_normal((nb, n, rows, lt))
            b, i = np.arange(nb)[:, None, None], np.arange(n)[:, None]
            assert np.array_equal(mag.reshape(nb, -1)[:, group.lanes].reshape(nb, n, nl),
                                  mag[b, i, np.arange(nl), group.own])
            assert np.array_equal(eff.reshape(nb, -1)[:, group.cols].reshape(nb, n, nl, rows),
                                  eff.swapaxes(-1, -2)[b, i, group.own])
        assert [g.h.shape[-2] for g in problems.groups] == [min(rx[0], lt), rx[1]]

    def test_search_kernel_is_the_public_one_bit_for_bit(self):
        # a batch over two scenes with a non-finite trial ridge and one whose
        # system is not HPD: member by member, the search's evaluation holds
        # what ridge_stack and mmse_sinr_stack give that member alone on the
        # same R factors
        problems = sweep_problems((3, 4), "varied", (0.0, 20.0))
        stack = optimizer._Problems(problems)
        idx = np.array([0, 1, 2, 3, 1, 2])
        rng = np.random.default_rng(5)
        reg = np.array(stack.start)[idx] * np.exp(rng.uniform(-1, 1, (len(idx), 8)))
        reg[4, 2] = np.inf
        reg[5] = -2.0 * np.linalg.eigvalsh(stack.gram[stack.scene[2]]).max()
        ev = stack.evaluate(idx, reg)
        assert ev.ok.tolist() == [True] * 4 + [False] * 2

        def same(a, b):
            return np.array_equal(a, b, equal_nan=True)

        for b, i in enumerate(idx):
            at = stack.scene[[i]]
            raw, gain, x, top, built = ridge_stack(stack.gram[at], stack.vh[at], reg[[b]], None,
                                                   stack.power[[i]])
            groups = [group._replace(h=group.h[at]) for group in stack.groups]
            sinrs, stages, ok = mmse_sinr_stack(groups, gain[:, None, None] * x,
                                                stack.noise_var[[i]])
            assert same(ev.gain[b], gain[0]) and same(ev.x[b], x[0]) and ev.top[b] == top[0]
            assert same(ev.top_row[b], raw[0, top[0]])
            for got, want in zip(ev.stages, stages):
                assert all(same(g[b], w[0]) for g, w in zip(got, want))
            geo = effective_sinr(sinrs, stack.dims)
            assert same(ev.geo[b], geo[0])
            assert ev.ok[b] == (built[0] and ok[0] and np.isfinite(reg[b]).all())
            assert same(ev.j[b], user_se(geo, stack.dims).sum() if ev.ok[b] else np.nan)

    @pytest.mark.parametrize("rejected", [[], [1]])
    def test_round_adjoint_with_or_without_the_take(self, monkeypatch, rejected):
        # a round whose every trial is accepted hands its evaluation to the
        # adjoint as it is; its gradient is the one of the taken members
        problems = sweep_problems((3,), "varied", (0.0, 20.0, 40.0))
        stack = optimizer._Problems(problems)
        n = len(problems)
        idx, ridges = np.arange(n), np.array(stack.start) * 1.1
        bounds = np.full(n, np.inf)
        bounds[rejected] = -np.inf
        real_take, takes = optimizer._Evaluation.take, []

        def take(ev, sel):
            takes.append(sel)
            return real_take(ev, sel)

        monkeypatch.setattr(optimizer._Evaluation, "take", take)
        good, sub, g_new = optimizer._round(stack, idx, ridges, bounds, np.ones(n, dtype=int))
        kept = [r for r in range(n) if r not in rejected]
        assert good == kept and len(takes) == len(rejected)
        want = stack.adjoint(real_take(stack.evaluate(idx, ridges), np.array(kept)))
        assert g_new.tobytes() == want.tobytes()
        assert sub.reg.tobytes() == ridges[kept].tobytes()


class TestOptimize:
    def test_never_below_start(self):
        for seed in (3, 4, 5):
            ch = gaussian_channels(seed=seed)
            dec = decompose(ch)
            res = optimize(dec, ch, POWER, NV)
            assert res.objective >= res.start_objective
            assert res.objective >= objective(
                dec, ch, default_start(dec, POWER, NV), POWER, NV
            )

    def test_improves_on_a_generic_instance(self):
        ch = gaussian_channels(seed=6)
        dec = decompose(ch)
        res = optimize(dec, ch, POWER, NV)
        assert res.objective > res.start_objective

    def test_deterministic(self):
        ch = gaussian_channels(seed=7)
        dec = decompose(ch)
        a = optimize(dec, ch, POWER, NV)
        b = optimize(dec, ch, POWER, NV)
        assert np.array_equal(a.reg_vec, b.reg_vec)
        assert a.objective == b.objective
        assert a.trajectory == b.trajectory

    def test_single_layer_converges_immediately(self):
        ch = gaussian_channels(seed=8, rx=(3,), layers=(1,), num_tx=6)
        dec = decompose(ch)
        res = optimize(dec, ch, POWER, NV)
        assert res.converged
        assert res.iterations == 0
        assert "gradient" in res.reason

    def test_trajectory_monotone(self):
        ch = gaussian_channels(seed=9)
        dec = decompose(ch)
        res = optimize(dec, ch, POWER, NV)
        objs = [row[1] for row in res.trajectory]
        assert all(b >= a for a, b in zip(objs, objs[1:]))
        assert res.trajectory[0][0] == 0
        assert len(res.trajectory) == res.iterations + 1

    def test_line_search_failure_returns_best(self):
        ch = gaussian_channels(seed=12)
        dec = decompose(ch)
        cfg = OptConfig(init_step=1e12, max_backtracks=0)
        res = optimize(dec, ch, POWER, NV, cfg)
        assert not res.converged
        assert "line search" in res.reason
        assert res.objective == res.start_objective
        assert isinstance(res, OptResult)

    @pytest.mark.parametrize("seed", [64, 148])
    def test_search_without_progress_is_arzf_exactly(self, seed):
        # the start is the arzf ridge itself, not exp(log(ridge))
        rng = np.random.default_rng(seed)
        dims = SystemDims(num_tx=8, rx=(3, 3), layers=(1, 1))
        ch = ChannelSet(dims=dims, blocks=tuple(complex_normal(rng, (3, 8), 1.0) for _ in range(2)))
        dec = decompose(ch)
        cfg = OptConfig(max_iters=1, grad_tol=1e3)
        reps = evaluate_point(ch, dec, 1.0, 0.0, ("arzf", "opt"), cfg)
        nv = calibrate_noise(dec, 1.0, 0.0)
        res = optimize(dec, ch, 1.0, nv, cfg)
        assert np.array_equal(res.reg_vec, default_start(dec, 1.0, nv))
        assert np.array_equal(res.precoder.weights, arzf(dec, 1.0, nv).weights)
        # so its full-channel row, the one the CSV shows, is arzf's exactly
        assert reps["opt"].sum_se == reps["arzf"].sum_se
        assert abs(res.start_objective - reps["arzf"].sum_se) <= 1e-12 * reps["arzf"].sum_se

    @pytest.mark.parametrize("seed, kink", [(0, False), (1, True)])
    def test_window_stop(self, seed, kink):
        ch = gaussian_channels(seed=seed)
        dec = decompose(ch)
        res = optimize(dec, ch, POWER, NV)
        assert res.converged is False
        assert res.reason == "progress stalled" + (" at a max-row kink" if kink else "")
        objs = [row[1] for row in res.trajectory]
        assert res.iterations > _WINDOW
        # an absolute stall in bit/s/Hz, and the first window that stalled
        assert objs[-1] - objs[-1 - _WINDOW] <= _PROGRESS_TOL
        assert objs[-2] - objs[-2 - _WINDOW] > _PROGRESS_TOL
        # the iterates of the window, replayed through the iteration cap:
        # the kink clause means their most-loaded antenna changed
        tops = set()
        for k in range(res.iterations - _WINDOW, res.iterations + 1):
            part = optimize(dec, ch, POWER, NV, OptConfig(max_iters=k))
            assert part.trajectory == res.trajectory[: k + 1]
            tops.add(int(np.argmax(np.linalg.norm(part.precoder.raw, axis=1))))
        assert (len(tops) > 1) == kink

    def test_slow_smooth_ascent_at_high_sinr_goes_on(self):
        # held-out varied seed 1000000004 at 40 dB climbs about 1.3e-4 bit/s/Hz
        # a step with no kink; a stall test relative to |J| (about 73 here)
        # ended it at a gain of 0.0007
        ch = generate_scenario(ScenarioConfig(path_loss="varied", seed=1000000004))
        dec = decompose(ch)
        res = optimize(dec, ch, 1.0, calibrate_noise(dec, 1.0, 40.0))
        assert res.objective - res.start_objective >= 0.02

    def test_grad_norm_is_gradient_at_result(self):
        # the search reuses the accepted trial's evaluation for its gradient
        for seed in (0, 1, 10):
            ch = gaussian_channels(seed=seed)
            dec = decompose(ch)
            res = optimize(dec, ch, POWER, NV)
            assert res.grad_norm == np.abs(gradient(dec, ch, res.reg_vec, POWER, NV)).max()
            assert res.objective == objective(dec, ch, res.reg_vec, POWER, NV)

    def test_iteration_limit_reported(self):
        ch = gaussian_channels(seed=14)
        dec = decompose(ch)
        res = optimize(dec, ch, POWER, NV, OptConfig(max_iters=1, grad_tol=1e-14))
        if not res.converged:
            assert "limit" in res.reason or "line search" in res.reason
        assert res.iterations <= 1

    def test_result_precoder_matches_reg(self):
        ch = gaussian_channels(seed=15)
        dec = decompose(ch)
        res = optimize(dec, ch, POWER, NV)
        rebuilt = parametric_rzf(dec, res.reg_vec, POWER)
        assert np.array_equal(res.precoder.weights, rebuilt.weights)
        assert abs(
            report(ch, res.precoder, mmse_detection(ch, res.precoder, NV), NV).sum_se
            - res.objective
        ) < 1e-12


class TestBfgs:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lt=st.integers(1, 9))
    def test_update_is_secant_symmetric_and_row_independent(self, seed, lt):
        # each row's pairs come from one SPD Hessian, so s y > 0; its matrix
        # starts as the identity scaled by s y / y y, as a search's does
        rng = np.random.default_rng(seed)
        rows = 5
        a = rng.normal(size=(rows, lt, lt))
        hess = a @ a.mT + 0.5 * np.eye(lt)
        s = rng.normal(size=(rows, lt))
        y = (hess @ s[..., None])[..., 0]
        h = (np.vecdot(s, y) / np.vecdot(y, y))[:, None, None] * np.eye(lt)
        for _ in range(4):
            new = optimizer._bfgs(h, s, y)
            hy = (new @ y[..., None])[..., 0]
            assert np.all(np.abs(hy - s) <= 1e-12 * np.abs(s).max(axis=-1, keepdims=True))
            assert np.array_equal(new, new.mT)
            np.linalg.cholesky(new)  # positive definite
            # each row alone gives the bits it gets inside the batch
            for b in range(rows):
                alone = optimizer._bfgs(h[b:b + 1], s[b:b + 1], y[b:b + 1])
                assert alone.tobytes() == new[b:b + 1].tobytes()
            h, s = new, rng.normal(size=(rows, lt))
            y = (hess @ s[..., None])[..., 0]

    def test_each_update_starts_from_the_last_or_a_scaled_identity(self, monkeypatch):
        # one search alone: an update takes the matrix the previous one gave,
        # or, before any curvature and after a retry clears it, the identity
        # scaled by s y / y y; the start steps 0 from itself and is no pair
        ch = gaussian_channels(seed=6)
        dec = decompose(ch)
        real, calls = optimizer._bfgs, []

        def bfgs(h, s, y):
            new = real(h, s, y)
            calls.append((h, s, y, new))
            return new

        monkeypatch.setattr(optimizer, "_bfgs", bfgs)
        res = optimize(dec, ch, POWER, NV)
        lt = dec.dims.total_layers
        assert 1 < len(calls) <= res.iterations
        chained, last = 0, None
        for h, s, y, new in calls:
            assert h.shape == (1, lt, lt) and np.vecdot(s, y)[0] > 1e-12
            scaled = (np.vecdot(s, y) / np.vecdot(y, y))[:, None, None] * np.eye(lt)
            if last is not None and np.array_equal(h, last):
                chained += 1
            else:
                assert np.array_equal(h, scaled)
            last = new
        assert chained > 0
        assert res.objective > res.start_objective

    def test_downhill_curvature_falls_back_to_the_gradient(self, monkeypatch):
        # a matrix whose direction -g points downhill, and one whose direction
        # 0 does not ascend, both fail before any trial: each retry clears the
        # curvature and steps along the raw gradient, so both give the same
        # gradient ascent, alone and in a batch
        problems = sweep_problems((5,), "varied", (0.0, 20.0, 40.0))

        def run(sign):
            monkeypatch.setattr(optimizer, "_bfgs", lambda h, s, y: sign * np.broadcast_to(
                np.eye(h.shape[-1]), h.shape).copy())
            return optimize_many(problems), [optimize(*p) for p in problems]

        neg_many, neg_alone = run(-1.0)
        zero_many, zero_alone = run(0.0)
        for a, b, c, d in zip(neg_many, neg_alone, zero_many, zero_alone):
            assert same_search(a, b) and same_search(a, c) and same_search(a, d)
            objs = [row[1] for row in a.trajectory]
            assert all(q >= o for o, q in zip(objs, objs[1:]))
            assert a.objective >= a.start_objective
        assert max(r.iterations for r in neg_many) > 2


def same_search(a, b):
    return (a.reg_vec.tobytes() == b.reg_vec.tobytes() and a.trajectory == b.trajectory
            and a.reason == b.reason and a.precoder.raw.tobytes() == b.precoder.raw.tobytes()
            and a.precoder.gain == b.precoder.gain and a.objective == b.objective)


def sweep_problems(seeds, family, levels=tuple(range(0, 41, 4))):
    out = []
    for seed in seeds:
        ch = generate_scenario(ScenarioConfig(seed=seed, path_loss=family))
        dc = decompose(ch)
        out += [(dc, ch, 1.0, calibrate_noise(dc, 1.0, su)) for su in levels]
    return out


# The default search and degenerate ones: the first scaled matrix and one
# update, ladders of one and two rungs, one step.
CONFIGS = {
    "default": OptConfig(),
    "two_steps": OptConfig(max_iters=2),
    "no_backtracking": OptConfig(max_backtracks=0),
    "one_backtrack": OptConfig(max_backtracks=1),
    "one_step": OptConfig(max_iters=1),
}


class TestOptimizeMany:
    @pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS)
    @pytest.mark.parametrize("family", ["varied", "equal"])
    def test_batch_equals_single_searches(self, family, config):
        # 2 seeds x 11 levels at the default scale: the default batch thins
        # out as searches finish at different rounds
        problems = sweep_problems((0, 1), family)
        many = optimize_many(problems, config)
        if config == OptConfig():
            assert len({r.iterations for r in many}) > 1
        for p, res in zip(problems, many):
            assert same_search(res, optimize(*p, config))

    def test_batch_window_is_invisible(self, monkeypatch):
        # a window smaller than the batch starts searches as others finish
        problems = sweep_problems((2,), "varied", (8.0, 12.0, 16.0, 20.0))
        full = optimize_many(problems)
        real, sizes = optimizer._round, []

        def round_(stack, idx, ridges, bounds, sent):
            sizes.append(len(idx))
            return real(stack, idx, ridges, bounds, sent)

        monkeypatch.setattr(optimizer, "_round", round_)
        monkeypatch.setattr(optimizer, "_BATCH", 2)
        done = []
        small = optimize_many(problems, done=lambda i, res: done.append((i, res)))
        assert max(sizes) == 2 and sizes.count(2) > len(sizes) // 2
        assert sorted(i for i, _ in done) == [0, 1, 2, 3]
        assert all(res is small[i] for i, res in done)
        assert all(same_search(a, b) for a, b in zip(full, small))

    def test_ladder_is_invisible(self, monkeypatch):
        # a budget of one trial row runs one search at a time and tries one
        # step length per round: the search without ladders
        problems = sweep_problems((3,), "varied", (0, 20, 40))
        real, rows = optimizer._round, []

        def round_(stack, idx, ridges, bounds, sent):
            # sent[k] trial rows for each request
            assert len(sent) == len(idx) and sent.sum() == len(ridges) == len(bounds)
            rows.append(int(sent.sum()))
            return real(stack, idx, ridges, bounds, sent)

        monkeypatch.setattr(optimizer, "_round", round_)
        wide = optimize_many(problems)
        wide_rows = rows[:]
        rows.clear()
        monkeypatch.setattr(optimizer, "_BATCH", 1)
        narrow = optimize_many(problems)
        assert max(rows) == 1 and max(wide_rows) > len(problems)
        assert all(same_search(a, b) for a, b in zip(wide, narrow))
        assert len(wide_rows) < len(rows)

    @pytest.mark.parametrize("kind", ["not_hpd", "zero_gain", "non_finite"])
    def test_failing_member_changes_no_other(self, monkeypatch, kind):
        # far trial ridges of the failing members are replaced by ones that
        # fail in the unpatched kernel: a system that is not positive
        # definite, raw weights that underflow to zero, or an infinite ridge;
        # each round still evaluates its whole batch once
        problems = sweep_problems((3,), "varied", (0.0, 20.0, 40.0))
        clean = [optimize(*p) for p in problems]
        real_eval, real_adj, real_round = (
            optimizer._Problems.evaluate, optimizer._Problems.adjoint, optimizer._round)
        failing, hits, evaluates, adjoints = set(), [], [], []

        def evaluate(self, idx, reg):
            evaluates[-1] += 1
            bad = [pos for pos, i in enumerate(idx)
                   if self.noise_var[i] in failing and np.any(reg[pos] > 1.5 * self.start[i])]
            if bad:
                hits.append((len(idx), len(bad)))
                reg = reg.copy()
                for pos in bad:
                    top = np.linalg.eigvalsh(self.gram[self.scene[idx[pos]]]).max()
                    reg[pos] = {"not_hpd": -2.0 * top, "zero_gain": 1e305,
                                "non_finite": np.inf}[kind]
            ev = real_eval(self, idx, reg)
            assert np.isnan(ev.j[bad]).all() and not ev.ok[bad].any()
            return ev

        def adjoint(self, ev):
            adjoints[-1] += 1
            return real_adj(self, ev)

        def round_(stack, idx, ridges, bounds, sent):
            evaluates.append(0)
            adjoints.append(0)
            return real_round(stack, idx, ridges, bounds, sent)

        monkeypatch.setattr(optimizer._Problems, "evaluate", evaluate)
        monkeypatch.setattr(optimizer._Problems, "adjoint", adjoint)
        monkeypatch.setattr(optimizer, "_round", round_)

        failing.add(problems[1][3])
        many = optimize_many(problems)
        assert max(n for n, _ in hits) > 1  # it failed inside a batch
        assert same_search(many[0], clean[0]) and same_search(many[2], clean[2])
        assert same_search(many[1], optimize(*problems[1]))
        assert not same_search(many[1], clean[1])

        # every member of some round fails
        failing.update(p[3] for p in problems)
        hits.clear()
        many = optimize_many(problems)
        assert (len(problems), len(problems)) in hits
        for p, res in zip(problems, many):
            assert same_search(res, optimize(*p))
        assert set(evaluates) == {1}  # one evaluate per round, however many fail
        assert max(adjoints) == 1  # and at most one adjoint

    def test_failed_start_is_returned(self):
        problems = sweep_problems((4,), "varied", (0.0, 20.0))
        # the noise of a -2000 dB level, below the lowest one calibrate_noise
        # accepts: every layer SINR underflows and no ridge can be evaluated
        dc, ch = problems[0][:2]
        problems.insert(1, (dc, ch, 1.0, calibrate_noise(dc, 1.0, -1500.0) * 1e50))
        many = optimize_many(problems)
        assert isinstance(many[1], NumericalError)
        with pytest.raises(NumericalError, match="starting ridge"):
            optimize(*problems[1])
        assert same_search(many[0], optimize(*problems[0]))
        assert same_search(many[2], optimize(*problems[2]))

    @pytest.mark.parametrize("seed", [64, 148])
    def test_search_without_progress_is_arzf_in_a_batch(self, seed):
        rng = np.random.default_rng(seed)
        dims = SystemDims(num_tx=8, rx=(3, 3), layers=(1, 1))
        ch = ChannelSet(dims=dims, blocks=tuple(complex_normal(rng, (3, 8), 1.0) for _ in range(2)))
        dec = decompose(ch)
        nv = calibrate_noise(dec, 1.0, 0.0)
        others = [(dec, ch, 1.0, calibrate_noise(dec, 1.0, su)) for su in (10.0, 30.0)]
        cfg = OptConfig(max_iters=1, grad_tol=1e3)
        res = optimize_many([others[0], (dec, ch, 1.0, nv), others[1]], cfg)[1]
        assert np.array_equal(res.reg_vec, default_start(dec, 1.0, nv))
        assert np.array_equal(res.precoder.weights, arzf(dec, 1.0, nv).weights)
        want = evaluate_point(ch, dec, 1.0, 0.0, ("arzf",))["arzf"].sum_se
        assert evaluate(ch, res.precoder, nv).sum_se == want
        assert abs(res.objective - want) <= 1e-12 * want

    def test_boundary_validation(self):
        ch = gaussian_channels(seed=1)
        dec = decompose(ch)
        other_ch = gaussian_channels(seed=2, rx=(4,), layers=(2,))
        other_dec = decompose(other_ch)
        assert optimize_many([]) == []
        for power, nv in ((0.0, NV), (POWER, float("nan")), (float("inf"), NV)):
            with pytest.raises(ConfigError):
                optimize_many([(dec, ch, POWER, NV), (dec, ch, power, nv)])
        with pytest.raises(DimensionError):
            optimize_many([(dec, ch, POWER, NV), (other_dec, other_ch, POWER, NV)])
        with pytest.raises(DimensionError):
            optimize(dec, other_ch, POWER, NV)

    def test_swapped_pair_is_a_config_error(self):
        # each was a bare AttributeError: 'ChannelSet' object has no attribute 'v'
        ch = gaussian_channels(seed=1)
        dec = decompose(ch)
        start = default_start(dec, POWER, NV)
        with pytest.raises(ConfigError, match="ChannelDecomposition, then a ChannelSet"):
            optimize_many([(dec, ch, POWER, NV), (ch, dec, POWER, NV)])
        for call in (lambda: optimize(ch, dec, POWER, NV),
                     lambda: objective(ch, dec, start, POWER, NV),
                     lambda: gradient(ch, dec, start, POWER, NV)):
            with pytest.raises(ConfigError, match="got ChannelSet and ChannelDecomposition"):
                call()

    @pytest.mark.parametrize("caller", ["parametric_rzf", "objective", "gradient"])
    @pytest.mark.parametrize("entry", [1.0 + 0.5j, True, "1.0",
                                       pytest.param([[1.0, 2.0], [3.0]], id="ragged")])
    def test_ridge_entries_must_be_real(self, caller, entry):
        # a complex ridge dropped its imaginary part, a bool one read as 1.0,
        # and a text one and a ragged one raised a bare ValueError
        ch = gaussian_channels(seed=1)
        dec = decompose(ch)
        lt = dec.dims.total_layers
        reg = entry * (lt // 2) if isinstance(entry, list) else [entry] * lt
        call = {"parametric_rzf": lambda: parametric_rzf(dec, reg, POWER),
                "objective": lambda: objective(dec, ch, reg, POWER, NV),
                "gradient": lambda: gradient(dec, ch, reg, POWER, NV)}[caller]
        with pytest.raises(ConfigError, match="reg_vec must hold real numbers"):
            call()

    def test_gradient_needs_a_positive_ridge(self):
        # the real-number check leaves the gradient's own check in place
        ch = gaussian_channels(seed=1)
        dec = decompose(ch)
        with pytest.raises(ConfigError, match="gradient needs strictly positive"):
            gradient(dec, ch, np.zeros(dec.dims.total_layers), POWER, NV)

    @pytest.mark.parametrize("make_bad", [
        lambda dec, ch: (dec, ch, POWER),
        lambda dec, ch: (dec, ch, POWER, NV, 0),
        lambda dec, ch: dec,
        lambda dec, ch: None,
    ], ids=["3-tuple", "5-tuple", "decomposition", "none"])
    def test_problem_must_be_a_4_tuple(self, make_bad):
        # each failed to unpack with a bare ValueError or TypeError
        ch = gaussian_channels(seed=1)
        dec = decompose(ch)
        with pytest.raises(ConfigError, match="each problem must be a"):
            optimize_many([(dec, ch, POWER, NV), make_bad(dec, ch)])

    def test_problem_may_be_a_list(self):
        ch = gaussian_channels(seed=1)
        dec = decompose(ch)
        assert optimize_many([[dec, ch, POWER, NV]])[0].reason == optimize(dec, ch, POWER, NV).reason


class TestConfigAndCsv:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            OptConfig(max_iters=0)
        with pytest.raises(ConfigError):
            OptConfig(backtrack=1.0)
        with pytest.raises(ConfigError):
            OptConfig(grad_tol=0.0)
        # a float iteration limit never equals the accepted count, and a
        # bool backtrack count would be taken as 0 or 1
        for kw in ({"max_iters": 2.5}, {"max_iters": True}, {"max_backtracks": True},
                   {"max_backtracks": 3.0}, {"max_backtracks": 1.5}, {"max_backtracks": False}):
            with pytest.raises(ConfigError, match=next(iter(kw))):
                OptConfig(**kw)
        assert OptConfig(max_iters=np.int64(3), max_backtracks=np.int32(2)).max_iters == 3
        # each used to raise a bare TypeError from the (0, 1) comparison
        for kw in ({"backtrack": "0.5"}, {"backtrack": None}, {"armijo_c1": 1j},
                   {"backtrack": True}, {"armijo_c1": float("nan")}):
            with pytest.raises(ConfigError, match=next(iter(kw))):
                OptConfig(**kw)
        assert OptConfig(backtrack=np.float32(0.25), armijo_c1=np.float64(0.1)).backtrack == 0.25
        # each was a bare AttributeError from the search
        ch = gaussian_channels(seed=1)
        dec = decompose(ch)
        for config in (None, {}):
            with pytest.raises(ConfigError, match="config must be an OptConfig"):
                optimize_many([(dec, ch, POWER, NV)], config)
