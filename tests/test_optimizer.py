import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from precodesim.channel import ChannelSet, SystemDims, calibrate_noise, decompose
from precodesim.detection import mmse_detection
from precodesim.exceptions import ConfigError
from precodesim.metrics import report
from precodesim.harness import evaluate_point
from precodesim.numerics import complex_gaussian, complex_normal
from precodesim.optimizer import (
    OptConfig,
    OptResult,
    default_start,
    gradient,
    objective,
    optimize,
)
from precodesim.precoding import arzf, parametric_rzf
from precodesim.verification import central_differences


def make_pair(seed=0, rx=(4, 4), layers=(2, 2), num_tx=12):
    dims = SystemDims(num_tx=num_tx, rx=rx, layers=layers)
    blocks = tuple(
        complex_gaussian(seed + k, r, num_tx, 1.0) for k, r in enumerate(rx)
    )
    ch = ChannelSet(dims=dims, blocks=blocks)
    return ch, decompose(ch)


POWER, NV = 2.0, 0.2


class TestObjective:
    def test_start_matches_adapted_ridge_exactly(self):
        # same code path: bitwise equality, not just closeness
        ch, dec = make_pair(seed=1)
        r0 = default_start(dec, POWER, NV)
        j0 = objective(dec, ch, r0, POWER, NV)
        pre = arzf(dec, POWER, NV)
        rep = report(ch, pre, mmse_detection(ch, pre, NV), NV)
        assert j0 == rep.sum_se


class TestGradient:
    def test_adjoint_matches_central_differences(self):
        for seed in range(5):
            ch, dec = make_pair(seed=10 + seed)
            rng = np.random.default_rng(seed)
            r = default_start(dec, POWER, NV) * np.exp(rng.uniform(-1, 1, 4))
            gd = gradient(dec, ch, r, POWER, NV)
            gf = central_differences(dec, ch, r, POWER, NV)
            denom = max(np.abs(gf).max(), 1e-8)
            assert np.abs(gd - gf).max() / denom < 1e-4

    def test_single_layer_objective_flat(self):
        # one user, one layer: the ridge only rescales the raw weights
        # and normalization undoes it, so the gradient must vanish
        ch, dec = make_pair(seed=20, rx=(3,), layers=(1,), num_tx=6)
        for scale in (0.1, 1.0, 10.0):
            r = default_start(dec, POWER, NV) * scale
            g = gradient(dec, ch, r, POWER, NV)
            assert np.abs(g).max() < 1e-10
        j1 = objective(dec, ch, default_start(dec, POWER, NV), POWER, NV)
        j2 = objective(dec, ch, default_start(dec, POWER, NV) * 10, POWER, NV)
        assert abs(j1 - j2) < 1e-12

    def test_user_swap_equivariance(self):
        ch, dec = make_pair(seed=30)
        blocks = (ch.blocks[1], ch.blocks[0])
        ch_sw = ChannelSet(dims=ch.dims, blocks=blocks)
        dec_sw = decompose(ch_sw)
        r = default_start(dec, POWER, NV)
        r_sw = np.concatenate([r[2:], r[:2]])
        g = gradient(dec, ch, r, POWER, NV)
        g_sw = gradient(dec_sw, ch_sw, r_sw, POWER, NV)
        assert np.allclose(np.concatenate([g[2:], g[:2]]), g_sw, atol=1e-10)

    def test_positive_reg_required(self):
        ch, dec = make_pair()
        with pytest.raises(ConfigError):
            gradient(dec, ch, np.zeros(4), POWER, NV)


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

        assert objective(dec, ch, r, POWER, nv) == rep.sum_se
        top = np.sort(np.linalg.norm(pre.raw, axis=1))[::-1]
        assume(top[0] - top[1] >= 1e-6 * top[0])
        gd = gradient(dec, ch, r, POWER, nv)
        gf = central_differences(dec, ch, r, POWER, nv)
        assert np.abs(gd - gf).max() <= 1e-4 * max(np.abs(gf).max(), 1e-8)


class TestOptimize:
    def test_never_below_start(self):
        for seed in (3, 4, 5):
            ch, dec = make_pair(seed=seed)
            res = optimize(dec, ch, POWER, NV)
            assert res.objective >= res.start_objective
            assert res.objective >= objective(
                dec, ch, default_start(dec, POWER, NV), POWER, NV
            )

    def test_improves_on_a_generic_instance(self):
        ch, dec = make_pair(seed=6)
        res = optimize(dec, ch, POWER, NV)
        assert res.objective > res.start_objective

    def test_deterministic(self):
        ch, dec = make_pair(seed=7)
        a = optimize(dec, ch, POWER, NV)
        b = optimize(dec, ch, POWER, NV)
        assert np.array_equal(a.reg_vec, b.reg_vec)
        assert a.objective == b.objective
        assert a.trajectory == b.trajectory

    def test_single_layer_converges_immediately(self):
        ch, dec = make_pair(seed=8, rx=(3,), layers=(1,), num_tx=6)
        res = optimize(dec, ch, POWER, NV)
        assert res.converged
        assert res.iterations == 0
        assert "gradient" in res.reason

    def test_trajectory_monotone(self):
        ch, dec = make_pair(seed=9)
        res = optimize(dec, ch, POWER, NV)
        objs = [row[1] for row in res.trajectory]
        assert all(b >= a for a, b in zip(objs, objs[1:]))
        assert res.trajectory[0][0] == 0
        assert len(res.trajectory) == res.iterations + 1

    def test_line_search_failure_returns_best(self):
        ch, dec = make_pair(seed=12)
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
        assert res.start_objective == reps["arzf"].sum_se
        assert reps["opt"].sum_se >= reps["arzf"].sum_se

    def test_iteration_limit_reported(self):
        ch, dec = make_pair(seed=14)
        res = optimize(dec, ch, POWER, NV, OptConfig(max_iters=1, grad_tol=1e-14))
        if not res.converged:
            assert "limit" in res.reason or "line search" in res.reason
        assert res.iterations <= 1

    def test_result_precoder_matches_reg(self):
        ch, dec = make_pair(seed=15)
        res = optimize(dec, ch, POWER, NV)
        rebuilt = parametric_rzf(dec, res.reg_vec, POWER)
        assert np.array_equal(res.precoder.weights, rebuilt.weights)
        assert abs(
            report(ch, res.precoder, mmse_detection(ch, res.precoder, NV), NV).sum_se
            - res.objective
        ) < 1e-12


class TestConfigAndCsv:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            OptConfig(max_iters=0)
        with pytest.raises(ConfigError):
            OptConfig(backtrack=1.0)
        with pytest.raises(ConfigError):
            OptConfig(grad_tol=0.0)
