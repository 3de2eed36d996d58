from dataclasses import replace

import numpy as np
import pytest

from precodesim.channel import (
    ScenarioConfig,
    SystemDims,
    calibrate_noise,
    decompose,
    generate_scenario,
)
from precodesim.detection import conjugate_detection, mmse_detection
from precodesim.exceptions import ConfigError, DimensionError, ZeroSinrError
from precodesim.metrics import (
    effective_sinr,
    evaluate,
    evaluate_many,
    layer_sinr,
    report,
    user_se,
)
from helpers import av_susinr, gaussian_channels
from precodesim.precoding import arzf, mrt, rzf


def naive_layer_sinr(channels, precoder, detection, noise_var):
    """Scalar-loop re-derivation of the layer SINRs."""
    dims = channels.dims
    w = precoder.weights
    out = []
    for k in range(dims.num_users):
        h = channels.blocks[k]
        g = detection[k]
        for j in range(dims.layers[k]):
            l = dims.layer_slice(k).start + j
            row = g[j]
            sig = abs(row @ h @ w[:, l]) ** 2
            interf = 0.0
            for i in range(dims.total_layers):
                if i != l:
                    interf += abs(row @ h @ w[:, i]) ** 2
            noise = noise_var * float(np.sum(np.abs(row) ** 2))
            out.append(sig / (interf + noise))
    return np.array(out)


class TestLayerSinr:
    def test_matches_naive_loop(self):
        ch = gaussian_channels(seed=1)
        dec = decompose(ch)
        nv = 0.4
        pre = arzf(dec, 2.0, nv)
        for det in (conjugate_detection(dec), mmse_detection(ch, pre, nv)):
            fast = layer_sinr(ch, pre, det, nv)
            slow = naive_layer_sinr(ch, pre, det, nv)
            assert np.allclose(fast, slow, rtol=1e-12)

    def test_conjugate_closed_form_equivalence(self):
        # channel-diagonalizing detection reduces the SINR to the layer
        # rows: |t_ll|^2 / (sum_{i!=l} |t_li|^2 + nv / s_l^2), T = V W
        ch = gaussian_channels(seed=2)
        dec = decompose(ch)
        nv = 0.15
        for pre in (mrt(dec, 1.0), arzf(dec, 1.0, nv), rzf(dec, 1.0, nv)):
            generic = layer_sinr(ch, pre, conjugate_detection(dec), nv)
            mag = np.abs(dec.v @ pre.weights) ** 2
            sig = np.diag(mag)
            closed = sig / (mag.sum(axis=1) - sig + nv / dec.s**2)
            assert np.allclose(generic, closed, rtol=1e-10)

    def test_scale_invariance(self):
        ch = gaussian_channels(seed=3)
        dec = decompose(ch)
        for c in (4.0, 0.25):
            a = arzf(dec, 1.0, 0.2)
            b = arzf(dec, c * 1.0, c * 0.2)
            sa = layer_sinr(ch, a, mmse_detection(ch, a, 0.2), 0.2)
            sb = layer_sinr(ch, b, mmse_detection(ch, b, c * 0.2), c * 0.2)
            assert np.allclose(sa, sb, rtol=1e-10)

    def test_more_noise_lower_sinr(self):
        ch = gaussian_channels(seed=4)
        dec = decompose(ch)
        pre = arzf(dec, 1.0, 0.1)
        det = conjugate_detection(dec)
        lo = layer_sinr(ch, pre, det, 0.1)
        hi = layer_sinr(ch, pre, det, 1.0)
        assert np.all(hi < lo)

    def test_validates_blocks(self):
        # a block too many was a bare IndexError
        ch = gaussian_channels(seed=4)
        dec = decompose(ch)
        pre = arzf(dec, 1.0, 0.1)
        det = conjugate_detection(dec)
        for blocks in (det + det[:1], (det[0], det[1].T)):
            with pytest.raises(DimensionError, match="detection block shapes"):
                layer_sinr(ch, pre, blocks, 0.1)
        assert np.array_equal(layer_sinr(ch, pre, list(det), 0.1), layer_sinr(ch, pre, det, 0.1))


class TestAggregation:
    def test_effective_sinr_geometric_mean(self):
        dims = SystemDims(num_tx=4, rx=(2, 2), layers=(2, 2))
        eff = effective_sinr(np.array([1.0, 4.0, 9.0, 9.0]), dims)
        assert np.allclose(eff, [2.0, 9.0])

    def test_zero_sinr_rejected(self):
        dims = SystemDims(num_tx=4, rx=(2,), layers=(2,))
        with pytest.raises(ZeroSinrError):
            effective_sinr(np.array([0.0, 1.0]), dims)

    def test_user_se_formula(self):
        dims = SystemDims(num_tx=8, rx=(2, 3), layers=(2, 3))
        se = user_se(np.array([3.0, 7.0]), dims)
        assert np.allclose(se, [2 * np.log2(4.0), 3 * np.log2(8.0)])
        # log2(1 + x) ~ x / ln 2 far below double precision's epsilon
        tiny = user_se(np.array([1e-30]), SystemDims(num_tx=2, rx=(1,), layers=(1,)))
        assert tiny[0] == pytest.approx(1.4426950408889634e-30, rel=1e-12)

    def test_report_consistency(self):
        ch = gaussian_channels(seed=5)
        dec = decompose(ch)
        nv = 0.3
        pre = arzf(dec, 2.0, nv)
        rep = report(ch, pre, mmse_detection(ch, pre, nv), nv)
        assert rep.layer_sinr.shape == (4,)
        assert abs(rep.sum_se - rep.user_se.sum()) < 1e-12
        assert abs(rep.min_se - rep.user_se.min()) < 1e-12
        eff = effective_sinr(rep.layer_sinr, ch.dims)
        assert np.allclose(eff, rep.eff_sinr)

    def test_evaluate_validates_input(self):
        ch = gaussian_channels(seed=5)
        pre = arzf(decompose(ch), 2.0, 0.3)
        ref = report(ch, pre, mmse_detection(ch, pre, 0.3), 0.3)
        assert evaluate(ch, pre, 0.3).sum_se == ref.sum_se
        for nv in (0.0, float("nan")):
            with pytest.raises(ConfigError):
                evaluate(ch, pre, nv)
        with pytest.raises(DimensionError):
            evaluate(ch, replace(pre, raw=pre.raw[:, :3]), 0.3)
        # each below was a bare IndexError or numpy ValueError
        ch4 = gaussian_channels(seed=5, rx=(4, 4, 4, 4), layers=(2, 2, 2, 2))
        pre4 = arzf(decompose(ch4), 2.0, 0.3)
        det4 = mmse_detection(ch4, pre4, 0.3)
        wide = replace(pre4, raw=pre4.raw[:, :6])
        for score in (layer_sinr, report):
            with pytest.raises(DimensionError, match="weight stack shape"):
                score(ch4, wide, det4, 0.3)
        for blocks in (det4[:2], det4 + det4[:1]):
            with pytest.raises(DimensionError, match="detection block shapes"):
                report(ch4, pre4, blocks, 0.3)
        w = np.stack([pre4.weights] * 3)
        with pytest.raises(DimensionError, match="noise_var shape"):
            evaluate_many(ch4, w, np.array([0.3, 0.4]))
        with pytest.raises(DimensionError, match="noise_var shape"):
            evaluate(ch, pre, np.array([0.1, 0.2]))
        with pytest.raises(DimensionError, match="weight stack shape"):
            evaluate_many(ch4, w[:0], 0.3)

    def test_evaluate_many_noise_per_member(self):
        # one summary of the whole stack, member b under noise[b], each
        # bitwise its evaluate alone
        ch = gaussian_channels(seed=6)
        dec = decompose(ch)
        noise = np.array([0.05, 0.3, 2.0, 0.3])
        pres = [arzf(dec, 2.0, nv) for nv in noise[:2]] + [mrt(dec, 2.0), rzf(dec, 2.0, 0.7)]
        rep = evaluate_many(ch, np.stack([p.weights for p in pres]), noise)
        assert rep.sum_se.shape == rep.min_se.shape == (4,)
        assert rep.user_se.shape == (4, ch.dims.num_users)
        for b, (pre, nv) in enumerate(zip(pres, noise)):
            one = evaluate(ch, pre, nv)
            for name in ("layer_sinr", "eff_sinr", "user_se", "sum_se", "min_se"):
                assert np.asarray(getattr(rep, name)[b]).tobytes() == \
                    np.asarray(getattr(one, name)).tobytes()
        w = np.stack([p.weights for p in pres])
        for bad in (np.array([0.3, np.nan, 0.3, 0.3]), np.array([0.3, 0.3, -1.0, 0.3])):
            with pytest.raises(ConfigError, match="noise_var"):
                evaluate_many(ch, w, bad)

    def test_evaluate_many_takes_a_list(self):
        # a list of weight matrices was a bare AttributeError: no attribute 'shape'
        ch = gaussian_channels(seed=6)
        dec = decompose(ch)
        ws = [mrt(dec, 2.0).weights, arzf(dec, 2.0, 0.3).weights]
        got, want = evaluate_many(ch, ws, 0.3), evaluate_many(ch, np.stack(ws), 0.3)
        assert got.layer_sinr.tobytes() == want.layer_sinr.tobytes()
        with pytest.raises(DimensionError, match="weight stack shape"):
            evaluate_many(ch, [w[:, :3] for w in ws], 0.3)


class TestAvSusinr:
    def test_calibration_round_trip(self):
        cfg = ScenarioConfig(
            num_tx=16, num_users=3, rx_per_user=4, layers_per_user=2,
            num_paths=4, candidate_pool=16, corr_threshold=0.5,
            path_loss="varied", seed=6,
        )
        dec = decompose(generate_scenario(cfg))
        power = 2.0
        for target_db in (-3.0, 0.0, 12.0):
            nv = calibrate_noise(dec, power, target_db)
            got = av_susinr(dec, power, nv)
            assert abs(10 * np.log10(got) - target_db) < 1e-10

    def test_homogeneous_hand_case(self):
        # two users, one layer each, s = 1 and s = 2:
        # susinr_k = p s_k^2 / nv, geometric mean = p * 2 / nv
        v1 = np.zeros((1, 6), dtype=complex)
        v1[0, 0] = 1.0
        v2 = np.zeros((1, 6), dtype=complex)
        v2[0, 1] = 1.0
        u = np.array([[1.0 + 0j, 0.0]])
        from precodesim.channel import ChannelDecomposition

        dec = ChannelDecomposition.from_blocks([u, u], [[1.0], [2.0]], [v1, v2])
        got = av_susinr(dec, power=3.0, noise_var=0.5)
        assert abs(got - 3.0 * 2.0 / 0.5) < 1e-12

    def test_validation(self):
        dec = decompose(gaussian_channels())
        with pytest.raises(ConfigError):
            av_susinr(dec, -1.0, 1.0)
        with pytest.raises(ConfigError):
            av_susinr(dec, 1.0, 0.0)
