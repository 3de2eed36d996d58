import numpy as np
import pytest

from precodesim.channel import (
    ChannelSet,
    ScenarioConfig,
    SystemDims,
    calibrate_noise,
    decompose,
    generate_scenario,
)
from precodesim.detection import conjugate_detection, mmse_detection
from precodesim.exceptions import ConfigError, ZeroSinrError
from precodesim.metrics import (
    av_susinr,
    effective_sinr,
    layer_sinr,
    report,
    user_se,
)
from precodesim.numerics import complex_gaussian
from precodesim.precoding import arzf, mrt, rzf


def make_channels(seed=0, rx=(4, 4), layers=(2, 2), num_tx=12):
    dims = SystemDims(num_tx=num_tx, rx=rx, layers=layers)
    blocks = tuple(
        complex_gaussian(seed + k, r, num_tx, 1.0) for k, r in enumerate(rx)
    )
    return ChannelSet(dims=dims, blocks=blocks)


def naive_layer_sinr(channels, precoder, detection, noise_var):
    """Scalar-loop re-derivation of the layer SINRs."""
    dims = channels.dims
    w = precoder.weights
    out = []
    for k in range(dims.num_users):
        h = channels.blocks[k]
        g = detection.blocks[k]
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
        ch = make_channels(seed=1)
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
        ch = make_channels(seed=2)
        dec = decompose(ch)
        nv = 0.15
        for pre in (mrt(dec, 1.0), arzf(dec, 1.0, nv), rzf(dec, 1.0, nv)):
            generic = layer_sinr(ch, pre, conjugate_detection(dec), nv)
            mag = np.abs(dec.v @ pre.weights) ** 2
            sig = np.diag(mag)
            closed = sig / (mag.sum(axis=1) - sig + nv / dec.s**2)
            assert np.allclose(generic, closed, rtol=1e-10)

    def test_scale_invariance(self):
        ch = make_channels(seed=3)
        dec = decompose(ch)
        for c in (4.0, 0.25):
            a = arzf(dec, 1.0, 0.2)
            b = arzf(dec, c * 1.0, c * 0.2)
            sa = layer_sinr(ch, a, mmse_detection(ch, a, 0.2), 0.2)
            sb = layer_sinr(ch, b, mmse_detection(ch, b, c * 0.2), c * 0.2)
            assert np.allclose(sa, sb, rtol=1e-10)

    def test_more_noise_lower_sinr(self):
        ch = make_channels(seed=4)
        dec = decompose(ch)
        pre = arzf(dec, 1.0, 0.1)
        det = conjugate_detection(dec)
        lo = layer_sinr(ch, pre, det, 0.1)
        hi = layer_sinr(ch, pre, det, 1.0)
        assert np.all(hi < lo)


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
        ch = make_channels(seed=5)
        dec = decompose(ch)
        nv = 0.3
        pre = arzf(dec, 2.0, nv)
        rep = report(ch, pre, mmse_detection(ch, pre, nv), nv)
        assert rep.detection == "mmse"
        assert rep.layer_sinr.shape == (4,)
        assert abs(rep.sum_se - rep.user_se.sum()) < 1e-12
        assert abs(rep.min_se - rep.user_se.min()) < 1e-12
        assert abs(rep.avg_se - rep.sum_se / 2) < 1e-12
        eff = effective_sinr(rep.layer_sinr, ch.dims)
        assert np.allclose(eff, rep.eff_sinr)


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
        dec = decompose(make_channels())
        with pytest.raises(ConfigError):
            av_susinr(dec, -1.0, 1.0)
        with pytest.raises(ConfigError):
            av_susinr(dec, 1.0, 0.0)
