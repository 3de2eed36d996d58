import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precodesim.channel import ChannelSet, SystemDims, decompose
from precodesim.detection import conjugate_detection, mmse_detection
from precodesim.exceptions import ConfigError, DimensionError
from precodesim.metrics import layer_sinr
from precodesim.numerics import complex_normal
from helpers import complex_gaussian
from precodesim.precoding import arzf, rzf


def make_channels(seed=0, rx=(4, 4), layers=(2, 2), num_tx=12):
    dims = SystemDims(num_tx=num_tx, rx=rx, layers=layers)
    blocks = tuple(
        complex_gaussian(seed + k, r, num_tx, 1.0) for k, r in enumerate(rx)
    )
    return ChannelSet(dims=dims, blocks=blocks)


class TestConjugate:
    def test_reproduces_layer_rows(self):
        ch = make_channels()
        dec = decompose(ch)
        det = conjugate_detection(dec)
        for k in range(2):
            resid = det[k] @ ch.blocks[k] - dec.v[dec.dims.layer_slice(k)]
            assert np.linalg.norm(resid) < 1e-10

    def test_noise_shaping_algebraic(self):
        # G G^H must be diag(1/s^2): effective noise is independent
        # across a user's layers with per-layer variance noise/s_l^2
        dec = decompose(make_channels(seed=3))
        det = conjugate_detection(dec)
        for k in range(2):
            g = det[k]
            want = np.diag(dec.s_block(k) ** -2.0)
            assert np.linalg.norm(g @ g.conj().T - want) < 1e-12

    def test_noise_shaping_monte_carlo(self):
        dec = decompose(make_channels(seed=5, rx=(4,), layers=(2,), num_tx=6))
        g = conjugate_detection(dec)[0]
        nv = 0.8
        rng = np.random.default_rng(11)
        n = complex_normal(rng, (10000, 4), nv)
        z = n @ g.T
        emp = z.conj().T @ z / len(z)
        want = nv * np.diag(dec.s_block(0) ** -2.0)
        # 10k draws: ~1% relative noise on the diagonal
        assert np.all(np.abs(np.diag(emp) - np.diag(want)) < 0.05 * np.diag(want))
        assert abs(emp[0, 1]) < 0.05 * np.sqrt(want[0, 0] * want[1, 1])


class TestMmse:
    def setup_method(self):
        self.ch = make_channels(seed=7)
        self.dec = decompose(self.ch)
        self.nv = 0.3
        self.pre = arzf(self.dec, 2.0, self.nv)
        self.det = mmse_detection(self.ch, self.pre, self.nv)

    def effective(self, k):
        sl = self.ch.dims.layer_slice(k)
        return self.ch.blocks[k] @ self.pre.weights[:, sl]

    def test_shapes(self):
        for k in range(2):
            assert self.det[k].shape == (2, 4)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        layers=st.lists(st.integers(1, 2), min_size=2, max_size=4),
        log_noise=st.floats(-3.0, 3.0),
        theta=st.floats(0.0, 2 * np.pi),
    )
    def test_matches_inverse_oracle(self, seed, layers, log_noise, theta):
        # push-through block against A^H inv(A A^H + nv I), and layer
        # SINRs unchanged when one user's channel turns by a unit phase
        rng = np.random.default_rng(seed)
        rx = tuple(l + int(rng.integers(1, 4)) for l in layers)
        dims = SystemDims(num_tx=int(rng.integers(max(sum(layers), 8), 17)), rx=rx, layers=layers)
        blocks = [complex_normal(rng, (r, dims.num_tx), 1.0) for r in rx]
        ch = ChannelSet(dims=dims, blocks=tuple(blocks))
        pre = arzf(decompose(ch), 1.0, 0.1)
        a = ch.blocks[0] @ pre.weights[:, dims.layer_slice(0)]
        nv = 10.0**log_noise * np.linalg.norm(a, 2) ** 2
        got = mmse_detection(ch, pre, nv)
        for k in range(dims.num_users):
            a = ch.blocks[k] @ pre.weights[:, dims.layer_slice(k)]
            oracle = a.conj().T @ np.linalg.inv(a @ a.conj().T + nv * np.eye(rx[k]))
            assert np.linalg.norm(got[k] - oracle) <= 1e-10 * np.linalg.norm(oracle)
        k = int(rng.integers(dims.num_users))
        blocks[k] = np.exp(1j * theta) * blocks[k]
        rot = ChannelSet(dims=dims, blocks=tuple(blocks))
        pre_rot = arzf(decompose(rot), 1.0, 0.1)
        sinr = layer_sinr(ch, pre, got, nv)
        sinr_rot = layer_sinr(rot, pre_rot, mmse_detection(rot, pre_rot, nv), nv)
        assert np.allclose(sinr_rot, sinr, rtol=1e-10, atol=0.0)

    def test_normal_equations(self):
        # stationarity of ||G A - I||^2 + nv ||G||^2 in G
        for k in range(2):
            a = self.effective(k)
            g = self.det[k]
            resid = (g @ a - np.eye(2)) @ a.conj().T + self.nv * g
            assert np.linalg.norm(resid) < 1e-9

    def test_optimality(self):
        rng = np.random.default_rng(2)
        for k in range(2):
            a = self.effective(k)
            g = self.det[k]

            def f(m):
                return (
                    np.linalg.norm(m @ a - np.eye(2)) ** 2
                    + self.nv * np.linalg.norm(m) ** 2
                )

            f0 = f(g)
            for _ in range(20):
                d = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
                assert f(g + 1e-3 * d / np.linalg.norm(d)) >= f0

    def test_low_noise_inverts(self):
        # 1e-20 is below working precision for the rx x rx form (rx 4 > 2 layers)
        for ch, build, nv in (
            (make_channels(seed=9, rx=(2, 2), layers=(2, 2), num_tx=10), rzf, 1e-9),
            (make_channels(seed=9), arzf, 1e-20),
        ):
            pre = build(decompose(ch), 1.0, nv)
            det = mmse_detection(ch, pre, nv)
            for k in range(2):
                sl = ch.dims.layer_slice(k)
                a = ch.blocks[k] @ pre.weights[:, sl]
                assert np.linalg.norm(det[k] @ a - np.eye(2)) < 1e-6

    def test_high_noise_matches_scaled_adjoint(self):
        nv = 1e9
        det = mmse_detection(self.ch, self.pre, nv)
        for k in range(2):
            a = self.effective(k)
            diff = np.linalg.norm(det[k] - a.conj().T / nv)
            assert diff < 1e-6 * np.linalg.norm(a) / nv

    def test_noise_validated(self):
        with pytest.raises(ConfigError):
            mmse_detection(self.ch, self.pre, 0.0)

    def test_shapes_validated(self):
        # a noise array of the wrong shape was a ConfigError saying it is not
        # a real number
        with pytest.raises(DimensionError, match="noise_var shape"):
            mmse_detection(self.ch, self.pre, np.array([0.3, 0.4]))
        wide = rzf(decompose(make_channels(seed=7, rx=(4, 4, 4), layers=(2, 2, 2))), 1.0, 0.3)
        with pytest.raises(DimensionError, match="weight stack shape"):
            mmse_detection(self.ch, wide, self.nv)

    def test_blocks_tuple(self):
        assert isinstance(self.det, tuple) and len(self.det) == 2
        assert isinstance(conjugate_detection(self.dec), tuple)
