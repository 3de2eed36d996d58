import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from precodesim.channel import (
    ChannelDecomposition,
    ChannelSet,
    ScenarioConfig,
    SystemDims,
    calibrate_noise,
    decompose,
    generate_scenario,
    load_channels,
    save_channels,
)
from precodesim.exceptions import (
    ConfigError,
    DimensionError,
    RankDeficiencyError,
    SelectionError,
)
from precodesim.metrics import av_susinr
from precodesim.numerics import complex_gaussian, reduced_svd


def small_channels(seed=0, rx=(4, 3), layers=(2, 1), num_tx=8):
    dims = SystemDims(num_tx=num_tx, rx=rx, layers=layers)
    blocks = tuple(
        complex_gaussian(seed + k, r, num_tx, 1.0) for k, r in enumerate(rx)
    )
    return ChannelSet(dims=dims, blocks=blocks)


class TestSystemDims:
    def test_totals(self):
        d = SystemDims(num_tx=8, rx=(4, 3, 2), layers=(2, 2, 1))
        assert d.num_users == 3
        assert d.total_rx == 9
        assert d.total_layers == 5
        assert d.layer_slice(1) == slice(2, 4)

    def test_layers_capped_by_rx(self):
        with pytest.raises(ConfigError):
            SystemDims(num_tx=8, rx=(2,), layers=(3,))

    def test_total_layers_capped_by_tx(self):
        with pytest.raises(ConfigError):
            SystemDims(num_tx=3, rx=(4, 4), layers=(2, 2))

    def test_empty(self):
        with pytest.raises(ConfigError):
            SystemDims(num_tx=4, rx=(), layers=())


class TestChannelSet:
    def test_stacked(self):
        ch = small_channels()
        st = ch.stacked
        assert st.shape == (7, 8)
        assert np.array_equal(st[:4], ch.blocks[0])
        assert np.array_equal(st[4:], ch.blocks[1])

    def test_shape_mismatch(self):
        dims = SystemDims(num_tx=8, rx=(4,), layers=(2,))
        with pytest.raises(DimensionError):
            ChannelSet(dims=dims, blocks=(np.ones((3, 8)),))


class TestDecompose:
    def test_reconstruction_full_rank_layers(self):
        ch = small_channels(rx=(4, 3), layers=(4, 3))
        dec = decompose(ch)
        for k, h in enumerate(ch.blocks):
            u = dec.u_blocks[k]
            recon = u.conj().T @ (dec.s_block(k)[:, None] * dec.v_block(k))
            assert np.linalg.norm(recon - h) < 1e-10 * np.linalg.norm(h)

    def test_truncation_energy(self):
        # discarded energy equals the sum of dropped squared singular
        # values; oracle eigenvalues come from the Gram matrix
        ch = small_channels(seed=5, rx=(5,), layers=(2,), num_tx=6)
        dec = decompose(ch)
        h = ch.blocks[0]
        recon = dec.u_blocks[0].conj().T @ (dec.s_block(0)[:, None] * dec.v_block(0))
        eig = np.sort(np.linalg.eigvalsh(h.conj().T @ h))[::-1]
        dropped = eig[2:].sum()
        assert abs(np.linalg.norm(h - recon) ** 2 - dropped) < 1e-9

    def test_layer_order_and_ownership(self):
        ch = small_channels(rx=(4, 4), layers=(3, 2))
        dec = decompose(ch)
        assert dec.dims.layer_slice(0) == slice(0, 3)
        assert dec.dims.layer_slice(1) == slice(3, 5)
        for k in range(2):
            sk = dec.s_block(k)
            assert np.all(np.diff(sk) <= 1e-12)

    def test_per_user_row_orthonormality(self):
        ch = small_channels(rx=(4, 3), layers=(2, 2))
        dec = decompose(ch)
        for k in range(2):
            vk = dec.v_block(k)
            uk = dec.u_blocks[k]
            assert np.allclose(vk @ vk.conj().T, np.eye(len(vk)), atol=1e-12)
            assert np.allclose(uk @ uk.conj().T, np.eye(len(uk)), atol=1e-12)

    def test_c_matrix(self):
        ch = small_channels(rx=(4, 3), layers=(2, 2))
        dec = decompose(ch)
        c = dec.c_matrix
        assert np.allclose(c, c.conj().T, atol=1e-12)
        for k in range(2):
            sl = dec.dims.layer_slice(k)
            assert np.allclose(c[sl, sl], 0.0, atol=1e-12)

    def test_rank_deficiency(self):
        a = complex_gaussian(1, 4, 1, 1.0)
        b = complex_gaussian(2, 1, 8, 1.0)
        dims = SystemDims(num_tx=8, rx=(4,), layers=(2,))
        ch = ChannelSet(dims=dims, blocks=(a @ b,))
        with pytest.raises(RankDeficiencyError):
            decompose(ch)

    def test_from_blocks_round_trip(self):
        ch = small_channels(rx=(4, 3), layers=(2, 1))
        dec = decompose(ch)
        rebuilt = ChannelDecomposition.from_blocks(
            dec.u_blocks,
            [dec.s_block(k) for k in range(2)],
            [dec.v_block(k) for k in range(2)],
        )
        assert rebuilt.dims == dec.dims
        assert np.array_equal(rebuilt.v, dec.v)
        assert np.array_equal(rebuilt.s, dec.s)


def quick_config(**kw):
    base = dict(
        num_tx=16,
        num_users=3,
        rx_per_user=4,
        layers_per_user=2,
        num_paths=4,
        candidate_pool=16,
        corr_threshold=0.5,
        seed=0,
    )
    base.update(kw)
    return ScenarioConfig(**base)


class TestScenario:
    def test_deterministic(self):
        a = generate_scenario(quick_config(seed=3))
        b = generate_scenario(quick_config(seed=3))
        c = generate_scenario(quick_config(seed=4))
        for x, y in zip(a.blocks, b.blocks):
            assert np.array_equal(x, y)
        assert not all(np.array_equal(x, y) for x, y in zip(a.blocks, c.blocks))

    def test_shapes(self):
        ch = generate_scenario(quick_config())
        assert ch.dims.num_users == 3
        assert all(b.shape == (4, 16) for b in ch.blocks)

    def test_correlation_cap_holds(self):
        for seed in range(5):
            ch = generate_scenario(quick_config(seed=seed))
            dirs = [reduced_svd(b, 1).v[0] for b in ch.blocks]
            for i in range(len(dirs)):
                for j in range(i):
                    assert abs(dirs[i] @ dirs[j].conj()) ** 2 <= 0.5 + 1e-12

    def test_equal_path_loss_norms(self):
        # candidates are unit Frobenius norm before the path loss scale
        ch = generate_scenario(quick_config())
        for b in ch.blocks:
            assert abs(np.linalg.norm(b) - 1.0) < 1e-9

    def test_varied_path_loss_range(self):
        ch = generate_scenario(quick_config(path_loss="varied", seed=9))
        ratios = [np.linalg.norm(b) for b in ch.blocks]
        assert all(10 ** (-0.5) - 1e-9 <= r <= 10**0.5 + 1e-9 for r in ratios)
        assert np.std(ratios) > 0

    def test_varied_path_loss_uniform(self):
        vals = []
        for seed in range(40):
            ch = generate_scenario(quick_config(path_loss="varied", seed=100 + seed))
            vals.extend(20 * np.log10(np.linalg.norm(b)) for b in ch.blocks)
        _, p = stats.kstest(vals, "uniform", args=(-10.0, 20.0))
        assert p > 0.01

    def test_singular_values_follow_path_profile(self):
        # orthonormal path frames make the singular value profile exact
        from precodesim.channel import _path_powers

        cfg = quick_config()
        ch = generate_scenario(cfg)
        want = np.sqrt(_path_powers(cfg.num_paths))[: cfg.layers_per_user]
        dec = decompose(ch)
        for k in range(cfg.num_users):
            assert np.allclose(dec.s_block(k), want, rtol=1e-10)

    def test_users_share_scatterers(self):
        # the pool-wide scatterer frame keeps dominant directions of
        # different users visibly correlated, far above the near-zero
        # overlap of independent directions in this dimension
        corrs = []
        for seed in range(10):
            ch = generate_scenario(quick_config(seed=seed))
            dirs = [reduced_svd(b, 1).v[0] for b in ch.blocks]
            for i in range(len(dirs)):
                for j in range(i):
                    corrs.append(abs(dirs[i] @ dirs[j].conj()) ** 2)
        assert np.median(corrs) > 0.05

    def test_selection_failure(self):
        cfg = quick_config(
            num_users=4,
            candidate_pool=6,
            corr_threshold=1e-6,
            max_retries=2,
        )
        with pytest.raises(SelectionError):
            generate_scenario(cfg)

    def test_decomposable(self):
        ch = generate_scenario(quick_config())
        dec = decompose(ch)
        assert dec.dims.total_layers == 6

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            quick_config(num_paths=1)
        with pytest.raises(ConfigError):
            quick_config(num_paths=8)  # exceeds rx_per_user antennas
        with pytest.raises(ConfigError):
            quick_config(path_loss="none")
        with pytest.raises(ConfigError):
            quick_config(corr_threshold=0.0)
        with pytest.raises(ConfigError, match="seed"):
            quick_config(seed=-5)


class TestCalibrateNoise:
    def test_round_trip(self):
        dec = decompose(generate_scenario(quick_config(path_loss="varied", seed=2)))
        power = 4.0
        for target_db in (-5.0, 0.0, 17.5):
            nv = calibrate_noise(dec, power, target_db)
            assert nv > 0
            logs = []
            for k in range(dec.dims.num_users):
                sk = dec.s_block(k)
                su = power / (dec.dims.layers[k] * nv) * np.exp(
                    2 * np.mean(np.log(sk))
                )
                logs.append(np.log(su))
            achieved_db = 10 * np.mean(logs) / np.log(10)
            assert abs(achieved_db - target_db) < 1e-10

    def test_monotone_in_target(self):
        dec = decompose(generate_scenario(quick_config()))
        assert calibrate_noise(dec, 1.0, 0.0) > calibrate_noise(dec, 1.0, 10.0)

    def test_power_validated(self):
        dec = decompose(generate_scenario(quick_config()))
        for power in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                calibrate_noise(dec, power, 0.0)
        # targets whose noise variance over- or underflows
        for target_db in (4000.0, -4000.0, float("-inf"), float("nan")):
            with pytest.raises(ConfigError):
                calibrate_noise(dec, 1.0, target_db)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        power=st.floats(0.01, 100.0),
        a=st.floats(-60.0, 80.0),
        b=st.floats(-60.0, 80.0),
    )
    def test_positive_decreasing_round_trip(self, seed, power, a, b):
        assume(abs(a - b) > 1e-6)
        lo, hi = min(a, b), max(a, b)
        dec = decompose(small_channels(seed=seed))
        nv_lo, nv_hi = calibrate_noise(dec, power, lo), calibrate_noise(dec, power, hi)
        assert 0.0 < nv_hi < nv_lo < np.inf
        for target_db, nv in ((lo, nv_lo), (hi, nv_hi)):
            want = 10.0 ** (target_db / 10.0)
            assert abs(av_susinr(dec, power, nv) - want) <= 1e-12 * want


class TestDumpFormat:
    def test_round_trip(self, tmp_path):
        ch = small_channels(seed=8, rx=(4, 3), layers=(2, 1))
        p = tmp_path / "chan.bin"
        save_channels(p, ch)
        back = load_channels(p)
        assert back.dims == ch.dims
        for a, b in zip(back.blocks, ch.blocks):
            assert np.array_equal(a, b)

    def test_magic_checked(self, tmp_path):
        p = tmp_path / "bogus.bin"
        p.write_bytes(b"NOTCHAN0" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_channels(p)

    def test_truncation_detected(self, tmp_path):
        ch = small_channels(seed=8)
        p = tmp_path / "chan.bin"
        save_channels(p, ch)
        data = p.read_bytes()
        p.write_bytes(data[:-16])
        with pytest.raises(ValueError):
            load_channels(p)
