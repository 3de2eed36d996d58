from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from precodesim import channel
from precodesim.channel import (
    MIN_SUSINR_DB,
    SHARED_PATH_WEIGHT,
    ChannelDecomposition,
    ChannelSet,
    ScenarioConfig,
    SystemDims,
    _path_powers,
    _scatter_environment,
    calibrate_noise,
    decompose,
    generate_scenario,
)
from precodesim.exceptions import (
    ConfigError,
    DimensionError,
    NumericalError,
    RankDeficiencyError,
    SelectionError,
)
from precodesim.numerics import complex_normal
from helpers import av_susinr, complex_gaussian, gaussian_channels, reduced_svd_loop


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

    def test_zero_layers(self):
        with pytest.raises(ConfigError, match=r"layers\[0\]=0 outside"):
            SystemDims(num_tx=4, rx=(2,), layers=(0,))

    def test_total_layers_capped_by_tx(self):
        with pytest.raises(ConfigError):
            SystemDims(num_tx=3, rx=(4, 4), layers=(2, 2))

    def test_empty(self):
        with pytest.raises(ConfigError):
            SystemDims(num_tx=4, rx=(), layers=())

    @pytest.mark.parametrize("kw, field", [
        ({"rx": (2.7,)}, r"rx\[0\]"), ({"layers": (1.9,)}, r"layers\[0\]"),
        ({"rx": ("2",)}, r"rx\[0\]"), ({"rx": (2, True), "layers": (1, 1)}, r"rx\[1\]"),
        ({"num_tx": 8.5}, "num_tx"), ({"num_tx": True}, "num_tx"), ({"num_tx": "8"}, "num_tx"),
    ])
    def test_sizes_must_be_integers(self, kw, field):
        # rx and layers were truncated through int(), a text or a bool size
        # was taken, and a text num_tx raised a bare TypeError
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            SystemDims(**{"num_tx": 8, "rx": (2,), "layers": (1,), **kw})
        d = SystemDims(num_tx=np.int64(8), rx=[np.int32(2)], layers=(np.int64(1),))
        assert d.rx == (2,) and d.layers == (1,) and type(d.rx[0]) is int


class TestChannelSet:
    def test_shape_mismatch(self):
        dims = SystemDims(num_tx=8, rx=(4,), layers=(2,))
        with pytest.raises(DimensionError):
            ChannelSet(dims=dims, blocks=(np.ones((3, 8)),))

    def test_nonfinite_rejected(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = np.nan
        with pytest.raises(NumericalError, match="blocks"):
            ChannelSet(dims=SystemDims(num_tx=2, rx=(2,), layers=(1,)), blocks=(m,))


def one_user(m, keep):
    """``(u, s, v)`` of :func:`decompose` on the one-user set of block ``m``."""
    m = np.asarray(m, dtype=complex)
    dec = decompose(ChannelSet(dims=SystemDims(num_tx=m.shape[1], rx=(m.shape[0],),
                                               layers=(keep,)), blocks=(m,)))
    return dec.u_blocks[0], dec.s, dec.v


def reconstruct(u, s, v):
    """``u^H @ diag(s) @ v``."""
    return u.conj().T @ (s[:, None] * v)


def gram_eig_rank_k(m, keep):
    """Independent rank-k approximation via eigendecomposition of m^H m.

    Uses a different LAPACK path than the SVD under test; phase-free
    because it only needs the right singular subspace projector.
    """
    w, vecs = np.linalg.eigh(m.conj().T @ m)
    top = vecs[:, ::-1][:, :keep]
    proj = top @ top.conj().T
    return m @ proj, np.sqrt(np.maximum(w[::-1][:keep], 0.0))


@st.composite
def heterogeneous_sets(draw):
    """A caller-built set of 1-4 users with blocks of 1-20 rows by 1-20
    columns, up to 20 layers, scaled by up to 1e+-250.  The ``(rx, layers)``
    draws favour a few small shapes, so groups of several users interleave."""
    num_tx = draw(st.integers(1, 20))
    users = draw(st.integers(1, min(4, num_tx)))
    rx, layers = [], []
    for k in range(users):
        rx.append(draw(st.one_of(st.integers(1, 3), st.integers(1, 20))))
        room = num_tx - sum(layers) - (users - k - 1)
        layers.append(draw(st.integers(1, min(rx[-1], num_tx, room))))
    seed, log_scale = draw(st.integers(0, 2**32 - 1)), draw(st.floats(-250.0, 250.0))
    blocks = [complex_gaussian(seed + k, r, num_tx, 1.0) * 10.0**log_scale
              for k, r in enumerate(rx)]
    return ChannelSet(dims=SystemDims(num_tx=num_tx, rx=tuple(rx), layers=tuple(layers)),
                      blocks=tuple(blocks))


class TestDecompose:
    def test_reconstruction_full_rank_layers(self):
        ch = gaussian_channels(rx=(4, 3), layers=(4, 3), num_tx=8)
        dec = decompose(ch)
        for k, h in enumerate(ch.blocks):
            u = dec.u_blocks[k]
            recon = u.conj().T @ (dec.s_block(k)[:, None] * dec.v[dec.dims.layer_slice(k)])
            assert np.linalg.norm(recon - h) < 1e-10 * np.linalg.norm(h)

    def test_truncation_energy(self):
        # discarded energy equals the sum of dropped squared singular
        # values; oracle eigenvalues come from the Gram matrix
        ch = gaussian_channels(seed=5, rx=(5,), layers=(2,), num_tx=6)
        dec = decompose(ch)
        h = ch.blocks[0]
        v0 = dec.v[dec.dims.layer_slice(0)]
        recon = dec.u_blocks[0].conj().T @ (dec.s_block(0)[:, None] * v0)
        eig = np.sort(np.linalg.eigvalsh(h.conj().T @ h))[::-1]
        dropped = eig[2:].sum()
        assert abs(np.linalg.norm(h - recon) ** 2 - dropped) < 1e-9

    def test_layer_order_and_ownership(self):
        ch = gaussian_channels(rx=(4, 4), layers=(3, 2), num_tx=8)
        dec = decompose(ch)
        assert dec.dims.layer_slice(0) == slice(0, 3)
        assert dec.dims.layer_slice(1) == slice(3, 5)
        for k in range(2):
            sk = dec.s_block(k)
            assert np.all(np.diff(sk) <= 1e-12)

    def test_per_user_row_orthonormality(self):
        ch = gaussian_channels(rx=(4, 3), layers=(2, 2), num_tx=8)
        dec = decompose(ch)
        for k in range(2):
            vk = dec.v[dec.dims.layer_slice(k)]
            uk = dec.u_blocks[k]
            assert np.allclose(vk @ vk.conj().T, np.eye(len(vk)), atol=1e-12)
            assert np.allclose(uk @ uk.conj().T, np.eye(len(uk)), atol=1e-12)

    def test_rank_deficiency(self):
        a = complex_gaussian(1, 4, 1, 1.0)
        b = complex_gaussian(2, 1, 8, 1.0)
        dims = SystemDims(num_tx=8, rx=(4,), layers=(2,))
        ch = ChannelSet(dims=dims, blocks=(a @ b,))
        with pytest.raises(RankDeficiencyError):
            decompose(ch)

    def test_identity(self):
        u, s, v = one_user(np.eye(2), 2)
        assert np.allclose(s, [1.0, 1.0])
        assert np.allclose(reconstruct(u, s, v), np.eye(2), atol=1e-14)

    def test_diagonal_keep_one(self):
        u, s, v = one_user(np.diag([3.0, 1.0]), 1)
        assert s.shape == (1,)
        assert abs(s[0] - 3.0) < 1e-14
        assert np.allclose(v, [[1.0, 0.0]], atol=1e-14)
        assert np.allclose(u, [[1.0, 0.0]], atol=1e-14)

    def test_shapes_and_order(self):
        u, s, v = one_user(complex_gaussian(7, 5, 9, 1.0), 3)
        assert (u.shape, s.shape, v.shape) == ((3, 5), (3,), (3, 9))
        assert np.all(np.diff(s) <= 1e-12)
        assert np.all(s >= 0)

    def test_row_orthonormality(self):
        u, s, v = one_user(complex_gaussian(11, 6, 4, 1.0), 4)
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
        assert np.allclose(v @ v.conj().T, np.eye(4), atol=1e-12)

    def test_full_reconstruction(self):
        m = complex_gaussian(3, 4, 6, 1.0)
        assert np.linalg.norm(reconstruct(*one_user(m, 4)) - m) < 1e-12 * np.linalg.norm(m)

    def test_rank_k_matches_gram_oracle(self):
        for seed in range(5):
            m = complex_gaussian(100 + seed, 8, 12, 1.0)
            u, s, v = one_user(m, 2)
            approx, s_oracle = gram_eig_rank_k(m, 2)
            assert np.linalg.norm(reconstruct(u, s, v) - approx) < 1e-9
            assert np.allclose(s, s_oracle, atol=1e-9)

    def test_phase_convention(self):
        _, _, v = one_user(complex_gaussian(23, 5, 7, 1.0), 5)
        for row in v:
            pivot = row[np.argmax(np.abs(row))]
            assert abs(pivot.imag) < 1e-13
            assert pivot.real > 0

    def test_determinism(self):
        m = complex_gaussian(42, 6, 6, 1.0)
        for a, b in zip(one_user(m, 3), one_user(m.copy(), 3), strict=True):
            assert np.array_equal(a, b)

    @settings(max_examples=200, deadline=None)
    @given(ch=heterogeneous_sets())
    def test_groups_equal_the_pair_loop_bit_for_bit(self, ch):
        # one stacked SVD and phase fix per group keeps the bits of one SVD
        # and one pair at a time per block, in user order
        dec = decompose(ch)
        assert len(ch.factors) == len(ch.groups)
        for k, b in enumerate(ch.blocks):
            want = reduced_svd_loop(b, ch.dims.layers[k])
            for got, w in ((dec.u_blocks[k], want.u), (dec.s_block(k), want.s),
                           (dec.v[dec.dims.layer_slice(k)], want.v)):
                assert got.shape == w.shape and got.tobytes() == w.tobytes()

    def test_rank_error_names_the_lowest_user(self):
        # users 0 and 2 share a group that comes before user 1's; the check
        # still runs in user order
        dims = SystemDims(num_tx=8, rx=(4, 3, 4), layers=(2, 1, 2))
        rank_one = complex_gaussian(1, 4, 1, 1.0) @ complex_gaussian(2, 1, 8, 1.0)
        full = complex_gaussian(3, 4, 8, 1.0)
        for user_1, failing in ((np.zeros((3, 8)), 1), (complex_gaussian(4, 3, 8, 1.0), 2)):
            ch = ChannelSet(dims=dims, blocks=(full, user_1, rank_one))
            assert [g[0] for g in ch.groups] == [(0, 2), (1,)]
            with pytest.raises(RankDeficiencyError, match=f"^user {failing}: channel rank "):
                decompose(ch)

    def test_svd_failure_is_a_numerical_error(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(NumericalError, match="SVD did not converge"):
            decompose(gaussian_channels(rx=(4, 3), layers=(2, 1), num_tx=8))

    def test_from_blocks_round_trip(self):
        ch = gaussian_channels(rx=(4, 3), layers=(2, 1), num_tx=8)
        dec = decompose(ch)
        rebuilt = ChannelDecomposition.from_blocks(
            dec.u_blocks,
            [dec.s_block(k) for k in range(2)],
            [dec.v[dec.dims.layer_slice(k)] for k in range(2)],
        )
        assert rebuilt.dims == dec.dims
        assert np.array_equal(rebuilt.v, dec.v)
        assert np.array_equal(rebuilt.s, dec.s)

    def test_constructors_check_their_inputs(self):
        # each was accepted or raised a bare AttributeError or IndexError
        ch = gaussian_channels(rx=(4, 3), layers=(2, 1), num_tx=8)
        dec = decompose(ch)
        nan_v, nan_u = dec.v.copy(), dec.u_blocks[0].copy()
        nan_v[0, 0] = nan_u[0, 0] = np.nan
        with pytest.raises(NumericalError, match="v contains"):
            replace(dec, v=nan_v)
        with pytest.raises(NumericalError, match=r"u_blocks\[0\] contains"):
            replace(dec, u_blocks=(nan_u, dec.u_blocks[1]))
        listed = replace(dec, u_blocks=(dec.u_blocks[0].tolist(), dec.u_blocks[1]))
        assert listed.u_blocks[0].dtype == np.complex128
        assert np.array_equal(listed.u_blocks[0], dec.u_blocks[0])
        listed = replace(dec, s=dec.s.tolist())
        assert listed.s.dtype == float and np.array_equal(listed.s, dec.s)
        # complex singular values lost their imaginary part without an error
        with pytest.raises(ConfigError, match="s must hold real numbers"):
            replace(dec, s=dec.s + 0j)
        with pytest.raises(ConfigError, match="s must hold real numbers"):
            ChannelDecomposition.from_blocks(dec.u_blocks, [dec.s_block(0) + 0j, dec.s_block(1)],
                                             [dec.v[dec.dims.layer_slice(k)] for k in range(2)])
        with pytest.raises(DimensionError, match="nonempty"):
            ChannelDecomposition.from_blocks([], [], [])
        for make, rest in ((ChannelSet, {"blocks": ch.blocks}),
                           (ChannelDecomposition, {"u_blocks": dec.u_blocks, "s": dec.s,
                                                   "v": dec.v})):
            with pytest.raises(ConfigError, match="dims must be a SystemDims"):
                make(dims=None, **rest)
        # a complex128 factor is kept, not copied
        again = replace(dec)
        assert again.v is dec.v and all(map(np.shares_memory, again.u_blocks, dec.u_blocks))


class TestScenario:
    def test_deterministic(self, quick_config):
        a = generate_scenario(quick_config(seed=3))
        b = generate_scenario(quick_config(seed=3))
        c = generate_scenario(quick_config(seed=4))
        for x, y in zip(a.blocks, b.blocks):
            assert np.array_equal(x, y)
        assert not all(np.array_equal(x, y) for x, y in zip(a.blocks, c.blocks))

    def test_shapes(self, quick_config):
        ch = generate_scenario(quick_config())
        assert ch.dims.num_users == 3
        assert all(b.shape == (4, 16) for b in ch.blocks)

    def test_correlation_cap_holds(self, quick_config):
        for seed in range(5):
            ch = generate_scenario(quick_config(seed=seed))
            dirs = [reduced_svd_loop(b, 1).v[0] for b in ch.blocks]
            for i in range(len(dirs)):
                for j in range(i):
                    assert abs(dirs[i] @ dirs[j].conj()) ** 2 <= 0.5 + 1e-12

    def test_equal_path_loss_norms(self, quick_config):
        # candidates are unit Frobenius norm before the path loss scale
        ch = generate_scenario(quick_config())
        for b in ch.blocks:
            assert abs(np.linalg.norm(b) - 1.0) < 1e-9

    def test_varied_path_loss_range(self, quick_config):
        ch = generate_scenario(quick_config(path_loss="varied", seed=9))
        ratios = [np.linalg.norm(b) for b in ch.blocks]
        assert all(10 ** (-0.5) - 1e-9 <= r <= 10**0.5 + 1e-9 for r in ratios)
        assert np.std(ratios) > 0

    def test_varied_path_loss_uniform(self, quick_config):
        vals = []
        for seed in range(40):
            ch = generate_scenario(quick_config(path_loss="varied", seed=100 + seed))
            vals.extend(20 * np.log10(np.linalg.norm(b)) for b in ch.blocks)
        _, p = stats.kstest(vals, "uniform", args=(-10.0, 20.0))
        assert p > 0.01

    def test_singular_values_follow_path_profile(self, quick_config):
        # orthonormal path frames make the singular value profile exact
        cfg = quick_config()
        ch = generate_scenario(cfg)
        want = np.sqrt(_path_powers(channel.NUM_PATHS))[: cfg.layers_per_user]
        dec = decompose(ch)
        for k in range(cfg.num_users):
            assert np.allclose(dec.s_block(k), want, rtol=1e-10)

    def test_users_share_scatterers(self, quick_config):
        # the pool-wide scatterer frame keeps dominant directions of
        # different users visibly correlated, far above the near-zero
        # overlap of independent directions in this dimension
        corrs = []
        for seed in range(10):
            ch = generate_scenario(quick_config(seed=seed))
            dirs = [reduced_svd_loop(b, 1).v[0] for b in ch.blocks]
            for i in range(len(dirs)):
                for j in range(i):
                    corrs.append(abs(dirs[i] @ dirs[j].conj()) ** 2)
        assert np.median(corrs) > 0.05

    def test_selection_failure(self, quick_config, monkeypatch):
        for name, value in (("CANDIDATE_POOL", 6), ("CORR_THRESHOLD", 1e-6), ("MAX_RETRIES", 2)):
            monkeypatch.setattr(channel, name, value)
        with pytest.raises(SelectionError, match="no 4-user subset met corr<= 1e-06 in 2 pools"):
            generate_scenario(quick_config(num_users=4))

    def test_decomposable(self, quick_config):
        ch = generate_scenario(quick_config())
        dec = decompose(ch)
        assert dec.dims.total_layers == 6

    def test_config_validation(self, quick_config, monkeypatch):
        with pytest.raises(ConfigError):
            quick_config(path_loss="none")
        with pytest.raises(ConfigError, match="seed"):
            quick_config(seed=-5)
        # the sizes are checked against the generator's constants
        for users in (0, 17):
            with pytest.raises(ConfigError, match=r"num_users must be in \[1, CANDIDATE_POOL=16\]"):
                quick_config(num_users=users)
        monkeypatch.setattr(channel, "NUM_PATHS", 1)
        with pytest.raises(ConfigError, match="NUM_PATHS=1 cannot support 2 layers per user"):
            quick_config()
        monkeypatch.setattr(channel, "NUM_PATHS", 5)
        with pytest.raises(ConfigError, match=r"min\(rx_per_user, num_tx\)=4"):
            quick_config()  # more paths than rx_per_user antennas
        assert quick_config(rx_per_user=5).dims.rx == (5, 5, 5)

    @pytest.mark.parametrize("field, value", [
        ("num_tx", 64.5), ("num_users", True), ("rx_per_user", "16"), ("layers_per_user", 2.0),
        ("seed", False), ("seed", np.float64(3.0)),
    ])
    def test_sizes_must_be_integers(self, field, value):
        # each used to fail deep inside (DimensionError, TypeError) or run
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            ScenarioConfig(**{field: value})
        assert ScenarioConfig(**{field: np.int64(getattr(ScenarioConfig(), field))})


def assert_phase_convention(dec):
    """The largest-magnitude entry of every row of ``dec.v`` is real and
    positive."""
    pivot = np.take_along_axis(dec.v, abs(dec.v).argmax(1)[:, None], 1)
    assert np.all(pivot.real > 0) and np.all(abs(pivot.imag) <= 1e-14)


class TestPathFactors:
    """A generated set's ``factors`` cache holds its exact factorization, so
    ``decompose`` reads the SVD off it; every other set runs the SVD."""

    @pytest.mark.parametrize("quick", [False, True], ids=["default", "quick"])
    @pytest.mark.parametrize("family", ["equal", "varied"])
    def test_factors_match_the_svd(self, request, quick, family):
        make = request.getfixturevalue("quick_config") if quick else ScenarioConfig
        for seed in range(40):
            ch = generate_scenario(make(seed=seed, path_loss=family))
            plain = replace(ch)
            assert "factors" in vars(ch) and "factors" not in vars(plain)
            got, want = decompose(ch), decompose(plain)
            assert got.dims == want.dims
            assert np.allclose(got.s, want.s, rtol=1e-12, atol=0)
            assert np.abs(got.v - want.v).max() <= 1e-12
            for gu, wu in zip(got.u_blocks, want.u_blocks, strict=True):
                assert gu.shape == wu.shape and np.abs(gu - wu).max() <= 1e-12
            assert_phase_convention(got)
            assert_phase_convention(want)

    def test_generated_set_needs_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        want = decompose(replace(generate_scenario(ScenarioConfig(seed=3, path_loss="varied"))))
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        got = decompose(generate_scenario(ScenarioConfig(seed=3, path_loss="varied")))
        assert np.allclose(got.s, want.s, rtol=1e-12, atol=0)
        with pytest.raises(AssertionError, match="svd called"):
            decompose(gaussian_channels(rx=(4, 3), layers=(2, 1), num_tx=8))

    def test_replaced_blocks_fall_back_to_the_svd(self, quick_config):
        # the factors are the generator's, so a copy with other blocks, or a
        # set built by the caller, carries none; they stay out of repr and ==
        ch = generate_scenario(quick_config(seed=5, path_loss="varied"))
        assert [f.name for f in fields(ch)] == ["dims", "blocks"]
        plain = replace(ch)
        assert "factors" not in vars(plain)
        assert plain == ch and repr(plain) == repr(ch)
        assert len(plain.factors) == 1  # now run and cached, still unseen
        assert "factors" in vars(plain) and plain == ch and repr(plain) == repr(ch)
        doubled = replace(ch, blocks=tuple(2.0 * b for b in ch.blocks))
        assert "factors" not in vars(doubled)
        dec = decompose(doubled)
        assert np.allclose(dec.s, 2.0 * decompose(ch).s, rtol=1e-12, atol=0)
        for k, b in enumerate(doubled.blocks):
            want = reduced_svd_loop(b, ch.dims.layers[k])
            for got, w in ((dec.u_blocks[k], want.u), (dec.s_block(k), want.s),
                           (dec.v[dec.dims.layer_slice(k)], want.v)):
                assert got.shape == w.shape and got.tobytes() == w.tobytes()

    def test_factor_rank_check(self, monkeypatch):
        # a generated user whose kept layers span a drop below the rank
        # tolerance fails as the SVD path does
        monkeypatch.setattr(channel, "NUM_PATHS", 12)
        cfg = ScenarioConfig(num_tx=16, num_users=1, rx_per_user=12, layers_per_user=12, seed=0)
        assert np.sqrt(_path_powers(12)[-1] / _path_powers(12)[0]) < 1e-12
        ch = generate_scenario(cfg)
        for channels in (ch, replace(ch)):
            with pytest.raises(RankDeficiencyError, match="user 0: channel rank below 12"):
                decompose(channels)


def svd_screened_selection(config):
    """Reference selection under the generator's module constants: every
    candidate drawn with ``complex_normal``, built in full and screened by
    the dominant right singular vector of its SVD.  Returns the kept blocks
    before any path loss, the generator that drew them and the pool's
    attempt and the last kept candidate's index in it, or ``None`` when
    every pool fails."""
    paths = channel.NUM_PATHS
    centers, surroundings = _scatter_environment(config.num_tx, paths)
    powers = _path_powers(paths)
    for attempt in range(channel.MAX_RETRIES):
        rng = np.random.default_rng(config.seed + attempt)
        chosen, directions = [], []
        for index in range(channel.CANDIDATE_POOL):
            a, _ = np.linalg.qr(complex_normal(rng, (config.rx_per_user, paths), 1.0))
            own = np.empty((config.num_tx, paths), dtype=complex)
            for i, basis in enumerate(surroundings):
                v = basis @ complex_normal(rng, (basis.shape[1],), 1.0)
                own[:, i] = v / np.linalg.norm(v)
            mixed = (
                np.sqrt(1.0 - SHARED_PATH_WEIGHT) * own
                + np.sqrt(SHARED_PATH_WEIGHT) * centers
            )
            b, _ = np.linalg.qr(mixed)
            h = (a * np.sqrt(powers)) @ b.conj().T
            d = reduced_svd_loop(h, 1).v[0]
            if all(abs(d @ o.conj()) ** 2 <= channel.CORR_THRESHOLD for o in directions):
                chosen.append(h)
                directions.append(d)
                if len(chosen) == config.num_users:
                    return chosen, rng, (attempt, index)
    return None


def with_path_loss(chosen, rng, config):
    if config.path_loss == "equal":
        return chosen
    lo, hi = channel.PATH_LOSS_RANGE_DB
    scales = 10.0 ** (rng.uniform(lo, hi, size=config.num_users) / 20.0)
    return [h * c for h, c in zip(chosen, scales)]


def assert_same_bits(channels, want):
    assert len(channels.blocks) == len(want)
    for got, w in zip(channels.blocks, want):
        assert got.shape == w.shape and got.tobytes() == w.tobytes()


def assert_both_families_match(make_config):
    """Both path-loss families of ``make_config(path_loss=...)`` keep the
    reference's blocks; the selection is shared, so draw it once.  Returns
    the reference's pool attempt and last kept index."""
    chosen, rng, last = svd_screened_selection(make_config(path_loss="equal"))
    assert_same_bits(generate_scenario(make_config(path_loss="equal")), chosen)
    varied = make_config(path_loss="varied")
    assert_same_bits(generate_scenario(varied), with_path_loss(chosen, rng, varied))
    return last


GENERATOR_SETTINGS = ("NUM_PATHS", "CANDIDATE_POOL", "CORR_THRESHOLD", "MAX_RETRIES")


@st.composite
def small_scenarios(draw):
    """Generator settings (values of :data:`GENERATOR_SETTINGS`) and the
    keywords of a small scenario they can draw."""
    paths = draw(st.integers(1, 6))
    layers = draw(st.integers(1, paths))
    users = draw(st.integers(1, 4))
    values = (paths, draw(st.integers(users, 12)), draw(st.floats(0.05, 1.0)), 3)
    return values, dict(
        num_tx=draw(st.integers(max(paths, users * layers), 24)),
        num_users=users,
        rx_per_user=draw(st.integers(paths, 8)),
        layers_per_user=layers,
        path_loss=draw(st.sampled_from(["equal", "varied"])),
        seed=draw(st.integers(0, 2**40)),
    )


class TestScreening:
    """``generate_scenario`` screens candidates by their first mixed
    transmit direction instead of an SVD; it must keep exactly the
    blocks the SVD screening kept, bit for bit, in both families."""

    @pytest.mark.parametrize("first", [0, 100])
    def test_default_scale_matches_svd_screening(self, first):
        last = [assert_both_families_match(partial(ScenarioConfig, seed=seed))
                for seed in range(first, first + 100)]
        # the draw boundary and the retry are both crossed: some seed keeps a
        # candidate from its pool's second half, and some seed draws a second pool
        attempts, kept = zip(*last)
        assert max(kept) >= channel.CANDIDATE_POOL // 2 and max(attempts) >= 1

    def test_quick_config_matches_svd_screening(self, quick_config):
        for seed in range(50):
            assert_both_families_match(partial(quick_config, seed=seed))

    @settings(max_examples=100, deadline=None)
    @given(case=small_scenarios())
    def test_small_configs_match_svd_screening(self, case):
        values, kw = case
        with pytest.MonkeyPatch.context() as patch:
            for name, value in zip(GENERATOR_SETTINGS, values):
                patch.setattr(channel, name, value)
            cfg = ScenarioConfig(**kw)
            ref = svd_screened_selection(cfg)
            if ref is None:
                with pytest.raises(SelectionError):
                    generate_scenario(cfg)
            else:
                assert_same_bits(generate_scenario(cfg), with_path_loss(*ref[:2], cfg))

    def test_varied_retry_after_failed_pool(self, monkeypatch):
        # seed 4's first pool fails, so its gains follow the second pool's draws
        monkeypatch.setattr(channel, "MAX_RETRIES", 1)
        with pytest.raises(SelectionError):
            generate_scenario(ScenarioConfig(seed=4, path_loss="varied"))
        monkeypatch.setattr(channel, "MAX_RETRIES", 2)
        assert assert_both_families_match(partial(ScenarioConfig, seed=4))[0] == 1

    @pytest.mark.parametrize("cap, users", [(0.05, 2), (0.1, 2), (0.2, 3), (0.2, 4)])
    def test_large_pools_match_svd_screening(self, monkeypatch, cap, users):
        # a pool of 200 is two draws of 100; low caps keep candidates deep in it
        for name, value in (("CANDIDATE_POOL", 200), ("CORR_THRESHOLD", cap), ("MAX_RETRIES", 2)):
            monkeypatch.setattr(channel, name, value)
        for seed in range(6):
            for family in ("equal", "varied"):
                cfg = ScenarioConfig(seed=seed, num_users=users, path_loss=family)
                ref = svd_screened_selection(cfg)
                if ref is None:
                    with pytest.raises(SelectionError):
                        generate_scenario(cfg)
                else:
                    assert_same_bits(generate_scenario(cfg), with_path_loss(*ref[:2], cfg))

    @pytest.mark.parametrize("seed, cap, users", [(11, 0.05, 2), (0, 0.2, 3), (0, 0.3, 4)])
    def test_kept_past_the_first_half(self, monkeypatch, seed, cap, users):
        # one pool: its first half alone fails, so the last kept index lies
        # in the second draw
        monkeypatch.setattr(channel, "MAX_RETRIES", 1)
        monkeypatch.setattr(channel, "CORR_THRESHOLD", cap)
        make = partial(ScenarioConfig, seed=seed, num_users=users)
        pool = channel.CANDIDATE_POOL
        monkeypatch.setattr(channel, "CANDIDATE_POOL", pool // 2)
        with pytest.raises(SelectionError):
            generate_scenario(make())
        monkeypatch.setattr(channel, "CANDIDATE_POOL", pool)
        attempt, kept = assert_both_families_match(make)
        assert attempt == 0 and kept >= pool // 2

    def test_full_cap_stops_at_the_last_user(self, monkeypatch):
        # a cap of 1 keeps the first candidates, so a pool of just the users
        # gives the same blocks and, after the varied family's rewind, the
        # same gains
        monkeypatch.setattr(channel, "CORR_THRESHOLD", 1.0)
        pool = channel.CANDIDATE_POOL
        for family in ("equal", "varied"):
            make = partial(ScenarioConfig, path_loss=family, seed=7)
            monkeypatch.setattr(channel, "CANDIDATE_POOL", pool)
            full = generate_scenario(make())
            monkeypatch.setattr(channel, "CANDIDATE_POOL", make().num_users)
            assert_same_bits(full, generate_scenario(make()).blocks)

    def test_landscape_is_cached_and_read_only(self, monkeypatch):
        centers, surroundings = _scatter_environment(64, 6)
        assert _scatter_environment(64, 6)[0] is centers
        assert surroundings.shape == (6, 64, 5)
        for a in (centers, surroundings):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0
        # the cache is keyed by the path count too, so a patched count draws
        # on its own landscape
        monkeypatch.setattr(channel, "NUM_PATHS", 5)
        assert generate_scenario(ScenarioConfig()).factors[0][1].shape == (4, 5)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_path_powers_strictly_decreasing(self, n):
        # the screening's precondition: a strict gap between the first
        # two singular values makes the dominant direction unique
        p = _path_powers(n)
        assert p.shape == (n,) and np.all(p > 0) and np.all(np.diff(p) < 0)


class TestCalibrateNoise:
    def test_round_trip(self, quick_config):
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

    def test_monotone_in_target(self, quick_config):
        dec = decompose(generate_scenario(quick_config()))
        assert calibrate_noise(dec, 1.0, 0.0) > calibrate_noise(dec, 1.0, 10.0)

    def test_power_validated(self, quick_config):
        dec = decompose(generate_scenario(quick_config()))
        for power in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                calibrate_noise(dec, power, 0.0)
        # targets whose noise variance over- or underflows
        for target_db in (4000.0, -4000.0, float("-inf"), float("nan")):
            with pytest.raises(ConfigError):
                calibrate_noise(dec, 1.0, target_db)
        # below the lowest level, whose squared SINRs stay normal floats
        for target_db in (-1500.5, -1700.0):
            with pytest.raises(ConfigError, match=f"{target_db:g} dB"):
                calibrate_noise(dec, 1.0, target_db)
        assert calibrate_noise(dec, 1.0, MIN_SUSINR_DB) > 0
        with pytest.raises(ConfigError, match="target SINR nan dB is not finite"):
            calibrate_noise(dec, 1.0, float("nan"))

    @pytest.mark.parametrize("bad", [True, np.bool_(False), np.array([0.0, 10.0]), "10", None,
                                     1j, 10**400])
    def test_targets_must_be_real(self, quick_config, bad):
        # True read as 1 dB; the array and the text failed inside numpy
        dec = decompose(generate_scenario(quick_config()))
        with pytest.raises(ConfigError, match="target_susinr_db must be a real number"):
            calibrate_noise(dec, 1.0, bad)
        with pytest.raises(ConfigError, match="target_susinr_db must be a real number"):
            calibrate_noise(dec, 1.0, [0.0, bad])
        assert calibrate_noise(dec, 1.0, np.int64(10)) == calibrate_noise(dec, 1.0, 10.0)

    def test_grid_is_one_factor_bit_for_bit(self, quick_config):
        # a grid of targets computes the level-independent factor once; each
        # level keeps the bits of its own call and of the formula written out
        dec = decompose(generate_scenario(quick_config(path_loss="varied", seed=3)))
        grid = (MIN_SUSINR_DB, -3.0, 0.0, 17.5, 40.0, 300.0)
        logs = [2.0 * np.mean(np.log(dec.s_block(k))) - np.log(dec.dims.layers[k])
                for k in range(dec.dims.num_users)]
        want = [2.0 / np.float64(10.0) ** (db / 10.0) * np.exp(np.mean(logs)) for db in grid]
        got = calibrate_noise(dec, 2.0, grid)
        assert isinstance(got, list) and calibrate_noise(dec, 2.0, list(grid)) == got
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert np.array([calibrate_noise(dec, 2.0, db) for db in grid]).tobytes() == \
            np.array(got).tobytes()
        # every level keeps its own check and message
        for bad, message in ((4000.0, "noise variance for target 4000.0 dB"),
                             (-1700.0, "target SINR -1700 dB is below"),
                             (float("nan"), "target SINR nan dB is not finite")):
            with pytest.raises(ConfigError, match=message):
                calibrate_noise(dec, 1.0, (0.0, bad, 20.0))

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
        dec = decompose(gaussian_channels(seed=seed, rx=(4, 3), layers=(2, 1), num_tx=8))
        nv_lo, nv_hi = calibrate_noise(dec, power, lo), calibrate_noise(dec, power, hi)
        assert 0.0 < nv_hi < nv_lo < np.inf
        for target_db, nv in ((lo, nv_lo), (hi, nv_hi)):
            want = 10.0 ** (target_db / 10.0)
            assert abs(av_susinr(dec, power, nv) - want) <= 1e-12 * want
