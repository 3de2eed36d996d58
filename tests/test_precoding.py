import numpy as np
import pytest

from precodesim.channel import (
    ChannelDecomposition,
    ChannelSet,
    ScenarioConfig,
    SystemDims,
    decompose,
    generate_scenario,
)
from precodesim.exceptions import (
    ConfigError,
    DimensionError,
    NumericalError,
    SingularGramError,
    ZeroMatrixError,
)
from precodesim.numerics import complex_gaussian
from precodesim.precoding import (
    Precoder,
    arzf,
    mrt,
    normalize,
    parametric_rzf,
    rzf,
    wrzf,
    zf,
)


def sample_decomp(seed=0, rx=(4, 4), layers=(2, 2), num_tx=12):
    dims = SystemDims(num_tx=num_tx, rx=rx, layers=layers)
    blocks = tuple(
        complex_gaussian(seed + k, r, num_tx, 1.0) for k, r in enumerate(rx)
    )
    return decompose(ChannelSet(dims=dims, blocks=blocks))


def inv_ridge_oracle(basis, reg_diag):
    """Same quantity as the production path, but through an explicit
    matrix inverse instead of a Cholesky solve."""
    gram = basis @ basis.conj().T
    if reg_diag is not None:
        gram = gram + np.diag(reg_diag)
    return basis.conj().T @ np.linalg.inv(gram)


class TestNormalize:
    def test_per_antenna(self):
        raw = complex_gaussian(1, 6, 4, 1.0)
        mu = normalize(raw, power=12.0)
        rows = np.linalg.norm(mu * raw, axis=1)
        assert abs(rows.max() - np.sqrt(12.0 / 6)) < 1e-12
        assert np.all(rows <= np.sqrt(12.0 / 6) + 1e-12)

    def test_per_antenna_total_within_budget(self):
        raw = complex_gaussian(2, 6, 4, 1.0)
        mu = normalize(raw, power=5.0)
        assert np.linalg.norm(mu * raw) ** 2 <= 5.0 + 1e-12

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrixError):
            normalize(np.zeros((3, 2)), 1.0)

    def test_bad_mode_and_power(self):
        # per-antenna is the only normalization; no mode can be chosen
        raw = np.ones((2, 2))
        with pytest.raises(TypeError):
            normalize(raw, 1.0, "per_antenna")
        with pytest.raises(ConfigError):
            normalize(raw, 0.0)


class TestMrtZf:
    def test_mrt_raw(self):
        dec = sample_decomp()
        p = mrt(dec, power=1.0)
        assert np.array_equal(p.raw, dec.v.conj().T)

    def test_zf_v_inverts_layers(self):
        dec = sample_decomp()
        p = zf(dec, power=1.0, basis="v")
        assert np.linalg.norm(dec.v @ p.raw - np.eye(4)) < 1e-10

    def test_zf_f_inverts_weighted_layers(self):
        dec = sample_decomp()
        f = dec.s[:, None] * dec.v
        p = zf(dec, power=1.0, basis="f")
        assert np.linalg.norm(f @ p.raw - np.eye(4)) < 1e-10

    def test_zf_basis_link(self):
        # pseudoinverse of the weighted basis, rescaled by the singular
        # values, is the pseudoinverse of the plain basis
        dec = sample_decomp(seed=3)
        wf = zf(dec, 1.0, basis="f").raw
        wv = zf(dec, 1.0, basis="v").raw
        assert np.linalg.norm(wf * dec.s[None, :] - wv) < 1e-10

    def test_zf_singular(self):
        v_shared = complex_gaussian(5, 1, 8, 1.0)
        v_shared /= np.linalg.norm(v_shared)
        u = np.array([[1.0 + 0j, 0.0]])
        dec = ChannelDecomposition.from_blocks(
            [u, u], [[1.0], [1.0]], [v_shared, v_shared]
        )
        with pytest.raises(SingularGramError):
            zf(dec, 1.0)

    def test_zf_f_overflowing_gram(self):
        # an infinite s, or one whose square overflows, leaves the gram of
        # the weighted basis non-finite; the checked solve must raise
        # instead of returning NaN weights
        v = complex_gaussian(5, 2, 8, 1.0)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        u = np.eye(2, dtype=complex)
        for s0 in (np.inf, 1e200):
            dec = ChannelDecomposition.from_blocks([u], [[s0, 1.0]], [v])
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NumericalError):
                    zf(dec, 1.0, basis="f")
                with pytest.raises(NumericalError):
                    rzf(dec, 1.0, 1.0, basis="f")

    def test_weights_are_gain_times_raw(self):
        dec = sample_decomp()
        p = zf(dec, power=2.0)
        assert np.array_equal(p.weights, p.gain * p.raw)
        assert isinstance(p, Precoder)


class TestRzf:
    def test_matches_inverse_oracle(self):
        dec = sample_decomp(seed=7)
        for basis in ("v", "f"):
            p = rzf(dec, power=2.0, noise_var=0.3, basis=basis)
            b = dec.v if basis == "v" else dec.s[:, None] * dec.v
            lam = 4 * 0.3 / 2.0
            oracle = inv_ridge_oracle(b, np.full(4, lam))
            assert np.linalg.norm(p.raw - oracle) < 1e-10

    def test_default_reg_value(self):
        dec = sample_decomp()
        a = rzf(dec, power=2.0, noise_var=0.3)
        b = rzf(dec, power=2.0, noise_var=0.3, reg=4 * 0.3 / 2.0)
        assert np.array_equal(a.raw, b.raw)

    def test_reg_zero_collapses_to_zf(self):
        dec = sample_decomp(seed=2)
        a = rzf(dec, power=1.0, noise_var=1.0, reg=0.0)
        b = zf(dec, power=1.0)
        assert np.array_equal(a.raw, b.raw)
        assert a.gain == b.gain

    def test_stationarity(self):
        # raw ridge solution zeroes the gradient of
        # ||B W - I||^2 + reg ||W||^2
        dec = sample_decomp(seed=11)
        lam = 0.7
        for basis in ("v", "f"):
            b = dec.v if basis == "v" else dec.s[:, None] * dec.v
            w = rzf(dec, 1.0, 1.0, basis=basis, reg=lam).raw
            resid = b.conj().T @ (b @ w - np.eye(4)) + lam * w
            assert np.linalg.norm(resid) < 1e-9

    def test_local_minimality(self):
        dec = sample_decomp(seed=13)
        lam = 0.4
        w = rzf(dec, 1.0, 1.0, reg=lam).raw
        b = dec.v

        def j(m):
            return np.linalg.norm(b @ m - np.eye(4)) ** 2 + lam * np.linalg.norm(m) ** 2

        j0 = j(w)
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = rng.standard_normal(w.shape) + 1j * rng.standard_normal(w.shape)
            assert j(w + 1e-3 * d / np.linalg.norm(d)) >= j0

    def test_negative_reg_rejected(self):
        dec = sample_decomp()
        with pytest.raises(ConfigError):
            rzf(dec, 1.0, 1.0, reg=-0.1)
        with pytest.raises(ConfigError):
            rzf(dec, 1.0, noise_var=0.0)


class TestWrzf:
    def test_equals_rzf_with_inverse_gain_ridge(self):
        dec = sample_decomp(seed=4)
        power, nv = 2.0, 0.5
        lam = nv / power * np.sum(dec.s**-2.0)
        a = wrzf(dec, power, nv)
        b = rzf(dec, power, nv, basis="v", reg=lam)
        assert np.array_equal(a.raw, b.raw)
        assert a.method == "wrzf"


class TestArzf:
    def test_equals_weighted_basis_ridge_times_s(self):
        dec = sample_decomp(seed=6)
        power, nv = 3.0, 0.2
        a = arzf(dec, power, nv)
        f_ridge = rzf(dec, power, nv, basis="f")
        assert np.linalg.norm(a.raw - f_ridge.raw * dec.s[None, :]) < 1e-10

    def test_is_parametric_with_scaled_inverse_gains(self):
        dec = sample_decomp(seed=6)
        power, nv = 3.0, 0.2
        lam = 4 * nv / power
        a = arzf(dec, power, nv)
        b = parametric_rzf(dec, lam / dec.s**2, power)
        assert np.array_equal(a.raw, b.raw)
        assert a.gain == b.gain

    def test_weighted_stationarity(self):
        # raw solution zeroes the gradient of
        # ||S (V W - I)||^2 + lam ||W||^2
        dec = sample_decomp(seed=9)
        power, nv = 1.0, 0.6
        lam = 4 * nv / power
        w = arzf(dec, power, nv).raw
        s2 = dec.s**2
        resid = dec.v.conj().T @ (s2[:, None] * (dec.v @ w - np.eye(4))) + lam * w
        assert np.linalg.norm(resid) < 1e-9

    def test_small_ridge_approaches_zf(self):
        dec = sample_decomp(seed=8)
        zf_dir = unit(zf(dec, 1.0).raw)
        dists = []
        for lam in (1e-2, 1e-3, 1e-4):
            w = parametric_rzf(dec, lam / dec.s**2, 1.0).raw
            dists.append(np.linalg.norm(unit(w) - zf_dir))
        for a, b in zip(dists, dists[1:]):
            assert 5.0 <= a / b <= 20.0

    def test_large_ridge_approaches_weighted_matched(self):
        dec = sample_decomp(seed=8)
        tgt = unit(dec.v.conj().T * dec.s[None, :] ** 2)
        dists = []
        for lam in (1e2, 1e3, 1e4):
            w = parametric_rzf(dec, lam / dec.s**2, 1.0).raw
            dists.append(np.linalg.norm(unit(w) - tgt))
        for a, b in zip(dists, dists[1:]):
            assert 5.0 <= a / b <= 20.0


def unit(m):
    return m / np.linalg.norm(m)


class TestParametric:
    def test_validation(self):
        dec = sample_decomp()
        with pytest.raises(DimensionError):
            parametric_rzf(dec, np.ones(3), 1.0)
        with pytest.raises(ConfigError):
            parametric_rzf(dec, [-1.0, 1.0, 1.0, 1.0], 1.0)

    def test_matches_inverse_oracle(self):
        dec = sample_decomp(seed=14)
        r = np.array([0.1, 0.5, 1.0, 2.0])
        p = parametric_rzf(dec, r, 1.0)
        assert np.linalg.norm(p.raw - inv_ridge_oracle(dec.v, r)) < 1e-10


class TestInvariances:
    def test_layer_phase_rotation(self):
        dec = sample_decomp(seed=21)
        rng = np.random.default_rng(1)
        phases = np.exp(2j * np.pi * rng.uniform(size=4))
        rot = ChannelDecomposition(
            dims=dec.dims,
            u_blocks=tuple(
                phases[dec.dims.layer_slice(k)][:, None] * dec.u_blocks[k]
                for k in range(dec.dims.num_users)
            ),
            s=dec.s,
            v=phases[:, None] * dec.v,
        )
        for build in (lambda d: mrt(d, 2.0), lambda d: arzf(d, 2.0, 0.3)):
            a, b = build(dec), build(rot)
            assert abs(a.gain - b.gain) < 1e-12
            wa, wb = a.weights, b.weights
            assert np.linalg.norm(wa @ wa.conj().T - wb @ wb.conj().T) < 1e-10

    def test_degenerate_block_rotation(self):
        # a user with equal singular values has a free unitary on its
        # layer rows; the transmit covariance and gain must not move
        rng = np.random.default_rng(3)
        q0, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        vs = []
        for seed in (31, 32):
            raw = complex_gaussian(seed, 2, 10, 1.0)
            q, _ = np.linalg.qr(raw.conj().T)
            vs.append(q[:, :2].conj().T)
        u = np.eye(2, 3, dtype=complex)
        dec = ChannelDecomposition.from_blocks(
            [u, u], [[1.5, 1.5], [2.0, 1.0]], vs
        )
        rot = ChannelDecomposition.from_blocks(
            [q0 @ u, u], [[1.5, 1.5], [2.0, 1.0]], [q0 @ vs[0], vs[1]]
        )
        for build in (
            lambda d: arzf(d, 1.0, 0.4),
            lambda d: wrzf(d, 1.0, 0.4),
            lambda d: zf(d, 1.0),
        ):
            a, b = build(dec), build(rot)
            assert abs(a.gain - b.gain) < 1e-12
            wa, wb = a.weights, b.weights
            assert np.linalg.norm(wa @ wa.conj().T - wb @ wb.conj().T) < 1e-10


class TestScaleConsistency:
    def test_joint_power_noise_scaling(self):
        dec = sample_decomp(seed=17)
        for build in (
            lambda d, p, n: rzf(d, p, n),
            lambda d, p, n: wrzf(d, p, n),
            lambda d, p, n: arzf(d, p, n),
        ):
            a = build(dec, 1.0, 0.25)
            b = build(dec, 4.0, 1.0)
            assert np.linalg.norm(a.raw - b.raw) < 1e-12
            assert abs(b.gain - 2.0 * a.gain) < 1e-12

    def test_scenario_sized_instance(self):
        dec = decompose(generate_scenario(ScenarioConfig(
            num_tx=16, num_users=3, rx_per_user=4, layers_per_user=2,
            num_paths=4, candidate_pool=16, corr_threshold=0.5, seed=1,
        )))
        p = arzf(dec, 2.0, 0.1)
        assert p.weights.shape == (16, 6)
        rows = np.linalg.norm(p.weights, axis=1)
        assert abs(rows.max() - np.sqrt(2.0 / 16)) < 1e-12
