from dataclasses import replace

import numpy as np
import pytest

from precodesim.channel import (
    ChannelDecomposition,
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
import precodesim.precoding as precoding
from helpers import BUILDERS, complex_gaussian, gaussian_channels
from precodesim.precoding import (
    CLOSED_FORMS,
    Precoder,
    arzf,
    closed_forms,
    closed_stack,
    mrt,
    parametric_rzf,
    rzf,
    wrzf,
    zf,
)


def inv_ridge_oracle(basis, reg_diag):
    """``basis^H inv(basis basis^H + diag(reg_diag))`` through an explicit
    matrix inverse; with ``basis = S V`` this is the f-basis ridge."""
    gram = basis @ basis.conj().T
    if reg_diag is not None:
        gram = gram + np.diag(reg_diag)
    return basis.conj().T @ np.linalg.inv(gram)


class TestGain:
    """One scalar gain per precoder caps its most-loaded antenna at
    ``power / num_tx``; read through ``mrt``, whose gain follows the rule of
    every ridge form."""

    def test_per_antenna(self):
        dec = decompose(gaussian_channels(seed=1))
        rows = np.linalg.norm(mrt(dec, power=12.0).weights, axis=1)
        cap = np.sqrt(12.0 / dec.dims.num_tx)
        assert abs(rows.max() - cap) < 1e-12 and np.all(rows <= cap + 1e-12)

    def test_per_antenna_total_within_budget(self):
        dec = decompose(gaussian_channels(seed=2))
        assert np.linalg.norm(mrt(dec, power=5.0).weights) ** 2 <= 5.0 + 1e-12

    def test_zero_matrix(self):
        dims = SystemDims(num_tx=3, rx=(2,), layers=(2,))
        dec = ChannelDecomposition(dims=dims, u_blocks=(np.eye(2),), s=np.ones(2),
                                   v=np.zeros((2, 3)))
        with pytest.raises(ZeroMatrixError):
            mrt(dec, 1.0)

    def test_bad_power(self):
        with pytest.raises(ConfigError, match="power"):
            mrt(decompose(gaussian_channels()), 0.0)


class TestMrtZf:
    def test_mrt_raw(self):
        dec = decompose(gaussian_channels())
        p = mrt(dec, power=1.0)
        assert np.array_equal(p.raw, dec.v.conj().T)

    def test_zf_v_inverts_layers(self):
        dec = decompose(gaussian_channels())
        p = zf(dec, power=1.0, basis="v")
        assert np.linalg.norm(dec.v @ p.raw - np.eye(4)) < 1e-10

    def test_zf_f_inverts_weighted_layers(self):
        dec = decompose(gaussian_channels())
        f = dec.s[:, None] * dec.v
        p = zf(dec, power=1.0, basis="f")
        assert np.linalg.norm(f @ p.raw - np.eye(4)) < 1e-10

    def test_zf_basis_link(self):
        # pseudoinverse of the weighted basis, rescaled by the singular
        # values, is the pseudoinverse of the plain basis; zf_f is built
        # from the plain one, so the weighted side is the explicit oracle
        dec = decompose(gaussian_channels(seed=3))
        wf = inv_ridge_oracle(dec.s[:, None] * dec.v, None)
        wv = zf(dec, 1.0, basis="v").raw
        assert np.linalg.norm(wf * dec.s[None, :] - wv) < 1e-10
        assert np.linalg.norm(zf(dec, 1.0, basis="f").raw - wf) < 1e-10

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
        # an infinite s is rejected with the decomposition; an s whose
        # square overflows builds no gram of the weighted rows, so the f
        # forms are the finite, column-scaled v ridge
        v = complex_gaussian(5, 2, 8, 1.0)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        u = np.eye(2, dtype=complex)
        for bad in (np.inf, np.nan):
            with pytest.raises(NumericalError):
                ChannelDecomposition.from_blocks([u], [[bad, 1.0]], [v])
        dec = ChannelDecomposition.from_blocks([u], [[1e200, 1.0]], [v])
        with np.errstate(over="ignore"):
            pairs = (
                (zf(dec, 1.0, basis="f"), zf(dec, 1.0, basis="v").raw),
                (rzf(dec, 1.0, 1.0, basis="f"), parametric_rzf(dec, 2.0 / dec.s**2, 1.0).raw),
            )
        for f_form, v_ridge in pairs:
            assert np.all(np.isfinite(f_form.weights))
            assert np.array_equal(f_form.raw, v_ridge * (1.0 / dec.s))

    def test_weights_are_gain_times_raw(self):
        dec = decompose(gaussian_channels())
        p = zf(dec, power=2.0)
        assert np.array_equal(p.weights, p.gain * p.raw)
        assert isinstance(p, Precoder)

    def test_fields_checked_at_construction(self):
        # a listed raw failed later in scoring with a bare TypeError, and a
        # NaN gain gave NaN receiver blocks without an error
        p = zf(decompose(gaussian_channels()), power=2.0)
        assert replace(p).raw is p.raw
        assert np.array_equal(replace(p, raw=p.raw.tolist()).raw, p.raw)
        with pytest.raises(NumericalError, match="raw contains"):
            replace(p, raw=np.where(p.raw == p.raw[0, 0], np.nan, p.raw))
        for gain in (np.nan, np.inf, 0.0, -1.0, True, None):
            with pytest.raises(ConfigError, match="gain"):
                replace(p, gain=gain)


class TestRzf:
    def test_matches_inverse_oracle(self):
        dec = decompose(gaussian_channels(seed=7))
        for basis in ("v", "f"):
            p = rzf(dec, power=2.0, noise_var=0.3, basis=basis)
            b = dec.v if basis == "v" else dec.s[:, None] * dec.v
            lam = 4 * 0.3 / 2.0
            oracle = inv_ridge_oracle(b, np.full(4, lam))
            assert np.linalg.norm(p.raw - oracle) < 1e-10

    def test_default_reg_value(self):
        dec = decompose(gaussian_channels())
        a = rzf(dec, power=2.0, noise_var=0.3)
        b = parametric_rzf(dec, np.full(4, 4 * 0.3 / 2.0), 2.0)
        assert np.array_equal(a.raw, b.raw)
        assert a.gain == b.gain

    def test_stationarity(self):
        # raw ridge solution zeroes the gradient of
        # ||B W - I||^2 + reg ||W||^2
        dec = decompose(gaussian_channels(seed=11))
        lam = 0.7
        for basis in ("v", "f"):
            b = dec.v if basis == "v" else dec.s[:, None] * dec.v
            # the ridge of rzf is total_layers * noise_var / power = lam
            w = rzf(dec, 1.0, lam / 4, basis=basis).raw
            resid = b.conj().T @ (b @ w - np.eye(4)) + lam * w
            assert np.linalg.norm(resid) < 1e-9

    def test_local_minimality(self):
        dec = decompose(gaussian_channels(seed=13))
        lam = 0.4
        w = parametric_rzf(dec, np.full(4, lam), 1.0).raw
        b = dec.v

        def j(m):
            return np.linalg.norm(b @ m - np.eye(4)) ** 2 + lam * np.linalg.norm(m) ** 2

        j0 = j(w)
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = rng.standard_normal(w.shape) + 1j * rng.standard_normal(w.shape)
            assert j(w + 1e-3 * d / np.linalg.norm(d)) >= j0

    def test_negative_reg_rejected(self):
        dec = decompose(gaussian_channels())
        with pytest.raises(ConfigError):
            parametric_rzf(dec, np.full(4, -0.1), 1.0)
        with pytest.raises(ConfigError):
            rzf(dec, 1.0, noise_var=0.0)
        # a ridge that overflows is caught once per stack
        with pytest.raises(ConfigError):
            rzf(dec, 1e-300, noise_var=1e300)
        with pytest.raises(ConfigError, match="ridge and column scale"):
            closed_stack(dec, ("zf_v", "arzf"), 1e-300, [1.0, 1e300])


class TestWrzf:
    def test_equals_rzf_with_inverse_gain_ridge(self):
        dec = decompose(gaussian_channels(seed=4))
        power, nv = 2.0, 0.5
        lam = nv / power * np.sum(dec.s**-2.0)
        a = wrzf(dec, power, nv)
        b = parametric_rzf(dec, np.full(4, lam), power)
        assert np.array_equal(a.raw, b.raw)


class TestArzf:
    def test_equals_weighted_basis_ridge_times_s(self):
        dec = decompose(gaussian_channels(seed=6))
        power, nv = 3.0, 0.2
        a = arzf(dec, power, nv)
        f_ridge = inv_ridge_oracle(dec.s[:, None] * dec.v, np.full(4, 4 * nv / power))
        assert np.linalg.norm(a.raw - f_ridge * dec.s[None, :]) < 1e-10

    def test_is_parametric_with_scaled_inverse_gains(self):
        dec = decompose(gaussian_channels(seed=6))
        power, nv = 3.0, 0.2
        lam = 4 * nv / power
        a = arzf(dec, power, nv)
        b = parametric_rzf(dec, lam / dec.s**2, power)
        assert np.array_equal(a.raw, b.raw)
        assert a.gain == b.gain

    def test_weighted_stationarity(self):
        # raw solution zeroes the gradient of
        # ||S (V W - I)||^2 + lam ||W||^2
        dec = decompose(gaussian_channels(seed=9))
        power, nv = 1.0, 0.6
        lam = 4 * nv / power
        w = arzf(dec, power, nv).raw
        s2 = dec.s**2
        resid = dec.v.conj().T @ (s2[:, None] * (dec.v @ w - np.eye(4))) + lam * w
        assert np.linalg.norm(resid) < 1e-9

    def test_small_ridge_approaches_zf(self):
        dec = decompose(gaussian_channels(seed=8))
        zf_dir = unit(zf(dec, 1.0).raw)
        dists = []
        for lam in (1e-2, 1e-3, 1e-4):
            w = parametric_rzf(dec, lam / dec.s**2, 1.0).raw
            dists.append(np.linalg.norm(unit(w) - zf_dir))
        for a, b in zip(dists, dists[1:]):
            assert 5.0 <= a / b <= 20.0

    def test_large_ridge_approaches_weighted_matched(self):
        dec = decompose(gaussian_channels(seed=8))
        tgt = unit(dec.v.conj().T * dec.s[None, :] ** 2)
        dists = []
        for lam in (1e2, 1e3, 1e4):
            w = parametric_rzf(dec, lam / dec.s**2, 1.0).raw
            dists.append(np.linalg.norm(unit(w) - tgt))
        for a, b in zip(dists, dists[1:]):
            assert 5.0 <= a / b <= 20.0


def unit(m):
    return m / np.linalg.norm(m)


# every closed form, noise-free and noisy mixed
STACK_TOKENS = ("arzf", "mrt", "zf_f", "wrzf", "rzf_v", "zf_v", "rzf_f")


class TestClosedForms:
    def test_table_covers_builders(self):
        assert CLOSED_FORMS == tuple(BUILDERS)

    @pytest.mark.parametrize("noise", [(0.3,), (0.3, 1e-3, 7.0)], ids=["1level", "3levels"])
    def test_stack_member_equals_single_build(self, noise):
        # one stack of every level; each (level, token) member, the shared
        # noise-free ones included, is bitwise its one-token build at that
        # level's noise
        dec = decompose(gaussian_channels(seed=19))
        raw, gain = closed_stack(dec, STACK_TOKENS, 2.0, noise)
        assert raw.shape[:2] == gain.shape == (len(noise), len(STACK_TOKENS))
        for level, nv in enumerate(noise):
            pres = closed_forms(dec, STACK_TOKENS, 2.0, nv)
            for b, (pre, token) in enumerate(zip(pres, STACK_TOKENS)):
                one = BUILDERS[token](dec, 2.0, nv)
                assert raw[level, b].tobytes() == pre.raw.tobytes() == one.raw.tobytes()
                assert gain[level, b] == pre.gain == one.gain

    def test_one_ridge_stack_per_call(self, monkeypatch):
        # the noise-free zf_v and zf_f are one member each, shared by the
        # levels, in the same ridge_stack as the 4 noisy forms at 3 levels
        real, sizes = precoding.ridge_stack, []

        def counted(gram, *args):
            sizes.append(len(gram))
            return real(gram, *args)

        monkeypatch.setattr(precoding, "ridge_stack", counted)
        closed_stack(decompose(gaussian_channels(seed=19)), STACK_TOKENS, 2.0, (0.3, 1e-3, 7.0))
        assert sizes == [2 + 3 * 4]

    def test_f_forms_are_column_scaled_v_ridges(self):
        dec = decompose(gaussian_channels(seed=20))
        zf_v, zf_f, rzf_f, arzf_ = closed_forms(dec, ("zf_v", "zf_f", "rzf_f", "arzf"), 1.0, 0.5)
        assert np.array_equal(zf_f.raw, zf_v.raw * (1.0 / dec.s))
        assert np.array_equal(rzf_f.raw, arzf_.raw * (1.0 / dec.s))

    def test_validation(self):
        dec = decompose(gaussian_channels())
        with pytest.raises(ConfigError, match="zf_x"):
            closed_forms(dec, ("mrt", "zf_x"), 1.0, 0.3)
        with pytest.raises(ConfigError, match="noise_var"):
            closed_forms(dec, ("arzf",), 1.0, float("nan"))
        with pytest.raises(ConfigError, match="power"):
            closed_forms(dec, ("mrt",), 0.0)
        assert closed_forms(dec, (), 1.0) == ()

    @pytest.mark.parametrize("token", ["rzf_v", "rzf_f", "wrzf", "arzf"])
    def test_noise_dependent_form_needs_a_noise_variance(self, token):
        # each used to raise a TypeError inside its ridge formula
        dec = decompose(gaussian_channels())
        with pytest.raises(ConfigError, match=f"closed forms \\['{token}'\\] need a noise"):
            BUILDERS[token](dec, 1.0, None)
        with pytest.raises(ConfigError, match=token):
            closed_stack(dec, ("mrt", token, "zf_v"), 1.0, [0.3, None])
        raw, gain = closed_stack(dec, ("zf_v", "mrt", "zf_f"), 1.0, [None])
        assert raw.shape == (1, 3, 12, 4) and gain.shape == (1, 3)


class TestParametric:
    def test_validation(self):
        dec = decompose(gaussian_channels())
        with pytest.raises(DimensionError):
            parametric_rzf(dec, np.ones(3), 1.0)
        with pytest.raises(ConfigError):
            parametric_rzf(dec, [-1.0, 1.0, 1.0, 1.0], 1.0)

    def test_matches_inverse_oracle(self):
        dec = decompose(gaussian_channels(seed=14))
        r = np.array([0.1, 0.5, 1.0, 2.0])
        p = parametric_rzf(dec, r, 1.0)
        assert np.linalg.norm(p.raw - inv_ridge_oracle(dec.v, r)) < 1e-10


class TestInvariances:
    def test_layer_phase_rotation(self):
        dec = decompose(gaussian_channels(seed=21))
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
        dec = decompose(gaussian_channels(seed=17))
        for build in (
            lambda d, p, n: rzf(d, p, n),
            lambda d, p, n: wrzf(d, p, n),
            lambda d, p, n: arzf(d, p, n),
        ):
            a = build(dec, 1.0, 0.25)
            b = build(dec, 4.0, 1.0)
            assert np.linalg.norm(a.raw - b.raw) < 1e-12
            assert abs(b.gain - 2.0 * a.gain) < 1e-12

    def test_scenario_sized_instance(self, quick_config):
        dec = decompose(generate_scenario(quick_config(seed=1)))
        p = arzf(dec, 2.0, 0.1)
        assert p.weights.shape == (16, 6)
        rows = np.linalg.norm(p.weights, axis=1)
        assert abs(rows.max() - np.sqrt(2.0 / 16)) < 1e-12
