"""Consistency checks for the closed forms and the gradient, the gradient's
oracle, the paper's claims read from a sweep's per-seed values, and the
searched ridge's quality sets.

Acceptance tests 01-09 and the ``verify`` subcommand both call these
checks with their default seeds, sizes and bounds.  Checks 01-05 draw
their own instances; checks 06-09 read a :class:`SweepResult`: 06, 07 and
09 the default sweep, 08 the equal-path-loss ``wrzf``/``arzf`` sweep.
``verify --quick`` only shrinks the instance, draw and seed counts.
``verify --quality`` reads :data:`QUALITY_SETS` instead of the checks.
"""

import time
from dataclasses import dataclass

import numpy as np

from .channel import ChannelDecomposition, ChannelSet, SystemDims, decompose
from .detection import conjugate_detection
from .exceptions import ConfigError
from .harness import SweepConfig, run_sweep
from .numerics import complex_normal
from .optimizer import default_start, gradient, objective
from .precoding import arzf, parametric_rzf, rzf, wrzf, zf

__all__ = ["CheckResult", "check_identities", "check_stationarity", "check_asymptotics",
           "check_noise_shaping", "check_gradient", "check_search_gain", "check_sum_se_ordering",
           "check_equal_agreement", "check_min_se_tradeoff", "run_all", "QUALITY_SETS",
           "search_quality"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check; ``worst`` lists the measured worst cases."""

    name: str
    passed: bool
    worst: tuple
    detail: str


TWO_USERS = SystemDims(num_tx=12, rx=(4, 4), layers=(2, 2))


def _random_dims(rng):
    """Random multi-user sizes, up to 16 tx antennas and 8 total layers."""
    k = int(rng.integers(2, 5))
    layers = tuple(int(rng.integers(1, 3)) for _ in range(k))
    rx = tuple(l + int(rng.integers(1, 4)) for l in layers)
    return SystemDims(num_tx=int(rng.integers(max(sum(layers), 8), 17)), rx=rx, layers=layers)


def _instance(rng, dims):
    """Gaussian channel of size ``dims`` and its decomposition."""
    blocks = tuple(complex_normal(rng, (r, dims.num_tx), 1.0) for r in dims.rx)
    ch = ChannelSet(dims=dims, blocks=blocks)
    return ch, decompose(ch)


def _equal_gain_decomposition(rng):
    """Synthetic ``TWO_USERS`` decomposition with all singular values equal."""
    s_val = 0.5 + rng.uniform(0.0, 2.0)
    u_blocks, s_blocks, v_blocks = [], [], []
    for r, l in zip(TWO_USERS.rx, TWO_USERS.layers):
        qu, _ = np.linalg.qr(complex_normal(rng, (r, l), 1.0))
        qv, _ = np.linalg.qr(complex_normal(rng, (TWO_USERS.num_tx, l), 1.0))
        u_blocks.append(qu.conj().T)
        s_blocks.append(np.full(l, s_val))
        v_blocks.append(qv.conj().T)
    return ChannelDecomposition.from_blocks(u_blocks, s_blocks, v_blocks)


def check_identities(seed=101, instances=100, tol=1e-10):
    """Basis-change identities of both pseudoinverses and of the adapted
    ridge (against the explicit f-basis ridge ``F^H inv(F F^H + lam I)``,
    ``F = S V``), the conjugate-detection reduction to the layer rows, and
    the equal-gain collapse, each as a relative residual on raw weights."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        ch, dec = _instance(rng, _random_dims(rng))
        power = 0.5 + rng.uniform(0.0, 2.0)
        nv = 0.2 + rng.uniform(0.0, 1.5)
        g = conjugate_detection(dec)
        eq = _equal_gain_decomposition(rng)
        f = dec.s[:, None] * dec.v
        f_ridge = lambda lam: f.conj().T @ np.linalg.inv(f @ f.conj().T + lam * np.eye(len(f)))
        pairs = (
            (zf(dec, power, basis="v").raw, f_ridge(0.0) * dec.s),
            (arzf(dec, power, nv).raw, f_ridge(dec.dims.total_layers * nv / power) * dec.s),
            (dec.v, np.vstack([gb @ hb for gb, hb in zip(g, ch.blocks)])),
            (arzf(eq, power, nv).raw, wrzf(eq, power, nv).raw),
        )
        for want, got in pairs:
            worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
    return CheckResult(
        "identities", worst <= tol, (float(worst),),
        f"worst relative residual {worst:.2e} over {instances} instances (tol {tol:g})",
    )


def check_stationarity(seed=202, instances=100, tol=1e-9):
    """Each ridge solution zeroes its quadratic objective's gradient
    (scaled residual), and 100 random perturbations of relative size
    1e-3 around each one all increase the objective."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    increases = True
    for _ in range(instances):
        _, dec = _instance(rng, _random_dims(rng))
        lt = dec.dims.total_layers
        power = 0.5 + rng.uniform(0.0, 2.0)
        nv = 0.2 + rng.uniform(0.0, 1.5)
        lam = lt * nv / power
        eye = np.eye(lt)
        # (solution W, rows B, row weights D) of the ridge objective
        # ||D (B W - I)||^2 + lam ||W||^2; the adapted ridge weights V by S
        cases = (
            (rzf(dec, power, nv, basis="v").raw, dec.v, 1.0),
            (rzf(dec, power, nv, basis="f").raw, dec.s[:, None] * dec.v, 1.0),
            (arzf(dec, power, nv).raw, dec.v, dec.s[:, None]),
        )
        for w, b, d in cases:
            data_grad = b.conj().T @ (d**2 * (b @ w - eye))
            scale = np.linalg.norm(data_grad) + lam * np.linalg.norm(w)
            worst = max(worst, np.linalg.norm(data_grad + lam * w) / scale)
            objective = lambda m: (
                np.linalg.norm(d * (b @ m - eye)) ** 2 + lam * np.linalg.norm(m) ** 2
            )
            base = objective(w)
            for _ in range(100):
                delta = complex_normal(rng, w.shape, 1.0)
                delta *= 1e-3 * np.linalg.norm(w) / np.linalg.norm(delta)
                increases &= bool(objective(w + delta) > base)
    return CheckResult(
        "stationarity", worst <= tol and increases, (float(worst),),
        f"worst scaled gradient residual {worst:.2e} (tol {tol:g}); "
        f"100x3 perturbations of relative size 1e-3 per instance "
        f"{'all increased' if increases else 'DID NOT all increase'} the objective",
    )


def check_asymptotics(seed=303, instances=20, lo=5.0, hi=20.0):
    """Normalized-direction distance to the pseudoinverse shrinks like
    the ridge, and to the gain-weighted matched filter like its inverse:
    each decade of ridge must shrink the distance by ``lo`` to ``hi``."""
    rng = np.random.default_rng(seed)
    unit = lambda m: m / np.linalg.norm(m)
    ratios = []
    for _ in range(instances):
        _, dec = _instance(rng, _random_dims(rng))
        zf_dir = unit(zf(dec, 1.0, basis="v").raw)
        matched_dir = unit(dec.v.conj().T * dec.s[None, :] ** 2)
        for target, lams in ((zf_dir, (1e-2, 1e-3, 1e-4)), (matched_dir, (1e2, 1e3, 1e4))):
            dist = [
                np.linalg.norm(unit(parametric_rzf(dec, lam / dec.s**2, 1.0).raw) - target)
                for lam in lams
            ]
            ratios += [a / b for a, b in zip(dist, dist[1:])]
    worst_lo, worst_hi = min(ratios), max(ratios)
    return CheckResult(
        "asymptotics", lo <= worst_lo and worst_hi <= hi, (float(worst_lo), float(worst_hi)),
        f"per-decade distance decay ratios in [{worst_lo:.2f}, {worst_hi:.2f}] "
        f"over {instances} instances (required within [{lo:g}, {hi:g}])",
    )


def check_noise_shaping(seed=404, draws=100_000, tol=0.03, time_limit=10.0):
    """Monte Carlo covariance of conjugate-detected noise: inverse squared
    singular values on the diagonal (``tol`` relative) and off-diagonal
    magnitudes within 3 standard errors, in ``time_limit`` seconds."""
    start = time.monotonic()
    rng = np.random.default_rng(seed)
    ch, dec = _instance(rng, TWO_USERS)
    g = np.zeros((ch.dims.total_layers, ch.dims.total_rx), dtype=complex)
    cols = np.cumsum((0,) + ch.dims.rx)
    for k, b in enumerate(conjugate_detection(dec)):
        g[ch.dims.layer_slice(k), cols[k]:cols[k + 1]] = b
    nv = 0.7
    z = complex_normal(rng, (draws, ch.dims.total_rx), nv) @ g.T
    emp = z.T @ z.conj() / draws
    want = nv / dec.s**2
    diag_rel = float((np.abs(np.diag(emp).real - want) / want).max())
    se = 3.0 * np.sqrt(np.outer(want, want) / draws)
    off_mask = ~np.eye(len(want), dtype=bool)
    off_excess = float((np.abs(emp) - se)[off_mask].max())
    elapsed = time.monotonic() - start
    return CheckResult(
        "noise_shaping",
        diag_rel <= tol and off_excess <= 0.0 and elapsed < time_limit,
        (diag_rel, off_excess),
        f"{draws} draws: diag rel err {diag_rel:.4f} (tol {tol:g}), "
        f"worst off-diag minus 3se {off_excess:.2e} (must be <= 0), "
        f"{elapsed:.1f}s (limit {time_limit:g}s)",
    )


def central_differences(decomp, channels, reg_vec, power, noise_var):
    """Central differences of :func:`objective` in the elementwise log of
    ``reg_vec``, the oracle for :func:`gradient`: coordinate ``i`` steps
    by ``1e-6 * max(1, |log reg_i|)``."""
    u = np.log(reg_vec)
    j = lambda step: objective(decomp, channels, np.exp(u + step), power, noise_var)
    steps = 1e-6 * np.maximum(1.0, np.abs(u))
    return np.array([(j(e * h) - j(-e * h)) / (2.0 * h) for e, h in zip(np.eye(len(u)), steps)])


def check_gradient(seed=505, instances=20, tol=1e-4):
    """Reverse-mode spectral-efficiency gradient against central differences
    at random 4-layer operating points, skipping points where two
    antenna rows tie for the norm maximum (the normalization kink)."""
    rng = np.random.default_rng(seed)
    power, nv = 2.0, 0.2
    worst = 0.0
    accepted = skipped = 0
    while accepted < instances:
        ch, dec = _instance(rng, TWO_USERS)
        r = default_start(dec, power, nv) * np.exp(rng.uniform(-1, 1, dec.dims.total_layers))
        top = np.sort(np.linalg.norm(parametric_rzf(dec, r, power).raw, axis=1))[::-1]
        if (top[0] - top[1]) < 1e-6 * top[0]:
            skipped += 1
            continue
        gd = gradient(dec, ch, r, power, nv)
        gf = central_differences(dec, ch, r, power, nv)
        worst = max(worst, np.abs(gd - gf).max() / max(np.abs(gf).max(), 1e-12))
        accepted += 1
    return CheckResult(
        "gradient_consistency", worst <= tol, (float(worst),),
        f"max relative component error {worst:.2e} over {instances} instances "
        f"({skipped} tie points skipped) (tol {tol:g})",
    )


def _cells(result, scenario, method, measure=0, levels=None):
    """Per-seed sum SE (``measure`` 0) or min SE (1) of ``method`` in a
    ``scenario`` sweep, ``(levels, seeds)`` at ``levels`` (default: the
    grid); a missing family, method or level is a ConfigError naming it."""
    config, grid = result.config, result.config.susinr_db
    if result.values is None or config.scenario != scenario:
        raise ConfigError(f"the check reads per-seed values of the {scenario} family")
    levels = grid if levels is None else levels
    if method not in config.methods or not levels or not set(levels) <= set(grid):
        raise ConfigError(f"the check needs {method} at {levels} dB; "
                          f"the sweep has {config.methods} at {grid}")
    return result.values[:, config.methods.index(method), measure][[grid.index(x) for x in levels]]


def check_search_gain(result, levels=(8.0, 20.0, 32.0), share=0.8):
    """Varied path loss: the searched ridge's sum SE is never below its
    ``arzf`` start on a (seed, level) pair at ``levels``, and is above it
    on at least ``share`` of them."""
    diffs = _cells(result, "varied", "opt", 0, levels) - _cells(result, "varied", "arzf", 0, levels)
    low, strict = float(diffs.min()), float(np.mean(diffs > 0.0))
    return CheckResult(
        "search_gain", low >= 0.0 and strict >= share, (low, strict),
        f"sum-SE difference over {diffs.size} seed/level pairs: min {low:+.4f} "
        f"(must be >= 0), strict improvement on {strict:.0%} (need >= {share:.0%})")


def check_sum_se_ordering(result, levels=(0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0), min_t=2.0):
    """Varied path loss, mean sum SE: ``arzf`` beats ``rzf_v`` and ``wrzf`` by
    at least ``min_t`` seed-level standard errors at ``levels``, and at every
    level ``opt`` is not below ``arzf`` and ``rzf_v`` is within one standard
    error of the better of ``mrt`` and ``zf_v``."""
    sums = lambda m, at=None: _cells(result, "varied", m, 0, at)
    if sums("arzf").shape[-1] < 2:
        raise ConfigError("the check needs standard errors, so at least 2 kept seeds")
    se = lambda d: d.std(axis=-1, ddof=1) / np.sqrt(d.shape[-1])
    t = float(min((d.mean(axis=-1) / se(d)).min()
                  for d in (sums("arzf", levels) - sums(m, levels) for m in ("rzf_v", "wrzf"))))
    opt_slack = float((sums("opt").mean(axis=-1) - sums("arzf").mean(axis=-1)).min())
    d = sums("rzf_v") - np.maximum(sums("mrt"), sums("zf_v"))
    env_slack = float((d.mean(axis=-1) + se(d)).min())
    return CheckResult(
        "sum_se_ordering", t >= min_t and opt_slack >= 0.0 and env_slack >= 0.0,
        (t, opt_slack, env_slack),
        f"worst adapted-vs-scalar margin t={t:.2f} (need >= {min_t:g}) on "
        f"{min(levels):g}-{max(levels):g} dB; searched-minus-adapted mean slack "
        f"{opt_slack:+.4f} (need >= 0); scalar-ridge envelope slack within 1se "
        f"{env_slack:+.4f} (need >= 0)")


def check_equal_agreement(result, tol=0.02):
    """Equal path loss: ``arzf`` and ``wrzf`` agree on mean sum SE within
    ``tol`` relative at every level."""
    adapted, scalar = (_cells(result, "equal", m).mean(axis=-1) for m in ("arzf", "wrzf"))
    worst = float((abs(adapted - scalar) / scalar).max())
    return CheckResult(
        "equal_pathloss_agreement", worst <= tol, (worst,),
        f"worst relative mean sum-SE gap {worst:.3%} over {len(scalar)} levels (tol {tol:.0%})")


def check_min_se_tradeoff(result, levels=(0.0, 4.0, 8.0, 12.0)):
    """Varied path loss at low SINR: ``arzf`` trades the weakest user away,
    so its mean min SE does not exceed ``rzf_v``'s at ``levels``."""
    adapted, scalar = (_cells(result, "varied", m, 1, levels).mean(axis=-1)
                       for m in ("arzf", "rzf_v"))
    worst = float((adapted - scalar).max())
    return CheckResult(
        "min_se_tradeoff", worst <= 0.0, (worst,),
        f"max of mean min-SE(adapted) minus min-SE(scalar) {worst:+.4f} "
        f"over levels <= {max(levels):g} dB (must be <= 0)")


def run_all(quick=False):
    """Every check at its default seed, size and bound, 06-09 on the
    default sweep and the equal-path-loss ``wrzf``/``arzf`` sweep;
    ``quick`` divides each instance, draw and seed count by five."""
    d = 5 if quick else 1
    varied = run_sweep(SweepConfig(num_seeds=40 // d))
    equal = run_sweep(SweepConfig(scenario="equal", methods=("wrzf", "arzf"), num_seeds=40 // d))
    return [
        check_identities(instances=100 // d),
        check_stationarity(instances=100 // d),
        check_asymptotics(instances=20 // d),
        check_noise_shaping(draws=100_000 // d),
        check_gradient(instances=20 // d),
        check_search_gain(varied),
        check_sum_se_ordering(varied),
        check_equal_agreement(equal),
        check_min_se_tradeoff(varied),
    ]


# The sets a change to the search is measured on, each an ``arzf``/``opt``
# sweep: (scenario, seeds, seed base, levels in dB).  Acceptance 06's pairs;
# held-out seeds in both families; the opt_search benchmark workload's shape.
QUALITY_SETS = {
    "acceptance_06": ("varied", 40, 0, (8.0, 20.0, 32.0)),
    "held_out_equal": ("equal", 20, 10**9, (0.0, 20.0, 40.0)),
    "held_out_varied": ("varied", 20, 10**9, (0.0, 20.0, 40.0)),
    "opt_search": ("varied", 200, 0, (0.0, 20.0, 40.0)),
}


def search_quality(quick=False):
    """Per quality set, ``(name, pairs, mean gain, worst gain, its seed, its
    level)`` of the searched ridge's sum SE over its ``arzf`` start in
    bit/s/Hz, read from the set's :func:`run_sweep` values; ``quick``
    divides each seed count by five."""
    readings = []
    for name, (scenario, seeds, base, levels) in QUALITY_SETS.items():
        seeds //= 5 if quick else 1
        result = run_sweep(SweepConfig(scenario=scenario, susinr_db=levels, num_seeds=seeds,
                                       seed_base=base, methods=("arzf", "opt")))
        gains = _cells(result, scenario, "opt") - _cells(result, scenario, "arzf")
        failed = {seed for seed, _ in result.failures}
        kept = [seed for seed in range(base, base + seeds) if seed not in failed]
        level, seed = np.unravel_index(np.argmin(gains), gains.shape)
        readings.append((name, gains.size, float(gains.mean()), float(gains[level, seed]),
                         kept[seed], levels[level]))
    return readings
