"""Acceptance checks: closed forms, asymptotics, statistical orderings.

One test per acceptance item, each printing a single summary line with
the measured worst case and its tolerance (the line shows up inline in
the pytest output).  Items 01-05 call the checks in
``precodesim.verification`` that ``precodesim verify`` also runs, at
their seeds, sizes and bounds.  The sweep-backed items share module-scoped
fixtures at the default desk scale (64 tx antennas, 4 users, 2 layers
each, 40 seeds); the whole module takes a few minutes.
"""

import time

import numpy as np
import pytest

from precodesim.channel import ScenarioConfig, calibrate_noise, decompose, generate_scenario
from precodesim.metrics import evaluate
from precodesim.optimizer import optimize_many
from precodesim.verification import (
    check_asymptotics,
    check_gradient,
    check_identities,
    check_noise_shaping,
    check_stationarity,
)
from helpers import evaluate_point, run_child

GRID = tuple(float(x) for x in range(0, 41, 4))
MARGIN_GRID = tuple(su for su in GRID if su <= 24.0)
LOW_GRID = tuple(su for su in GRID if su <= 12.0)
SEEDS = 40
POWER = 1.0


def _report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance {num:02d}] {name}: {detail} -> {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def varied_cases():
    out = []
    for seed in range(SEEDS):
        cs = generate_scenario(ScenarioConfig(seed=seed, path_loss="varied"))
        out.append((cs, decompose(cs)))
    return out


def _reports(cases, levels, methods):
    """Reports per (seed, level, method): closed forms point by point, and
    every ``opt`` search of the set in one lockstep ``optimize_many``."""
    reps, problems = {}, []
    for seed, (cs, dc) in enumerate(cases):
        for su in levels:
            closed = [m for m in methods if m != "opt"]
            for m, rep in evaluate_point(cs, dc, POWER, su, closed).items():
                reps[(seed, su, m)] = rep
            if "opt" in methods:
                problems.append((dc, cs, POWER, calibrate_noise(dc, POWER, su)))
    keys = [(seed, su) for seed in range(len(cases)) for su in levels]
    for (seed, su), (_, cs, _, nv), res in zip(keys, problems, optimize_many(problems)):
        reps[(seed, su, "opt")] = evaluate(cs, res.precoder, nv)
    return reps


@pytest.fixture(scope="module")
def varied_sweep(varied_cases):
    """sum-SE and min-SE per (seed, grid level, method), varied path loss."""
    reps = _reports(varied_cases, GRID, ("mrt", "zf_v", "rzf_v", "wrzf", "arzf", "opt"))
    sums = {key: rep.sum_se for key, rep in reps.items()}
    mins = {key: rep.min_se for key, rep in reps.items()}
    return sums, mins


@pytest.fixture(scope="module")
def equal_sweep():
    """Mean sum-SE per (grid level, method), equal path loss."""
    sums = {(su, m): [] for su in GRID for m in ("wrzf", "arzf")}
    for seed in range(SEEDS):
        cs = generate_scenario(ScenarioConfig(seed=seed, path_loss="equal"))
        dc = decompose(cs)
        for su in GRID:
            reps = evaluate_point(cs, dc, POWER, su, ("wrzf", "arzf"))
            for m in ("wrzf", "arzf"):
                sums[(su, m)].append(reps[m].sum_se)
    return {key: float(np.mean(v)) for key, v in sums.items()}


def _check(capsys, num, title, result):
    _report(capsys, num, title, result.passed, result.detail)
    assert result.passed, result.detail


def test_01_closed_form_identities(capsys):
    """Basis-change identities, conjugate-detection reduction, and the
    equal-gain collapse, each within 1e-10 relative on raw weights."""
    _check(capsys, 1, "closed-form identities",
           check_identities(seed=101, instances=100, tol=1e-10))


def test_02_ridge_stationarity(capsys):
    """Each ridge solution zeroes its quadratic objective's gradient,
    and every nearby point scores strictly worse."""
    _check(capsys, 2, "ridge stationarity",
           check_stationarity(seed=202, instances=100, tol=1e-9))


def test_03_ridge_asymptotics(capsys):
    """Normalized-direction distance to the pseudoinverse shrinks like
    the ridge, and to the gain-weighted matched filter like its inverse;
    each decade of ridge must shrink the distance by 5x to 20x."""
    _check(capsys, 3, "ridge asymptotics",
           check_asymptotics(seed=303, instances=20, lo=5.0, hi=20.0))


def test_04_diagonalized_noise_covariance(capsys):
    """Monte Carlo covariance of conjugate-detected noise: inverse
    squared singular values on the diagonal (3% relative), off-diagonal
    magnitudes within 3 standard errors, in under 10 seconds."""
    _check(capsys, 4, "diagonalized noise covariance",
           check_noise_shaping(seed=404, draws=100_000, tol=0.03, time_limit=10.0))


def test_05_gradient_against_central_differences(capsys):
    """Analytic spectral-efficiency gradient versus central differences
    at 20 random 4-layer operating points, skipping points where two
    antenna rows tie for the norm maximum."""
    _check(capsys, 5, "gradient vs central differences",
           check_gradient(seed=505, instances=20, tol=1e-4))


def test_06_searched_ridge_improves(capsys, varied_cases):
    """The searched diagonal ridge never falls below its analytic start
    and strictly improves on at least 80% of seeds, within a 10 minute
    budget."""
    start = time.monotonic()
    levels = (8.0, 20.0, 32.0)
    reps = _reports(varied_cases, levels, ("arzf", "opt"))
    elapsed = time.monotonic() - start
    diffs = np.array([reps[(seed, su, "opt")].sum_se - reps[(seed, su, "arzf")].sum_se
                      for seed in range(len(varied_cases)) for su in levels])
    strict = float(np.mean(diffs > 0.0))
    ok = bool(np.all(diffs >= 0.0) and strict >= 0.8 and elapsed <= 600.0)
    _report(capsys, 6, "searched ridge improves",
            ok, f"sum-SE difference over {len(diffs)} seed/level pairs: "
                f"min {diffs.min():+.4f} (must be >= 0), strict improvement on "
                f"{strict:.0%} (need >= 80%), {elapsed:.0f}s (limit 600s)")
    assert np.all(diffs >= 0.0), f"searched ridge lost to its start by {diffs.min():.4f}"
    assert strict >= 0.8, f"strict improvement only on {strict:.0%} of pairs"
    assert elapsed <= 600.0, f"took {elapsed:.0f}s, budget 600s"


def test_07_sum_se_ordering(capsys, varied_sweep):
    """Varied path loss, mean sum-SE: the gain-adapted ridge beats both
    scalar ridges by at least twice the seed-level standard error at
    every level up to 24 dB; the searched ridge is never below it; the
    scalar ridge envelopes matched and zero-forcing within one standard
    error."""
    sums, _ = varied_sweep
    seeds = range(SEEDS)

    min_t = np.inf
    for su in MARGIN_GRID:
        for other in ("rzf_v", "wrzf"):
            d = np.array([sums[(s, su, "arzf")] - sums[(s, su, other)] for s in seeds])
            t = d.mean() / (d.std(ddof=1) / np.sqrt(SEEDS))
            min_t = min(min_t, t)

    opt_slack = min(
        np.mean([sums[(s, su, "opt")] for s in seeds])
        - np.mean([sums[(s, su, "arzf")] for s in seeds])
        for su in GRID
    )

    env_slack = np.inf
    for su in GRID:
        d = np.array([
            sums[(s, su, "rzf_v")] - max(sums[(s, su, "mrt")], sums[(s, su, "zf_v")])
            for s in seeds
        ])
        env_slack = min(env_slack, d.mean() + d.std(ddof=1) / np.sqrt(SEEDS))

    ok = min_t >= 2.0 and opt_slack >= 0.0 and env_slack >= 0.0
    _report(capsys, 7, "sum-SE ordering, varied path loss",
            ok, f"worst adapted-vs-scalar margin t={min_t:.2f} (need >= 2) on 0-24 dB; "
                f"searched-minus-adapted mean slack {opt_slack:+.4f} (need >= 0); "
                f"scalar-ridge envelope slack within 1se {env_slack:+.4f} (need >= 0)")
    assert min_t >= 2.0, f"ordering margin t={min_t:.2f} below 2 standard errors"
    assert opt_slack >= 0.0, f"searched ridge mean fell below adapted by {opt_slack:.4f}"
    assert env_slack >= 0.0, f"scalar ridge fell below the envelope by {env_slack:.4f}"


def test_08_equal_pathloss_agreement(capsys, equal_sweep):
    """Equal path loss: the gain-adapted and inverse-gain scalar ridges
    agree on mean sum-SE within 2% relative at every grid level."""
    tol = 0.02
    worst = max(
        abs(equal_sweep[(su, "arzf")] - equal_sweep[(su, "wrzf")]) / equal_sweep[(su, "wrzf")]
        for su in GRID
    )
    ok = worst <= tol
    _report(capsys, 8, "equal-path-loss agreement",
            ok, f"worst relative mean sum-SE gap {worst:.3%} over {len(GRID)} levels "
                f"(tol {tol:.0%})")
    assert ok, f"equal-path-loss gap {worst:.3%} exceeds {tol:.0%}"


def test_09_min_se_tradeoff(capsys, varied_sweep):
    """Varied path loss at low SINR: the gain-adapted ridge trades the
    weakest user away, so its mean min-SE must not exceed the scalar
    ridge's."""
    _, mins = varied_sweep
    seeds = range(SEEDS)
    worst = max(
        np.mean([mins[(s, su, "arzf")] for s in seeds])
        - np.mean([mins[(s, su, "rzf_v")] for s in seeds])
        for su in LOW_GRID
    )
    ok = worst <= 0.0
    _report(capsys, 9, "min-SE trade-off direction",
            ok, f"max of mean min-SE(adapted) minus min-SE(scalar) {worst:+.4f} "
                f"over levels <= 12 dB (must be <= 0)")
    assert ok, f"adapted ridge min-SE exceeded scalar by {worst:.4f} at low SINR"


def test_10_csv_determinism(capsys, tmp_path):
    """Two separate CLI executions with an identical configuration emit
    byte-identical CSV."""
    args = [
        "-m", "precodesim", "run",
        "--scenario", "varied", "--susinr", "0,12", "--seeds", "2",
        "--methods", "mrt,rzf_v,arzf", "--quiet",
    ]
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        proc = run_child(args + ["--out", str(path)])
        assert proc.returncode == 0, f"run failed: {proc.stderr}"
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1]
    _report(capsys, 10, "CSV determinism",
            ok, f"two executions, {len(outs[0])} CSV bytes each: "
                f"{'identical' if ok else 'DIFFER'}")
    assert ok, "CSV bytes differ between identical runs"
