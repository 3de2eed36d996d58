"""Acceptance checks: closed forms, asymptotics, statistical orderings.

One test per acceptance item, each printing a single summary line with
the measured worst case and its tolerance (the line shows up inline in
the pytest output).  Items 01-09 call the checks in
``precodesim.verification`` that ``precodesim verify`` also runs, with
their seeds, sizes and bounds.  Items 06-09 read the two session-scoped
sweeps of ``conftest.py`` at the default desk scale (64 tx antennas, 4
users, 2 layers each, 40 seeds): the default ``run_sweep`` and the
equal-path-loss ``wrzf``/``arzf`` one.  The whole module takes a few
seconds.
"""

from dataclasses import replace

from precodesim.verification import (
    CheckResult,
    check_asymptotics,
    check_equal_agreement,
    check_gradient,
    check_identities,
    check_min_se_tradeoff,
    check_noise_shaping,
    check_search_gain,
    check_stationarity,
    check_sum_se_ordering,
)
from helpers import run_child


def _check(capsys, num, title, result):
    with capsys.disabled():
        print(f"\n[acceptance {num:02d}] {title}: {result.detail} -> "
              f"{'PASS' if result.passed else 'FAIL'}")
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


def test_06_searched_ridge_improves(capsys, default_run):
    """The searched ridge never falls below its analytic start and beats it
    on 80% of pairs, from a default sweep that takes under 10 minutes."""
    result, elapsed = default_run
    check = check_search_gain(result, levels=(8.0, 20.0, 32.0), share=0.8)
    _check(capsys, 6, "searched ridge improves", replace(
        check, passed=check.passed and elapsed <= 600.0,
        detail=f"{check.detail}, {elapsed:.0f}s (limit 600s)"))


def test_07_sum_se_ordering(capsys, default_run):
    """Varied path loss, mean sum-SE: the adapted ridge beats both scalar
    ridges by two standard errors up to 24 dB, the searched ridge is never
    below it, and the scalar ridge envelopes matched and zero-forcing."""
    _check(capsys, 7, "sum-SE ordering, varied path loss", check_sum_se_ordering(
        default_run[0], levels=(0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0), min_t=2.0))


def test_08_equal_pathloss_agreement(capsys, equal_run):
    """Equal path loss: the gain-adapted and inverse-gain scalar ridges
    agree on mean sum-SE within 2% relative at every grid level."""
    _check(capsys, 8, "equal-path-loss agreement", check_equal_agreement(equal_run, tol=0.02))


def test_09_min_se_tradeoff(capsys, default_run):
    """Varied path loss up to 12 dB: the adapted ridge trades the weakest
    user away, so its mean min-SE does not exceed the scalar ridge's."""
    _check(capsys, 9, "min-SE trade-off direction",
           check_min_se_tradeoff(default_run[0], levels=(0.0, 4.0, 8.0, 12.0)))


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
    _check(capsys, 10, "CSV determinism", CheckResult(
        "csv_determinism", ok, (),
        f"two executions, {len(outs[0])} CSV bytes each: {'identical' if ok else 'DIFFER'}"))
