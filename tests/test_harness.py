import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import precodesim.harness as harness
import precodesim.metrics as metrics
import precodesim.optimizer as optimizer
from precodesim.channel import (
    MIN_SUSINR_DB, ScenarioConfig, calibrate_noise, decompose, generate_scenario)
from precodesim.detection import mmse_detection
from precodesim.exceptions import ConfigError, PrecodesimError, SelectionError
from precodesim.harness import (
    CSV_HEADER,
    METHODS,
    SweepConfig,
    emit_csv,
    emit_plotdata,
    format_csv,
    run_sweep,
)
from precodesim.metrics import report
from precodesim.precoding import CLOSED_FORMS
from helpers import BUILDERS, evaluate_point, row


def fail_scoring(monkeypatch, faults):
    """Make the members that the harness scores under the noise variances
    ``faults`` fail: ``"signal"`` clears their :func:`sinr_terms` ``ok``,
    ``"zero"`` zeroes a layer SINR, so that ``require_positive`` or
    ``effective_sinr`` raises its ZeroSinrError.  The search's kernel is
    untouched."""
    real = metrics.mmse_sinr_stack

    def kernel(groups, w, noise_var):
        sinrs, stages, ok = real(groups, w, noise_var)
        noise = np.broadcast_to(np.ravel(noise_var), len(w))
        for nv, kind in faults.items():
            if kind == "signal":
                ok = ok & (noise != nv)
            else:
                sinrs[noise == nv, 0] = 0.0
        return sinrs, stages, ok

    monkeypatch.setattr(metrics, "mmse_sinr_stack", kernel)


def first_failures(cfg):
    """Each seed's first failure in level order when every point is built
    and scored alone, as ``(seed, message)``."""
    out = []
    for seed in range(cfg.seed_base, cfg.seed_base + cfg.num_seeds):
        ch = generate_scenario(cfg.scenario_config(seed))
        dec = decompose(ch)
        for su in cfg.susinr_db:
            try:
                evaluate_point(ch, dec, cfg.power, su, cfg.methods)
            except PrecodesimError as exc:
                out.append((seed, f"{type(exc).__name__}: {exc}"))
                break
    return tuple(out)


def tiny_sweep(**kw):
    base = dict(
        scenario="varied",
        susinr_db=(0.0, 12.0),
        num_seeds=3,
        num_tx=16,
        num_users=3,
        rx_per_user=8,
        layers_per_user=2,
        methods=("mrt", "zf_v", "arzf"),
    )
    base.update(kw)
    return SweepConfig(**base)


class TestSweepConfig:
    def test_defaults(self):
        cfg = SweepConfig()
        assert cfg.methods == tuple(METHODS)
        assert cfg.scenario == "varied"
        assert len(cfg.susinr_db) == 11
        assert cfg.susinr_db[-1] == 40.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            SweepConfig(scenario="urban")
        with pytest.raises(ConfigError):
            SweepConfig(susinr_db=())
        with pytest.raises(ConfigError):
            SweepConfig(methods=("mrt", "dirty"))
        with pytest.raises(ConfigError):
            SweepConfig(num_seeds=0)
        with pytest.raises(ConfigError, match="seed_base"):
            SweepConfig(seed_base=-5)
        for kw in ({"num_seeds": 2.5}, {"num_seeds": True}, {"seed_base": 0.5},
                   {"seed_base": False}, {"methods": ("arzf", "arzf")},
                   {"susinr_db": (0.0, 0.0)}, {"susinr_db": (0, 0.0)}):
            with pytest.raises(ConfigError, match=next(iter(kw))):
                SweepConfig(**kw)
        # a text or a scalar where a sequence belongs; "arzf" used to read as
        # the methods a, r, z and f, and 5.0 raised a TypeError
        for kw in ({"methods": "arzf"}, {"methods": np.str_("mrt")}, {"susinr_db": 5.0},
                   {"susinr_db": np.array(5.0)}, {"susinr_db": "0,10"},
                   {"susinr_db": np.zeros((1, 2))}):
            with pytest.raises(ConfigError, match=f"{next(iter(kw))} must be a sequence"):
                SweepConfig(**kw)
        # a set or a dict has no order of its own: a set of strings gave a
        # CSV row order that depended on the hash seed
        for kw in ({"methods": {"mrt", "arzf", "zf_v"}}, {"methods": dict.fromkeys(("mrt",))},
                   {"susinr_db": {0.0, 10.0}}, {"susinr_db": {0.0: 1}}):
            with pytest.raises(ConfigError, match=f"{next(iter(kw))} must be a sequence"):
                SweepConfig(**kw)
        assert SweepConfig(methods=["arzf", "mrt"], susinr_db=np.array([0, 10])).methods == (
            "arzf", "mrt")
        assert SweepConfig(num_seeds=np.int64(2), seed_base=np.int32(3)).num_seeds == 2
        # a non-finite level fails here, naming itself, not in calibrate_noise
        for level in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match=f"susinr_db level {level} dB is not finite"):
                SweepConfig(susinr_db=(0.0, float(level)))
        for power in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="power"):
                SweepConfig(power=power)
        # a level below the floor fails here, naming itself, before any seed
        # is drawn and decomposed
        for grid in ((-2000.0,), (0.0, -1500.5)):
            with pytest.raises(ConfigError, match=f"susinr_db level {grid[-1]:g} dB is below"):
                SweepConfig(susinr_db=grid)
        assert SweepConfig(susinr_db=(MIN_SUSINR_DB,)).susinr_db == (MIN_SUSINR_DB,)

    @pytest.mark.parametrize("make, field, value", [
        (ScenarioConfig, "path_loss_range_db", (0, 1, 2)),
        (ScenarioConfig, "path_loss_range_db", 5.0),
        (ScenarioConfig, "path_loss_range_db", np.array(5.0)),
        (ScenarioConfig, "path_loss_range_db", ("-10", 10.0)),
        (ScenarioConfig, "path_loss_range_db", (-10.0, True)),
        (ScenarioConfig, "corr_threshold", "0.3"),
        (ScenarioConfig, "corr_threshold", True),
        (ScenarioConfig, "corr_threshold", np.bool_(True)),
        (SweepConfig, "power", True),
        (SweepConfig, "power", "1"),
        (SweepConfig, "power", 1j),
        (SweepConfig, "susinr_db", ("a",)),
        (SweepConfig, "susinr_db", (0.0, True)),
        (SweepConfig, "opt", None),
        (SweepConfig, "opt", {}),
        # integers past the float range
        (ScenarioConfig, "path_loss_range_db", (0, 10**400)),
        (SweepConfig, "power", 10**400),
        (SweepConfig, "susinr_db", (0.0, -10**400)),
    ])
    def test_wrong_types_fail_at_the_boundary(self, make, field, value):
        # each used to raise a bare TypeError, ValueError or OverflowError, or
        # was accepted
        with pytest.raises(ConfigError, match=field):
            make(**{field: value})

    @pytest.mark.parametrize("kw, message", [
        ({"num_users": 40}, "total layers 80 exceed num_tx 64"),
        ({"num_tx": 0}, r"min\(rx_per_user, num_tx\)=0"),
        ({"layers_per_user": 20}, "cannot support 20 layers per user"),
        ({"num_tx": 64.5}, "num_tx must be an integer"),
        ({"scenario": "urban"}, "path_loss must be 'equal' or 'varied', got 'urban'"),
    ])
    def test_generator_checks_run_at_construction(self, monkeypatch, kw, message):
        # each size used to construct, then fail every seed when it was drawn
        monkeypatch.setattr(harness, "generate_scenario", None)
        with pytest.raises(ConfigError, match=message):
            SweepConfig(**kw)

    def test_numpy_scalars_pass(self):
        assert ScenarioConfig(corr_threshold=np.float32(0.5),
                              path_loss_range_db=np.array([-3.0, 3.0])).corr_threshold == 0.5
        cfg = SweepConfig(power=np.float64(2.0), susinr_db=(np.int64(0), np.float32(10.0)))
        assert cfg.power == 2.0 and cfg.susinr_db == (0.0, 10.0)

    def test_scenario_config_seed(self):
        cfg = tiny_sweep()
        sc = cfg.scenario_config(7)
        assert sc.seed == 7
        assert sc.path_loss == "varied"
        assert sc.num_tx == 16


class TestEvaluatePoint:
    def test_reports_all_methods(self):
        cfg = tiny_sweep()
        ch = generate_scenario(cfg.scenario_config(0))
        dec = decompose(ch)
        reps = evaluate_point(ch, dec, 1.0, 12.0, ("mrt", "arzf", "opt"))
        assert set(reps) == {"mrt", "arzf", "opt"}
        for rep in reps.values():
            assert rep.sum_se > 0

    def test_reports_equal_detection_then_report(self):
        # the stacked build and batched MMSE pass of a point give each
        # method's public build and report(mmse_detection(...)) bit for bit
        cfg = tiny_sweep(num_tx=64, num_users=4, rx_per_user=16)
        for seed in (0, 1):
            ch = generate_scenario(cfg.scenario_config(seed))
            dec = decompose(ch)
            for su in (0.0, 20.0, 40.0):
                nv = calibrate_noise(dec, 1.0, su)
                reps = evaluate_point(ch, dec, 1.0, su, METHODS)
                assert tuple(reps) == METHODS
                for token, rep in reps.items():
                    if token == "opt":
                        pre = optimizer.optimize(dec, ch, 1.0, nv).precoder
                    else:
                        pre = BUILDERS[token](dec, 1.0, nv)
                    ref = report(ch, pre, mmse_detection(ch, pre, nv), nv)
                    for name in ("layer_sinr", "eff_sinr", "user_se"):
                        assert getattr(rep, name).tobytes() == getattr(ref, name).tobytes()
                    assert (rep.sum_se, rep.min_se) == (ref.sum_se, ref.min_se)

    def test_opt_at_least_adapted_ridge(self):
        cfg = tiny_sweep()
        ch = generate_scenario(cfg.scenario_config(1))
        dec = decompose(ch)
        reps = evaluate_point(ch, dec, 1.0, 16.0, ("arzf", "opt"))
        assert reps["opt"].sum_se >= reps["arzf"].sum_se - 1e-12


class TestRunSweep:
    def test_deterministic(self):
        a = format_csv(run_sweep(tiny_sweep()))
        b = format_csv(run_sweep(tiny_sweep()))
        assert a == b

    def test_seed_base_changes_results(self):
        a = run_sweep(tiny_sweep())
        b = run_sweep(tiny_sweep(seed_base=50))
        assert row(a, 0.0, "arzf").avg_sum_se != row(b, 0.0, "arzf").avg_sum_se

    @pytest.mark.parametrize("fail, methods", [
        ("scenario", ("mrt", "zf_v", "arzf")),
        ("search", ("arzf", "opt")),
        (None, ("opt", "mrt", "zf_f")),
    ])
    def test_values_hold_each_kept_seed_in_config_order(self, monkeypatch, fail, methods):
        # seed 1's draw fails, or its first search starts where the kernel
        # cannot evaluate, or nothing fails; the rows are the means and stds
        # of the values cells bit for bit, and the kept seeds' cells are those
        # of the sweep without the failure
        real_scenario, real_start, starts = harness.generate_scenario, optimizer.default_start, []

        def scenario(sc):
            if fail == "scenario" and sc.seed == 1:
                raise SelectionError("synthetic failure")
            return real_scenario(sc)

        def start(*args):
            starts.append(real_start(*args))
            return starts[-1] * np.inf if fail == "search" and len(starts) == 4 else starts[-1]

        monkeypatch.setattr(harness, "generate_scenario", scenario)
        monkeypatch.setattr(optimizer, "default_start", start)
        cfg, seen = tiny_sweep(methods=methods, susinr_db=(0.0, 20.0, 40.0)), []
        res = run_sweep(cfg, progress=lambda d, t: seen.append(d))
        kept = [0, 2] if fail else [0, 1, 2]
        assert seen == [1, 2, 3]
        assert res.failures == {
            "scenario": ((1, "SelectionError: synthetic failure"),),
            "search": ((1, "NumericalError: objective undefined at the starting ridge"),),
            None: ()}[fail]
        assert res.values.shape == (3, len(methods), 2, len(kept))
        # level-major, methods in config order: emit_plotdata reads them so
        assert [(r.susinr_db, r.method) for r in res.rows] == [
            (su, m) for su in cfg.susinr_db for m in methods]
        for row in res.rows:
            cell = res.values[cfg.susinr_db.index(row.susinr_db), methods.index(row.method)]
            assert (row.avg_sum_se, row.se_std, row.avg_min_se, row.min_se_std, row.seeds) == (
                np.mean(cell[0]), np.std(cell[0], ddof=1), np.mean(cell[1]),
                np.std(cell[1], ddof=1), len(kept))
        monkeypatch.undo()
        assert fail is None or np.array_equal(res.values, run_sweep(cfg).values[..., kept])

    def test_all_seeds_failed_raises(self, monkeypatch):
        def broken(cfg):
            raise SelectionError("nope")

        monkeypatch.setattr(harness, "generate_scenario", broken)
        with pytest.raises(SelectionError):
            run_sweep(tiny_sweep())

    def test_progress_callback(self):
        seen = []
        run_sweep(tiny_sweep(num_seeds=2), progress=lambda d, t: seen.append((d, t)))
        assert seen == [(1, 2), (2, 2)]

    def test_progress_callback_with_search(self):
        # a seed counts as done when its last search ends
        seen = []
        run_sweep(tiny_sweep(num_seeds=2, methods=("arzf", "opt")),
                  progress=lambda d, t: seen.append((d, t)))
        assert seen == [(1, 2), (2, 2)]

    def test_searched_sweep_equals_point_loop(self):
        # all searches of the sweep run in one batch; each must score as it
        # does alone, so each seed's values are those of its evaluate_point calls
        cfg = tiny_sweep(num_seeds=3, methods=("mrt", "opt", "arzf"), susinr_db=(0.0, 12.0, 30.0))
        want = np.empty((3, 3, 2, 3))
        for seed in range(3):
            ch = generate_scenario(cfg.scenario_config(seed))
            dec = decompose(ch)
            for k, su in enumerate(cfg.susinr_db):
                reps = evaluate_point(ch, dec, 1.0, su, cfg.methods)
                want[k, ..., seed] = [(reps[m].sum_se, reps[m].min_se) for m in cfg.methods]
        assert np.array_equal(run_sweep(cfg).values, want)

    @pytest.mark.parametrize("scenario, grid", [
        ("varied", (0.0, 20.0, 40.0)), ("equal", (0.0, 20.0, 40.0)),
        ("varied", SweepConfig().susinr_db), ("equal", SweepConfig().susinr_db),
    ], ids=["varied", "equal", "varied-11levels", "equal-11levels"])
    def test_closed_forms_equal_public_build_then_report(self, scenario, grid):
        # the sweep builds and scores a seed's closed forms as stacks of whole
        # levels; each seed's values are those rebuilt method by method and
        # level by level through the public builders and report(mmse_detection(...)).
        # The 11-level grid crosses the stack bound and ends in a partly full
        # stack.
        if len(grid) > harness._LEVELS:
            assert len(grid) % harness._LEVELS
        cfg = SweepConfig(scenario=scenario, susinr_db=grid, num_seeds=2, methods=CLOSED_FORMS)
        want = np.empty((len(grid), len(CLOSED_FORMS), 2, 2))
        for seed in range(2):
            ch = generate_scenario(cfg.scenario_config(seed))
            dec = decompose(ch)
            for k, su in enumerate(cfg.susinr_db):
                nv = calibrate_noise(dec, 1.0, su)
                for c, m in enumerate(cfg.methods):
                    pre = BUILDERS[m](dec, 1.0, nv)
                    rep = report(ch, pre, mmse_detection(ch, pre, nv), nv)
                    want[k, c, :, seed] = rep.sum_se, rep.min_se
        assert np.array_equal(run_sweep(cfg).values, want)

    @pytest.mark.parametrize("scenario", ["varied", "equal"])
    def test_path_factor_rows_match_the_svd(self, monkeypatch, scenario):
        # generated scenes are decomposed from their path factors; a --skip-opt
        # sweep whose scenes carry none, so that each is decomposed by SVD,
        # gives the same rows to rounding
        cfg = SweepConfig(scenario=scenario, methods=CLOSED_FORMS)
        got = run_sweep(cfg)
        real = harness.generate_scenario
        monkeypatch.setattr(harness, "generate_scenario", lambda c: replace(real(c)))
        want = run_sweep(cfg)
        assert len(got.rows) == len(want.rows) == 11 * 7
        for g, w in zip(got.rows, want.rows):
            assert (g.susinr_db, g.method, g.seeds, w.seeds) == (w.susinr_db, w.method, 40, 40)
            for f in ("avg_sum_se", "se_std", "avg_min_se", "min_se_std"):
                assert abs(getattr(g, f) - getattr(w, f)) <= 1e-12 * abs(getattr(w, f))

    def test_failing_level_inside_a_stack_fails_as_alone(self, monkeypatch):
        # seed 1 fails at two levels of one stack: the first zeroes a layer
        # SINR, the second clears a signal, whose check runs first in a
        # stacked pass; the seed must record the first level's error, as
        # when each point is built and scored alone
        cfg = SweepConfig(num_seeds=3, methods=CLOSED_FORMS)
        assert 5 // harness._LEVELS == 6 // harness._LEVELS
        nv = calibrate_noise(decompose(generate_scenario(cfg.scenario_config(1))), 1.0,
                             cfg.susinr_db)
        fail_scoring(monkeypatch, {nv[5]: "zero", nv[6]: "signal"})
        want = first_failures(cfg)
        assert want == ((1, "ZeroSinrError: nonpositive SINR cannot enter a geometric mean"),)
        res = run_sweep(cfg)
        assert res.failures == want
        monkeypatch.undo()
        assert np.array_equal(res.values, run_sweep(cfg).values[..., [0, 2]])

    @pytest.mark.parametrize("search_fails_at, message", [
        (2, "ZeroSinrError: nonpositive SINR cannot enter a geometric mean"),
        (0, "NumericalError: objective undefined at the starting ridge"),
    ])
    def test_searched_seed_records_first_failing_level(self, monkeypatch, search_fails_at,
                                                        message):
        # a seed's searched precoders are scored in one pass; seed 1 scores a
        # zero SINR at level 1, a cleared signal at level 2 and one failed
        # search, and records whichever comes first in level order
        cfg = tiny_sweep(methods=("opt",), susinr_db=(0.0, 12.0, 24.0))
        nv = calibrate_noise(decompose(generate_scenario(cfg.scenario_config(1))), 1.0,
                             cfg.susinr_db)
        fail_scoring(monkeypatch, {nv[1]: "zero", nv[2]: "signal"})
        real = optimizer.default_start
        monkeypatch.setattr(optimizer, "default_start", lambda d, p, v: real(d, p, v) * (
            np.inf if v == nv[search_fails_at] else 1.0))
        res = run_sweep(cfg)
        assert res.failures == ((1, message),)
        assert all(row.seeds == 2 for row in res.rows)

    def test_search_failure_before_a_later_closed_form_failure(self, monkeypatch):
        # seed 1's search fails at level 0 and its arzf scores a zero SINR at
        # level 2; the seed records level 0's search error, as when each
        # point is built, searched and scored alone
        cfg = tiny_sweep(methods=("arzf", "opt"), susinr_db=(0.0, 12.0, 24.0))
        nv = calibrate_noise(decompose(generate_scenario(cfg.scenario_config(1))), 1.0,
                             cfg.susinr_db)
        fail_scoring(monkeypatch, {nv[2]: "zero"})
        real = optimizer.default_start
        monkeypatch.setattr(optimizer, "default_start", lambda d, p, v: real(d, p, v) * (
            np.inf if v == nv[0] else 1.0))
        want = first_failures(cfg)
        assert want == ((1, "NumericalError: objective undefined at the starting ridge"),)
        res = run_sweep(cfg)
        assert res.failures == want
        assert all(row.seeds == 2 for row in res.rows)

    def test_closed_stacks_bound_peak_memory(self, monkeypatch):
        # one seed's 7 closed forms at 11 levels: stacks of 4 levels peaked
        # at 1.02 MB traced (numpy 2.4, default scale), about 0.2 MB per level
        # of a stack, and one stack of all 11 levels at 2.45 MB
        cfg = SweepConfig(num_seeds=1, methods=CLOSED_FORMS)
        run_sweep(cfg)

        def peak():
            tracemalloc.start()
            try:
                run_sweep(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        bound = 1.2e6
        assert peak() < bound
        monkeypatch.setattr(harness, "_LEVELS", len(cfg.susinr_db))
        assert peak() > bound


class TestEmit:
    def test_csv_format(self, tmp_path):
        res = run_sweep(tiny_sweep(num_seeds=2))
        p = tmp_path / "out.csv"
        emit_csv(p, res)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(res.rows)
        cells = lines[1].split(",")
        assert cells[0] == "varied"
        assert cells[2] in ("mrt", "zf_v", "arzf")
        assert cells[7] == "2"
        assert all(line.endswith(",mmse") for line in lines[1:])
        float(cells[3])

    def test_csv_byte_identical(self, tmp_path):
        cfg = tiny_sweep(num_seeds=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(p1, run_sweep(cfg))
        emit_csv(p2, run_sweep(cfg))
        assert p1.read_bytes() == p2.read_bytes()

    def test_plotdata(self, tmp_path):
        res = run_sweep(tiny_sweep(num_seeds=2))
        p = tmp_path / "plot.json"
        emit_plotdata(p, res)
        doc = json.loads(p.read_text())
        assert doc["scenario"] == "varied"
        assert doc["susinr_db"] == [0.0, 12.0]
        assert doc["seeds"] == 2
        assert set(doc["series"]) == {"mrt", "zf_v", "arzf"}
        s = doc["series"]["arzf"]
        assert len(s["avg_sum_se"]) == 2
        assert len(s["min_se_std"]) == 2
        assert doc["failures"] == []

    def test_plotdata_matches_rows(self, tmp_path):
        res = run_sweep(tiny_sweep(num_seeds=2))
        p = tmp_path / "plot.json"
        emit_plotdata(p, res)
        doc = json.loads(p.read_text())
        for r in res.rows:
            at = doc["susinr_db"].index(r.susinr_db)
            for key in ("avg_sum_se", "se_std", "avg_min_se", "min_se_std"):
                assert doc["series"][r.method][key][at] == getattr(r, key)


class TestOrderingSanity:
    def test_ridge_beats_matched_at_high_snr(self):
        # interference-limited regime: any inversion beats pure
        # matching by a wide margin
        res = run_sweep(tiny_sweep(susinr_db=(24.0,), num_seeds=3))
        assert row(res, 24.0, "zf_v").avg_sum_se > row(res, 24.0, "mrt").avg_sum_se

    def test_sum_se_grows_with_susinr(self):
        res = run_sweep(tiny_sweep(susinr_db=(0.0, 12.0), num_seeds=3))
        assert row(res, 12.0, "arzf").avg_sum_se > row(res, 0.0, "arzf").avg_sum_se
