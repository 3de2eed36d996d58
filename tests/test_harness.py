import json

import numpy as np
import pytest

import precodesim.harness as harness
from precodesim.channel import decompose, generate_scenario
from precodesim.exceptions import ConfigError, SelectionError
from precodesim.harness import (
    CSV_HEADER,
    METHODS,
    SweepConfig,
    emit_csv,
    emit_plotdata,
    evaluate_point,
    format_csv,
    run_sweep,
)


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
        for power in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="power"):
                SweepConfig(power=power)

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
            assert rep.detection == "mmse"

    def test_opt_at_least_adapted_ridge(self):
        cfg = tiny_sweep()
        ch = generate_scenario(cfg.scenario_config(1))
        dec = decompose(ch)
        reps = evaluate_point(ch, dec, 1.0, 16.0, ("arzf", "opt"))
        assert reps["opt"].sum_se >= reps["arzf"].sum_se - 1e-12


class TestRunSweep:
    def test_rows_cover_grid_and_methods(self):
        res = run_sweep(tiny_sweep())
        assert len(res.rows) == 2 * 3
        assert res.failures == ()
        for row in res.rows:
            assert row.seeds == 3
            assert row.detection == "mmse"
            assert row.se_std >= 0

    def test_row_lookup(self):
        res = run_sweep(tiny_sweep())
        row = res.row(12.0, "arzf")
        assert row.method == "arzf"
        with pytest.raises(KeyError):
            res.row(99.0, "arzf")

    def test_deterministic(self):
        a = format_csv(run_sweep(tiny_sweep()))
        b = format_csv(run_sweep(tiny_sweep()))
        assert a == b

    def test_seed_base_changes_results(self):
        a = run_sweep(tiny_sweep())
        b = run_sweep(tiny_sweep(seed_base=50))
        assert a.row(0.0, "arzf").avg_sum_se != b.row(0.0, "arzf").avg_sum_se

    def test_failed_seed_recorded_and_dropped(self, monkeypatch):
        real = harness.generate_scenario
        calls = {"n": 0}

        def flaky(cfg):
            calls["n"] += 1
            if calls["n"] == 2:
                raise SelectionError("synthetic failure")
            return real(cfg)

        monkeypatch.setattr(harness, "generate_scenario", flaky)
        res = run_sweep(tiny_sweep())
        assert len(res.failures) == 1
        assert res.failures[0][0] == 1
        assert "synthetic failure" in res.failures[0][1]
        assert all(row.seeds == 2 for row in res.rows)

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
        assert cells[8] == "mmse"
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
        assert doc["series"]["arzf"]["avg_sum_se"][1] == res.row(12.0, "arzf").avg_sum_se


class TestOrderingSanity:
    def test_ridge_beats_matched_at_high_snr(self):
        # interference-limited regime: any inversion beats pure
        # matching by a wide margin
        res = run_sweep(tiny_sweep(susinr_db=(24.0,), num_seeds=3))
        assert res.row(24.0, "zf_v").avg_sum_se > res.row(24.0, "mrt").avg_sum_se

    def test_sum_se_grows_with_susinr(self):
        res = run_sweep(tiny_sweep(susinr_db=(0.0, 12.0), num_seeds=3))
        assert res.row(12.0, "arzf").avg_sum_se > res.row(0.0, "arzf").avg_sum_se
