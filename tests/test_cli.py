import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import precodesim.cli as cli
from precodesim.channel import MIN_SUSINR_DB
from precodesim.cli import MAX_SUSINR_LEVELS, main, parse_susinr
from precodesim.exceptions import ConfigError
from precodesim.harness import METHODS, SweepConfig, SweepResult, SweepRow
from precodesim.verification import (
    CheckResult, check_equal_agreement, check_min_se_tradeoff, check_search_gain,
    check_sum_se_ordering)
from helpers import run_child

class TestParseSusinr:
    def test_range(self):
        assert parse_susinr("0:32:4") == (0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 32.0)

    def test_range_fractional(self):
        assert parse_susinr("0:1:0.5") == (0.0, 0.5, 1.0)

    def test_range_equals_its_comma_list(self):
        # the range form used to label 0.3 as 0.30000000000000004; each
        # level now has the bits of its decimal text
        assert parse_susinr("0:1:0.1") == parse_susinr("0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1")
        assert parse_susinr("0:0.3:0.1") == (0.0, 0.1, 0.2, 0.3)
        assert parse_susinr("-1.5:0.3:0.6") == (-1.5, -0.9, -0.3, 0.3)
        assert parse_susinr("1e-3:3e-3:1e-3") == (0.001, 0.002, 0.003)
        assert parse_susinr("0:1:0.3") == (0.0, 0.3, 0.6, 0.9)
        # the default grid keeps the bits of start + i * step
        assert np.array(parse_susinr("0:40:4")).tobytes() == \
            np.array([0.0 + i * 4.0 for i in range(11)]).tobytes()

    def test_list(self):
        assert parse_susinr("0,8, 16") == (0.0, 8.0, 16.0)
        assert parse_susinr([0, 8.5]) == (0.0, 8.5)

    def test_single(self):
        assert parse_susinr("12") == (12.0,)

    def test_bad_specs(self):
        # "0:200000:1" is over the level limit yet small enough to build;
        # comma text and a JSON list meet the same limit
        too_many = ["0"] * (MAX_SUSINR_LEVELS + 1)
        for spec in ("0:32", "32:0:4", "0:32:-4", "nan", "0:inf:4", "4,-inf", "0:200000:1",
                     ",".join(too_many), [0] * len(too_many), [float("nan")], ["8"], [True], 5):
            with pytest.raises((TypeError, ValueError)):
                parse_susinr(spec)
        assert len(parse_susinr(",".join(too_many[1:]))) == MAX_SUSINR_LEVELS


def run_args(tmp_path, extra):
    csv = tmp_path / "out.csv"
    args = [
        "run", "--scenario", "equal", "--susinr", "8", "--seeds", "2",
        "--methods", "mrt,arzf", "--quiet", "--out", str(csv),
    ] + extra
    return args, csv


class TestRunCommand:
    def test_basic_run(self, tmp_path, capsys):
        args, csv = run_args(tmp_path, [])
        assert main(args) == 0
        lines = csv.read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("scenario,susinr_db,method")

    def test_stdout_when_no_csv_path(self, capsys):
        code = main([
            "run", "--scenario", "equal", "--susinr", "8", "--seeds", "1",
            "--methods", "mrt", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("scenario,susinr_db,method")
        assert ",mrt," in out

    def test_skip_opt(self, tmp_path):
        args, csv = run_args(tmp_path, ["--skip-opt"])
        idx = args.index("mrt,arzf")
        args[idx] = "mrt,opt"
        assert main(args) == 0
        body = csv.read_text()
        assert ",mrt," in body
        assert ",opt," not in body

    def test_plotdata_output(self, tmp_path):
        args, csv = run_args(tmp_path, ["--plotdata", str(tmp_path / "p.json")])
        assert main(args) == 0
        doc = json.loads((tmp_path / "p.json").read_text())
        assert doc["scenario"] == "equal"

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": "equal",
            "susinr": "8",
            "seeds": 1,
            "methods": ["mrt"],
            "out": str(tmp_path / "from_config.csv"),
        }))
        assert main(["run", "--config", str(cfg), "--quiet"]) == 0
        assert (tmp_path / "from_config.csv").exists()

    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "varied", "susinr": "8", "seeds": 1,
                                   "methods": ["mrt"]}))
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--scenario", "equal",
                     "--out", str(out), "--quiet"]) == 0
        assert out.read_text().split("\n")[1].startswith("equal,")

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"snr": "8"}))
        assert main(["run", "--config", str(cfg), "--quiet"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("methods", 5), ("susinr", 5), pytest.param("susinr", [float("nan")], id="susinr-[nan]"),
        ("seeds", 2.7), ("seeds", True), ("skip_opt", "false"), ("out", 7), ("seed_base", 0.5),
        pytest.param("methods", ["arzf", "arzf"], id="methods-repeated"),
        pytest.param("susinr", [0, 0.0], id="susinr-repeated"),
    ])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"susinr": "8", "seeds": 1, "methods": ["mrt"], key: value}))
        assert main(["run", "--config", str(cfg), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    def test_bad_method_exits_2(self, tmp_path, capsys):
        args, _ = run_args(tmp_path, [])
        idx = args.index("mrt,arzf")
        args[idx] = "mrt,bogus"
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--methods", "opt", "--skip-opt"], ["--methods", ","]])
    def test_empty_method_list_exits_2(self, tmp_path, capsys, extra):
        args, _ = run_args(tmp_path, extra)
        assert main(args) == 2
        assert capsys.readouterr().err == "error: methods must be nonempty\n"

    @pytest.mark.parametrize("flag", [
        "--susinr=4000", "--susinr=-4000", "--susinr=-inf", "--susinr=nan",
        "--susinr=-1700", "--susinr=-3000",
        "--power=nan", "--power=inf", "--power=0", "--seed-base=-5", "--seeds=2.7",
        "--seed-base=0.5", "--susinr=0,0", "--methods=arzf,mrt,arzf",
    ])
    def test_bad_numeric_input_exits_2(self, tmp_path, capsys, flag):
        args, _ = run_args(tmp_path, [flag])
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("db", [7000.0, -7000.0])
    def test_path_loss_beyond_float_range_exits_2(self, tmp_path, capsys, monkeypatch, db):
        real = SweepConfig.scenario_config
        monkeypatch.setattr(SweepConfig, "scenario_config", lambda self, seed: replace(
            real(self, seed), path_loss_range_db=(db, db)))
        args, out = run_args(tmp_path, ["--scenario", "varied"])
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "path_loss_range_db" in err
        assert not out.exists()

    def test_level_below_floor_fails_before_any_seed(self, tmp_path, capsys):
        # the level floor is checked when the sweep is configured, so no seed
        # is drawn, decomposed or reported
        out = tmp_path / "floor.csv"
        assert main(["run", "--susinr=-2000", "--seeds", "3", "--methods", "mrt",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "susinr_db level -2000 dB" in err
        assert "seed " not in err and not out.exists()

    def test_levels_beyond_200_db_run(self, tmp_path):
        # the MMSE system is L x L, so it stays solvable at 1e-100 noise
        out = tmp_path / "high.csv"
        assert main(["run", "--susinr=200,300,1000", "--seeds", "2", "--methods",
                     "mrt,arzf,opt", "--quiet", "--out", str(out)]) == 0
        rows = {(r["susinr_db"], r["method"]): r for r in csv.DictReader(out.open())}
        assert len(rows) == 9
        assert all(math.isfinite(float(r["avg_sum_se"])) for r in rows.values())
        for level in ("200", "300", "1000"):
            assert float(rows[(level, "opt")]["avg_sum_se"]) >= float(rows[(level, "arzf")]["avg_sum_se"])

    def test_underflowing_layer_sinr_exits_2(self, tmp_path, capsys, monkeypatch):
        # a 6000 dB path-loss spread underflows the weak users' detected
        # signal and interference to 0 at the lowest level, which must fail
        # the seed instead of writing a 0/0 row
        real = SweepConfig.scenario_config
        monkeypatch.setattr(SweepConfig, "scenario_config", lambda self, seed: replace(
            real(self, seed), path_loss_range_db=(-3000.0, 3000.0)))
        out = tmp_path / "low.csv"
        assert main(["run", "--scenario", "varied", "--susinr", f"{MIN_SUSINR_DB:g}",
                     "--seeds", "2", "--methods", "mrt", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "ZeroSinrError" in err
        assert not out.exists() or "nan" not in out.read_text()

    def test_lowest_level_runs_without_warnings(self, tmp_path):
        out = tmp_path / "lowest.csv"
        proc = run_child(["-W", "error::RuntimeWarning", "-m", "precodesim", "run",
                          "--susinr", f"{MIN_SUSINR_DB:g}", "--seeds", "2", "--quiet",
                          "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(out.open()))
        assert [r["method"] for r in rows] == list(METHODS)
        for r in rows:
            assert r["seeds"] == "2"
            assert 0.0 < float(r["avg_min_se"]) <= float(r["avg_sum_se"]) < math.inf

    def test_csv_independent_of_blas_threads(self):
        args = ["-m", "precodesim", "run", "--methods", "arzf,opt", "--susinr", "0,20,40",
                "--seeds", "2", "--quiet"]
        outs = []
        for threads in ("1", "2"):
            proc = run_child(args, OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0].count("\n") == 7
        assert outs[0] == outs[1]

    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/nonexistent/x.json", "--quiet"]) == 2

    def test_progress_on_stderr(self, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        assert main([
            "run", "--scenario", "equal", "--susinr", "8", "--seeds", "2",
            "--methods", "mrt", "--out", str(csv),
        ]) == 0
        err = capsys.readouterr().err
        assert "seed 1/2" in err and "seed 2/2" in err


@pytest.fixture
def swept(monkeypatch):
    """The configs ``main`` hands to ``run_sweep``, which is replaced by a
    stub that returns one placeholder row per level and method."""
    configs = []

    def fake_sweep(config, progress=None):
        configs.append(config)
        rows = tuple(SweepRow(config.scenario, su, m, 1.0, 0.0, 1.0, 0.0, 1)
                     for su in config.susinr_db for m in config.methods)
        return SweepResult(rows=rows, failures=(), config=config)

    monkeypatch.setattr(cli, "run_sweep", fake_sweep)
    return configs


# a value for every run option, as flag text, and the config it builds
OPTION_SAMPLES = {
    "scenario": ("equal", {"scenario": "equal"}),
    "susinr": ("0:0.3:0.1", {"susinr_db": (0.0, 0.1, 0.2, 0.3)}),
    "seeds": ("3", {"num_seeds": 3}),
    "seed_base": ("7", {"seed_base": 7}),
    "power": ("2.5", {"power": 2.5}),
    "methods": ("arzf,opt,mrt", {"methods": ("arzf", "opt", "mrt")}),
    "skip_opt": (True, {"methods": METHODS[:-1]}),
    "out": ("out.csv", {}),
    "plotdata": ("plot.json", {}),
}


class TestRunOptions:
    def test_no_option_takes_the_sweep_defaults(self, swept, capsys):
        assert main(["run"]) == 0
        assert swept == [SweepConfig()]
        rows = len(SweepConfig().susinr_db) * len(METHODS)
        assert capsys.readouterr().out.count("\n") == 1 + rows

    def test_samples_cover_every_option(self):
        assert set(OPTION_SAMPLES) == set(cli._RUN_OPTIONS)

    @pytest.mark.parametrize("key", OPTION_SAMPLES)
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_every_option_as_flag_and_config_key(self, swept, tmp_path, monkeypatch, capsys,
                                                 key, form):
        monkeypatch.chdir(tmp_path)
        value, fields = OPTION_SAMPLES[key]
        flag = "--" + key.replace("_", "-")
        if form == "flag":
            argv = [flag] if value is True else [flag, value]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
            argv = ["--config", "cfg.json"]
        assert main(["run", "--quiet", *argv]) == 0, capsys.readouterr().err
        assert swept == [replace(SweepConfig(), **fields)]
        if not fields:
            assert (tmp_path / value).exists()


class TestRuntimeDependencies:
    def test_cli_import_loads_no_scipy(self):
        # nor decimal, which only a start:stop:step grid imports
        proc = run_child(["-c", "import sys, precodesim.cli; "
                                "assert not {'scipy', 'decimal'} & set(sys.modules)"])
        assert proc.returncode == 0, proc.stderr


class TestVerifyCommand:
    def test_quick_verify_passes(self, capsys):
        # the suite's one quick verify: every check, in order, with a reading
        assert main(["verify", "--quick"]) == 0
        *lines, total = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"PASS {name}" for name in (
            "identities", "stationarity", "asymptotics", "noise_shaping", "gradient_consistency",
            "search_gain", "sum_se_ordering", "equal_pathloss_agreement", "min_se_tradeoff")]
        assert all(line.split(": ", 1)[1] for line in lines)
        assert total == "9/9 checks passed"

    def test_verify_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "run_all",
            lambda quick=False: [CheckResult("stub", False, (1.0,), "forced failure")],
        )
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL stub" in out


class TestVerificationChecks:
    # each claim check passes on the session's default or equal sweep and
    # fails on a copy with one doctored values array
    @pytest.mark.parametrize("check", [
        check_search_gain, check_sum_se_ordering, check_equal_agreement, check_min_se_tradeoff,
    ])
    def test_claim_check_fails_on_a_doctored_sweep(self, default_run, equal_run, check):
        result = equal_run if check is check_equal_agreement else default_run[0]
        clean = check(result)
        v, c = result.values.copy(), {m: k for k, m in enumerate(result.config.methods)}
        at = result.config.susinr_db.index(20.0)
        if check is check_search_gain:  # one opt cell just below its arzf start
            v[at, c["opt"], 0, 3] = np.nextafter(v[at, c["arzf"], 0, 3], -np.inf)
        elif check is check_equal_agreement:  # arzf 2.01% above wrzf at one level
            v[at, c["arzf"], 0] = 1.0201 * v[at, c["wrzf"], 0]
        else:  # the arzf and rzf_v columns swapped
            v[:, [c["arzf"], c["rzf_v"]]] = v[:, [c["rzf_v"], c["arzf"]]]
        assert clean.passed and not check(replace(result, values=v)).passed

    @pytest.mark.parametrize("check, change, message", [
        (check_search_gain, lambda r: {"values": None}, "values of the varied"),
        (check_equal_agreement, lambda r: {}, "per-seed values of the equal"),
        (check_search_gain, lambda r: {"config": replace(r.config, methods=("arzf",))},
         r"needs opt at \(8.0"),
        (check_min_se_tradeoff, lambda r: {"config": replace(r.config, susinr_db=(8.0, 20.0))},
         r"needs arzf at \(0.0, 4.0, 8.0, 12.0\)"),
        (check_sum_se_ordering, lambda r: {"values": r.values[..., :1]}, "at least 2 kept seeds"),
    ])
    def test_claim_check_names_what_the_sweep_lacks(self, default_run, check, change, message):
        result = default_run[0]
        with pytest.raises(ConfigError, match=message):
            check(replace(result, **change(result)))
