import csv
import json
import math

import pytest

from precodesim.cli import main, parse_susinr
from precodesim.verification import run_all


class TestParseSusinr:
    def test_range(self):
        assert parse_susinr("0:32:4") == (0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 32.0)

    def test_range_fractional(self):
        assert parse_susinr("0:1:0.5") == (0.0, 0.5, 1.0)

    def test_list(self):
        assert parse_susinr("0,8, 16") == (0.0, 8.0, 16.0)

    def test_single(self):
        assert parse_susinr("12") == (12.0,)

    def test_bad_specs(self):
        # "0:200000:1" is over the level limit yet small enough to build
        for spec in ("0:32", "32:0:4", "0:32:-4", "nan", "0:inf:4", "4,-inf", "0:200000:1"):
            with pytest.raises(ValueError):
                parse_susinr(spec)


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

    def test_bad_method_exits_2(self, tmp_path, capsys):
        args, _ = run_args(tmp_path, [])
        idx = args.index("mrt,arzf")
        args[idx] = "mrt,bogus"
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        "--susinr=4000", "--susinr=-4000", "--susinr=-inf", "--susinr=nan",
        "--power=nan", "--power=inf", "--power=0", "--seed-base=-5",
    ])
    def test_bad_numeric_input_exits_2(self, tmp_path, capsys, flag):
        args, _ = run_args(tmp_path, [flag])
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error:")

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


class TestVerifyCommand:
    def test_quick_verify_passes(self, capsys):
        assert main(["verify", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "5/5 checks passed" in out

    def test_verify_failure_exit_code(self, capsys, monkeypatch):
        import precodesim.cli as cli
        from precodesim.verification import CheckResult

        monkeypatch.setattr(
            cli, "run_all",
            lambda quick=False: [CheckResult("stub", False, (1.0,), "forced failure")],
        )
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL stub" in out


class TestVerificationChecks:
    def test_full_list_names(self):
        results = run_all(quick=True)
        names = [r.name for r in results]
        assert names == [
            "identities",
            "stationarity",
            "asymptotics",
            "noise_shaping",
            "gradient_consistency",
        ]
        assert all(r.passed for r in results)
        assert all(r.detail for r in results)
