"""Tests of the benchmark itself: its metric table, a tiny run of every
workload in both modes, the span tree of the traced run, and refusal
to run without the program's source.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from traced import check_span_tree

BENCH_DIR = Path(run.__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_metric_names_and_units():
    names = []
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")
        names.append(m["name"])
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.fixture(scope="module")
def smoke():
    """One tiny run of every workload in each mode, keyed by
    ``(workload, trace)``."""
    out = {}
    for w in run.WORKLOADS:
        for trace in ("0", "1"):
            proc = _run("--workload", w, "--seed", "0", "--seconds", "1", "--trace", trace)
            out[(w, trace)] = proc
    return out


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_metric_with_unit(smoke, workload, trace, key):
    proc = smoke[(workload, trace)]
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for name, unit in want.items():
        assert any(re.match(rf"^  {re.escape(name)} = \S+ {re.escape(unit)}$", ln)
                   for ln in lines), name
    assert any(ln.startswith("environment ") and "blas_threads" in ln for ln in lines)
    assert any(f"seed_base {0}" in ln for ln in lines)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_trace_span_tree_is_well_formed(smoke, workload):
    assert smoke[(workload, "1")].returncode == 0
    path = run.OUT / f"{workload}-seed0-base0-trace1.spans.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert check_span_tree(records) == []
    roots = {r["name"] for r in records if r["parent"] is None}
    assert roots == {"harness.run_sweep", "harness.format_csv", "probe"}
    layers = {"channel", "precoding", "detection", "metrics", "optimizer"}
    for r in records:
        if r["parent"] is not None:
            assert r["name"].split(".")[0] in layers
            assert isinstance(r["seed"], int)
    result = json.loads(run.OUT.joinpath(f"{workload}-seed0-base0-trace1.json").read_text())
    assert result["detail"]["csv_identical"] is True


def _spans(*triples):
    return [{"id": i, "name": f"s{i}", "start": s, "end": e, "parent": p, "seed": None}
            for i, (s, e, p) in enumerate(triples)]


def test_span_tree_check_catches_bad_trees():
    assert check_span_tree(_spans((0, 10, None), (1, 2, 0), (3, 10, 0))) == []
    assert check_span_tree(_spans((0, 10, None), (1, 2, 5)))        # missing parent
    assert check_span_tree(_spans((0, 10, None), (1, 11, 0)))       # ends after parent
    assert check_span_tree(_spans((2, 10, None), (1, 3, 0)))        # starts before parent
    assert check_span_tree(_spans((0, 10, None), (4, 3, 0)))        # ends before start


def test_tail_needs_enough_seeds():
    assert run.tail(list(range(run.TAIL_MIN_SEEDS - 1))) is None
    t = run.tail([float(x) for x in range(100)])
    assert t == {"percentile": 90, "value": 89.0, "samples": 100}
    assert sum(1 for x in range(100) if x > t["value"]) >= 10


def test_refuses_to_run_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _run("--workload", "closed_sweep", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
