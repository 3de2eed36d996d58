"""Workload definitions, sweep processes and output checks."""

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from child import READY_TAG, SUMMARY_TAG

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference"

# --seed n measures seeds seed_base + n * SEED_STRIDE onward; no run
# reaches SEED_STRIDE seeds.  Claims are checked again on
# HELD_OUT_SEED_BASE, which no tuning run uses.
SEED_STRIDE = 10_000
HELD_OUT_SEED_BASE = 1_000_000_000
# Closed-form rows of the reference sweep may drift this far (bit/s/Hz)
# from reference/<workload>.csv, room for reordered floating point only.
SE_BOUND = 1e-8
REFERENCE_SEED_BASE = 0
CHILD_TIMEOUT_S = 150.0

CLOSED_FORM = ("mrt", "zf_v", "zf_f", "rzf_v", "rzf_f", "wrzf", "arzf")
CSV_HEADER = "scenario,susinr_db,method,avg_sum_se,se_std,avg_min_se,min_se_std,seeds,detection"


@dataclass(frozen=True)
class Workload:
    """One `precodesim run` configuration at the default desk scale.

    ``seeds_per_process`` sets the size of each timed sweep process,
    ``traced_seeds`` the fixed job of the traced run, and
    ``reference_seeds`` the size of the reference check sweep."""

    name: str
    scenario: str
    levels: tuple
    methods: tuple
    seeds_per_process: int
    traced_seeds: int
    reference_seeds: int

    def cli_args(self, methods=None):
        return [
            "--scenario", self.scenario,
            "--susinr", ",".join(f"{x:g}" for x in self.levels),
            "--methods", ",".join(methods or self.methods),
        ]

    @property
    def closed_form(self):
        return tuple(m for m in self.methods if m in CLOSED_FORM)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("closed_sweep", "varied", tuple(range(0, 41, 4)), CLOSED_FORM, 20, 120, 4),
        Workload("opt_search", "varied", (0, 20, 40), ("arzf", "opt"), 2, 6, 4),
        Workload("scenario_draw", "equal", (20,), ("mrt", "arzf"), 100, 300, 40),
    )
}


# --------------------------------------------------------------- sweeps

@dataclass
class SweepRun:
    """One ``precodesim run`` process and what it reported."""

    seeds: int
    setup_s: float
    sweep_s: float
    cpu_s: float
    maxrss_kb: int
    seed_ms: list
    failed: int
    failure_lines: list
    csv: str
    problems: list


_PROGRESS = re.compile(r"^seed \d+/\d+$")


def run_sweep_process(workload, seed_base, num_seeds, methods=None):
    """Run one sweep in a fresh process and collect its timing marks.

    Per-seed times are the gaps between the process's progress lines,
    stamped as the lines arrive.
    """
    methods = methods or workload.methods
    work = Path(tempfile.mkdtemp(prefix="sweep-", dir=OUT))
    csv_path = work / "out.csv"
    argv = [sys.executable, str(BENCH_DIR / "child.py"), str(SRC),
            "run", *workload.cli_args(methods), "--seeds", str(num_seeds),
            "--seed-base", str(seed_base), "--out", str(csv_path)]
    marks, failures, other = [], [], []
    ready = summary = None
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        for line in proc.stderr:
            now = time.monotonic()
            line = line.rstrip("\n")
            if _PROGRESS.match(line):
                marks.append(now)
            elif line.startswith(READY_TAG):
                ready = float(line[len(READY_TAG):])
            elif line.startswith(SUMMARY_TAG):
                summary = json.loads(line[len(SUMMARY_TAG):])
            elif " failed: " in line and line.startswith("seed "):
                failures.append(line)
            else:
                other.append(line)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    try:
        csv = csv_path.read_text() if csv_path.exists() else ""
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = []
    if proc.returncode != 0 or summary is None or ready is None:
        problems.append(f"sweep at seed base {seed_base} exited {proc.returncode}: "
                        + " | ".join(other[-3:]))
        return SweepRun(num_seeds, math.nan, math.nan, math.nan, 0, [], num_seeds,
                        failures, csv, problems)
    bounds = [ready] + marks
    seed_ms = [1000.0 * (b - a) for a, b in zip(bounds, bounds[1:])]
    if len(marks) != num_seeds:
        problems.append(f"expected {num_seeds} progress lines, got {len(marks)}")
    problems += check_csv(workload, csv, num_seeds - len(failures), methods)
    return SweepRun(
        seeds=num_seeds,
        setup_s=ready - spawned,
        sweep_s=summary["end"] - ready,
        cpu_s=summary["cpu_s"],
        maxrss_kb=summary["maxrss_kb"],
        seed_ms=seed_ms,
        failed=len(failures),
        failure_lines=failures,
        csv=csv,
        problems=problems,
    )


# --------------------------------------------------------------- checks

def parse_csv(text):
    lines = text.strip("\n").split("\n")
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or wrong CSV header")
    rows = {}
    for line in lines[1:]:
        scen, su, method, s, s_std, m, m_std, seeds, det = line.split(",")
        rows[(float(su), method)] = {
            "scenario": scen, "avg_sum_se": float(s), "se_std": float(s_std),
            "avg_min_se": float(m), "min_se_std": float(m_std),
            "seeds": int(seeds), "detection": det,
        }
    return rows


def check_csv(workload, text, expected_seeds, methods=None):
    """Problems with one sweep's CSV: missing or extra rows, values that
    are not finite, seeds that vanished without a failure line, and
    (with ``opt``) a searched ridge below ``arzf`` at any level."""
    methods = methods or workload.methods
    try:
        rows = parse_csv(text)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"]
    problems = []
    want = [(float(su), m) for su in workload.levels for m in methods]
    if sorted(rows) != sorted(want):
        return [f"CSV rows {sorted(rows)} differ from {sorted(want)}"]
    for key, r in rows.items():
        values = (r["avg_sum_se"], r["se_std"], r["avg_min_se"], r["min_se_std"])
        if not all(math.isfinite(v) for v in values):
            problems.append(f"row {key}: value not finite")
        if r["seeds"] != expected_seeds:
            problems.append(f"row {key}: {r['seeds']} seeds, expected {expected_seeds}")
        if r["scenario"] != workload.scenario or r["detection"] != "mmse":
            problems.append(f"row {key}: wrong scenario or detection")
    if "opt" in methods and "arzf" in methods:
        for su in workload.levels:
            gap = rows[(float(su), "opt")]["avg_sum_se"] - rows[(float(su), "arzf")]["avg_sum_se"]
            if gap < 0:
                problems.append(f"opt below arzf at {su} dB by {-gap:.3g}")
    return problems


def reference_path(workload):
    return REFERENCE / f"{workload.name}.csv"


def reference_check(workload):
    """Run the closed-form methods on the fixed reference seeds and
    compare ``avg_sum_se`` with the recorded reference CSV.

    Returns the sweep and the largest absolute deviation.
    """
    run = run_sweep_process(workload, REFERENCE_SEED_BASE, workload.reference_seeds,
                            workload.closed_form)
    if run.problems:
        return run, math.inf
    got = parse_csv(run.csv)
    ref = parse_csv(reference_path(workload).read_text())
    if sorted(got) != sorted(ref):
        run.problems.append("reference CSV has other rows than the sweep")
        return run, math.inf
    dev = max(abs(got[k]["avg_sum_se"] - ref[k]["avg_sum_se"]) for k in ref)
    if not dev <= SE_BOUND:
        run.problems.append(f"se_max_dev {dev:.3g} exceeds {SE_BOUND:g}")
    return run, dev
