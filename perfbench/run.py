#!/usr/bin/env python3
"""precodesim benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload closed_sweep --seed 0 --seconds 40 --trace 0

``--trace 0`` runs the workload as back-to-back ``precodesim run``
sweeps, each in a fresh process, until ``--seconds`` have passed, and
prints the end-to-end metrics.  ``--trace 1`` drives a fixed number of the
workload's seeds through the public layer functions in this process,
records a span around every call, checks that its CSV equals an untraced
``precodesim run`` on the same seeds byte for byte, and prints the
per-layer metrics.  Both modes check the outputs against the reference
CSVs in ``reference/`` and exit 1 if a check fails.  See README.md.
"""

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from sweeps import (  # noqa: E402
    HELD_OUT_SEED_BASE,
    OUT,
    REFERENCE_SEED_BASE,
    SE_BOUND,
    SEED_STRIDE,
    SRC,
    WORKLOADS,
    parse_csv,
    reference_check,
    reference_path,
    run_sweep_process,
)

# seed_ms_tail needs this many seeds, so that its percentile lies above
# the median with ten seeds beyond it.
TAIL_MIN_SEEDS = 20


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------- environment

def _blas_threads():
    """Thread count the bundled OpenBLAS will use, read from the library
    itself; None when it cannot be found."""
    import numpy

    libdirs = [Path(numpy.__file__).parent.parent / "numpy.libs",
               Path(numpy.__file__).parent / ".libs"]
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    for d in libdirs:
        for path in glob.glob(str(d / "*openblas*")):
            lib = ctypes.CDLL(path)
            for name in names:
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    return int(fn())
    return None


def environment():
    import numpy
    import scipy

    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.__config__.CONFIG),
        "scipy_blas": blas(scipy.__config__.CONFIG),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


# -------------------------------------------------------------- metrics

def tail(values):
    """Highest whole percentile with at least ten samples above it, by
    nearest rank; None below TAIL_MIN_SEEDS samples."""
    n = len(values)
    if n < TAIL_MIN_SEEDS:
        return None
    pct = (100 * (n - 10)) // n
    rank = math.ceil(pct * n / 100)
    return {"percentile": pct, "value": sorted(values)[rank - 1], "samples": n}


def untraced(workload, first_seed, seconds):
    """Timed sweeps within ``seconds``, then the reference check.  A
    sweep starts only if one as long as the last still ends in time."""
    seeds_per_process = workload.seeds_per_process
    runs, last = [], 0.0
    start = time.monotonic()
    base = first_seed
    while not runs or time.monotonic() - start + last <= seconds:
        if base + seeds_per_process > first_seed + SEED_STRIDE:
            break
        spawned = time.monotonic()
        runs.append(run_sweep_process(workload, base, seeds_per_process))
        last = time.monotonic() - spawned
        base += seeds_per_process
    ref_run, dev = reference_check(workload)

    attempted = sum(r.seeds for r in runs)
    failed = sum(r.failed for r in runs)
    done = [r for r in runs if not math.isnan(r.sweep_s)]
    cells = sum(r.seeds - r.failed for r in done) * len(workload.levels) * len(workload.methods)
    seed_ms = [t for r in done for t in r.seed_ms]
    setups = [r.setup_s for r in done + [ref_run] if not math.isnan(r.setup_s)]
    metrics = {}
    if done and cells:
        # medians over the sweep processes, so that a stretch of host
        # contention during one process moves the figure little
        point_counts = [(r.seeds - r.failed) * len(workload.levels) * len(workload.methods)
                        for r in done]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "points_per_s": (statistics.median(
                n / r.sweep_s for n, r in zip(point_counts, done) if n), "1/s"),
            "cpu_ms_per_point": (statistics.median(
                1000.0 * r.cpu_s / n for n, r in zip(point_counts, done) if n), "ms"),
            "seed_ms_p50": (statistics.median(seed_ms), "ms"),
            "peak_rss_mb": (max(r.maxrss_kb for r in done) / 1024.0, "MB"),
        }
    extra = {
        "failed_seed_ratio": (failed / attempted, "ratio"),
        "se_max_dev": (dev, "bit/s/Hz"),
    }
    t = tail(seed_ms)
    if t is not None:
        extra["seed_ms_tail"] = (t["value"], "ms")
    if "opt" in workload.methods:
        gain = opt_gain_bits(workload, [r for r in done if not r.problems])
        if gain is not None:
            extra["opt_gain_bits"] = (gain, "bit/s/Hz")
    problems = [p for r in runs + [ref_run] for p in r.problems]
    detail = {
        "sweeps": len(runs),
        "seeds_per_process": seeds_per_process,
        "setup_samples": len(setups),
        "seed_ms_tail": t,
        "failures": [f for r in runs for f in r.failure_lines],
        "reference": {"seeds": workload.reference_seeds, "seed_base": REFERENCE_SEED_BASE,
                      "bound": SE_BOUND},
    }
    return metrics, extra, attempted, failed, problems, detail


def opt_gain_bits(workload, runs):
    """Mean over levels of seed-weighted ``opt`` minus ``arzf``
    ``avg_sum_se`` across the sweeps."""
    if not runs:
        return None
    diffs = []
    for su in workload.levels:
        num = den = 0.0
        for r in runs:
            rows = parse_csv(r.csv)
            opt, arzf = rows[(float(su), "opt")], rows[(float(su), "arzf")]
            num += opt["seeds"] * (opt["avg_sum_se"] - arzf["avg_sum_se"])
            den += opt["seeds"]
        diffs.append(num / den)
    return statistics.fmean(diffs)


# ----------------------------------------------------------------- main

def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0, help="selects the run's seed block")
    p.add_argument("--seconds", type=float, default=40.0,
                   help="measuring time of an untraced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seed-base", type=int, default=0, dest="seed_base",
                   help=f"workload seed base; {HELD_OUT_SEED_BASE} is held out for claims")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seed_base < 0 or args.seconds <= 0:
        p.error("--seed and --seed-base must be >= 0 and --seconds > 0")
    return args


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "precodesim" / "cli.py").is_file():
        _log(f"error: program source not found under {SRC}")
        return 2
    workload = WORKLOADS[args.workload]
    if not reference_path(workload).is_file():
        _log(f"error: missing {reference_path(workload)}")
        return 2
    OUT.mkdir(exist_ok=True)
    first_seed = args.seed_base + args.seed * SEED_STRIDE

    stem = f"{workload.name}-seed{args.seed}-base{args.seed_base}-trace{args.trace}"
    if args.trace:
        from traced import traced_run

        metrics, extra, attempted, failed, problems, detail = traced_run(
            workload, first_seed, OUT / f"{stem}.spans.jsonl")
    else:
        metrics, extra, attempted, failed, problems, detail = untraced(
            workload, first_seed, args.seconds)

    env = environment()
    result = {
        "workload": workload.name,
        "trace": args.trace,
        "seed": args.seed,
        "seed_base": args.seed_base,
        "first_seed": first_seed,
        "held_out_seed_base": HELD_OUT_SEED_BASE,
        "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra_metrics": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "detail": detail,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1, default=str) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  seed_base {args.seed_base}"
          f"  first_seed {first_seed}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name} = {_fmt(value)} {unit}")
    if detail.get("seed_ms_tail"):
        t = detail["seed_ms_tail"]
        print(f"  seed_ms_tail is p{t['percentile']} of {t['samples']} seeds")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    correct = not problems and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
