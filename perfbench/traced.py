"""Traced run: the workload's sweep replayed through public layer calls.

The replica repeats the loop of ``harness.run_sweep``, over the
workload's fixed number of traced seeds, with the public
functions ``generate_scenario``, ``decompose``, ``calibrate_noise``,
the ``precoding`` builders, ``optimize``, ``mmse_detection`` and
``report``, and formats its rows with ``harness.format_csv``.  Every
call gets a span (name, start, end, parent, seed), kept in memory and
written out at the end.  The replica's CSV must equal that of an
untraced ``precodesim run`` on the same seeds byte for byte, so the
per-layer numbers describe the program that the untraced run timed.
Because the job is fixed, a layer's ``busy_s`` is its cost for the same
work in every run, whatever the other layers cost.

A probe then calls, at the first points of the run, the functions that
have per-call metrics but that the workload itself does not call:
``optimizer.objective`` and ``optimizer.gradient`` at the starting
ridge of each point, closed-form builders outside the workload's
methods, and one ``optimize`` where the workload has no ``opt``.  Probe
spans hang under their own root and never count as busy time.
"""

import json
import math
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from sweeps import CLOSED_FORM, SRC, reference_check, run_sweep_process

sys.path.insert(0, str(SRC))
from precodesim import harness, optimizer, precoding  # noqa: E402
from precodesim.channel import calibrate_noise, decompose, generate_scenario  # noqa: E402
from precodesim.detection import mmse_detection  # noqa: E402
from precodesim.exceptions import PrecodesimError  # noqa: E402
from precodesim.metrics import report  # noqa: E402

# The probe covers at least this many (seed, level) points.
PROBE_POINTS = 6
ROOT_SPAN = "harness.run_sweep"
PROBE_SPAN = "probe"


class Tracer:
    """Spans in memory, as ``[name, start, end, parent, seed]`` lists
    whose index is the span id."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, seed=None):
        rec = [name, time.perf_counter(), None, self._parent(), seed]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._open.pop()
            rec[2] = time.perf_counter()

    def call(self, name, seed, fn, *args):
        """``fn(*args)`` inside a span."""
        parent = self._parent()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append([name, start, time.perf_counter(), parent, seed])

    def _parent(self):
        return self._open[-1] if self._open else None

    def records(self):
        t0 = min(s[1] for s in self.spans)
        return [
            {"id": i, "name": n, "start": s - t0, "end": e - t0, "parent": p, "seed": seed}
            for i, (n, s, e, p, seed) in enumerate(self.spans)
        ]


def check_span_tree(records):
    """Problems with a span list: ids out of order, a parent that does
    not exist, or a child outside its parent's interval."""
    problems = []
    for i, r in enumerate(records):
        if r["id"] != i:
            problems.append(f"span {i} has id {r['id']}")
            continue
        if not r["start"] <= r["end"]:
            problems.append(f"span {i} ends before it starts")
        p = r["parent"]
        if p is None:
            continue
        if not (isinstance(p, int) and 0 <= p < len(records) and p != i):
            problems.append(f"span {i} has missing parent {p!r}")
            continue
        parent = records[p]
        if not (parent["start"] <= r["start"] and r["end"] <= parent["end"]):
            problems.append(f"span {i} ({r['name']}) lies outside its parent {p}")
    return problems


BUILDERS = {
    "mrt": lambda d, p, nv: precoding.mrt(d, p),
    "zf_v": lambda d, p, nv: precoding.zf(d, p, basis="v"),
    "zf_f": lambda d, p, nv: precoding.zf(d, p, basis="f"),
    "rzf_v": lambda d, p, nv: precoding.rzf(d, p, nv, basis="v"),
    "rzf_f": lambda d, p, nv: precoding.rzf(d, p, nv, basis="f"),
    "wrzf": precoding.wrzf,
    "arzf": precoding.arzf,
}


def replica(tracer, config):
    """The ``run_sweep`` loop over ``config.num_seeds`` seeds from
    ``config.seed_base``.  Returns the CSV text, per-seed values,
    failures, ``(OptResult, seconds)`` per search and the realizations
    kept for the probe."""
    power, first_seed = config.power, config.seed_base
    keep_seeds = math.ceil(PROBE_POINTS / len(config.susinr_db))
    per_seed, failures, searches, kept = [], [], [], []
    with tracer.span(ROOT_SPAN):
        for seed in range(first_seed, first_seed + config.num_seeds):
            try:
                channels = tracer.call("channel.generate_scenario", seed,
                                       generate_scenario, config.scenario_config(seed))
                decomp = tracer.call("channel.decompose", seed, decompose, channels)
                vals = {}
                for su in config.susinr_db:
                    nv = tracer.call("channel.calibrate_noise", seed, calibrate_noise,
                                     decomp, power, su)
                    for m in config.methods:
                        if m == "opt":
                            res = tracer.call("optimizer.optimize", seed, optimizer.optimize,
                                              decomp, channels, power, nv, config.opt)
                            searches.append((res, tracer.spans[-1][2] - tracer.spans[-1][1]))
                            pre = res.precoder
                        else:
                            pre = tracer.call(f"precoding.{m}", seed, BUILDERS[m],
                                              decomp, power, nv)
                        det = tracer.call("detection.mmse_detection", seed,
                                          mmse_detection, channels, pre, nv)
                        rep = tracer.call("metrics.report", seed, report,
                                          channels, pre, det, nv)
                        vals[(su, m)] = (rep.sum_se, rep.min_se)
                per_seed.append((seed, vals))
                if len(kept) < keep_seeds:
                    kept.append((seed, channels, decomp))
            except PrecodesimError as exc:
                failures.append((seed, f"{type(exc).__name__}: {exc}"))
        rows = _aggregate(config, [v for _, v in per_seed])
    result = harness.SweepResult(rows=tuple(rows), failures=tuple(failures), config=config)
    csv = tracer.call("harness.format_csv", None, harness.format_csv, result)
    return csv, per_seed, failures, searches, kept


def _aggregate(config, per_seed):
    """Rows exactly as ``harness.run_sweep`` builds them."""
    n = len(per_seed)
    if n == 0:
        return []
    ddof = 1 if n > 1 else 0
    rows = []
    for su in config.susinr_db:
        for m in config.methods:
            sums = np.array([v[(su, m)][0] for v in per_seed])
            mins = np.array([v[(su, m)][1] for v in per_seed])
            rows.append(harness.SweepRow(
                scenario=config.scenario, susinr_db=su, method=m,
                avg_sum_se=float(sums.mean()), se_std=float(sums.std(ddof=ddof)),
                avg_min_se=float(mins.mean()), min_se_std=float(mins.std(ddof=ddof)),
                seeds=n,
            ))
    return rows


def probe(tracer, config, kept):
    """Direct calls for per-call metrics the workload does not produce.
    Returns ``(OptResult, seconds)`` of the probe search, if any."""
    power, levels = config.power, config.susinr_db
    points = [(seed, ch, dc, su) for seed, ch, dc in kept for su in levels]
    searches = []
    with tracer.span(PROBE_SPAN):
        for seed, ch, dc, su in points:
            nv = calibrate_noise(dc, power, su)
            start = optimizer.default_start(dc, power, nv)
            tracer.call("optimizer.objective", seed, optimizer.objective, dc, ch, start, power, nv)
            tracer.call("optimizer.gradient", seed, optimizer.gradient, dc, ch, start, power, nv)
            for token in CLOSED_FORM:
                if token not in config.methods:
                    tracer.call(f"precoding.{token}", seed, BUILDERS[token], dc, power, nv)
        if "opt" not in config.methods and kept:
            seed, ch, dc = kept[0]
            nv = calibrate_noise(dc, power, levels[len(levels) // 2])
            res = tracer.call("optimizer.optimize", seed, optimizer.optimize, dc, ch, power, nv,
                              config.opt)
            searches.append((res, tracer.spans[-1][2] - tracer.spans[-1][1]))
    return searches


def _backtracks(result, config):
    """Backtracking steps of each accepted iterate, read off its step
    length ``init_step * backtrack**b``."""
    return [round(math.log(step / config.init_step) / math.log(config.backtrack))
            for _, _, _, step in result.trajectory[1:]]


def span_cost_s(calls=20_000, repeats=5):
    """Time one ``Tracer.call`` adds around a call: the median over
    ``repeats`` loops of traced minus direct calls of a no-op."""
    def noop():
        return None

    costs = []
    for _ in range(repeats):
        tracer = Tracer()
        t0 = time.perf_counter()
        for _ in range(calls):
            tracer.call("noop", 0, noop)
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return statistics.median(costs)


def layer_metrics(records, searches, span_cost, opt_config):
    """Per-layer metrics from the span records and the searches."""
    root = next(r["id"] for r in records if r["name"] == ROOT_SPAN)
    probe_id = next(r["id"] for r in records if r["name"] == PROBE_SPAN)
    busy, calls, probed = defaultdict(float), defaultdict(int), defaultdict(list)
    samples = defaultdict(list)
    for r in records:
        d = r["end"] - r["start"]
        if r["parent"] == root:
            busy[r["name"]] += d
            calls[r["name"]] += 1
            samples[r["name"]].append(d)
        elif r["parent"] == probe_id:
            probed[r["name"]].append(d)

    def ms_p50(name):
        return 1000.0 * statistics.median(samples.get(name) or probed[name])

    m = {}
    for name in ("channel.generate_scenario", "channel.decompose"):
        m[f"{name}.ms_p50"] = (ms_p50(name), "ms")
        m[f"{name}.busy_s"] = (busy[name], "s")
    m["channel.calibrate_noise.busy_s"] = (busy["channel.calibrate_noise"], "s")
    for token in CLOSED_FORM:
        m[f"precoding.{token}.ms_p50"] = (ms_p50(f"precoding.{token}"), "ms")
    m["precoding.busy_s"] = (sum(v for k, v in busy.items() if k.startswith("precoding.")), "s")
    for name in ("detection.mmse_detection", "metrics.report"):
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.ms_p50"] = (ms_p50(name), "ms")
        m[f"{name}.busy_s"] = (busy[name], "s")

    results = [res for res, _ in searches]
    iters = [res.iterations for res in results]
    backtracks = [b for res in results for b in _backtracks(res, opt_config)]
    m["optimizer.optimize.ms_p50"] = (ms_p50("optimizer.optimize"), "ms")
    m["optimizer.ms_per_iter"] = (1000.0 * sum(s for _, s in searches) / max(1, sum(iters)), "ms")
    m["optimizer.iterations_mean"] = (statistics.fmean(iters), "count")
    m["optimizer.grad_norm_p50"] = (statistics.median(r.grad_norm for r in results), "bit/s/Hz")
    m["optimizer.gain_over_start_mean"] = (
        statistics.fmean(r.objective - r.start_objective for r in results), "bit/s/Hz")
    m["optimizer.backtracks_per_iter"] = (sum(backtracks) / max(1, sum(iters)), "ratio")
    m["optimizer.objective.ms_p50"] = (ms_p50("optimizer.objective"), "ms")
    m["optimizer.gradient.ms_p50"] = (ms_p50("optimizer.gradient"), "ms")

    run_sweep = records[root]
    run_sweep_s = run_sweep["end"] - run_sweep["start"]
    format_csv_s = sum(r["end"] - r["start"] for r in records if r["name"] == "harness.format_csv")
    m["harness.run_sweep.self_s"] = (run_sweep_s - sum(busy.values()), "s")
    m["harness.format_csv.ms"] = (1000.0 * format_csv_s, "ms")
    # every span under the replica's root, and format_csv's own
    traced_calls = sum(calls.values()) + 1
    m["trace.overhead_ratio"] = (span_cost * traced_calls / (run_sweep_s + format_csv_s), "ratio")
    # 0 or a share of one probe search on the workloads without opt, so
    # printed but not listed in BENCHMARK.json
    extra = {
        "optimizer.optimize.busy_s": (busy["optimizer.optimize"], "s"),
        "optimizer.optimize.calls": (calls["optimizer.optimize"], "count"),
        "optimizer.iter_cap_ratio": (
            _share(results, lambda r: r.reason == "iteration limit reached"), "ratio"),
        "optimizer.linesearch_fail_ratio": (
            _share(results, lambda r: r.reason.startswith("line search")), "ratio"),
        "optimizer.converged_ratio": (_share(results, lambda r: r.converged), "ratio"),
        "trace.spans": (len(records), "count"),
        "trace.span_cost_us": (1e6 * span_cost, "us"),
    }
    return m, extra


def _share(items, pred):
    return sum(1 for x in items if pred(x)) / len(items)


def traced_run(workload, first_seed, spans_path):
    """Replica, untraced comparison sweep, probe and reference check.
    Returns ``(metrics, extra, attempted, failed, problems, detail)``."""
    n = workload.traced_seeds
    config = harness.SweepConfig(scenario=workload.scenario, susinr_db=workload.levels,
                                 num_seeds=n, seed_base=first_seed, methods=workload.methods)
    tracer = Tracer()
    csv, per_seed, failures, searches, kept = replica(tracer, config)
    problems = []
    if not per_seed:
        problems.append(f"all {n} traced seeds failed: {failures[0][1]}")
    if "opt" in workload.methods:
        for seed, vals in per_seed:
            for su in workload.levels:
                if vals[(float(su), "opt")][0] < vals[(float(su), "arzf")][0]:
                    problems.append(f"seed {seed}: opt below arzf at {su} dB")

    untraced = run_sweep_process(workload, first_seed, n)
    problems += untraced.problems
    csv_identical = csv == untraced.csv
    if not csv_identical:
        problems.append("traced CSV differs from the untraced precodesim run CSV")

    probe_searches = probe(tracer, config, kept)
    ref_run, dev = reference_check(workload)
    problems += ref_run.problems

    records = tracer.records()
    problems += check_span_tree(records)
    with open(spans_path, "w") as f:
        for r in records:
            f.write(json.dumps(r) + "\n")

    metrics, extra = ({}, {}) if problems else layer_metrics(
        records, searches or probe_searches, span_cost_s(), config.opt)
    extra["se_max_dev"] = (dev, "bit/s/Hz")
    detail = {
        "traced_seeds": n,
        "csv_identical": csv_identical,
        "searches": len(searches),
        "probe_searches": len(probe_searches),
        "spans_file": str(spans_path),
        "failures": [f"seed {s} failed: {msg}" for s, msg in failures],
    }
    return metrics, extra, n, len(failures), problems, detail
