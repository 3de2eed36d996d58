"""Multi-seed simulation sweeps over target single-user SINR levels.

One sweep fixes a scenario family (equal or varied path loss), draws
``num_seeds`` channel realizations, places each at every grid level by
calibrating the noise variance, evaluates every requested method under
per-user MMSE detection, and aggregates sum and minimum spectral
efficiency across seeds.  Everything is deterministic in the
configuration, including the emitted CSV bytes.
"""

import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .channel import ScenarioConfig, calibrate_noise, check_level, decompose, generate_scenario
from .exceptions import (
    ConfigError, PrecodesimError, SelectionError, check_integer, check_positive)
from .metrics import evaluate_many
from .optimizer import OptConfig, optimize_many
from .precoding import CLOSED_FORMS, closed_stack

__all__ = ["METHODS", "SweepConfig", "SweepRow", "SweepResult", "run_sweep", "format_csv",
           "emit_csv", "emit_plotdata"]

CSV_HEADER = "scenario,susinr_db,method,avg_sum_se,se_std,avg_min_se,min_se_std,seeds,detection"


# Whole SINR levels per scoring stack.  On a 20-seed closed-form sweep
# (default scale, 2 vCPUs) stacks of 1, 4 and 11 levels took 0.13-0.15,
# 0.09-0.10 and 0.10 ms of CPU per point at 39.0, 39.3 and 41.2 MB peak RSS.
_LEVELS = 4

# Method tokens in the default sweep's order: the closed forms, then the
# searched ridge.
METHODS = (*CLOSED_FORMS, "opt")


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: scenario family, SINR grid, seeds and methods.  The sizes
    default to :class:`ScenarioConfig`'s, and construction builds the first
    seed's, so a scenario or size the generator cannot run fails here."""

    scenario: str = "varied"
    susinr_db: tuple = (0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 32.0, 36.0, 40.0)
    num_seeds: int = 40
    seed_base: int = 0
    power: float = 1.0
    methods: tuple = tuple(METHODS)
    num_tx: int = ScenarioConfig.num_tx
    num_users: int = ScenarioConfig.num_users
    rx_per_user: int = ScenarioConfig.rx_per_user
    layers_per_user: int = ScenarioConfig.layers_per_user
    opt: OptConfig = field(default_factory=OptConfig)

    def __post_init__(self):
        for name in ("susinr_db", "methods"):
            value = getattr(self, name)
            # a set's order, and so the CSV's, would depend on the hash seed
            if not (isinstance(value, (list, tuple))
                    or isinstance(value, np.ndarray) and value.ndim == 1):
                raise ConfigError(f"{name} must be a sequence, got {value!r}")
        for level in self.susinr_db:
            check_level("susinr_db level", level)
        object.__setattr__(self, "susinr_db", tuple(float(x) for x in self.susinr_db))
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.susinr_db:
            raise ConfigError("susinr_db grid must be nonempty")
        if not self.methods:
            raise ConfigError("methods must be nonempty")
        for name in ("susinr_db", "methods"):
            value = getattr(self, name)
            if len(set(value)) < len(value):
                raise ConfigError(f"{name} repeats an entry: {value}")
        for name in ("num_seeds", "seed_base"):
            check_integer(name, getattr(self, name))
        if self.num_seeds < 1:
            raise ConfigError("num_seeds must be >= 1")
        if self.seed_base < 0:
            raise ConfigError(f"seed_base must be >= 0, got {self.seed_base}")
        check_positive("power", self.power)
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ConfigError(f"unknown methods {unknown}, valid: {tuple(METHODS)}")
        if not isinstance(self.opt, OptConfig):
            raise ConfigError(f"opt must be an OptConfig, got {self.opt!r}")
        self.scenario_config(self.seed_base)

    def scenario_config(self, seed: int) -> ScenarioConfig:
        return ScenarioConfig(
            num_tx=self.num_tx,
            num_users=self.num_users,
            rx_per_user=self.rx_per_user,
            layers_per_user=self.layers_per_user,
            path_loss=self.scenario,
            seed=seed,
        )


@dataclass(frozen=True)
class SweepRow:
    """Aggregated result for one (SINR level, method) cell."""

    scenario: str
    susinr_db: float
    method: str
    avg_sum_se: float
    se_std: float
    avg_min_se: float
    min_se_std: float
    seeds: int


@dataclass(frozen=True)
class SweepResult:
    """Rows, failed ``(seed, message)`` pairs and the configuration, and
    (None if built from rows alone) the rows' per-seed ``values``:
    ``(levels, config.methods, sum/min SE, kept seeds in seed order)``."""

    rows: tuple
    failures: tuple
    config: SweepConfig
    values: np.ndarray = field(default=None, repr=False, compare=False)


def _score(channels, decomp, closed, power, noise, found, lo, hi):
    """Every method of one seed at the noise levels ``noise[lo:hi]``, scored
    as one stack, level-major: one :func:`closed_stack` of the closed forms
    ``closed``, then the searched precoders ``found[lo:hi]`` (none without
    ``opt``), raising the first search error among them, then one
    :func:`evaluate_many` pass."""
    raw, gain = closed_stack(decomp, closed, power, noise[lo:hi])
    c = len(closed)
    w = np.empty((hi - lo, c + bool(found), *raw.shape[2:]), dtype=complex)
    np.multiply(raw, gain[..., None, None], out=w[:, :c])
    del raw  # not held through detection, which sets the peak memory
    for k, r in enumerate(found[lo:hi]):
        if isinstance(r, PrecodesimError):
            raise r
        w[k, c] = r.precoder.weights
    return evaluate_many(channels, w.reshape(-1, *w.shape[2:]), noise[lo:hi].repeat(w.shape[1]))


def _values(score, levels):
    """``(levels, methods, 2)`` sum and min SE of one seed from stacks
    ``score(lo, hi)`` of at most ``_LEVELS`` whole levels; the bound keeps a
    stack's detection arrays, and so the peak memory, small.  A stack that
    raises is replayed level by level, so the first failing level raises the
    error it raises alone."""
    stacks = []
    for lo in range(0, levels, _LEVELS):
        hi = min(lo + _LEVELS, levels)
        try:
            rep = score(lo, hi)
        except PrecodesimError:
            for k in range(lo, hi):
                score(k, k + 1)
            raise
        stacks.append(np.stack((rep.sum_se, rep.min_se), axis=-1).reshape(hi - lo, -1, 2))
    return np.concatenate(stacks)


def run_sweep(config: SweepConfig, progress=None) -> SweepResult:
    """Full multi-seed sweep.

    Every method of a seed is scored in one pass per stack of at most
    ``_LEVELS`` whole levels: one :func:`closed_stack` of its closed forms,
    then its searched ridge (``opt``) precoders, then one
    :func:`evaluate_many`, so errors within a level come in that order, and a
    seed records the error of its first failing level.  Every member of a
    stack has the bits it has alone.  A seed is scored once it has no search
    left: at once without ``opt``, else when its last search ends; the
    searches of every (seed, level) run in one :func:`optimize_many`.  A seed
    whose realization cannot be generated or evaluated, or whose search
    fails, is recorded in ``failures`` and dropped from aggregation; the
    per-row ``seeds`` count and ``values`` reflect only successful ones.
    ``progress(done, total)`` is called as each seed finishes.  Raises
    :class:`SelectionError` if every seed fails.  A :class:`ConfigError`
    faults the configuration, not one realization, and ends the sweep.
    """
    levels, n = config.susinr_db, len(config.susinr_db)
    closed = [m for m in config.methods if m != "opt"]
    # the columns of a seed's values: the closed forms, then the searched ridge
    tokens = closed + ["opt"] * ("opt" in config.methods)
    kept, failures, queue, problems = {}, {}, [], []

    def finish(i, seed_values, *args):
        """Keep seed ``i``'s ``seed_values(*args)``, or record the error it
        raises, and report progress; None means its searches are queued."""
        try:
            values = seed_values(*args)
            if values is None:
                return
            kept[i] = values
        except ConfigError:
            raise
        except PrecodesimError as exc:
            failures[i] = (config.seed_base + i, f"{type(exc).__name__}: {exc}")
        if progress is not None:
            progress(len(kept) + len(failures), config.num_seeds)

    def start(i):
        channels = generate_scenario(config.scenario_config(config.seed_base + i))
        decomp = decompose(channels)
        # decompose copied what it read, and the set is held until the
        # seed's searches end: drop its cached path factors
        vars(channels).pop("factors", None)
        noise = np.array(calibrate_noise(decomp, config.power, levels))
        score = partial(_score, channels, decomp, closed, config.power, noise)
        if "opt" not in tokens:
            return _values(partial(score, ()), n)
        queue.append((i, score, [None] * n))
        problems.extend((decomp, channels, config.power, nv) for nv in noise)

    def search_done(q, result):
        i, score, found = queue[q // n]
        found[q % n] = result
        if all(r is not None for r in found):
            finish(i, _values, partial(score, found), n)

    for i in range(config.num_seeds):
        finish(i, start, i)
    optimize_many(problems, config.opt, done=search_done)

    if not kept:
        raise SelectionError(
            f"all {config.num_seeds} seeds failed; first: {failures[min(failures)][1]}"
        )
    # seeds in seed order along a C-contiguous last axis (np.take keeps it, a
    # fancy index would not), where a cell's mean and std have 1-D bits
    order = [tokens.index(m) for m in config.methods]
    vals = np.take(np.stack([kept[i] for i in sorted(kept)], axis=-1), order, axis=1)
    seeds = vals.shape[-1]
    mean, std = vals.mean(axis=-1), vals.std(axis=-1, ddof=1 if seeds > 1 else 0)
    rows = []
    for k, su in enumerate(levels):
        for c, m in enumerate(config.methods):
            rows.append(
                SweepRow(
                    scenario=config.scenario,
                    susinr_db=su,
                    method=m,
                    avg_sum_se=float(mean[k, c, 0]),
                    se_std=float(std[k, c, 0]),
                    avg_min_se=float(mean[k, c, 1]),
                    min_se_std=float(std[k, c, 1]),
                    seeds=seeds,
                )
            )
    failures = tuple(failures[i] for i in sorted(failures))
    return SweepResult(rows=tuple(rows), failures=failures, config=config, values=vals)


def format_csv(result: SweepResult) -> str:
    """Aggregated rows as CSV text; identical sweeps yield identical
    bytes."""
    lines = [CSV_HEADER]
    for r in result.rows:
        lines.append(
            f"{r.scenario},{r.susinr_db:.17g},{r.method},"
            f"{r.avg_sum_se:.17g},{r.se_std:.17g},"
            f"{r.avg_min_se:.17g},{r.min_se_std:.17g},"
            f"{r.seeds},mmse"
        )
    return "\n".join(lines) + "\n"


def emit_csv(path, result: SweepResult) -> None:
    with open(path, "w", newline="") as f:
        f.write(format_csv(result))


def emit_plotdata(path, result: SweepResult) -> None:
    """Write per-method series (x axis: SINR grid) as JSON."""
    keys = ("avg_sum_se", "se_std", "avg_min_se", "min_se_std")
    series = {m: {k: [] for k in keys} for m in result.config.methods}
    for r in result.rows:  # level-major, so each series follows the grid
        for k in keys:
            series[r.method][k].append(getattr(r, k))
    doc = {
        "scenario": result.config.scenario,
        "detection": "mmse",
        "susinr_db": list(result.config.susinr_db),
        "seeds": result.rows[0].seeds if result.rows else 0,
        "series": series,
        "failures": [list(f) for f in result.failures],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
