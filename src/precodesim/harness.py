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
from itertools import product

import numpy as np

from .channel import (
    MIN_SUSINR_DB, ScenarioConfig, calibrate_noise, decompose, generate_scenario)
from .exceptions import (
    ConfigError, PrecodesimError, SelectionError, check_integer, check_positive, check_real)
from .metrics import evaluate_many
from .optimizer import OptConfig, optimize_many
from .precoding import CLOSED_FORMS, NOISE_FREE, closed_stack

__all__ = ["METHODS", "SweepConfig", "SweepRow", "SweepResult", "run_sweep", "format_csv",
           "emit_csv", "emit_plotdata"]

CSV_HEADER = "scenario,susinr_db,method,avg_sum_se,se_std,avg_min_se,min_se_std,seeds,detection"


# Whole SINR levels per closed-form stack.  On a 20-seed closed-form sweep
# (default scale, 2 vCPUs) stacks of 1, 4 and 11 levels took 0.13-0.15,
# 0.09-0.10 and 0.10 ms of CPU per point at 39.0, 39.3 and 41.2 MB peak RSS.
_LEVELS = 4

# Method tokens in the default sweep's order: the closed forms, then the
# searched ridge.
METHODS = (*CLOSED_FORMS, "opt")


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: scenario family, SINR grid, seeds and methods."""

    scenario: str = "varied"
    susinr_db: tuple = (0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 32.0, 36.0, 40.0)
    num_seeds: int = 40
    seed_base: int = 0
    power: float = 1.0
    methods: tuple = tuple(METHODS)
    num_tx: int = 64
    num_users: int = 4
    rx_per_user: int = 16
    layers_per_user: int = 2
    opt: OptConfig = field(default_factory=OptConfig)

    def __post_init__(self):
        if self.scenario not in ("equal", "varied"):
            raise ConfigError(f"scenario must be 'equal' or 'varied', got {self.scenario!r}")
        for name in ("susinr_db", "methods"):
            value = getattr(self, name)
            if isinstance(value, str) or not np.iterable(value):
                raise ConfigError(f"{name} must be a sequence, got {value!r}")
        for level in self.susinr_db:
            check_real("susinr_db level", level)
        object.__setattr__(self, "susinr_db", tuple(float(x) for x in self.susinr_db))
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.susinr_db:
            raise ConfigError("susinr_db grid must be nonempty")
        for level in self.susinr_db:
            if not np.isfinite(level):
                raise ConfigError(f"susinr_db level {level} dB is not finite")
            if level < MIN_SUSINR_DB:
                raise ConfigError(f"susinr_db level {level:g} dB is below the lowest supported "
                                  f"level, {MIN_SUSINR_DB:g} dB")
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
        if unknown or not self.methods:
            raise ConfigError(f"unknown methods {unknown}, valid: {tuple(METHODS)}")

    def scenario_config(self, seed: int) -> ScenarioConfig:
        return ScenarioConfig(
            num_tx=self.num_tx,
            num_users=self.num_users,
            rx_per_user=self.rx_per_user,
            layers_per_user=self.layers_per_user,
            path_loss=("varied" if self.scenario == "varied" else "equal"),
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
    detection: str = "mmse"


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    failures: tuple
    config: SweepConfig

    def row(self, susinr_db: float, method: str) -> SweepRow:
        for r in self.rows:
            if r.susinr_db == susinr_db and r.method == method:
                return r
        raise KeyError(f"no row for ({susinr_db}, {method})")


def _failure(exc):
    return f"{type(exc).__name__}: {exc}"


def _record(vals, score, levels, tokens, lo, hi):
    """``vals[(level, token)] = (sum SE, min SE)`` of ``tokens`` at
    ``levels[lo:hi]`` from one pass ``score(lo, hi)``, level-major.  A pass
    that raises is replayed level by level, so the first failing level
    raises the error it raises alone."""
    try:
        rep = score(lo, hi)
    except PrecodesimError:
        for k in range(lo, hi):
            score(k, k + 1)
        raise
    vals.update(zip(product(levels[lo:hi], tokens), zip(rep.sum_se, rep.min_se)))


def _closed_pass(channels, decomp, tokens, power, noise, fixed, lo, hi):
    """The closed forms ``tokens`` at the noise levels ``noise[lo:hi]``, scored
    as one stack: the weights ``fixed`` of the leading noise-free tokens, then
    one :func:`closed_stack` of the rest."""
    f = fixed.shape[1]
    raw, gain = closed_stack(decomp, tokens[f:], power, noise[lo:hi])
    w = np.empty((hi - lo, len(tokens), *fixed.shape[2:]), dtype=complex)
    w[:, :f] = fixed
    np.multiply(raw, gain[..., None, None], out=w[:, f:])
    return evaluate_many(channels, w.reshape(-1, *w.shape[2:]), noise[lo:hi].repeat(len(tokens)))


def _opt_pass(channels, noise, found, lo, hi):
    """The searched precoders ``found[lo:hi]`` scored as one stack, or the
    first search error among them."""
    for r in found[lo:hi]:
        if isinstance(r, PrecodesimError):
            raise r
    return evaluate_many(channels, np.stack([r.precoder.weights for r in found[lo:hi]]),
                         noise[lo:hi])


def run_sweep(config: SweepConfig, progress=None) -> SweepResult:
    """Full multi-seed sweep.

    Each seed's closed-form methods are scored as its channels are drawn:
    the noise-free ones are built once, and the levels go in stacks of at
    most ``_LEVELS`` whole levels, each one :func:`closed_stack` and one
    :func:`evaluate_many` pass; the bound keeps a stack's detection arrays,
    and so the peak memory, small.  The searched ridge (``opt``) of every
    (seed, level) is queued, all searches run in one :func:`optimize_many`,
    and each seed's searched precoders are scored in one pass.  Every member
    of a stack has the bits it has alone, and a seed records the error of
    its first failing level.  A seed whose realization cannot be generated
    or evaluated, or whose search fails, is recorded in ``failures`` and
    dropped from aggregation; the per-row ``seeds`` count reflects only
    successful realizations.  ``progress(done, total)`` is called as each
    seed finishes, after its last search.  Raises :class:`SelectionError`
    if every seed fails.  A :class:`ConfigError` faults the configuration,
    not one realization, and ends the sweep.
    """
    levels, n = config.susinr_db, len(config.susinr_db)
    # noise-free forms first: built once per seed, they lead every level of a stack
    closed = sorted((m for m in config.methods if m != "opt"), key=lambda m: m not in NOISE_FREE)
    free = sum(m in NOISE_FREE for m in closed)
    per_seed, failures, queue = {}, {}, []
    finished = 0

    def seed_done():
        nonlocal finished
        finished += 1
        if progress is not None:
            progress(finished, config.num_seeds)

    for i in range(config.num_seeds):
        seed = config.seed_base + i
        try:
            channels = generate_scenario(config.scenario_config(seed))
            decomp = decompose(channels)
            noise, vals = np.array(calibrate_noise(decomp, config.power, levels)), {}
            if closed:
                raw, gain = closed_stack(decomp, closed[:free], config.power, noise[:1])
                score = partial(_closed_pass, channels, decomp, closed, config.power, noise,
                                raw * gain[..., None, None])
                for lo in range(0, n, _LEVELS):
                    _record(vals, score, levels, closed, lo, min(lo + _LEVELS, n))
            per_seed[i] = vals
        except ConfigError:
            raise
        except PrecodesimError as exc:
            failures[i] = (seed, _failure(exc))
        if "opt" in config.methods and i in per_seed:
            queue.append((i, decomp, channels, noise))
        else:
            seed_done()

    left = dict.fromkeys((q[0] for q in queue), n)

    def search_done(q, _):
        left[queue[q // n][0]] -= 1
        if not left[queue[q // n][0]]:
            seed_done()

    problems = [(dc, ch, config.power, nv) for _, dc, ch, noise in queue for nv in noise]
    results = optimize_many(problems, config.opt, done=search_done)
    for s, (i, _, channels, noise) in enumerate(queue):
        try:
            _record(per_seed[i], partial(_opt_pass, channels, noise, results[s * n:(s + 1) * n]),
                   levels, ("opt",), 0, n)
        except ConfigError:
            raise
        except PrecodesimError as exc:
            failures[i] = (config.seed_base + i, _failure(exc))
            del per_seed[i]

    per_seed = list(per_seed.values())
    failures = [failures[i] for i in sorted(failures)]
    n = len(per_seed)
    if n == 0:
        raise SelectionError(
            f"all {config.num_seeds} seeds failed; first: {failures[0][1]}"
        )
    ddof = 1 if n > 1 else 0
    rows = []
    for su in config.susinr_db:
        for m in config.methods:
            sums = np.array([v[(su, m)][0] for v in per_seed])
            mins = np.array([v[(su, m)][1] for v in per_seed])
            rows.append(
                SweepRow(
                    scenario=config.scenario,
                    susinr_db=su,
                    method=m,
                    avg_sum_se=float(sums.mean()),
                    se_std=float(sums.std(ddof=ddof)),
                    avg_min_se=float(mins.mean()),
                    min_se_std=float(mins.std(ddof=ddof)),
                    seeds=n,
                )
            )
    return SweepResult(rows=tuple(rows), failures=tuple(failures), config=config)


def format_csv(result: SweepResult) -> str:
    """Aggregated rows as CSV text; identical sweeps yield identical
    bytes."""
    lines = [CSV_HEADER]
    for r in result.rows:
        lines.append(
            f"{r.scenario},{r.susinr_db:.17g},{r.method},"
            f"{r.avg_sum_se:.17g},{r.se_std:.17g},"
            f"{r.avg_min_se:.17g},{r.min_se_std:.17g},"
            f"{r.seeds},{r.detection}"
        )
    return "\n".join(lines) + "\n"


def emit_csv(path, result: SweepResult) -> None:
    with open(path, "w", newline="") as f:
        f.write(format_csv(result))


def emit_plotdata(path, result: SweepResult) -> None:
    """Write per-method series (x axis: SINR grid) as JSON."""
    grid = list(result.config.susinr_db)
    series = {}
    for m in result.config.methods:
        rows = [result.row(su, m) for su in grid]
        series[m] = {
            "avg_sum_se": [r.avg_sum_se for r in rows],
            "se_std": [r.se_std for r in rows],
            "avg_min_se": [r.avg_min_se for r in rows],
            "min_se_std": [r.min_se_std for r in rows],
        }
    doc = {
        "scenario": result.config.scenario,
        "detection": "mmse",
        "susinr_db": grid,
        "seeds": result.rows[0].seeds if result.rows else 0,
        "series": series,
        "failures": [list(f) for f in result.failures],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
