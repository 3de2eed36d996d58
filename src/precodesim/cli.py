"""Command line entry point.

Two subcommands: ``run`` executes a sweep and writes CSV (stdout by
default) plus optional plot data JSON; ``verify`` runs the built-in
consistency checks and reports one line per check.

Exit codes: 0 success, 1 one or more verify checks failed, 2 bad
arguments or a runtime failure.
"""

import argparse
import json
import math
import sys

from .exceptions import PrecodesimError
from .harness import (
    METHODS,
    SweepConfig,
    emit_csv,
    emit_plotdata,
    format_csv,
    run_sweep,
)
from .verification import run_all

__all__ = ["main", "parse_susinr"]

# Most levels a ``start:stop:step`` grid may span, checked before it is built.
MAX_SUSINR_LEVELS = 1000

_RUN_DEFAULTS = {
    "scenario": "varied",
    "susinr": "0:40:4",
    "seeds": 40,
    "seed_base": 0,
    "power": 1.0,
    "methods": ",".join(METHODS),
    "skip_opt": False,
    "out": None,
    "plotdata": None,
}


def parse_susinr(text):
    """Grid text: ``start:stop:step`` (stop inclusive), a comma list,
    or a single value, all in dB, every part finite."""
    text = str(text).strip()
    range_form = ":" in text
    parts = text.split(":") if range_form else [p for p in text.split(",") if p.strip()]
    values = tuple(float(p) for p in parts)
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"grid text {text!r} has a non-finite part")
    if not range_form:
        return values
    if len(values) != 3:
        raise ValueError(f"expected start:stop:step, got {text!r}")
    start, stop, step = values
    if step <= 0 or stop < start:
        raise ValueError(f"bad grid text {text!r}")
    steps = (stop - start) / step
    if steps + 1 > MAX_SUSINR_LEVELS:
        raise ValueError(f"grid text {text!r} spans more than {MAX_SUSINR_LEVELS} levels")
    grid = tuple(start + i * step for i in range(int(round(steps)) + 1))
    return tuple(g for g in grid if g <= stop + 1e-9)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="precodesim",
        description="Multi-user MIMO downlink precoding simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a sweep and emit CSV")
    run_p.add_argument("--scenario", choices=("equal", "varied"))
    run_p.add_argument("--susinr", help="grid: start:stop:step or comma list, dB")
    run_p.add_argument("--seeds", type=int, help="number of channel realizations")
    run_p.add_argument("--seed-base", type=int, dest="seed_base")
    run_p.add_argument("--power", type=float, help="transmit power budget")
    run_p.add_argument("--methods", help=f"comma list from {','.join(METHODS)}")
    run_p.add_argument("--skip-opt", action="store_true", default=None, dest="skip_opt",
                       help="drop the searched-ridge method from the run")
    run_p.add_argument("--out", help="CSV output path (default: stdout)")
    run_p.add_argument("--plotdata", help="plot data JSON output path")
    run_p.add_argument("--config", help="JSON file with the same keys as the flags")
    run_p.add_argument("--quiet", action="store_true", help="no progress on stderr")

    ver_p = sub.add_parser("verify", help="run built-in consistency checks")
    ver_p.add_argument("--quick", action="store_true", help="smaller instance counts")
    return parser


def _resolve_run_options(args):
    options = dict(_RUN_DEFAULTS)
    if args.config:
        with open(args.config) as f:
            loaded = json.load(f)
        unknown = set(loaded) - set(_RUN_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        options.update(loaded)
    for key in _RUN_DEFAULTS:
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            options[key] = cli_val
    methods = options["methods"]
    if isinstance(methods, str):
        methods = tuple(m.strip() for m in methods.split(",") if m.strip())
    else:
        methods = tuple(methods)
    if options["skip_opt"]:
        methods = tuple(m for m in methods if m != "opt")
    susinr = options["susinr"]
    if isinstance(susinr, str):
        susinr = parse_susinr(susinr)
    else:
        susinr = tuple(float(x) for x in susinr)
    return options, methods, susinr


def _cmd_run(args):
    options, methods, susinr = _resolve_run_options(args)
    config = SweepConfig(
        scenario=options["scenario"],
        susinr_db=susinr,
        num_seeds=int(options["seeds"]),
        seed_base=int(options["seed_base"]),
        power=float(options["power"]),
        methods=methods,
    )

    progress = None
    if not args.quiet:
        def progress(done, total):
            print(f"seed {done}/{total}", file=sys.stderr, flush=True)

    result = run_sweep(config, progress=progress)
    for seed, msg in result.failures:
        print(f"seed {seed} failed: {msg}", file=sys.stderr)
    if options["out"]:
        emit_csv(options["out"], result)
    else:
        sys.stdout.write(format_csv(result))
    if options["plotdata"]:
        emit_plotdata(options["plotdata"], result)
    return 0


def _cmd_verify(args):
    results = run_all(quick=args.quick)
    failed = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        print(f"{tag} {r.name}: {r.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_verify(args)
    except (PrecodesimError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
