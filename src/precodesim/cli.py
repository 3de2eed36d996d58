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
import reprlib
import sys

from .exceptions import PrecodesimError
from .harness import METHODS, SweepConfig, emit_csv, emit_plotdata, format_csv, run_sweep
from .verification import run_all

__all__ = ["main", "parse_susinr"]

# Most levels a SINR grid may hold; a ``start:stop:step`` range is also
# checked against it before it is built.
MAX_SUSINR_LEVELS = 1000


def _expect(value, *types):
    """``value`` if its type is one of ``types``; a bool is no number."""
    if type(value) not in types:
        names = " or ".join(t.__name__ for t in types)
        raise TypeError(f"expected {names}, got {type(value).__name__}")
    return value


def parse_susinr(spec):
    """SINR grid in dB from grid text, ``start:stop:step`` (stop
    inclusive), a comma list or a single value, or from a list of numbers.
    Every level is finite and there are at most ``MAX_SUSINR_LEVELS``."""
    if type(spec) is list:
        values = tuple(float(_expect(v, int, float)) for v in spec)
    else:
        text = _expect(spec, str).strip()
        range_form = ":" in text
        parts = text.split(":") if range_form else [p for p in text.split(",") if p.strip()]
        values = tuple(float(p) for p in parts)
        if range_form:
            if len(values) != 3:
                raise ValueError(f"expected start:stop:step, got {text!r}")
            start, stop, step = values
            if not (step > 0 and stop >= start):
                raise ValueError(f"bad grid text {text!r}")
            steps = (stop - start) / step
            if not steps + 1 <= MAX_SUSINR_LEVELS:
                raise ValueError(f"grid text {text!r} spans more than {MAX_SUSINR_LEVELS} levels")
            grid = (start + i * step for i in range(int(round(steps)) + 1))
            values = tuple(g for g in grid if g <= stop + 1e-9)
    if len(values) > MAX_SUSINR_LEVELS:
        raise ValueError(f"grid has {len(values)} levels, more than {MAX_SUSINR_LEVELS}")
    if not all(math.isfinite(v) for v in values):
        raise ValueError("grid has a non-finite level")
    return values


def _method_list(value):
    """Method tokens from comma text or a list."""
    parts = _expect(value, str, list)
    if isinstance(parts, str):
        parts = parts.split(",")
    return tuple(t for t in (_expect(p, str).strip() for p in parts) if t)


# key -> (default, conversion of the flag's text or the config file's value)
_RUN_OPTIONS = {
    "scenario": ("varied", lambda v: _expect(v, str)),
    "susinr": ("0:40:4", parse_susinr),
    "seeds": (40, lambda v: int(_expect(v, int, str))),
    "seed_base": (0, lambda v: int(_expect(v, int, str))),
    "power": (1.0, lambda v: float(_expect(v, int, float, str))),
    "methods": (",".join(METHODS), _method_list),
    "skip_opt": (False, lambda v: _expect(v, bool)),
    "out": (None, lambda v: _expect(v, str, type(None))),
    "plotdata": (None, lambda v: _expect(v, str, type(None))),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="precodesim",
        description="Multi-user MIMO downlink precoding simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a sweep and emit CSV")
    run_p.add_argument("--scenario", help="equal or varied path loss")
    run_p.add_argument("--susinr", help="grid: start:stop:step or comma list, dB")
    run_p.add_argument("--seeds", help="number of channel realizations")
    run_p.add_argument("--seed-base", dest="seed_base")
    run_p.add_argument("--power", help="transmit power budget")
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
    """Each run option from its flag, else the config file, else its
    default, through the key's one conversion; a value that does not
    convert raises ValueError naming the key."""
    raw = {key: default for key, (default, _) in _RUN_OPTIONS.items()}
    if args.config:
        with open(args.config) as f:
            loaded = json.load(f)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(loaded) - set(raw)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        raw.update(loaded)
    options = {}
    for key, (_, convert) in _RUN_OPTIONS.items():
        value = getattr(args, key)
        value = raw[key] if value is None else value
        try:
            options[key] = convert(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad {key} {reprlib.repr(value)}: {exc}") from None
    if options["skip_opt"]:
        options["methods"] = tuple(m for m in options["methods"] if m != "opt")
    return options


def _cmd_run(args):
    options = _resolve_run_options(args)
    config = SweepConfig(
        scenario=options["scenario"],
        susinr_db=options["susinr"],
        num_seeds=options["seeds"],
        seed_base=options["seed_base"],
        power=options["power"],
        methods=options["methods"],
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
