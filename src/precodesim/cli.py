"""Command line entry point.

Two subcommands: ``run`` executes a sweep and writes CSV (stdout by
default) plus optional plot data JSON; ``verify`` runs checks 01-09 (the
consistency checks and the paper's claims) and reports one line per check.

Exit codes: 0 success, 1 one or more verify checks failed, 2 bad
arguments or a runtime failure.
"""

import argparse
import json
import math
import reprlib
import sys
from dataclasses import replace

from .exceptions import PrecodesimError
from .harness import METHODS, SweepConfig, emit_csv, emit_plotdata, format_csv, run_sweep
from .verification import run_all

__all__ = ["main"]

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
            if not (stop - start) / step + 1 <= MAX_SUSINR_LEVELS:
                raise ValueError(f"grid text {text!r} spans more than {MAX_SUSINR_LEVELS} levels")
            # each level in decimal, so it has the bits of its comma-list
            # text; only this form needs decimal, so only it imports it
            from decimal import Decimal
            start, stop, step = map(Decimal, parts)
            values = tuple(float(start + i * step) for i in range(int((stop - start) / step) + 1))
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


def _switch(value):
    return _expect(value, bool)


# key -> (the SweepConfig field it sets, or None if the run reads it itself;
# the one conversion of its flag's text or config file value; help).  An
# option given neither way is not passed, so the field's default applies.
_RUN_OPTIONS = {
    "scenario": ("scenario", lambda v: _expect(v, str), "equal or varied path loss"),
    "susinr": ("susinr_db", parse_susinr, "grid: start:stop:step or comma list, dB"),
    "seeds": ("num_seeds", lambda v: int(_expect(v, int, str)), "number of channel realizations"),
    "seed_base": ("seed_base", lambda v: int(_expect(v, int, str)),
                  "seed of the first realization; realization i uses seed base + i"),
    "power": ("power", lambda v: float(_expect(v, int, float, str)), "transmit power budget"),
    "methods": ("methods", _method_list, f"comma list from {','.join(METHODS)}"),
    "skip_opt": (None, _switch, "drop the searched-ridge method from the run"),
    "out": (None, lambda v: _expect(v, str, type(None)), "CSV output path (default: stdout)"),
    "plotdata": (None, lambda v: _expect(v, str, type(None)), "plot data JSON output path"),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="precodesim",
        description="Multi-user MIMO downlink precoding simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a sweep and emit CSV")
    for key, (_, convert, text) in _RUN_OPTIONS.items():
        run_p.add_argument("--" + key.replace("_", "-"), help=text,
                           action="store_true" if convert is _switch else "store", default=None)
    run_p.add_argument("--config", help="JSON file with the same keys as the flags")
    run_p.add_argument("--quiet", action="store_true", help="no progress on stderr")

    ver_p = sub.add_parser("verify", help="run the consistency checks and the paper's claims")
    ver_p.add_argument("--quick", action="store_true", help="counts divided by five")
    return parser


def _run_options(args):
    """The sweep and the output choices of a run.  Each option given as a
    flag or in the config file (the flag wins) goes through its key's one
    conversion, and a value that does not convert raises ValueError naming
    the key; a field that no option sets keeps its SweepConfig default."""
    given = {}
    if args.config:
        with open(args.config) as f:
            given = json.load(f)
        if not isinstance(given, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(given) - set(_RUN_OPTIONS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    given.update((k, v) for k, v in vars(args).items() if k in _RUN_OPTIONS and v is not None)
    fields, outputs = {}, {}
    for key, (field, convert, _) in _RUN_OPTIONS.items():
        if key in given:
            try:
                (fields if field else outputs)[field or key] = convert(given[key])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad {key} {reprlib.repr(given[key])}: {exc}") from None
    config = SweepConfig(**fields)
    if outputs.get("skip_opt"):
        config = replace(config, methods=tuple(m for m in config.methods if m != "opt"))
    return config, outputs


def _cmd_run(args):
    config, outputs = _run_options(args)

    progress = None
    if not args.quiet:
        def progress(done, total):
            print(f"seed {done}/{total}", file=sys.stderr, flush=True)

    result = run_sweep(config, progress=progress)
    for seed, msg in result.failures:
        print(f"seed {seed} failed: {msg}", file=sys.stderr)
    if outputs.get("out"):
        emit_csv(outputs["out"], result)
    else:
        sys.stdout.write(format_csv(result))
    if outputs.get("plotdata"):
        emit_plotdata(outputs["plotdata"], result)
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
    except (PrecodesimError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
