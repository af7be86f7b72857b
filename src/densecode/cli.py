"""Command-line front end.

Commands: ``example-d2`` (reproduce the built-in two-qubit example and check
every derived value against its exact rational), ``bundle`` (build and emit a
protocol bundle), ``simulate`` (Monte-Carlo runs of either variant),
``bounds`` (failure-probability sweep as CSV), ``search`` (numerical message
set search), and ``verify`` (randomized verification suites).

Identical command, flags and seed produce byte-identical output.  Any
tolerance can be overridden with ``--tol-<name> <value>``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import tolerances
from .encoding import message_set_from_json, message_set_to_json, search_message_set
from .protocol import (
    BundleError,
    VARIANT_NO_MEASURE,
    bob_distribution,
    bounds_rows,
    build_bundle,
    build_decoder,
    bundle_to_json,
    default_messages,
    encode_message,
    report_to_json,
    simulate,
    spectrum_to_json,
)
from .serialize import SCHEMA, dumps, sig15
from .states import make_schmidt_state, parse_spectrum
from .suites import SUITE_ALIASES, run_suite

DEFAULT_SEED = 0x5EED_D0DE
EXAMPLE_SPECTRUM = "81/160,79/160"


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _fail(message: str, **extra) -> int:
    doc = {"schema": SCHEMA, "kind": "error", "error": message}
    doc.update(extra)
    sys.stderr.write(dumps(doc) + "\n")
    return 1


def _extract_tolerance_flags(argv: list[str]) -> tuple[list[str], dict[str, float]]:
    """Pull ``--tol-<name> value`` (or ``=value``) pairs out of the argument list."""
    rest: list[str] = []
    overrides: dict[str, float] = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg.startswith("--tol-"):
            if "=" in arg:
                flag, value = arg.split("=", 1)
            else:
                flag = arg
                if i + 1 >= len(argv):
                    raise ValueError(f"missing value for {flag}")
                i += 1
                value = argv[i]
            name = flag[len("--tol-"):].replace("-", "_")
            if name not in tolerances.NAMES:
                raise ValueError(f"unknown tolerance {flag!r}; names: {', '.join(tolerances.NAMES)}")
            overrides[name] = float(value)
        else:
            rest.append(arg)
        i += 1
    return rest, overrides


def _load_messages(args, d: int):
    if getattr(args, "messages", None):
        with open(args.messages, encoding="utf-8") as fh:
            messages = message_set_from_json(json.load(fh))
        if messages.d != d:
            raise ValueError(f"message set dimension {messages.d} does not match d={d}")
        return messages
    messages = default_messages(d)
    if messages is None:
        raise ValueError(
            f"no built-in message set for d={d}; supply --messages with a file from `search`"
        )
    return messages


def _bundle_from_args(args):
    spectrum = parse_spectrum(args.spectrum)
    if getattr(args, "d", None) and args.d != spectrum.d:
        raise ValueError(f"--d {args.d} does not match spectrum of length {spectrum.d}")
    messages = _load_messages(args, spectrum.d)
    return build_bundle(spectrum, messages, args.seed)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_example_d2(args) -> int:
    bundle = _bundle_from_args(args)
    decoder = build_decoder(bundle)
    encoded = encode_message(bundle, 2, VARIANT_NO_MEASURE, None)  # no-measure draws nothing
    dist = bob_distribution(decoder, encoded)

    expected = {
        "gamma_0": (bundle.gamma[0], Fraction(320, 6561)),
        "gamma_1": (bundle.gamma[1], Fraction(0)),
        "p_1": (bundle.p1, Fraction(2, 81)),
        "p_T": (bundle.p_t, Fraction(79, 162)),
        "p_Y": (bundle.p_y, Fraction(79, 162)),
        "success_probability": (1.0 - bundle.p1, Fraction(79, 81)),
        "no_measure_outcome_0": (dist[0], Fraction(1, 80)),
        "no_measure_outcome_1": (dist[1], Fraction(0)),
        "no_measure_outcome_2": (dist[2], Fraction(79, 80)),
    }
    checks = {}
    worst = 0.0
    for name, (got, want) in expected.items():
        defect = abs(float(got) - float(want))
        worst = max(worst, defect)
        checks[name] = {
            "value": sig15(float(got)),
            "expected": str(want),
            "defect": defect,
            "pass": defect <= tolerances.get().equality,
        }
    doc = {
        "schema": SCHEMA,
        "kind": "example-d2",
        "spectrum": spectrum_to_json(bundle.spectrum),
        "seed": args.seed,
        "checks": checks,
        "max_defect": worst,
        "pass": worst <= tolerances.get().equality,
    }
    _emit(dumps(doc), args.out)
    return 0 if doc["pass"] else 1


def cmd_bundle(args) -> int:
    bundle = _bundle_from_args(args)
    _emit(dumps(bundle_to_json(bundle)), args.out)
    return 0


def cmd_simulate(args) -> int:
    bundle = _bundle_from_args(args)
    decoder = build_decoder(bundle)
    report = simulate(bundle, decoder, args.message, args.trials, args.variant, args.seed)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["outcome", "count"])
        for key in sorted(report.outcome_histogram):
            writer.writerow([key, report.outcome_histogram[key]])
        _emit(buf.getvalue(), args.out)
    else:
        _emit(dumps(report_to_json(report)), args.out)
    return 0


def cmd_bounds(args) -> int:
    d = args.d
    if d < 2:
        return _fail(f"--d must be >= 2, got {d}")
    if args.points < 1:
        return _fail(f"--points must be >= 1, got {args.points}")
    if args.lambda0:
        try:
            grid = [float(Fraction(tok)) for tok in args.lambda0.split(",") if tok.strip()]
        except ZeroDivisionError as err:
            return _fail(f"bad --lambda0 {args.lambda0!r}: {err}")
        if not grid:
            return _fail(f"--lambda0 {args.lambda0!r} lists no values")
    else:
        lo, hi = 1.0 / d, d / (d * d - 2)
        grid = [lo + k * (hi - lo) / args.points for k in range(args.points)]
    rows = bounds_rows(d, grid)  # p1_equal_tail refuses a lambda0 outside [1/d, d/(d^2-2))
    if args.format == "json":
        doc = {"schema": SCHEMA, "kind": "bounds", "d": d, "rows": rows}
        _emit(dumps(doc), args.out)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        header = ["d", "lambda0", "p1_exact", "p1_bound_general", "p1_bound_equal_tail"]
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [row["d"]] + [f"{sig15(row[key]):.15g}" for key in header[1:]]
            )
        _emit(buf.getvalue(), args.out)
    return 0


def cmd_search(args) -> int:
    spectrum = parse_spectrum(args.spectrum)
    result = search_message_set(spectrum, args.count, args.seed, max_iters=args.max_iters)
    if result is None:
        return _fail(
            f"no certified message set of size {args.count} found after {args.max_iters} restarts"
        )
    psi = make_schmidt_state(spectrum)
    _emit(dumps(message_set_to_json(result, psi, seed=args.seed)), args.out)
    return 0


def cmd_verify(args) -> int:
    reports = run_suite(args.suite, args.seed, d=args.d)
    failed = False
    for report in reports:
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"{status} {report.suite}:{check.name} defect={check.defect:.3e} tol={check.tolerance:.3e}")
            failed = failed or not check.passed
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densecode",
        description=(
            "Dense coding with unitary and non-trace-preserving encodings on a "
            "shared two-qudit state.  Seeds default to 0x5EED_D0DE for "
            "reproducible output; override any tolerance with --tol-<name> <value>."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, spectrum_default=None):
        p.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED,
                       help="64-bit seed (default 0x5EED_D0DE)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if spectrum_default is not None:
            p.add_argument("--spectrum", default=spectrum_default,
                           help="comma-separated coefficients, rationals or decimals")
            p.add_argument("--d", type=int, default=None, help="qudit dimension (checked)")
            p.add_argument("--messages", default=None,
                           help="message-set JSON file (built-in set used at d=2)")

    p = sub.add_parser("example-d2", help="reproduce the built-in two-qubit example")
    add_common(p, spectrum_default=EXAMPLE_SPECTRUM)
    p.set_defaults(func=cmd_example_d2)

    p = sub.add_parser("bundle", help="build a protocol bundle and emit it as JSON")
    add_common(p, spectrum_default=None)
    p.add_argument("--spectrum", required=True,
                   help="comma-separated coefficients, rationals or decimals")
    p.add_argument("--d", type=int, default=None, help="qudit dimension (checked)")
    p.add_argument("--messages", default=None, help="message-set JSON file")
    p.set_defaults(func=cmd_bundle)

    p = sub.add_parser("simulate", help="Monte-Carlo simulation of one message")
    add_common(p, spectrum_default=EXAMPLE_SPECTRUM)
    p.add_argument("--message", type=int, required=True, help="message index")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--variant", choices=["measure", "no-measure"], default="measure")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bounds", help="failure-probability sweep over the flat-tail family")
    add_common(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--points", type=int, default=50, help="grid size (default 50)")
    p.add_argument("--lambda0", default=None,
                   help="explicit comma-separated lambda0 values instead of a grid")
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("search", help="numerical search for a distinguishable message set")
    add_common(p)
    p.add_argument("--spectrum", required=True)
    p.add_argument("--count", type=int, required=True, help="number of messages")
    p.add_argument("--max-iters", type=int, default=20, help="random restarts")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="run a randomized verification suite")
    p.add_argument("--suite", required=True, choices=sorted(set(SUITE_ALIASES) | {"all"}))
    p.add_argument("--d", type=int, default=2, help="dimension for the identity suite")
    p.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, overrides = _extract_tolerance_flags(argv)
        with tolerances.using(**overrides):
            args = _build_parser().parse_args(argv)
            return args.func(args)
    except BundleError as err:
        return _fail(str(err), defects={k: float(v) for k, v in err.defects.items()})
    except (ValueError, OSError, RuntimeError) as err:
        return _fail(str(err))


if __name__ == "__main__":
    sys.exit(main())
