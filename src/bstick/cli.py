"""Command-line surface: exact values, tables, simulation, verification.

Output goes to stdout as JSON (a single top-level array of records) or CSV
with a fixed header; diagnostics go to stderr.  Identical invocations with
identical seeds produce byte-identical output except the timestamp field.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 exact-
arithmetic cap exceeded or an exact value too long to print, 4 simulation
budget exceeded, 5 I/O error, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Any

from . import exact, verify
from .exact import DEFAULT_N_CAP, CapExceededError
from .montecarlo import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_TRIAL_BUDGET,
    MAX_SEED,
    MAX_WORKERS,
    BudgetExceededError,
    SimulationConfig,
    default_workers,
    estimate,
)
from .sticks import EventSpec, SamplerModel

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_BUDGET = 4
EXIT_IO = 5
EXIT_INTERRUPTED = 130

RECORD_FIELDS = [
    "kind", "k", "n", "event", "value_exact", "value_decimal",
    "ci_low", "ci_high", "trials", "seed", "generator_id", "timestamp",
]
REPORT_FIELDS = [
    "check_id", "expected", "actual", "residual", "tolerance", "passed", "runtime_ms",
]


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def fraction_to_decimal(f: Fraction, digits: int = 12) -> str:
    """Decimal approximation to the given number of significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(f.numerator) / Decimal(f.denominator)).lower()


def parse_rational(text: str) -> Fraction:
    """Parse 'num/den' exactly, or a decimal, snapped to denominator <= 10^6."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(text).limit_denominator(10**6)
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError(f"cannot parse rational value {text!r}") from err


def parse_range(text: str) -> tuple[int, int]:
    """Parse 'a:b' (inclusive) or a single integer 'a'."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise ValueError(f"malformed range {text!r}; expected A or A:B") from None
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _check_printable(value: Fraction) -> None:
    """Raise CapExceededError if value_exact would be too long to print.

    Python prints an int of at most sys.get_int_max_str_digits() decimal
    digits (0: no limit) and raises its own ValueError beyond that.
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    largest = max(abs(value.numerator), value.denominator)
    # Fewer than 3 * limit bits is fewer than limit digits, since 2^3 < 10.
    if limit and largest.bit_length() > 3 * limit and largest >= 10**limit:
        raise CapExceededError(
            f"the exact value has more than {limit} decimal digits, the printable "
            f"limit (sys.get_int_max_str_digits()); lower --n or --cap")


def _default_seed() -> int:
    env = os.environ.get("BSTICK_SEED")
    if env is None:
        return 0
    try:
        value = int(env, 10)
    except ValueError:
        raise ValueError(f"BSTICK_SEED must be a decimal integer, got {env!r}") from None
    if not 0 <= value <= MAX_SEED:
        raise ValueError("BSTICK_SEED must fit in an unsigned 64-bit integer")
    return value


def _record(
    kind: str,
    k: int | None = None,
    n: int | None = None,
    event: str | None = None,
    value_exact: Fraction | None = None,
    value_decimal: str | None = None,
    ci_low: float | None = None,
    ci_high: float | None = None,
    trials: int | None = None,
    seed: int | None = None,
    generator_id: str | None = None,
) -> dict[str, Any]:
    if value_exact is not None:
        _check_printable(value_exact)
    if value_decimal is None:
        value_decimal = fraction_to_decimal(value_exact)
    return {
        "kind": kind,
        "k": k,
        "n": n,
        "event": event,
        "value_exact": f"{value_exact.numerator}/{value_exact.denominator}"
        if value_exact is not None else None,
        "value_decimal": value_decimal,
        "ci_low": ci_low,
        "ci_high": ci_high,
        "trials": trials,
        "seed": seed,
        "generator_id": generator_id,
        "timestamp": _timestamp(),
    }


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write(rows: list[dict[str, Any]], fields: list[str], fmt: str, stream) -> None:
    if fmt == "json":
        json.dump(rows, stream, indent=2)
        stream.write("\n")
    else:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_csv_cell(row[f]) for f in fields])


# emit_records and emit_report never call each other: perfbench's tracer
# times each of them as one emit.
def emit_records(records: list[dict[str, Any]], fmt: str, stream) -> None:
    _write(records, RECORD_FIELDS, fmt, stream)


def emit_report(report: verify.VerificationReport, fmt: str, stream) -> None:
    _write([asdict(e) for e in report.sorted_entries()], REPORT_FIELDS, fmt, stream)


def _check_options(owner: str, takes: str | None, args: argparse.Namespace,
                   order: tuple[str, str] = ("k", "x")) -> None:
    """Require the option `takes` ("k", "x" or None) and refuse the other one.

    The options are checked in `order` and the first violation is raised.
    """
    for option in order:
        given = getattr(args, option) is not None
        if option == takes and not given:
            raise ValueError(f"{owner} requires --{option}")
        if option != takes and given:
            raise ValueError(f"{owner} does not take --{option}")


def _cmd_exact(args: argparse.Namespace) -> int:
    formula = exact.FORMULAS[args.formula]
    _check_options(f"--formula {args.formula}", formula.arg, args)
    n = args.n
    if formula.arg == "x":
        arg = parse_rational(args.x)
        k, event = None, f"{args.formula}:x={arg}"
    else:
        arg = args.k
        k = arg if formula.arg == "k" else formula.k_of_n(n)
        event = args.formula
    rec = _record("exact", k=k, n=n, event=event,
                  value_exact=formula.evaluate(n, arg, args.cap))
    emit_records([rec], args.format, sys.stdout)
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    k_lo, k_hi = parse_range(args.k)
    n_lo, n_hi = parse_range(args.n)
    if k_lo < 3:
        raise ValueError("k range must start at 3 or above")
    records = []
    # Cells with k > n are empty: no k beyond the largest n is visited.
    for k in range(k_lo, min(k_hi, n_hi) + 1):
        for n in range(max(k, n_lo), n_hi + 1):
            records.append(_record("exact", k=k, n=n, event="theorem1",
                                   value_exact=exact.prob_all_kgon(k, n, cap=args.cap)))
    emit_records(records, args.format, sys.stdout)
    return EXIT_OK


def _build_event(args: argparse.Namespace) -> EventSpec:
    # An event's own option is checked first, then the one it refuses.
    order = ("x", "k") if args.event == "max-spacing" else ("k", "x")
    _check_options(f"--event {args.event}", order[0], args, order)
    if args.event == "max-spacing":
        return EventSpec.max_spacing(parse_rational(args.x))
    if args.event == "all":
        return EventSpec.all_k_subsets(args.k)
    return EventSpec.exists_k(args.k)


def _cmd_simulate(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    event = _build_event(args)
    model = SamplerModel(args.model)
    config = SimulationConfig(
        n=args.n, event=event, model=model, trials=args.trials,
        seed=seed, chunk_size=args.chunk_size,
    )
    result = estimate(config, workers=args.workers, budget=args.budget)
    rec = _record(
        "estimate", k=event.k, n=args.n, event=event.label(),
        value_decimal=f"{result.p_hat:.12g}",
        ci_low=result.ci_low, ci_high=result.ci_high,
        trials=result.trials, seed=result.seed,
        generator_id=result.generator_id,
    )
    emit_records([rec], args.format, sys.stdout)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    report = verify.run_all(args.n_max, args.trials, seed, args.workers, suite=args.suite)

    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                emit_report(report, args.format, fh)
        except OSError as err:
            print(f"error: cannot write {args.out}: {err}", file=sys.stderr)
            return EXIT_IO
    else:
        emit_report(report, args.format, sys.stdout)

    for total in report.totals:
        print(f"suite {total.suite}: {total.checks} checks, {total.failed} failed, "
              f"{total.runtime_ms} ms", file=sys.stderr)
    failures = report.failures()
    print(f"{len(report.entries)} checks, {len(failures)} failed", file=sys.stderr)
    for entry in failures:
        print(f"FAIL {entry.check_id}: expected {entry.expected}, "
              f"got {entry.actual}", file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bstick",
        description="Broken-stick polygon probabilities: exact values, "
                    "Monte Carlo estimates, and cross-validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="evaluate one closed-form probability")
    p_exact.add_argument("--formula", required=True, choices=sorted(exact.FORMULAS))
    p_exact.add_argument("--k", type=int)
    p_exact.add_argument("--n", type=int, required=True)
    p_exact.add_argument("--x", help="rational threshold, e.g. 1/2 or 0.5")
    p_exact.add_argument("--cap", type=int, default=DEFAULT_N_CAP)
    p_exact.add_argument("--format", choices=["json", "csv"], default="json")
    p_exact.set_defaults(func=_cmd_exact)

    p_table = sub.add_parser("table", help="tabulate the general formula over ranges")
    p_table.add_argument("--k", required=True, help="range A:B or single value")
    p_table.add_argument("--n", required=True, help="range A:B or single value")
    p_table.add_argument("--cap", type=int, default=DEFAULT_N_CAP)
    p_table.add_argument("--format", choices=["json", "csv"], default="json")
    p_table.set_defaults(func=_cmd_table)

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimate of an event probability")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--event", required=True, choices=["all", "exists", "max-spacing"])
    p_sim.add_argument("--k", type=int)
    p_sim.add_argument("--x", help="rational threshold for max-spacing")
    p_sim.add_argument("--trials", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=None,
                       help="default: BSTICK_SEED environment variable, else 0")
    p_sim.add_argument("--model", choices=["uniform", "exponential"], default="uniform")
    p_sim.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE)
    p_sim.add_argument("--workers", type=int, default=1,
                       help=f"threads sharing the estimate's chunks (1..{MAX_WORKERS})")
    p_sim.add_argument("--budget", type=int, default=DEFAULT_TRIAL_BUDGET)
    p_sim.add_argument("--format", choices=["json", "csv"], default="json")
    p_sim.set_defaults(func=_cmd_simulate)

    p_ver = sub.add_parser("verify", help="run cross-validation suites")
    p_ver.add_argument("--suite", required=True,
                       choices=[*verify.SUITES, "all"])
    p_ver.add_argument("--n-max", type=int, default=20)
    p_ver.add_argument("--trials", type=int, default=100_000)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--workers", type=int, default=default_workers(),
                       help=f"Monte Carlo estimates run at a time (1..{MAX_WORKERS}); "
                            "default: the CPUs this process may use")
    p_ver.add_argument("--out", help="write the report to this file instead of stdout")
    p_ver.add_argument("--format", choices=["json", "csv"], default="json")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CapExceededError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CAP
    except BudgetExceededError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
