"""Command-line surface: exact values, tables, simulation, verification.

Output goes to stdout as JSON (a single top-level array of records) or CSV
with a fixed header; diagnostics go to stderr.  Identical argv give
byte-identical output.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 an exact-
arithmetic bound exceeded (refused before the work starts), 4 simulation
budget exceeded, 5 stdout could not be written, 130 interrupted (Ctrl-C).
The bounds also bound every exact value's size, so every value they admit
prints in full, whatever sys.get_int_max_str_digits().
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache
from typing import Any

from . import exact, verify
from .exact import CapExceededError
from .montecarlo import (
    MAX_WORKERS,
    BudgetExceededError,
    SimulationConfig,
    default_workers,
    estimate,
)
from .sticks import EventKind, EventSpec, SamplerModel

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
    "ci_low", "ci_high", "trials", "seed", "generator_id",
]
REPORT_FIELDS = [f.name for f in fields(verify.VerificationEntry)]


def fraction_texts(f: Fraction) -> tuple[str, str]:
    """f as 'num/den' and as a decimal of 12 significant digits.

    The integers are printed through Decimal, which has no digit limit, unlike
    str(int); each is converted once, the costliest step for a long value.
    """
    num, den = Decimal(f.numerator), Decimal(f.denominator)
    with localcontext() as ctx:
        ctx.prec = 12
        return f"{num}/{den}", str(num / den).lower()


def parse_rational(text: str) -> Fraction:
    """Parse an integer or 'num/den' exactly, or a plain decimal, snapped to
    denominator <= 10^6.  An exponent form, as in '1e-3', is refused."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        if "e" in text.lower():
            raise ValueError
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


def _record(kind: str, value_exact: Fraction | None = None, **values: Any) -> dict[str, Any]:
    """A record keyed by RECORD_FIELDS in order, absent fields None; an exact
    value fills both value_exact and value_decimal."""
    rec = dict.fromkeys(RECORD_FIELDS)
    rec.update(values, kind=kind)
    if value_exact is not None:
        rec["value_exact"], rec["value_decimal"] = fraction_texts(value_exact)
    return rec


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
        import csv

        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_csv_cell(row[f]) for f in fields])


# emit_records and emit_report never call each other: perfbench's tracer
# times each of them as one emit.
def emit_records(records: list[dict[str, Any]], fmt: str, stream) -> None:
    _write(records, RECORD_FIELDS, fmt, stream)


def emit_report(report: verify.VerificationReport, fmt: str, stream) -> None:
    rows = [{name: getattr(e, name) for name in REPORT_FIELDS} for e in report.sorted_entries()]
    _write(rows, REPORT_FIELDS, fmt, stream)


def _check_options(owner: str, takes: str | None, args: argparse.Namespace) -> None:
    """Require the option `takes` ("k", "x" or None), then refuse the others.

    One rule for every command: a missing option it takes is reported before
    an option it does not take, and --k before --x.
    """
    if takes is not None and getattr(args, takes) is None:
        raise ValueError(f"{owner} requires --{takes}")
    for option in ("k", "x"):
        if option != takes and getattr(args, option) is not None:
            raise ValueError(f"{owner} does not take --{option}")


def _cmd_exact(args: argparse.Namespace) -> int:
    formula = exact.FORMULAS[args.formula]
    _check_options(f"--formula {args.formula}", formula.arg, args)
    n = args.n
    arg = parse_rational(args.x) if formula.arg == "x" else args.k
    # Evaluate first: the value's own checks bound x before its label prints it.
    value = formula.evaluate(n, arg)
    if formula.arg == "x":
        k, event = None, f"{args.formula}:x={arg}"
    else:
        k = arg if formula.arg == "k" else formula.k_of_n(n)
        event = args.formula
    rec = _record("exact", k=k, n=n, event=event, value_exact=value)
    emit_records([rec], args.format, sys.stdout)
    return EXIT_OK


# Theorem 1 at (k, n) adds m = n - k + 2 terms, each over a product of k - 2
# factors, into a sum whose denominator grows to about m*k bits.  A cell and its
# record cost about mk * (mk * bits(mk) + 94_000) + m * (9_800*m + 1_780_000)
# work units, mk = m*k.  On a 2 vCPU Xeon a unit took 1.9e-12 to 2.8e-12 s over
# the cells n in {50, 100, 200, 400, 800} x k in {3, n/4, n/2, 0.6n, 0.75n, 0.9n},
# and 1.6e-12 to 3.0e-12 s over eleven whole tables, so a table within the budget
# takes at most about 6 s.  From a fresh interpreter, printing included,
# --k 3:12 --n 778:800 (0.98x the budget) took 5.9 s and --k 3:200 --n 195:200
# (0.98x) 5.0 s; --k 560:567 --n 800 (1.35x) is refused.
TABLE_WORK_BUDGET = 2 * 10**12


def _cmd_table(args: argparse.Namespace) -> int:
    k_lo, k_hi = parse_range(args.k)
    n_lo, n_hi = parse_range(args.n)
    if k_lo < 3:
        raise ValueError("k range must start at 3 or above")
    exact._check_cap(n_hi)
    cells, work = [], 0
    # Cells with k > n are empty: no k beyond the largest n is visited.
    for k in range(k_lo, min(k_hi, n_hi) + 1):
        for n in range(max(k, n_lo), n_hi + 1):
            m = n - k + 2
            mk = m * k
            work += mk * (mk * mk.bit_length() + 94_000) + m * (9_800 * m + 1_780_000)
            if work > TABLE_WORK_BUDGET:
                raise CapExceededError(
                    f"the table exceeds the work bound TABLE_WORK_BUDGET = "
                    f"{TABLE_WORK_BUDGET}; narrow --k or --n")
            cells.append((k, n))
    records = [_record("exact", k=k, n=n, event="theorem1",
                       value_exact=exact.prob_all_kgon(k, n)) for k, n in cells]
    emit_records(records, args.format, sys.stdout)
    return EXIT_OK


def _build_event(args: argparse.Namespace) -> EventSpec:
    kind = EventKind(args.event)
    takes = "x" if kind is EventKind.MAX_SPACING else "k"
    _check_options(f"--event {args.event}", takes, args)
    if kind is EventKind.MAX_SPACING:
        return EventSpec.max_spacing(parse_rational(args.x))
    return EventSpec(kind, k=args.k)


def _cmd_simulate(args: argparse.Namespace) -> int:
    event = _build_event(args)
    model = SamplerModel(args.model)
    config = SimulationConfig(n=args.n, event=event, model=model, trials=args.trials,
                              seed=args.seed)
    result = estimate(config, workers=args.workers)
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
    workers = default_workers() if args.workers is None else args.workers
    report = verify.run_all(args.n_max, args.trials, args.seed, workers, suite=args.suite)
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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process; so it reads
    nothing of the host: _cmd_verify asks default_workers() when it runs."""
    parser = argparse.ArgumentParser(
        prog="bstick",
        description="Broken-stick polygon probabilities: exact values, "
                    "Monte Carlo estimates, and cross-validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=["json", "csv"], default="json")

    p_exact = sub.add_parser("exact", parents=[output],
                             help="evaluate one closed-form probability")
    p_exact.add_argument("--formula", required=True, choices=sorted(exact.FORMULAS))
    p_exact.add_argument("--k", type=int)
    p_exact.add_argument("--n", type=int, required=True)
    p_exact.add_argument("--x", help="rational threshold, e.g. 1/2 or 0.5")
    p_exact.set_defaults(func=_cmd_exact)

    p_table = sub.add_parser("table", parents=[output],
                             help="tabulate the general formula over ranges")
    p_table.add_argument("--k", required=True, help="range A:B or single value")
    p_table.add_argument("--n", required=True, help="range A:B or single value")
    p_table.set_defaults(func=_cmd_table)

    p_sim = sub.add_parser("simulate", parents=[output],
                           help="Monte Carlo estimate of an event probability")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--event", required=True, choices=[e.value for e in EventKind])
    p_sim.add_argument("--k", type=int)
    p_sim.add_argument("--x", help="rational threshold for max-spacing")
    p_sim.add_argument("--trials", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--model", choices=[m.value for m in SamplerModel],
                       default=SamplerModel.UNIFORM_BREAKS.value)
    p_sim.add_argument("--workers", type=int, default=1,
                       help=f"threads sharing the estimate's chunks (1..{MAX_WORKERS})")
    p_sim.set_defaults(func=_cmd_simulate)

    p_ver = sub.add_parser("verify", parents=[output], help="run cross-validation suites")
    p_ver.add_argument("--suite", required=True, choices=verify.SUITE_CHOICES)
    p_ver.add_argument("--n-max", type=int, default=20,
                       help="largest n of the cross-checks (read by the exact suite only)")
    p_ver.add_argument("--trials", type=int, default=100_000,
                       help="trials per estimate (read by the mc suite only)")
    p_ver.add_argument("--seed", type=int, default=0,
                       help="seed of the first estimate (read by the mc suite only)")
    p_ver.add_argument("--workers", type=int,
                       help=f"Monte Carlo estimates run at a time (1..{MAX_WORKERS}); "
                            "default: the CPUs this process may use "
                            "(read by the mc suite only)")
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
