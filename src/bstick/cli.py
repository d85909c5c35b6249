"""Command-line surface: exact values, tables, simulation, verification.

Output goes to stdout as JSON (a single top-level array of records) or CSV
with a fixed header; diagnostics go to stderr.  Identical invocations with
identical seeds produce byte-identical output except the timestamp field.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 exact-
arithmetic cap exceeded, 4 simulation budget exceeded, 5 I/O error.
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
    BudgetExceededError,
    SimulationConfig,
    estimate,
)
from .report import VerificationReport
from .sticks import EventSpec, SamplerModel

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_BUDGET = 4
EXIT_IO = 5

RECORD_FIELDS = [
    "kind", "k", "n", "event", "value_exact", "value_decimal",
    "ci_low", "ci_high", "trials", "seed", "generator_id", "timestamp",
]
REPORT_FIELDS = [
    "check_id", "expected", "actual", "residual", "tolerance", "passed", "runtime_ms",
]

_MAX_SEED = 2**64 - 1


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


def _default_seed() -> int:
    env = os.environ.get("BSTICK_SEED")
    if env is None:
        return 0
    try:
        value = int(env, 10)
    except ValueError:
        raise ValueError(f"BSTICK_SEED must be a decimal integer, got {env!r}") from None
    if not 0 <= value <= _MAX_SEED:
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


def emit_records(records: list[dict[str, Any]], fmt: str, stream) -> None:
    if fmt == "json":
        json.dump(records, stream, indent=2)
        stream.write("\n")
    else:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(RECORD_FIELDS)
        for rec in records:
            writer.writerow([_csv_cell(rec[f]) for f in RECORD_FIELDS])


def emit_report(report: VerificationReport, fmt: str, stream) -> None:
    entries = report.sorted_entries()
    if fmt == "json":
        json.dump([asdict(e) for e in entries], stream, indent=2)
        stream.write("\n")
    else:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(REPORT_FIELDS)
        for e in entries:
            d = asdict(e)
            writer.writerow([_csv_cell(d[f]) for f in REPORT_FIELDS])


_FORMULA_ARGS = {
    # formula: (needs k, needs x)
    "theorem1": (True, False),
    "pnn": (False, False),
    "p3n": (False, False),
    "p4n-beta": (False, False),
    "p5n-beta": (False, False),
    "whitworth": (False, True),
    "exists-triangle": (False, False),
}


def _cmd_exact(args: argparse.Namespace) -> int:
    needs_k, needs_x = _FORMULA_ARGS[args.formula]
    if needs_k and args.k is None:
        raise ValueError(f"--formula {args.formula} requires --k")
    if not needs_k and args.k is not None:
        raise ValueError(f"--formula {args.formula} does not take --k")
    if needs_x and args.x is None:
        raise ValueError(f"--formula {args.formula} requires --x")
    if not needs_x and args.x is not None:
        raise ValueError(f"--formula {args.formula} does not take --x")
    n, cap = args.n, args.cap

    if args.formula == "theorem1":
        rec = _record("exact", k=args.k, n=n, event="theorem1",
                      value_exact=exact.prob_all_kgon(args.k, n, cap=cap))
    elif args.formula == "pnn":
        rec = _record("exact", k=n, n=n, event="pnn",
                      value_exact=exact.prob_all_ngon(n, cap=cap))
    elif args.formula == "p3n":
        rec = _record("exact", k=3, n=n, event="p3n",
                      value_exact=exact.prob_all_triangle(n, cap=cap))
    elif args.formula == "p4n-beta":
        rec = _record("exact", k=4, n=n, event="p4n-beta",
                      value_exact=exact.prob_all_quadrilateral_beta(n, cap=cap))
    elif args.formula == "p5n-beta":
        rec = _record("exact", k=5, n=n, event="p5n-beta",
                      value_exact=exact.prob_all_pentagon_beta(n, cap=cap))
    elif args.formula == "whitworth":
        x = parse_rational(args.x)
        rec = _record("exact", n=n, event=f"whitworth:x={x}",
                      value_exact=exact.whitworth_survivor(n, x, cap=cap))
    else:
        rec = _record("exact", k=3, n=n, event="exists-triangle",
                      value_exact=exact.prob_exists_triangle(n, cap=cap))
    emit_records([rec], args.format, sys.stdout)
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    k_lo, k_hi = parse_range(args.k)
    n_lo, n_hi = parse_range(args.n)
    if k_lo < 3:
        raise ValueError("k range must start at 3 or above")
    records = []
    for k in range(k_lo, k_hi + 1):
        for n in range(n_lo, n_hi + 1):
            if k > n:
                continue
            records.append(_record("exact", k=k, n=n, event="theorem1",
                                   value_exact=exact.prob_all_kgon(k, n, cap=args.cap)))
    emit_records(records, args.format, sys.stdout)
    return EXIT_OK


def _build_event(args: argparse.Namespace) -> EventSpec:
    if args.event == "max-spacing":
        if args.x is None:
            raise ValueError("--event max-spacing requires --x")
        if args.k is not None:
            raise ValueError("--event max-spacing does not take --k")
        return EventSpec.max_spacing(parse_rational(args.x))
    if args.k is None:
        raise ValueError(f"--event {args.event} requires --k")
    if args.x is not None:
        raise ValueError(f"--event {args.event} does not take --x")
    if args.event == "all":
        return EventSpec.all_k_subsets(args.k)
    return EventSpec.exists_k(args.k)


def _cmd_simulate(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    event = _build_event(args)
    model = SamplerModel(args.model)
    config = SimulationConfig(
        n=args.n, event=event, model=model, trials=args.trials,
        seed=seed, chunk_size=args.chunk_size, use_oracle=args.use_oracle,
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
    report = VerificationReport()
    if args.suite in ("exact", "all"):
        report.extend(verify.run_exact_crosschecks(args.n_max))
    if args.suite in ("identities", "all"):
        report.extend(verify.run_identity_selftests())
    if args.suite in ("lemma3", "all"):
        report.extend(verify.run_lemma3_checks())
    if args.suite in ("mc", "all"):
        report.extend(verify.run_mc_crosschecks(args.trials, seed, workers=args.workers))

    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                emit_report(report, args.format, fh)
        except OSError as err:
            print(f"error: cannot write {args.out}: {err}", file=sys.stderr)
            return EXIT_IO
    else:
        emit_report(report, args.format, sys.stdout)

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
    p_exact.add_argument("--formula", required=True, choices=sorted(_FORMULA_ARGS))
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
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--budget", type=int, default=DEFAULT_TRIAL_BUDGET)
    p_sim.add_argument("--use-oracle", action="store_true",
                       help="evaluate events by brute-force subset enumeration")
    p_sim.add_argument("--format", choices=["json", "csv"], default="json")
    p_sim.set_defaults(func=_cmd_simulate)

    p_ver = sub.add_parser("verify", help="run cross-validation suites")
    p_ver.add_argument("--suite", required=True,
                       choices=["exact", "identities", "lemma3", "mc", "all"])
    p_ver.add_argument("--n-max", type=int, default=20)
    p_ver.add_argument("--trials", type=int, default=100_000)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--workers", type=int, default=1)
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


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
