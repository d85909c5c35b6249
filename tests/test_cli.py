"""CLI behavior: record schemas, exit codes, and output determinism.

All invocations go through main(argv) in-process so capsys sees the streams.
"""

import csv
import io
import itertools
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bstick import exact, verify
from bstick.cli import (
    EXIT_BUDGET,
    EXIT_CAP,
    EXIT_INTERRUPTED,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    RECORD_FIELDS,
    REPORT_FIELDS,
    build_parser,
    fraction_texts,
    main,
    parse_range,
    parse_rational,
)
from bstick.montecarlo import GENERATOR_ID, MAX_WORKERS, default_workers
from bstick.verify import VerificationEntry, VerificationReport

from decimal import Decimal
from fractions import Fraction

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cli_env(**env_vars):
    env = dict(os.environ, **env_vars)
    src = str(Path(exact.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_subprocess(*argv, **env_vars):
    """Run the CLI in a fresh interpreter, so a hang cannot stall the suite."""
    return subprocess.run([sys.executable, "-m", "bstick.cli", *argv],
                          capture_output=True, text=True, env=_cli_env(**env_vars),
                          timeout=30)


# Runs main(argv) in a fresh interpreter and writes main's own wall time, the
# interpreter's start and imports left out, as the last line of stderr.
_TIMED_MAIN = """
import sys, time
from bstick.cli import main
t0 = time.perf_counter()
code = main(sys.argv[1:])
print(f"main_s={time.perf_counter() - t0}", file=sys.stderr)
sys.exit(code)
"""


def run_timed_subprocess(*argv, **env_vars):
    """run_subprocess, and the seconds the child's main(argv) took."""
    proc = subprocess.run([sys.executable, "-c", _TIMED_MAIN, *argv],
                          capture_output=True, text=True, env=_cli_env(**env_vars), timeout=30)
    return proc, float(proc.stderr.rpartition("main_s=")[2])


def records_of(out: str):
    data = json.loads(out)
    assert isinstance(data, list)
    for rec in data:
        assert list(rec.keys()) == RECORD_FIELDS
    return data


# ------------------------------------------------------------------ helpers


def test_parse_rational():
    assert parse_rational("1/2") == F(1, 2)
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational("7") == 7
    # decimals snap to denominators up to 10^6
    assert parse_rational("0.333333") == F(333333, 1000000)
    # ... but only to a snap that rounds back to the decimal at its places
    assert parse_rational("0.0000001") == F(1, 10**7)
    assert parse_rational("0.9999999") == F(9999999, 10**7)
    for bad in ("", "a/b", "1/0", "one", "1e"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_parse_rational_refuses_an_exponent_form():
    """--x takes an integer, num/den or a plain decimal (test_parse_rational);
    no exponent form."""
    for bad in ("1e-3", "5E-1", "0.5e0"):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_rational(bad)
    assert parse_rational("0.5") == F(1, 2)
    assert parse_rational("0.3333333") == F(1, 3)  # snapped to a denominator <= 10^6


def test_parse_range():
    assert parse_range("4") == (4, 4)
    assert parse_range("3:9") == (3, 9)
    for bad in ("", "5:3", "1:2:3", "x:y"):
        with pytest.raises(ValueError):
            parse_range(bad)


def test_fraction_texts_are_num_den_and_12_significant_digits():
    assert fraction_texts(F(1, 4)) == ("1/4", "0.25")
    assert fraction_texts(F(43, 189)) == ("43/189", "0.227513227513")
    assert fraction_texts(F(2, 3)) == ("2/3", "0.666666666667")
    assert fraction_texts(F(1, 10**30)) == (f"1/1{'0' * 30}", "1e-30")
    assert fraction_texts(F(-5, 7)) == ("-5/7", "-0.714285714286")


# -------------------------------------------------------------------- exact


def test_exact_theorem1_json(capsys):
    code, out, _ = run(capsys, "exact", "--formula", "theorem1", "--k", "4", "--n", "5")
    assert code == EXIT_OK
    (rec,) = records_of(out)
    assert rec["kind"] == "exact"
    assert (rec["k"], rec["n"]) == (4, 5)
    assert rec["event"] == "theorem1"
    assert rec["value_exact"] == "43/189"
    assert rec["value_decimal"] == "0.227513227513"
    assert rec["ci_low"] is None and rec["trials"] is None
    assert rec["generator_id"] is None


@pytest.mark.parametrize(
    "formula,n,k_out,value",
    [
        ("pnn", 6, 6, "13/16"),
        ("p3n", 5, 3, "1/56"),
        ("p4n-beta", 5, 4, "43/189"),
        ("p5n-beta", 5, 5, "11/16"),
        ("exists-triangle", 4, 3, "4/7"),
    ],
)
def test_exact_single_parameter_formulas(capsys, formula, n, k_out, value):
    code, out, _ = run(capsys, "exact", "--formula", formula, "--n", str(n))
    assert code == EXIT_OK
    (rec,) = records_of(out)
    assert rec["k"] == k_out
    assert rec["event"] == formula
    assert rec["value_exact"] == value


def test_exact_whitworth_labels_threshold(capsys):
    code, out, _ = run(
        capsys, "exact", "--formula", "whitworth", "--n", "4", "--x", "0.5"
    )
    assert code == EXIT_OK
    (rec,) = records_of(out)
    assert rec["event"] == "whitworth:x=1/2"
    assert rec["k"] is None
    assert rec["value_exact"] == "1/2"


@pytest.mark.parametrize("command, event", [
    (("exact", "--formula", "whitworth", "--n", "5"), "whitworth:x=1/10000000"),
    (("simulate", "--n", "5", "--event", "max-spacing", "--trials", "1000"),
     "max-spacing:x=1/10000000"),
])
def test_a_decimal_x_inside_the_unit_interval_is_admitted(capsys, command, event):
    """A decimal --x near 0 reads exactly, not as its snap 0, which the range
    check on x refused (exit 2)."""
    code, out, err = run(capsys, *command, "--x", "0.0000001")
    assert code == EXIT_OK, err
    (rec,) = records_of(out)
    assert rec["event"] == event


def test_exact_csv_header_is_fixed(capsys):
    code, out, _ = run(
        capsys, "exact", "--formula", "theorem1", "--k", "3", "--n", "3",
        "--format", "csv",
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "kind,k,n,event,value_exact,value_decimal,ci_low,ci_high,trials,seed,generator_id"
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["value_exact"] == "1/4"
    assert row["ci_low"] == ""  # absent fields are empty strings in CSV


def test_exact_argument_policing(capsys):
    # missing required parameter
    code, _, err = run(capsys, "exact", "--formula", "theorem1", "--n", "5")
    assert code == EXIT_USAGE and "requires --k" in err
    # extraneous parameter
    code, _, err = run(capsys, "exact", "--formula", "pnn", "--n", "5", "--k", "3")
    assert code == EXIT_USAGE and "does not take --k" in err
    # the option a formula takes is required before the other one is refused
    code, _, err = run(capsys, "exact", "--formula", "whitworth", "--n", "5", "--k", "3")
    assert code == EXIT_USAGE and "requires --x" in err
    code, _, err = run(capsys, "exact", "--formula", "p3n", "--n", "5", "--x", "1/2")
    assert code == EXIT_USAGE
    # invalid domain
    code, _, err = run(capsys, "exact", "--formula", "theorem1", "--k", "9", "--n", "5")
    assert code == EXIT_USAGE


def _smallest_n(name, formula):
    if formula.k_of_n is not None:
        return next(n for n in itertools.count(3) if formula.k_of_n(n) <= n)
    return {"theorem1": 3, "whitworth": 2}[name]  # theorem1 with --k 3


def test_every_registry_formula_runs_and_is_cross_checked(capsys):
    """Each exact.FORMULAS entry is a --formula choice that runs at its
    smallest n with exactly its own option, and its cross-check against
    Theorem 1 covers every n from there on."""
    code, out, _ = run(capsys, "verify", "--suite", "exact", "--n-max", "8")
    assert code == EXIT_OK
    ids = {e["check_id"] for e in json.loads(out)}
    option_values = {"k": "3", "x": "1/2"}
    for name, formula in exact.FORMULAS.items():
        n_min = _smallest_n(name, formula)
        argv = ["exact", "--formula", name]
        if formula.arg is not None:
            argv += [f"--{formula.arg}", option_values[formula.arg]]
        code, out, err = run(capsys, *argv, "--n", str(n_min))
        assert code == EXIT_OK, (name, err)
        (rec,) = records_of(out)
        if formula.k_of_n is not None:
            assert rec["k"] == formula.k_of_n(n_min)
        assert run(capsys, *argv, "--n", str(n_min - 1))[0] == EXIT_USAGE
        for option, value in option_values.items():
            if option == formula.arg:
                code, _, err = run(capsys, "exact", "--formula", name, "--n", str(n_min))
                assert code == EXIT_USAGE and f"requires --{option}" in err
            else:
                code, _, err = run(capsys, *argv, "--n", str(n_min), f"--{option}", value)
                assert code == EXIT_USAGE and f"does not take --{option}" in err
        if formula.check is not None:
            for n in range(3, 9):
                expected = formula.k_of_n(n) <= n
                assert (f"exact/{formula.check}/n={n:02d}" in ids) == expected, (name, n)


def test_exact_cap_exit_code(capsys):
    """exact.MAX_CAP is the one bound on n, and --cap is gone (exit 2)."""
    code, _, err = run(capsys, "exact", "--formula", "pnn", "--n", str(exact.MAX_CAP + 1))
    assert code == EXIT_CAP and f"exceeds the limit MAX_CAP = {exact.MAX_CAP}" in err
    assert run(capsys, "exact", "--formula", "pnn", "--n", str(exact.MAX_CAP))[0] == EXIT_OK
    code, out, _ = run(capsys, "exact", "--formula", "theorem1", "--k", "4", "--n", "300")
    assert code == EXIT_OK and records_of(out)[0]["n"] == 300
    code, out, err = run(capsys, "exact", "--formula", "pnn", "--n", "500", "--cap", "500")
    assert code == EXIT_USAGE and out == "" and "--cap" in err
    assert run(capsys, "table", "--k", "3", "--n", "5", "--cap", "500")[0] == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ("exact", "--formula", "pnn", "--n", "3000000000"),
    ("exact", "--formula", "theorem1", "--k", "3", "--n", "20000"),
    ("table", "--k", "3", "--n", f"{exact.MAX_CAP + 1}"),
    ("table", "--k", "400", "--n", f"{exact.MAX_CAP - 1}:{exact.MAX_CAP + 1}"),
])
def test_cap_above_max_cap_exits_at_once(argv):
    """An n above exact.MAX_CAP exits 3 before any arithmetic, in a table
    before its first cell.  With no ceiling on n, the exact commands ran for
    more than 10 s.  The last table is 0.72x TABLE_WORK_BUDGET, and its two
    cells below the cap took 1.75 s, so only a refusal before the first cell
    meets the bound."""
    proc, elapsed = run_timed_subprocess(*argv)
    assert proc.returncode == EXIT_CAP and proc.stdout == ""
    assert f"exceeds the limit MAX_CAP = {exact.MAX_CAP}" in proc.stderr
    assert elapsed < 1.0


@pytest.mark.parametrize("argv, bound", [
    (("table", "--k", "3:200", "--n", "3:200"), "TABLE_WORK_BUDGET"),
    (("exact", "--formula", "whitworth", "--n", "800",
      "--x", f"{10**1000 // 3 + 1}/{10**1000 + 1}"), "WHITWORTH_WORK_BUDGET"),
    (("table", "--k", "560:567", "--n", "800"), "TABLE_WORK_BUDGET"),
])
def test_work_above_its_bound_exits_at_once(argv, bound):
    """A table or a Whitworth sum whose work exceeds its bound exits 3 before
    the first cell or power.  Unbounded, the full k <= n <= 200 table took
    38 s, this Whitworth sum 13 s and the k = 560..567 row at n = 800 (1.35x
    the bound) 6.0 s."""
    proc, elapsed = run_timed_subprocess(*argv)
    assert proc.returncode == EXIT_CAP and proc.stdout == ""
    assert f"exceeds the work bound {bound} = " in proc.stderr
    assert elapsed < 1.0


@pytest.mark.parametrize("argv", [
    ("--k", "3:200", "--n", "195:200"),
    ("--k", "3:12", "--n", "778:800"),
    ("--k", "3:135", "--n", "300"),
])
def test_tables_within_the_work_bound_are_admitted(capsys, monkeypatch, argv):
    """These tables fit TABLE_WORK_BUDGET (0.98x, 0.98x and 0.41x of it) and
    took 5.0, 5.9 and 2.5 s; the values are stubbed here, since only the
    bound's verdict is under test."""
    monkeypatch.setattr(exact, "prob_all_kgon", lambda k, n: F(k, n))
    code, out, _ = run(capsys, "table", *argv, "--format", "csv")
    assert code == EXIT_OK and len(out.splitlines()) > 1


@pytest.mark.parametrize("x, env_vars", [
    pytest.param("1e-10000000", {}, id="1e-10000000"),
    pytest.param("1e+10000000", {}, id="1e+10000000"),
    pytest.param("1e-10000000", {"PYTHONINTMAXSTRDIGITS": "0"},
                 id="1e-10000000-PYTHONINTMAXSTRDIGITS=0"),
])
@pytest.mark.parametrize("command", [
    ("simulate", "--n", "5", "--event", "max-spacing", "--trials", "1000"),
    ("exact", "--formula", "whitworth", "--n", "5"),
])
def test_decimal_x_with_a_huge_exponent_exits_at_once(command, x, env_vars):
    """An exponent form is not a --x: it is a usage error, refused before
    10^exponent is built (1e-10000000 took 37 s), with or without the int
    digit limit (PYTHONINTMAXSTRDIGITS=0)."""
    proc, elapsed = run_timed_subprocess(*command, "--x", x, **env_vars)
    assert proc.returncode == EXIT_USAGE and proc.stdout == ""
    assert "cannot parse rational value" in proc.stderr
    assert elapsed < 1.0


@pytest.mark.parametrize("command", [
    ("simulate", "--n", "5", "--event", "max-spacing", "--trials", "1000"),
    ("exact", "--formula", "whitworth", "--n", "5"),
])
def test_decimal_x_at_the_digit_limit_is_refused_by_its_range(command):
    """A 4300-digit --x parses under the int digit limit: the range check on
    x refuses it before any label would print it."""
    proc = run_subprocess(*command, "--x", "9" * 4300, PYTHONINTMAXSTRDIGITS="4300")
    assert proc.returncode == EXIT_USAGE and proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and "Exceeds the limit" not in line


def _read_back(value_exact: str) -> Fraction:
    """A printed 'num/den' as a Fraction, read through Decimal, which has no
    digit limit."""
    num, den = value_exact.split("/")
    return F(Decimal(num)) / F(Decimal(den))


def test_values_past_the_int_digit_limit_print_in_full():
    """Under Python's default int-to-str digit limit (4300), every admitted
    value prints in full.  The Whitworth denominator is 1000001^799, about
    4800 digits, and the table's cells have 4300-5700 digits."""
    limit = {"PYTHONINTMAXSTRDIGITS": "4300"}
    proc = run_subprocess("exact", "--formula", "whitworth", "--n", "800",
                          "--x", "333334/1000001", **limit)
    assert proc.returncode == EXIT_OK
    [rec] = records_of(proc.stdout)
    value = exact.whitworth_survivor(800, F(333334, 1000001))
    assert value.denominator >= 10**4300
    assert _read_back(rec["value_exact"]) == value
    # value_decimal is value rounded to 12 significant digits.
    rounded = Decimal(rec["value_decimal"])
    assert len(rounded.as_tuple().digits) <= 12
    assert abs(F(rounded) - value) <= F(1, 2) * F(10) ** (rounded.adjusted() - 11)

    proc = run_subprocess("table", "--k", "134:135", "--n", "299:300", **limit)
    assert proc.returncode == EXIT_OK
    recs = records_of(proc.stdout)
    assert [(r["k"], r["n"]) for r in recs] == [(134, 299), (134, 300), (135, 299), (135, 300)]
    values = [exact.prob_all_kgon(r["k"], r["n"]) for r in recs]
    assert [_read_back(r["value_exact"]) for r in recs] == values
    assert max(v.denominator for v in values) >= 10**4300


def test_whitworth_at_its_work_bound_prints_in_full():
    """x = (2^789 + 1)/2^790 at n = 800 is one term of 799 * 791 bits, work
    3.99e11, just inside WHITWORTH_WORK_BUDGET: its value, about 190 000
    digits in each of its numerator and denominator, prints in full."""
    x = F(2**789 + 1, 2**790)
    assert (799 * 791) ** 2 <= exact.WHITWORTH_WORK_BUDGET < (799 * 792) ** 2
    proc = run_subprocess("exact", "--formula", "whitworth", "--n", "800",
                          "--x", f"{x.numerator}/{x.denominator}",
                          PYTHONINTMAXSTRDIGITS="4300")
    assert proc.returncode == EXIT_OK
    [rec] = records_of(proc.stdout)
    value = exact.whitworth_survivor(800, x)
    num, den = rec["value_exact"].split("/")
    for text, part in ((num, value.numerator), (den, value.denominator)):
        assert 10 ** (len(text) - 1) <= part < 10 ** len(text)


# -------------------------------------------------------------------- table


def test_table_skips_cells_above_the_diagonal(capsys):
    code, out, _ = run(capsys, "table", "--k", "3:5", "--n", "3:5")
    assert code == EXIT_OK
    recs = records_of(out)
    assert [(r["k"], r["n"]) for r in recs] == [
        (3, 3), (3, 4), (3, 5), (4, 4), (4, 5), (5, 5)
    ]
    assert all(r["event"] == "theorem1" for r in recs)
    by_cell = {(r["k"], r["n"]): r["value_exact"] for r in recs}
    assert by_cell[(5, 5)] == "11/16"


def test_table_does_not_walk_k_beyond_the_largest_n():
    """A huge --k range prints the output of --k 3:5 at once, not after
    walking every empty cell (run in a subprocess so a hang cannot stall
    the suite)."""
    def stdout(k_range):
        proc = run_subprocess("table", "--k", k_range, "--n", "3:5")
        assert proc.returncode == EXIT_OK
        return proc.stdout

    assert stdout("3:1000000000000000000") == stdout("3:5")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("k, n", [(4, 9), (3, 3), (12, 12)])
def test_a_table_cell_is_the_exact_record(capsys, k, n, fmt):
    """table --k K --n N prints the bytes of exact --formula theorem1 at (K, N)."""
    table = run(capsys, "table", "--k", str(k), "--n", str(n), "--format", fmt)
    one = run(capsys, "exact", "--formula", "theorem1", "--k", str(k), "--n", str(n),
              "--format", fmt)
    assert table == one and table[0] == EXIT_OK


def test_table_with_a_huge_negative_k_exits_at_once():
    """The k range's lower end is checked before any cell is walked."""
    proc, elapsed = run_timed_subprocess("table", "--k=-1000000000000000000:5", "--n", "3:5")
    assert proc.returncode == EXIT_USAGE and proc.stdout == ""
    assert "k range must start at 3 or above" in proc.stderr
    assert elapsed < 1.0


def test_table_single_point_and_bad_ranges(capsys):
    code, out, _ = run(capsys, "table", "--k", "4", "--n", "6")
    assert code == EXIT_OK
    (rec,) = records_of(out)
    assert (rec["k"], rec["n"]) == (4, 6)
    code, _, _ = run(capsys, "table", "--k", "5:4", "--n", "3")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "table", "--k", "2:4", "--n", "3:5")
    assert code == EXIT_USAGE


# ----------------------------------------------------------------- simulate


def test_simulate_record_and_accuracy(capsys):
    code, out, _ = run(
        capsys, "simulate", "--n", "3", "--event", "all", "--k", "3",
        "--trials", "400000", "--seed", "21", "--workers", "4",
    )
    assert code == EXIT_OK
    (rec,) = records_of(out)
    assert rec["kind"] == "estimate"
    assert rec["event"] == "all:k=3"
    assert rec["value_exact"] is None
    assert rec["trials"] == 400000 and rec["seed"] == 21
    assert rec["generator_id"] == GENERATOR_ID
    assert abs(float(rec["value_decimal"]) - 0.25) < 5 * (0.25 * 0.75 / 400000) ** 0.5
    assert rec["ci_low"] < 0.25 < rec["ci_high"]


def test_simulate_output_identical_across_worker_counts(capsys):
    argv = ["simulate", "--n", "6", "--event", "max-spacing", "--x", "1/2",
            "--trials", "150000", "--seed", "3", "--format", "csv"]
    code, out1, _ = run(capsys, *argv, "--workers", "1")
    assert code == EXIT_OK
    code, out8, _ = run(capsys, *argv, "--workers", "8")
    assert code == EXIT_OK
    assert out1 == out8


def test_simulate_argument_policing(capsys):
    code, _, err = run(capsys, "simulate", "--n", "5", "--event", "all",
                       "--trials", "1000")
    assert code == EXIT_USAGE and "requires --k" in err
    code, _, err = run(capsys, "simulate", "--n", "5", "--event", "max-spacing",
                       "--trials", "1000")
    assert code == EXIT_USAGE and "requires --x" in err
    code, _, err = run(capsys, "simulate", "--n", "5", "--event", "max-spacing", "--k", "3",
                       "--trials", "1000")
    assert code == EXIT_USAGE and "requires --x" in err
    code, _, err = run(capsys, "simulate", "--n", "5", "--event", "all", "--k", "3",
                       "--x", "1/2", "--trials", "1000")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "simulate", "--n", "5", "--event", "exists", "--k", "9",
                       "--trials", "1000")
    assert code == EXIT_USAGE
    # The brute-force subset oracle is a test reference, not an engine mode.
    code, _, err = run(capsys, "simulate", "--n", "5", "--event", "all", "--k", "3",
                       "--trials", "1000", "--use-oracle")
    assert code == EXIT_USAGE and "--use-oracle" in err


def test_simulate_two_pieces_always_exceed_small_threshold(capsys):
    # with two pieces the larger one is at least 1/2 > 0.3, every single trial
    code, out, _ = run(
        capsys, "simulate", "--n", "2", "--event", "max-spacing", "--x", "0.3",
        "--trials", "1000", "--seed", "0",
    )
    assert code == EXIT_OK
    (rec,) = records_of(out)
    assert rec["value_decimal"] == "1"
    assert rec["ci_high"] == 1.0


def test_simulate_budget_exit_code(capsys):
    """trials * n above montecarlo.TRIAL_BUDGET = 10^9 exits 4 before any draw."""
    code, out, err = run(
        capsys, "simulate", "--n", "5", "--event", "all", "--k", "3",
        "--trials", "200000001",
    )
    assert code == EXIT_BUDGET and out == ""
    assert "200000001 * 5 = 1000000005 exceeds the trial budget TRIAL_BUDGET" in err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_interrupt_exits_130_without_traceback(workers):
    """Ctrl-C mid-run prints one error line and exits 130.  SIGINT is reset to
    its default in the child, as an interactive shell does, since a parent run
    in the background may ignore it; the run would take several seconds."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "bstick.cli", "simulate", "--n", "3", "--event", "all",
         "--k", "3", "--trials", "300000000", "--workers", workers],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_cli_env(),
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        time.sleep(1.5)  # past the import, inside the estimate
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == EXIT_INTERRUPTED
    assert out == ""
    assert err.splitlines() == ["error: interrupted"]
    assert "Traceback" not in err


# ------------------------------------------------------------------- verify


def test_verify_exact_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "exact", "--n-max", "8")
    assert code == EXIT_OK
    entries = json.loads(out)
    assert all(list(e.keys()) == REPORT_FIELDS for e in entries)
    assert all(e["passed"] for e in entries)
    ids = [e["check_id"] for e in entries]
    assert ids == sorted(ids)
    assert "checks, 0 failed" in err


def test_verify_report_csv_on_stdout(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--format", "csv")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "check_id,expected,actual,residual,tolerance,passed"
    assert len(lines) > 1


def test_verify_failure_exit_code(capsys, monkeypatch):
    broken = VerificationEntry("x/broken", "1", "2", 1.0, 0.0, False)
    monkeypatch.setattr(verify, "run_identity_selftests", lambda: [broken])
    code, _, err = run(capsys, "verify", "--suite", "identities")
    assert code == EXIT_VERIFY_FAILED
    assert err.startswith("suite identities: 1 checks, 1 failed, ")
    assert "\n1 checks, 1 failed\n" in err
    assert "FAIL x/broken" in err


def test_verify_prints_per_suite_totals_on_stderr(capsys):
    code, out, err = run(capsys, "verify", "--suite", "all", "--n-max", "5",
                         "--trials", "10000", "--seed", "1")
    assert code == EXIT_OK
    *totals, last = err.splitlines()
    assert [line.split(":")[0] for line in totals] == [f"suite {s}" for s in verify.SUITES]
    checks = [int(line.split(": ")[1].split(" checks, 0 failed, ")[0]) for line in totals]
    assert all(line.endswith(" ms") for line in totals)
    assert sum(checks) == len(json.loads(out))
    assert last == f"{sum(checks)} checks, 0 failed"


def test_unwritable_stdout_is_io_error(capsys, monkeypatch):
    """A closed pipe on stdout (`bstick ... | head -c 100`) ends in one error
    line and exit 5, not a traceback."""

    class BrokenPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    code = main(["exact", "--formula", "theorem1", "--k", "4", "--n", "5"])
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert err.splitlines() == ["error: [Errno 32] Broken pipe"]


def test_verify_mc_suite_small(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "mc", "--trials", "10000", "--seed", "2",
        "--workers", "4",
    )
    assert code == EXIT_OK
    assert all(e["passed"] for e in json.loads(out))


@pytest.mark.parametrize("bad", [(["--workers", "65"], EXIT_USAGE),
                                 (["--workers", "0"], EXIT_USAGE),
                                 (["--trials", "100"], EXIT_USAGE),
                                 (["--seed", "-1"], EXIT_USAGE),
                                 (["--n-max", "201"], EXIT_CAP),
                                 (["--n-max", "4"], EXIT_USAGE),
                                 (["--trials", "5524862"], EXIT_BUDGET)])
def test_verify_rejects_bad_mc_arguments_before_any_suite(capsys, monkeypatch, bad):
    argv, expected_code = bad
    called = []
    for suite in ("run_exact_crosschecks", "run_identity_selftests",
                  "run_lemma3_checks", "run_mc_crosschecks"):
        monkeypatch.setattr(verify, suite, lambda *a, _suite=suite, **kw: called.append(_suite))
    code, out, _ = run(capsys, "verify", "--suite", "all", *argv)
    assert code == expected_code and out == ""
    assert called == []


@pytest.mark.parametrize("suite, ignored, checks", [
    ("lemma3", ["--n-max", "201"], 70),
    ("exact", ["--trials", "100", "--seed", "-1", "--workers", "65"], 88),
    ("identities", ["--n-max", "4", "--trials", "5"], 20),
])
def test_verify_suite_ignores_the_options_it_does_not_read(capsys, suite, ignored, checks):
    """Options that only --suite all or another suite reads are not checked:
    each of these would be refused under --suite all."""
    code, out, err = run(capsys, "verify", "--suite", suite, *ignored)
    assert code == EXIT_OK
    entries = json.loads(out)
    assert len(entries) == checks and all(e["passed"] for e in entries)
    assert err.startswith(f"suite {suite}: {checks} checks, 0 failed, ")


def test_verify_mc_accepts_the_largest_seed(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "mc",
                       "--seed", "18446744073709551615", "--trials", "10000")
    assert code == EXIT_OK
    assert all(e["passed"] for e in json.loads(out))


# ------------------------------------------------------------------ general


@pytest.mark.parametrize("cpus, expected", [(1, 1), (2, 2), (200, MAX_WORKERS)])
def test_verify_workers_default_to_the_usable_cpus(capsys, monkeypatch, cpus, expected):
    """verify's default is read when it runs, not when the parser, which is
    built once per process, was built."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1000)  # affinity wins where it exists
    assert default_workers() == expected
    received = []

    def recording_run_all(n_max, trials, seed, workers, suite):
        received.append(workers)
        return VerificationReport([], [])

    monkeypatch.setattr(verify, "run_all", recording_run_all)
    assert run(capsys, "verify", "--suite", "mc")[0] == EXIT_OK
    assert run(capsys, "verify", "--suite", "mc", "--workers", "3")[0] == EXIT_OK
    assert received == [expected, 3]
    assert build_parser() is build_parser()
    simulate = ["simulate", "--n", "5", "--event", "all", "--k", "3"]
    assert build_parser().parse_args(simulate).workers == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert default_workers() == expected
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert default_workers() == 1


def test_readme_command_lines_parse():
    """Every `bstick ...` line in README's sh blocks parses, so a deleted
    option cannot stay in the docs."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("bstick ")]
    assert len(lines) >= 6
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_readme_python_quickstart_runs():
    """README's python block runs, and each value an inline `# ... Fraction(a, b)`
    comment states is the value of that line's expression."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    namespace = {}
    exec(block, namespace)
    stated = [(code, value) for code, value in
              re.findall(r"^(\S[^#\n]*?)\s*#[^\n]*?(Fraction\(-?\d+, \d+\))",
                         block, flags=re.MULTILINE)]
    assert len(stated) >= 5
    for code, value in stated:
        assert eval(code, namespace) == eval(value, namespace), code


def test_unknown_command_and_help(capsys):
    assert run(capsys, "bogus")[0] == EXIT_USAGE
    assert run(capsys)[0] == EXIT_USAGE
    assert run(capsys, "--help")[0] == EXIT_OK
    assert run(capsys, "simulate", "--help")[0] == EXIT_OK
