"""CLI behavior: record schemas, exit codes, env seed, and output determinism.

All invocations go through main(argv) in-process so capsys sees the streams.
"""

import csv
import io
import itertools
import json
import os
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
    _check_printable,
    build_parser,
    fraction_to_decimal,
    main,
    parse_range,
    parse_rational,
)
from bstick.exact import CapExceededError
from bstick.montecarlo import GENERATOR_ID, MAX_WORKERS, default_workers
from bstick.verify import VerificationEntry, VerificationReport

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
    for bad in ("", "a/b", "1/0", "one"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_parse_range():
    assert parse_range("4") == (4, 4)
    assert parse_range("3:9") == (3, 9)
    for bad in ("", "5:3", "1:2:3", "x:y"):
        with pytest.raises(ValueError):
            parse_range(bad)


def test_fraction_to_decimal_is_12_significant_digits():
    assert fraction_to_decimal(F(1, 4)) == "0.25"
    assert fraction_to_decimal(F(43, 189)) == "0.227513227513"
    assert fraction_to_decimal(F(2, 3)) == "0.666666666667"
    assert fraction_to_decimal(F(1, 10**30)) == "1e-30"


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
    assert rec["timestamp"].endswith("+00:00")


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


def test_exact_csv_header_is_fixed(capsys):
    code, out, _ = run(
        capsys, "exact", "--formula", "theorem1", "--k", "3", "--n", "3",
        "--format", "csv",
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "kind,k,n,event,value_exact,value_decimal,ci_low,ci_high,trials,seed,generator_id,timestamp"
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
    code, _, err = run(capsys, "exact", "--formula", "pnn", "--n", "500")
    assert code == EXIT_CAP and "cap" in err
    code, _, _ = run(capsys, "exact", "--formula", "pnn", "--n", "500", "--cap", "500")
    assert code == EXIT_OK


def test_exact_value_too_long_to_print_is_a_cap_exit():
    """A value past Python's int-to-str digit limit exits 3 with a message
    naming that limit, not 2 with Python's own ValueError."""
    proc = run_subprocess("exact", "--formula", "whitworth", "--n", "20000", "--x", "1/3",
                          "--cap", "1000000", PYTHONINTMAXSTRDIGITS="4300")
    assert proc.returncode == EXIT_CAP and proc.stdout == ""
    assert "more than 4300 decimal digits, the printable limit" in proc.stderr


def test_printable_limit_is_exact_at_the_boundary(monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 700)
    _check_printable(F(10**700 - 1, 3))  # 700 digits
    with pytest.raises(CapExceededError, match="more than 700 decimal digits"):
        _check_printable(F(-1, 10**700))
    with pytest.raises(CapExceededError):
        _check_printable(F(-(10**700), 3))
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)  # no limit
    _check_printable(F(1, 10**7000))


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
    """A huge --k range gives the records of --k 3:5 at once, not after
    walking every empty cell (run in a subprocess so a hang cannot stall
    the suite)."""
    def records(k_range):
        proc = run_subprocess("table", "--k", k_range, "--n", "3:5")
        assert proc.returncode == EXIT_OK
        return [{f: v for f, v in rec.items() if f != "timestamp"}
                for rec in records_of(proc.stdout)]

    assert records("3:1000000000000000000") == records("3:5")


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


def test_simulate_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("BSTICK_SEED", "555")
    code, out, _ = run(
        capsys, "simulate", "--n", "4", "--event", "exists", "--k", "3",
        "--trials", "20000",
    )
    assert code == EXIT_OK
    assert records_of(out)[0]["seed"] == 555
    # an explicit flag beats the environment
    code, out, _ = run(
        capsys, "simulate", "--n", "4", "--event", "exists", "--k", "3",
        "--trials", "20000", "--seed", "7",
    )
    assert records_of(out)[0]["seed"] == 7
    monkeypatch.setenv("BSTICK_SEED", "not-a-number")
    code, _, err = run(
        capsys, "simulate", "--n", "4", "--event", "exists", "--k", "3",
        "--trials", "20000",
    )
    assert code == EXIT_USAGE and "BSTICK_SEED" in err


def test_simulate_output_identical_across_worker_counts(capsys):
    argv = ["simulate", "--n", "6", "--event", "max-spacing", "--x", "1/2",
            "--trials", "150000", "--seed", "3", "--format", "csv"]
    code, out1, _ = run(capsys, *argv, "--workers", "1")
    assert code == EXIT_OK
    code, out8, _ = run(capsys, *argv, "--workers", "8")
    assert code == EXIT_OK

    def strip_timestamp(text):
        rows = text.splitlines()
        return [r.rsplit(",", 1)[0] for r in rows]

    assert strip_timestamp(out1) == strip_timestamp(out8)


def test_simulate_argument_policing(capsys):
    code, _, err = run(capsys, "simulate", "--n", "5", "--event", "all",
                       "--trials", "1000")
    assert code == EXIT_USAGE and "requires --k" in err
    code, _, err = run(capsys, "simulate", "--n", "5", "--event", "max-spacing",
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
    code, _, err = run(
        capsys, "simulate", "--n", "5", "--event", "all", "--k", "3",
        "--trials", "1000000", "--budget", "100000",
    )
    assert code == EXIT_BUDGET and "budget" in err


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


def test_verify_report_csv_and_out_file(capsys, tmp_path):
    target = tmp_path / "report.csv"
    code, out, err = run(
        capsys, "verify", "--suite", "identities", "--out", str(target),
        "--format", "csv",
    )
    assert code == EXIT_OK
    assert out == ""  # report went to the file
    lines = target.read_text().splitlines()
    assert lines[0] == "check_id,expected,actual,residual,tolerance,passed,runtime_ms"
    assert len(lines) > 1


def test_verify_failure_exit_code(capsys, monkeypatch):
    report = VerificationReport()
    report.add(VerificationEntry("x/broken", "1", "2", 1.0, 0.0, False, 0))
    monkeypatch.setattr(verify, "run_identity_selftests", lambda: report)
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


def test_verify_unwritable_out_is_io_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "verify", "--suite", "exact", "--n-max", "6",
        "--out", str(tmp_path / "missing" / "report.json"),
    )
    assert code == EXIT_IO and "cannot write" in err


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
                                 (["--trials", "125000001"], EXIT_BUDGET)])
def test_verify_rejects_bad_mc_arguments_before_any_suite(capsys, monkeypatch, bad):
    argv, expected_code = bad
    called = []
    for suite in ("run_exact_crosschecks", "run_identity_selftests",
                  "run_lemma3_checks", "run_mc_crosschecks"):
        monkeypatch.setattr(verify, suite, lambda *a, _suite=suite, **kw: called.append(_suite))
    code, out, _ = run(capsys, "verify", "--suite", "all", *argv)
    assert code == expected_code and out == ""
    assert called == []


def test_verify_mc_accepts_the_largest_seed(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "mc",
                       "--seed", "18446744073709551615", "--trials", "10000")
    assert code == EXIT_OK
    assert all(e["passed"] for e in json.loads(out))


# ------------------------------------------------------------------ general


@pytest.mark.parametrize("cpus, expected", [(1, 1), (2, 2), (200, MAX_WORKERS)])
def test_verify_workers_default_to_the_usable_cpus(monkeypatch, cpus, expected):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1000)  # affinity wins where it exists
    assert default_workers() == expected
    assert build_parser().parse_args(["verify", "--suite", "mc"]).workers == expected
    simulate = ["simulate", "--n", "5", "--event", "all", "--k", "3"]
    assert build_parser().parse_args(simulate).workers == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert default_workers() == expected
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert default_workers() == 1


def test_unknown_command_and_help(capsys):
    assert run(capsys, "bogus")[0] == EXIT_USAGE
    assert run(capsys)[0] == EXIT_USAGE
    assert run(capsys, "--help")[0] == EXIT_OK
    assert run(capsys, "simulate", "--help")[0] == EXIT_OK
