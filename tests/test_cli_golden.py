"""CLI output pinned byte for byte.

The files under tests/data/ were written by the CLI before the closed forms
moved into one registry (exact.FORMULAS); the verify-mc and simulate files
before verify got its one suite runner.  The Monte Carlo outputs are pinned
too: their streams are bit-identical by contract.  The lemma3 file is pinned
since its iterated integral became an exact rational, so its entries no longer
depend on the floating-point build or the CPU.
Output depends on argv alone, so
``python -m bstick.cli ARGS --format FMT > tests/data/NAME.FMT`` reproduces
every file exactly; regenerate one only when a change to the output is
intended.  tests/data/ holds exactly one file per name in COMMANDS and format.
"""

import csv
import io
import json
from pathlib import Path

import pytest

from bstick.cli import main

DATA = Path(__file__).resolve().parent / "data"

COMMANDS = {
    "exact-theorem1": ["exact", "--formula", "theorem1", "--k", "4", "--n", "9"],
    "exact-pnn": ["exact", "--formula", "pnn", "--n", "9"],
    "exact-p3n": ["exact", "--formula", "p3n", "--n", "9"],
    "exact-p4n-beta": ["exact", "--formula", "p4n-beta", "--n", "9"],
    "exact-p5n-beta": ["exact", "--formula", "p5n-beta", "--n", "9"],
    "exact-whitworth": ["exact", "--formula", "whitworth", "--n", "9", "--x", "1/3"],
    "exact-exists-triangle": ["exact", "--formula", "exists-triangle", "--n", "9"],
    "table": ["table", "--k", "3:6", "--n", "3:9"],
    "verify-exact": ["verify", "--suite", "exact", "--n-max", "12"],
    "verify-identities": ["verify", "--suite", "identities"],
    "verify-lemma3": ["verify", "--suite", "lemma3"],
    "verify-mc": ["verify", "--suite", "mc", "--trials", "10000", "--seed", "3"],
    "simulate-all": ["simulate", "--n", "5", "--event", "all", "--k", "3",
                     "--trials", "100000", "--seed", "7"],
    "simulate-max-spacing": ["simulate", "--n", "6", "--event", "max-spacing", "--x", "1/2",
                             "--model", "exponential", "--trials", "100000", "--seed", "7"],
}

@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name, fmt, capsys):
    assert main(COMMANDS[name] + ["--format", fmt]) == 0
    out = capsys.readouterr().out
    golden = (DATA / f"{name}.{fmt}").read_text(encoding="utf-8")
    assert out == golden


def _rows(text: str, fmt: str) -> list[tuple]:
    """A report's entries as (field, value) tuples."""
    entries = json.loads(text) if fmt == "json" else csv.DictReader(io.StringIO(text))
    return [tuple(e.items()) for e in entries]


def _above_n_max(row: tuple, n_max: int) -> bool:
    check_id = row[0][1]
    return check_id.startswith("exact/") and int(check_id.rsplit("n=", 1)[1]) > n_max


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_output_does_not_depend_on_workers(fmt, capsys):
    """verify runs its Monte Carlo estimates --workers at a time.  At 1, 2
    and 8 workers and the default, the lemma3 and mc suites print their
    golden files, and all suites at --n-max 10 print the one-worker report,
    whose entries are those of the exact (n <= 10), identities, lemma3 and
    mc files."""
    verify_all = ["verify", "--suite", "all", "--n-max", "10", "--trials", "10000", "--seed", "3"]

    def output(argv):
        assert main(argv + ["--format", fmt]) == 0
        return capsys.readouterr().out

    golden = {name: (DATA / f"{name}.{fmt}").read_text(encoding="utf-8")
              for name in ("verify-exact", "verify-identities", "verify-lemma3", "verify-mc")}
    pinned = sorted(row for text in golden.values() for row in _rows(text, fmt)
                    if not _above_n_max(row, 10))
    reference = output(verify_all + ["--workers", "1"])
    assert sorted(_rows(reference, fmt)) == pinned
    for workers in (["--workers", "1"], ["--workers", "2"], ["--workers", "8"], []):
        for name in ("verify-lemma3", "verify-mc"):
            assert output(COMMANDS[name] + workers) == golden[name]
        assert output(verify_all + workers) == reference


def test_golden_files_are_exactly_the_pinned_commands():
    """No golden file is orphaned and none is missing: one per COMMANDS name
    and format."""
    pinned = {f"{name}.{fmt}" for name in COMMANDS for fmt in ("json", "csv")}
    assert {p.name for p in DATA.iterdir()} == pinned
