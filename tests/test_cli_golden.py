"""CLI output pinned byte for byte, apart from the timestamp and runtime fields.

The files under tests/data/ were written by the CLI before the closed forms
moved into one registry (exact.FORMULAS); the verify-mc and simulate files
before verify got its one suite runner.  The Monte Carlo outputs are pinned
too: their streams are bit-identical by contract.  Lemma 3 is left out, since
its residuals depend on the quadrature library's floating-point bits.
Regenerate a file with
``python -m bstick.cli ARGS --format FMT > tests/data/NAME.FMT`` only when a
change to the output is intended.
"""

import re
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
    "verify-mc": ["verify", "--suite", "mc", "--trials", "10000", "--seed", "3"],
    "simulate-all": ["simulate", "--n", "5", "--event", "all", "--k", "3",
                     "--trials", "100000", "--seed", "7"],
    "simulate-max-spacing": ["simulate", "--n", "6", "--event", "max-spacing", "--x", "1/2",
                             "--model", "exponential", "--trials", "100000", "--seed", "7"],
}

MASKED = ("timestamp", "runtime_ms")


def _mask(text: str, fmt: str) -> str:
    """Replace the values of the MASKED fields, which differ from run to run."""
    if fmt == "json":
        return re.sub(r'("(?:timestamp|runtime_ms)": )("[^"]*"|\d+)', r"\1*", text)
    lines = text.split("\n")
    header = lines[0].split(",")
    masked = [i for i, name in enumerate(header) if name in MASKED]
    # No masked column is followed by a field that could hold a comma.
    assert masked == [len(header) - 1]
    return "\n".join([lines[0]] + [re.sub(r",[^,]*$", ",*", line) if line else line
                                   for line in lines[1:]])


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name, fmt, capsys):
    assert main(COMMANDS[name] + ["--format", fmt]) == 0
    out = capsys.readouterr().out
    golden = (DATA / f"{name}.{fmt}").read_text(encoding="utf-8")
    assert _mask(out, fmt) == _mask(golden, fmt)


def test_mask_hides_only_the_masked_fields():
    golden = (DATA / "exact-whitworth.json").read_text(encoding="utf-8")
    assert _mask(golden, "json") == _mask(golden.replace("2026", "1999"), "json")
    assert _mask(golden, "json") != _mask(golden.replace("28/81", "28/82"), "json")
    golden = (DATA / "verify-exact.csv").read_text(encoding="utf-8")
    assert _mask(golden, "csv") != _mask(golden.replace("True", "False", 1), "csv")
