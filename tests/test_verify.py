"""The cross-validation harness itself: every suite must pass on honest inputs."""

import os
import subprocess
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import pytest

import bstick
from bstick.verify import (
    VerificationEntry,
    VerificationReport,
    LEMMA3_TOLERANCES,
    lemma3_closed_value,
    lemma3_residual,
    run_exact_crosschecks,
    run_identity_selftests,
    run_lemma3_checks,
    run_mc_crosschecks,
)

F = Fraction


def test_report_container():
    report = VerificationReport()
    assert report.all_passed and len(report) == 0
    good = VerificationEntry("b/one", "1", "1", 0.0, 0.0, True, 0)
    bad = VerificationEntry("a/two", "1", "2", 1.0, 0.0, False, 0)
    report.add(good)
    report.add(bad)
    assert not report.all_passed
    assert report.failures() == [bad]
    assert report.sorted_entries() == [bad, good]
    assert list(report) == [good, bad]
    assert asdict(good)["check_id"] == "b/one"


def test_exact_crosschecks_all_pass():
    report = run_exact_crosschecks(12)
    assert len(report) > 0
    assert report.all_passed
    ids = [e.check_id for e in report]
    assert len(ids) == len(set(ids))
    assert "exact/ngon-closed/n=03" in ids
    assert "exact/whitworth-half/n=02" in ids
    # exact suites demand literal equality, not closeness
    assert all(e.tolerance == 0.0 and e.residual == 0.0 for e in report)
    with pytest.raises(ValueError):
        run_exact_crosschecks(4)


def test_identity_selftests_all_pass():
    report = run_identity_selftests()
    assert report.all_passed
    ids = {e.check_id for e in report}
    assert "identity/alt-factorial/k=04" in ids
    assert "identity/pochhammer-recurrence" in ids
    assert "identity/beta-pochhammer-product" in ids
    assert "identity/pascal-recurrence" in ids
    assert "identity/fibonacci-recurrence" in ids


def test_lemma3_closed_values_frozen():
    # worked by hand from the antiderivatives
    assert lemma3_closed_value(4, 5, 1) == F(-1, 20)
    assert lemma3_closed_value(4, 6, 2) == F(-1, 24)
    assert lemma3_closed_value(5, 6, 1) == F(-1, 120)


def test_lemma3_closed_value_k4_antiderivative():
    """For k=4 the double alternative 1/(m+2j) - 1/(m+j) is the direct
    antiderivative of the integrand; both routes must coincide."""
    for n in range(4, 12):
        m = n - 2
        for j in range(1, m + 1):
            assert lemma3_closed_value(4, n, j) == F(1, m + 2 * j) - F(1, m + j)


def test_lemma3_closed_value_k5_partial_fractions():
    """k=5 partial-fraction expansion, derived independently on paper."""
    for n in range(5, 12):
        m = n - 3
        for j in range(1, m + 1):
            expanded = (
                -F(1, 2 * j * (m + j))
                - F(1, 2 * j * (m + 3 * j))
                + F(1, j * (m + 2 * j))
            )
            assert lemma3_closed_value(5, n, j) == expanded


def test_lemma3_residual_values():
    assert lemma3_residual(4, 5, 1) <= 1e-10
    assert lemma3_residual(5, 7, 2) <= 1e-8
    with pytest.raises(ValueError):
        lemma3_residual(7, 9, 1)
    with pytest.raises(ValueError):
        lemma3_residual(4, 3, 1)
    with pytest.raises(ValueError):
        lemma3_residual(4, 6, 5)  # j beyond n-k+2


def test_lemma3_checks_within_tolerance():
    report = run_lemma3_checks()
    assert report.all_passed
    assert len(report) == 25  # grid size for k in {4,5}, n <= 8, j <= min(3, n-k+2)
    for entry in report:
        k = int(entry.check_id.split("/")[1].split("=")[1])
        assert entry.tolerance == LEMMA3_TOLERANCES[k]


def test_lemma3_checks_k6_also_available():
    report = run_lemma3_checks(k_values=(6,), n_max=7, j_max=2)
    assert report.all_passed
    assert all(e.check_id.startswith("lemma3/k=6/") for e in report)


def test_mc_crosschecks_pass_and_are_labeled():
    report = run_mc_crosschecks(10_000, seed=5)
    assert report.all_passed
    ids = {e.check_id for e in report}
    assert "mc/all/k=3/n=3" in ids
    assert "mc/exists/k=3/n=5" in ids
    assert "mc/whitworth/n=4/x=1/2" in ids
    assert "mc/sampler-equivalence/all:k=4/n=6" in ids
    assert "mc/sampler-equivalence/max-spacing:x=1/2/n=6" in ids
    # 21 grid points + 3 whitworth + 2 exists + 4 equivalence entries
    assert len(report) == 30
    with pytest.raises(ValueError):
        run_mc_crosschecks(9_999, seed=0)


def test_mc_crosschecks_deterministic_given_seed():
    a = run_mc_crosschecks(10_000, seed=11)
    b = run_mc_crosschecks(10_000, seed=11, workers=4)
    assert [(e.check_id, e.actual) for e in a] == [(e.check_id, e.actual) for e in b]


_LAZY_SCIPY_SCRIPT = """
import contextlib, io, sys
import bstick
assert "scipy" not in sys.modules, "import bstick loaded scipy"
from bstick.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["simulate", "--n", "5", "--event", "all", "--k", "3", "--trials", "1000"]) == 0
assert "scipy" not in sys.modules, "bstick simulate loaded scipy"
bstick.verify.lemma3_residual(4, 5, 1)
assert "scipy" in sys.modules
"""


def test_scipy_is_loaded_only_by_the_quadrature():
    """A fresh interpreter: import bstick and simulate, then the lemma3 check."""
    env = dict(os.environ)
    src = str(Path(bstick.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _LAZY_SCIPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
