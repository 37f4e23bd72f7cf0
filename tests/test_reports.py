"""Verdict records: one constructor per report kind, one check-entry format."""

from fractions import Fraction

from ffmzv.cli import _residual_entry
from ffmzv.laurent import Comparison
from ffmzv.reports import IdentityReport, ResidualReport
from ffmzv.suite import check_entry
from ffmzv.tate import ZeroCheck


def test_identity_report_downgrades_equal_below_target():
    assert IdentityReport.from_comparison(Comparison("equal", 30), 30, "n") == IdentityReport("equal", 30, None, "n")
    assert IdentityReport.from_comparison(Comparison("equal", 29), 30, "n") == IdentityReport(
        "incomparable", 29, None, "n"
    )
    for exponent in (7, 40):
        rep = IdentityReport.from_comparison(Comparison("unequal", exponent), 30)
        assert rep == IdentityReport("unequal", None, exponent, "") and not rep.passed


def test_residual_report_locates_the_worst_t_degree_after_the_prefix():
    clean = ZeroCheck(True, None, None, 12)
    assert ResidualReport.from_zero_check(clean, 3, (1, 0), "n") == ResidualReport(True, None, 12, None, "n")
    bad = ZeroCheck(False, 4, -6, 12)  # |theta|-exponent 6/(q-1)
    assert ResidualReport.from_zero_check(bad, 3) == ResidualReport(False, Fraction(3), 12, (4,))
    assert ResidualReport.from_zero_check(bad, 3, (2, 1), "n") == ResidualReport(False, Fraction(3), 12, (2, 1, 4), "n")
    assert ResidualReport.from_zero_check(bad, 4, None) == ResidualReport(False, Fraction(2), 12, None)


def test_residual_entries_name_the_worst_entry_only_when_located():
    fail = ResidualReport(False, Fraction(-3, 2), 40, (1, 0, 2))
    assert _residual_entry("x", fail, 40, located=True) == check_entry("x", "fail", "entry (1, 0, 2) residual exponent -3/2")
    assert _residual_entry("x", fail, 40) == check_entry("x", "fail", "residual exponent -3/2")
    assert _residual_entry("x", ResidualReport(True, None, 40), 40) == {
        "name": "x",
        "status": "pass",
        "detail": "floor 40 z-digits",
        "runtime_ms": 0,
    }
    # a zero certified below the requested precision certifies nothing
    assert _residual_entry("x", ResidualReport(True, None, 39), 40) == check_entry(
        "x", "incomparable", "floor 39 z-digits, below the requested 40"
    )
