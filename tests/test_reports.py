"""Verdict records: one constructor per report kind, one check-entry format."""

from fractions import Fraction

from ffmzv import suite
from ffmzv.cli import _residual_entry
from ffmzv.laurent import Comparison
from ffmzv.reports import CheckReport, IdentityReport, ResidualReport
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


def test_verdicts():
    assert [ResidualReport(True, None, f).verdict(40) for f in (39, 40, 41)] == [
        "incomparable",
        "pass",
        "pass",
    ]
    assert ResidualReport(False, Fraction(1), 99, (0,)).verdict(40) == "fail"
    statuses = ("equal", "unequal", "incomparable")
    assert [IdentityReport(s, None).verdict() for s in statuses] == ["pass", "fail", "incomparable"]
    assert [CheckReport(passed, certified=c).verdict() for passed, c in
            ((True, True), (True, False), (False, True), (False, False))] == [
        "pass",
        "incomparable",
        "fail",
        "fail",
    ]


def test_suite_group_check_without_certificate_is_incomparable(monkeypatch):
    uncertified = CheckReport(True, 100, [], "samples DO NOT exceed it", certified=False)
    monkeypatch.setattr(suite, "closure_report", lambda *args: uncertified)
    monkeypatch.setattr(suite, "commutator_report", lambda *args: uncertified)
    for check in (suite.check_group_closure, suite.check_group_commutator):
        status, detail = check(suite.RunConfig())
        assert status == "incomparable" and "DO NOT exceed" in detail


def test_suite_residual_check_below_its_threshold_is_incomparable(monkeypatch):
    # the derived check's target is its context precision, 56
    monkeypatch.setattr(suite, "frobenius_residual", lambda *args: ResidualReport(True, None, 55))
    status, detail = suite.check_derived(suite.RunConfig())
    assert status == "incomparable" and "floor 55" in detail
    monkeypatch.setattr(suite, "frobenius_residual", lambda *args: ResidualReport(True, None, 56))
    assert suite.check_derived(suite.RunConfig())[0] == "pass"
    monkeypatch.setattr(
        suite, "component_collapse_report", lambda *args, **kw: ResidualReport(True, None, 29)
    )
    assert suite.check_telescoping(suite.RunConfig())[0] == "incomparable"
