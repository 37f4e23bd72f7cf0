"""CLI surface: exit codes, JSON schema, conventions header, golden harness."""

import json
import time
from pathlib import Path

import pytest

from ffmzv import motive
from ffmzv.cli import main
from ffmzv.carlitz import CarlitzContext
from ffmzv.laurent import to_text
from ffmzv.tate import MAX_RESIDUAL_SPAN
from ffmzv.special import Index, mzv


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pinned_outputs_are_byte_identical(capsys):
    # one small argv per command, text and JSON, passes, incomparable checks
    # and usage errors, with the stdout, stderr and exit code they had when
    # they were recorded
    pins = json.loads((Path(__file__).parent / "fixtures" / "cli_pins.json").read_text())
    assert {pin["argv"][0] for pin in pins} == set(OPTIONS)
    for pin in pins:
        got = run_cli(capsys, *pin["argv"])
        assert got == (pin["exit"], pin["stdout"], pin["stderr"]), pin["argv"]


def test_nonprime_p_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "mzv", "--p", "4", "--l", "1", "--index", "2")
    assert code == 2
    assert "p must be prime" in err


def test_bad_levels_are_usage_errors(capsys):
    # --l is one integer: a list is rejected by the parser
    with pytest.raises(SystemExit) as exc:
        main(["mzv", "--p", "2", "--l", "1,1", "--index", "2"])
    assert exc.value.code == 2 and "argument --l" in capsys.readouterr().err
    code, _, err = run_cli(capsys, "mzv", "--p", "2", "--l", "0", "--index", "2")
    assert code == 2


def test_mzv_json_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "mzv", "--p", "3", "--l", "1", "--index", "2,1", "--prec", "40"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert set(doc["conventions"]) == {"uniformizer", "at_slot", "twist_form"}
    ctx = CarlitzContext(3, 1, prec=40)
    assert doc["value"] == to_text(mzv(ctx, Index((2, 1)), 40))
    assert doc["terms_used"] >= 1
    assert doc["precision_achieved"] == 40


def test_verify_period_pass(capsys):
    code, out, _ = run_cli(
        capsys, "verify-period", "--p", "2", "--l", "1", "--index", "2", "--prec", "30"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][0]["status"] == "pass"


def test_verify_rat_and_derived(capsys):
    code, out, _ = run_cli(
        capsys, "verify-rat", "--p", "2", "--l", "1", "--index", "1,2", "--prec", "44", "--tdeg", "8"
    )
    assert code == 0 and json.loads(out)["checks"][0]["status"] == "pass"
    code, out, _ = run_cli(
        capsys, "verify-derived", "--p", "3", "--l", "1", "--derive", "2", "--prec", "44", "--tdeg", "6"
    )
    assert code == 0 and json.loads(out)["checks"][0]["status"] == "pass"


def test_omega_pitilde_atpoly_cmpl(capsys):
    code, out, _ = run_cli(capsys, "omega", "--p", "2", "--l", "1", "--prec", "30", "--tdeg", "6")
    assert code == 0 and json.loads(out)["checks"][0]["status"] == "pass"
    code, out, _ = run_cli(capsys, "pitilde", "--p", "3", "--l", "1", "--prec", "24")
    assert code == 0 and json.loads(out)["value"].startswith("2*z^-3")
    code, out, _ = run_cli(capsys, "atpoly", "--p", "3", "--l", "1", "--smax", "4")
    doc = json.loads(out)
    assert code == 0 and doc["polynomials"][:3] == ["1", "1", "1"] and doc["bounds_ok"]
    code, out, _ = run_cli(
        capsys, "cmpl", "--p", "3", "--l", "1", "--index", "1", "--u", "1", "--prec", "24"
    )
    assert code == 0 and json.loads(out)["value"].startswith("1 +")


def test_cmpl_divergent_arguments_fail(capsys):
    # an argument outside the convergence condition is a usage error naming --u
    code, _, err = run_cli(
        capsys, "cmpl", "--p", "2", "--l", "1", "--index", "1", "--u", "theta^2", "--prec", "20"
    )
    assert code == 2 and "error: --u: convergence" in err


def test_group_commands(capsys):
    code, out, _ = run_cli(
        capsys, "group-closure", "--indices", "1,2", "--gf", "3,4", "--samples", "25", "--seed", "5"
    )
    doc = json.loads(out)
    assert code == 0 and doc["index_set"] == ["(1)", "(2)", "(1,2)"]
    code, out, _ = run_cli(
        capsys,
        "group-commutator", "--indices", "1,2", "--gf", "3,4", "--samples", "10", "--rational",
    )
    assert code == 0 and json.loads(out)["domain"] == "rational-function"


def test_group_commands_need_samples_beyond_the_degree_bound(capsys):
    for cmd, n in (("group-closure", "0"), ("group-commutator", "-5")):
        code, out, err = run_cli(capsys, cmd, "--indices", "1,2", "--samples", n)
        assert code == 2 and out == "" and "--samples must be positive" in err
    # {(1),(2),(1,2)} has degree bound 2*3 + 1 = 7 for both laws
    for cmd in ("group-closure", "group-commutator"):
        code, out, _ = run_cli(capsys, cmd, "--indices", "1,2", "--samples", "7")
        check = json.loads(out)["checks"][0]
        assert code == 1 and check["status"] == "incomparable" and "DO NOT exceed" in check["detail"]
        code, out, _ = run_cli(capsys, cmd, "--indices", "1,2", "--samples", "8")
        assert code == 0 and json.loads(out)["checks"][0]["status"] == "pass"


def test_group_commands_need_sample_fields_beyond_the_degree_bound(capsys):
    # F_2 and F_4 have 1 and 3 nonzero values, no more than the bound 7: b
    # cannot take enough values for Schwartz-Zippel, however many samples
    for cmd in ("group-closure", "group-commutator"):
        for gf, draws in (("2,1", 1), ("2,2", 3)):
            code, out, _ = run_cli(capsys, cmd, "--indices", "1,2", "--gf", gf, "--samples", "100")
            check = json.loads(out)["checks"][0]
            assert code == 1 and check["status"] == "incomparable", (cmd, gf, check)
            assert f"only {draws} distinct nonzero draws" in check["detail"]
        # F_9 has 8 > 7 nonzero values
        code, out, _ = run_cli(capsys, cmd, "--indices", "1,2", "--gf", "3,2", "--samples", "100")
        check = json.loads(out)["checks"][0]
        assert code == 0 and check["status"] == "pass"
        assert check["detail"] == "degree bound 7 (Schwartz-Zippel); samples 100 exceed it"


def test_rational_group_runs_over_f2_certify(capsys):
    # F_2(t) draws 31 distinct nonzero fractions, more than the bound 7
    code, out, _ = run_cli(
        capsys, "group-closure", "--indices", "1,2", "--gf", "2,1", "--rational", "--samples", "30"
    )
    check = json.loads(out)["checks"][0]
    assert code == 0 and check["status"] == "pass"
    assert check["detail"] == "degree bound 7 (Schwartz-Zippel); samples 30 exceed it"


def test_rational_group_runs_past_64_bit_coefficient_slots(capsys):
    # p - 1 needs 33 bits, so every F_p(t) product is spread to slots wider
    # than the widest `array` type
    code, out, _ = run_cli(
        capsys, "group-commutator", "--indices", "1,2", "--gf", "4294967311,1", "--rational", "--samples", "12"
    )
    check = json.loads(out)["checks"][0]
    assert code == 0 and check["status"] == "pass"


def test_group_exceptions_keep_the_per_trial_order(capsys):
    # the trials of a run share one law evaluation, and an error is still the
    # one the first failing trial raises: here the parse of its first result,
    # whose scalar b^-1 * b has degree 4 (bound 40 * 4)
    code, out, err = run_cli(capsys, "group-commutator", "--indices", "40", "--rational", "--samples", "3")
    assert (code, out) == (1, "")
    assert err == (
        "error: BudgetError: a power a^40 over F_p(t) of degree bound 160 (|e| * deg a) "
        "exceeds MAX_POWER_DEGREE = 128\n"
    )
    # no trial of the closure run raises: too few samples for the bound
    code, out, _ = run_cli(capsys, "group-closure", "--indices", "40", "--rational", "--samples", "3")
    check = json.loads(out)["checks"][0]
    assert code == 1 and check["status"] == "incomparable"
    assert check["detail"] == "degree bound 81 (Schwartz-Zippel); samples 3 DO NOT exceed it"


def test_residual_certified_below_the_requested_precision_is_incomparable(capsys):
    for argv, floor in (
        (("verify-rat", "--p", "3", "--index", "2,1", "--prec", "2", "--tdeg", "5"), -12),
        (("verify-derived", "--p", "3", "--index", "1,2", "--derive", "2", "--prec", "3", "--tdeg", "1"), -45),
    ):
        code, out, _ = run_cli(capsys, *argv)
        check = json.loads(out)["checks"][0]
        assert code == 1 and check["status"] == "incomparable", check
        assert check["detail"].startswith(f"floor {floor} z-digits, below the requested")
    # a floor exactly at the requested precision passes
    code, out, _ = run_cli(capsys, "verify-rat", "--p", "3", "--index", "1,2", "--prec", "40")
    assert code == 0 and json.loads(out)["checks"][0]["detail"] == "floor 40 z-digits"


def test_malformed_gf_is_usage_error(capsys):
    for gf in ("3", "3,4,1", "3,x", ""):
        for extra in ((), ("--rational",)):
            code, _, err = run_cli(capsys, "group-closure", "--indices", "1,2", "--gf", gf, *extra)
            assert code == 2 and "--gf must be two integers 'p,N'" in err, (gf, extra, err)
    code, _, err = run_cli(capsys, "group-commutator", "--indices", "1,2", "--gf", "3,0")
    assert code == 2 and "--gf degree N must be positive" in err


def test_budget_cap_reported(capsys):
    # the budget binds the suite's oracle checks
    code, out, _ = run_cli(capsys, "suite", "--enum-budget", "2")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1
    for name in ("carlitz-tower-oracle", "mzv-bruteforce-equivalence"):
        assert checks[name]["status"] == "fail"
        assert "BudgetError" in checks[name]["detail"]


def test_residual_span_refused_up_front(capsys):
    # at q = 343 the derived exact side spans about 10^9 z-digits, which
    # would each become a z-series that long: refused before any is built
    code, out, err = run_cli(capsys, "verify-derived", "--p", "7", "--l", "3", "--index", "8,8,8")
    assert code == 1 and out == ""
    assert err.startswith("error: BudgetError: ")
    assert "968478336" in err and f"MAX_RESIDUAL_SPAN = {MAX_RESIDUAL_SPAN}" in err


def test_derived_products_refused_before_any_product(capsys, monkeypatch):
    # --derive 9 at index 40,40,40 ran past 120 s inside the derived product;
    # its degree bounds, and the span bound of the q = 343 system, refuse
    # both before the first matrix product
    def no_product(*args):
        raise AssertionError("derived product computed")

    monkeypatch.setattr(motive, "_mat_mul", no_product)
    start = time.perf_counter()
    argv = ("verify-derived", "--p", "2", "--l", "1", "--index", "40,40,40", "--derive", "9")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: BudgetError: ")
    assert "estimate 373662091" in err and f"MAX_DERIVED_SIZE = {motive.MAX_DERIVED_SIZE}" in err
    code, _, err = run_cli(capsys, "verify-derived", "--p", "7", "--l", "3", "--index", "8,8,8")
    assert code == 1 and "MAX_RESIDUAL_SPAN" in err
    assert time.perf_counter() - start < 10


def test_verify_period_low_precision_never_spurious(capsys):
    # a starved precision budget may verify fewer digits or report
    # "incomparable", but must never fabricate an inequality
    code, out, _ = run_cli(
        capsys, "verify-period", "--p", "3", "--l", "1", "--index", "1", "--prec", "1"
    )
    doc = json.loads(out)
    assert doc["checks"][0]["status"] in ("incomparable", "pass")


def test_text_format_has_convention_header(capsys):
    code, out, _ = run_cli(
        capsys, "pitilde", "--p", "2", "--l", "1", "--prec", "20", "--format", "text"
    )
    assert code == 0
    assert out.splitlines()[0].startswith("# uniformizer:")


def test_value_command_byte_identical(capsys):
    argv = ("mzv", "--p", "3", "--l", "1", "--index", "1,1", "--prec", "32")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_suite_timings_flag_is_optin(capsys):
    code, out, _ = run_cli(capsys, "suite", "--timings")
    doc = json.loads(out)
    assert code == 0 and any(c["runtime_ms"] > 0 for c in doc["checks"])


def test_suite_golden_tamper_reports_first_difference(tmp_path, capsys):
    from importlib import resources

    doc = json.loads(resources.files("ffmzv").joinpath("golden/golden.json").read_text())
    doc["values"]["p2_l1"]["zeta_1"] = doc["values"]["p2_l1"]["zeta_1"].replace("z^2", "z^7", 1)
    (tmp_path / "golden.json").write_text(json.dumps(doc, indent=2, sort_keys=True))
    code, out, _ = run_cli(capsys, "suite", "--fixtures", str(tmp_path))
    assert code == 1
    report = json.loads(out)
    golden = [c for c in report["checks"] if c["name"] == "golden-regression"][0]
    assert golden["status"] == "fail"
    assert "first differing term" in golden["detail"] and "z^2" in golden["detail"]


OPTIONS = {
    "mzv": {"--p", "--l", "--index", "--prec"},
    "atpoly": {"--p", "--l", "--smax"},
    "omega": {"--p", "--l", "--prec", "--tdeg"},
    "pitilde": {"--p", "--l", "--prec"},
    "cmpl": {"--p", "--l", "--index", "--u", "--prec", "--tdeg"},
    "verify-period": {"--p", "--l", "--index", "--prec"},
    "verify-rat": {"--p", "--l", "--index", "--prec", "--tdeg"},
    "verify-derived": {"--p", "--l", "--index", "--derive", "--prec", "--tdeg"},
    "group-closure": {"--indices", "--gf", "--samples", "--rational", "--seed"},
    "group-commutator": {"--indices", "--gf", "--samples", "--rational", "--seed"},
    "suite": {"--seed", "--enum-budget", "--timings", "--fixtures"},
}


def test_each_command_takes_only_the_options_it_reads():
    import argparse

    from ffmzv.cli import build_parser

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(OPTIONS)
    settable = 0
    for name, parser in sub.choices.items():
        opts = {s for a in parser._actions for s in a.option_strings if s.startswith("--")}
        assert opts - {"--help"} == OPTIONS[name] | {"--format"}, name
        settable += len(opts) - 1
    assert settable == 60
    index = {a.dest: a for a in sub.choices["verify-derived"]._actions}["index"]
    assert not index.required and index.default is None


def test_config_lists_only_the_options_read(capsys):
    for argv, keys in (
        (("mzv", "--index", "1"), {"p", "l", "prec"}),
        (("atpoly",), {"p", "l"}),
        (("omega", "--prec", "20", "--tdeg", "4"), {"p", "l", "prec", "tdeg"}),
        (("group-closure", "--indices", "1", "--samples", "4"), {"seed"}),
    ):
        _, out, _ = run_cli(capsys, *argv)
        assert set(json.loads(out)["config"]) == keys, argv


def test_malformed_values_are_usage_errors(capsys):
    for argv, option in (
        (("mzv", "--index", "0"), "--index"),
        (("mzv", "--index", "x"), "--index"),
        (("verify-period", "--index", "2,,1"), "--index"),
        (("group-closure", "--indices", "1,x"), "--indices"),
        (("verify-derived", "--derive", "0"), "--derive"),
        (("omega", "--tdeg", "-1"), "--tdeg"),
        (("atpoly", "--smax", "-1"), "--smax"),
        (("pitilde", "--prec", "0"), "--prec"),
        (("cmpl", "--p", "3", "--index", "1", "--u", "t^-1"), "--u"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and f"error: {option}" in err, (argv, err)


def test_a_double_dash_value_is_a_usage_error(capsys):
    # argparse hands `--p=--` over as an empty list, which no check compared
    for argv, option in (
        (("omega", "--p=--"), "--p"),
        (("omega", "--l=--"), "--l"),
        (("mzv", "--index=--"), "--index"),
        (("group-closure", "--indices=--"), "--indices"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and f"error: {option} needs a value" in err, (argv, err)


def test_index_sets_naming_no_index_are_usage_errors(capsys):
    for cmd in ("group-closure", "group-commutator"):
        for text in (";", "", ";;"):
            code, out, err = run_cli(capsys, cmd, "--indices", text)
            assert code == 2 and out == "" and "error: --indices: " in err, (cmd, text, err)
            assert "names no index" in err


def test_cmpl_argument_count_is_a_usage_error(capsys):
    for index, u in (("1,1", "t"), ("1", "t;theta")):
        code, out, err = run_cli(capsys, "cmpl", "--index", index, "--u", u)
        assert code == 2 and out == "" and "error: --u: " in err and "depth" in err, err


def test_cmpl_argument_outside_convergence_is_a_usage_error(capsys):
    # ||theta^5|| = |theta|^5 against the bound |theta|^(3/2)
    code, out, err = run_cli(capsys, "cmpl", "--p", "3", "--index", "1", "--u", "theta^5")
    assert code == 2 and out == ""
    assert "error: --u: convergence condition violated: u_1: ||u|| exponent 5 vs bound 3/2" in err
    # AT arguments converge, so without --u the same index is computed
    code, out, _ = run_cli(capsys, "cmpl", "--p", "3", "--index", "1")
    assert code == 0 and json.loads(out)["arguments"] == ["1"]


@pytest.mark.parametrize("p", ["2", "3"])
def test_atpoly_reaches_slot_40(capsys, p):
    code, out, _ = run_cli(capsys, "atpoly", "--p", p, "--smax", "40")
    doc = json.loads(out)
    assert code == 0 and doc["bounds_ok"] and len(doc["polynomials"]) == 41


def test_verify_period_unequal_is_a_failure(capsys, monkeypatch):
    from ffmzv import cli
    from ffmzv.reports import IdentityReport

    monkeypatch.setattr(cli, "period_identity_report", lambda *args: IdentityReport("unequal", None, 7))
    code, out, _ = run_cli(capsys, "verify-period", "--index", "2")
    check = json.loads(out)["checks"][0]
    assert code == 1 and check["status"] == "fail"
    assert check["detail"] == "unequal at z-exponent 7"
