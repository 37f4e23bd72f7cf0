"""Command-line front end: compute values, run verifiers, emit reports.

Every report carries the three convention notes (uniformizer, generating
series slot, twisted verification form) so results are interpretable without
the source.  Exit codes: 0 pass/success, 1 verification failure, 2 usage
error.  Output is deterministic for identical (argv, seed); runtimes are
zeroed unless --timings is given.  Each command is one handler that reads
only its own options; every report but the suite's shares one envelope.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from typing import Callable, NamedTuple

from .carlitz import CarlitzContext, omega_functional_residual, omega_series, pi_tilde
from .errors import FfmzvError
from .ffield import _is_prime, field as ff_field
from .laurent import to_text as ls_text
from .motive import (
    FiniteFieldDomain,
    RationalFunctionDomain,
    carlitz_system,
    closure_report,
    commutator_report,
    derived_matrix,
    frobenius_residual,
    phi_matrix,
    psi_matrix,
)
from .poly import parse_poly, to_text as poly_text
from .special import (
    anderson_thakur_polynomials,
    at_arguments,
    at_bound_report,
    check_convergence,
    cmpl_series,
    cmpl_value,
    CmplSpec,
    mzv,
    mzv_tuple_count,
    parse_index,
    parse_index_set,
    period_identity_report,
    subclosure,
)
from .reports import ResidualReport
from .suite import CONVENTIONS, RunConfig, SCHEMA_VERSION, check_entry, run_suite
from .tate import to_text as tate_text


# argparse keywords of every option ("index?" is an optional --index); each
# command in _COMMANDS lists the ones it reads
_OPTIONS = {
    "p": dict(type=int, default=2, help="characteristic (prime)"),
    "l": dict(type=int, default=1, help="level: the constant field is F_q, q = p^l"),
    "index": dict(required=True, help="e.g. '2,1'"),
    "index?": dict(help="e.g. '2,1'; the Carlitz system if omitted"),
    "prec": dict(type=int, default=40, help="target z-precision"),
    "tdeg": dict(type=int, default=12, help="t-truncation degree"),
    "smax": dict(type=int, default=4),
    "u": dict(help="semicolon-separated polynomials in t, theta"),
    "derive": dict(type=int, default=2),
    "indices": dict(required=True, help="index set, e.g. '1,2' or '1;2'"),
    "gf": dict(default="3,4", help="sample field 'p,N'"),
    "samples": dict(type=int, default=100),
    "rational": dict(action="store_true", help="sample over F_p(t) instead"),
    "seed": dict(type=int, default=0),
    "enum-budget": dict(type=int, default=10**6, help="cap on tuples the brute-force checks visit"),
    "timings": dict(action="store_true", help="report real runtimes (non-deterministic)"),
    "fixtures": dict(help="override golden fixtures directory"),
}

# least value of each integer option (argparse has checked that it is one)
_LEAST = {"l": 1, "prec": 1, "tdeg": 0, "smax": 0, "derive": 1, "samples": 1}


def _check_ranges(args) -> None:
    for name, value in vars(args).items():
        # argparse passes `--name=--` on as an empty list, unconverted
        if isinstance(value, list):
            raise UsageError(f"--{name} needs a value, got {'--'!r}")
    for name, least in _LEAST.items():
        value = getattr(args, name, least)
        if value < least:
            kind = "positive" if least else "non-negative"
            raise UsageError(f"--{name} must be {kind}, got {value}")


def _parse(option: str, parse, value):
    """parse(value), where a ValueError is a usage error naming the option."""
    try:
        return parse(value)
    except ValueError as exc:
        raise UsageError(f"{option}: {exc}") from None


def _ctx_from(args) -> CarlitzContext:
    if not _parse("--p", _is_prime, args.p):
        raise UsageError("--p must be prime")
    sizes = {k: getattr(args, k) for k in ("prec", "tdeg") if hasattr(args, k)}
    return CarlitzContext(args.p, args.l, **sizes)


class UsageError(Exception):
    pass


def _envelope(args, **payload) -> dict:
    cfg = {k: getattr(args, k) for k in ("p", "l", "prec", "tdeg", "seed") if hasattr(args, k)}
    return {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": cfg,
        "conventions": CONVENTIONS,
        **payload,
    }


def _emit(args, report: dict) -> None:
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    for k, v in CONVENTIONS.items():
        print(f"# {k}: {v}")
    for k, v in report.items():
        if k in ("schema_version", "conventions"):
            continue
        if k == "checks":
            for c in v:
                print(f"{c['status'].upper():6s} {c['name']}: {c['detail']}")
        else:
            print(f"{k}: {json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v}")


def _residual_entry(name: str, rep: ResidualReport, prec: int, located: bool = False) -> dict:
    """The check entry of a residual verdict at `prec` z-digits; `located`
    names the worst entry."""
    status = rep.verdict(prec)
    if status == "fail":
        where = f"entry {rep.location} " if located else ""
        return check_entry(name, status, f"{where}residual exponent {rep.worst_exponent}")
    detail = f"floor {rep.floor_z} z-digits"
    if status == "incomparable":
        detail += f", below the requested {prec}"
    return check_entry(name, status, detail)


def _gf_field(text: str) -> tuple[int, int]:
    try:
        p, ndeg = (int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"--gf must be two integers 'p,N', got {text!r}") from None
    if not _parse("--gf", _is_prime, p):
        raise UsageError(f"--gf characteristic must be prime, got {text!r}")
    if ndeg < 1:
        raise UsageError(f"--gf degree N must be positive, got {text!r}")
    return p, ndeg


def _checked(entry: dict, **payload) -> tuple[dict, bool]:
    """A payload whose one check is entry, and whether that check passed."""
    return {**payload, "checks": [entry]}, entry["status"] == "pass"


def _suite(args, ctx, s):
    cfg = RunConfig(
        seed=args.seed,
        timings=args.timings,
        enum_budget=args.enum_budget,
        fixtures_dir=args.fixtures,
    )
    report = run_suite(cfg)
    return report, report["passed"]


def _group(law, args, ctx, s):
    p, ndeg = _gf_field(args.gf)
    dom = RationalFunctionDomain(p) if args.rational else FiniteFieldDomain(ff_field(p, ndeg))
    idx = subclosure(_parse("--indices", parse_index_set, args.indices))
    rep = law(dom, idx, args.samples, args.seed)
    detail = rep.note if rep.passed else str(rep.failures[:3])
    return _checked(
        check_entry(args.command, rep.verdict(), detail),
        index_set=[str(i) for i in idx],
        domain=dom.name,
    )


def _mzv(args, ctx, s):
    value = mzv(ctx, s, args.prec)
    return dict(
        index=str(s),
        value=ls_text(value),
        terms_used=mzv_tuple_count(ctx, s, args.prec),
        precision_achieved=value.prec,
    ), True


def _atpoly(args, ctx, s):
    hs = anderson_thakur_polynomials(ctx, args.smax)
    bounds = at_bound_report(ctx, hs)
    return dict(polynomials=[poly_text(h) for h in hs], bounds_ok=bounds.passed), bounds.passed


def _omega(args, ctx, s):
    om = omega_series(ctx)
    rep = omega_functional_residual(ctx, om)
    return _checked(_residual_entry("omega-functional-equation", rep, args.prec), series=tate_text(om))


def _pitilde(args, ctx, s):
    value = pi_tilde(ctx, args.prec)
    return dict(value=ls_text(value), precision_achieved=value.prec), True


def _cmpl(args, ctx, s):
    if args.u is None:
        spec = CmplSpec(s, at_arguments(ctx, s))
    else:
        parse = partial(parse_poly, ctx.field)
        u = tuple(_parse("--u", parse, part) for part in args.u.split(";"))
        spec = _parse("--u", lambda u: check_convergence(ctx, CmplSpec(s, u)), u)
    value = cmpl_value(ctx, spec, args.prec)
    ser = cmpl_series(ctx, spec, args.tdeg, args.prec)
    return dict(
        index=str(s),
        arguments=[poly_text(x) for x in spec.u],
        value=ls_text(value),
        series=tate_text(ser),
    ), True


def _verify_period(args, ctx, s):
    rep = period_identity_report(ctx, s, args.prec)
    at = "" if rep.exponent is None else f" at z-exponent {rep.exponent}"
    detail = f"equal to {rep.precision} z-digits" if rep.passed else rep.status + at
    return _checked(check_entry("period-identity", rep.verdict(), detail))


def _verify_rat(args, ctx, s):
    u = at_arguments(ctx, s)
    rep = frobenius_residual(phi_matrix(ctx, u, s), psi_matrix(ctx, u, s))
    return _checked(_residual_entry("rigid-analytic-trivialization", rep, args.prec, located=True))


def _verify_derived(args, ctx, s):
    if s is None:
        phi, psi = carlitz_system(ctx)
    else:
        u = at_arguments(ctx, s)
        phi, psi = phi_matrix(ctx, u, s), psi_matrix(ctx, u, s)
    rep = frobenius_residual(derived_matrix(phi, args.derive), psi)
    return _checked(
        _residual_entry("derived-same-trivialization", rep, args.prec), derive=args.derive
    )


class _Command(NamedTuple):
    help: str
    options: str  # the options it reads
    run: Callable  # (args, ctx, index) -> (payload, passed)
    enveloped: bool = True  # False: the payload is the whole report


_GROUP = "indices gf samples rational seed"

_COMMANDS = {
    "mzv": _Command("zeta value by direct summation", "p l index prec", _mzv),
    "atpoly": _Command("generating-series polynomials H_0..H_smax", "p l smax", _atpoly),
    "omega": _Command("period product series and its functional equation", "p l prec tdeg", _omega),
    "pitilde": _Command("the fundamental period by its product formula", "p l prec", _pitilde),
    "cmpl": _Command("multiple polylogarithm value and series", "p l index u prec tdeg", _cmpl),
    "verify-period": _Command(
        "factorial*zeta = polylog value at the H arguments", "p l index prec", _verify_period
    ),
    "verify-rat": _Command(
        "series side satisfies the twisted difference equation", "p l index prec tdeg", _verify_rat
    ),
    "verify-derived": _Command(
        "same trivialization for the derived system", "p l index? derive prec tdeg", _verify_derived
    ),
    "group-closure": _Command(
        "block shape closure/inverse re-parse on samples", _GROUP, partial(_group, closure_report)
    ),
    "group-commutator": _Command(
        "exact commutator coordinate law on samples", _GROUP, partial(_group, commutator_report)
    ),
    "suite": _Command(
        "the full verification matrix", "seed enum-budget timings fixtures", _suite, enveloped=False
    ),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ffmzv", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        for opt in cmd.options.split():
            sp.add_argument("--" + opt.rstrip("?"), **_OPTIONS[opt])
        sp.add_argument("--format", choices=("text", "json"), default="json")
    return ap


def _run(args) -> int:
    _check_ranges(args)
    cmd = _COMMANDS[args.command]
    ctx = _ctx_from(args) if hasattr(args, "p") else None
    index = getattr(args, "index", None)
    s = None if index is None else _parse("--index", parse_index, index)
    payload, passed = cmd.run(args, ctx, s)
    _emit(args, _envelope(args, **payload) if cmd.enveloped else payload)
    return 0 if passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FfmzvError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
