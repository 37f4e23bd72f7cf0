"""Command-line front end: compute values, run verifiers, emit reports.

Every report carries the three convention notes (uniformizer, generating
series slot, twisted verification form) so results are interpretable without
the source.  Exit codes: 0 pass/success, 1 verification failure, 2 usage
error.  Output is deterministic for identical (argv, seed); runtimes are
zeroed unless --timings is given.
"""

from __future__ import annotations

import argparse
import json
import sys

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


def _add_common(sp: argparse.ArgumentParser, level: bool = True) -> None:
    if level:
        sp.add_argument("--p", type=int, default=2, help="characteristic (prime)")
        sp.add_argument("--l", default="1", help="level(s), comma separated, distinct")
    sp.add_argument("--prec", type=int, default=40, help="target z-precision")
    sp.add_argument("--tdeg", type=int, default=12, help="t-truncation degree")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--enum-budget",
        type=int,
        default=10**6,
        help="cap on monic polynomials or tuples an enumeration oracle may visit "
        "(the suite's brute-force checks); zeta values never enumerate",
    )
    sp.add_argument("--format", choices=("text", "json"), default="json")
    sp.add_argument("--timings", action="store_true", help="report real runtimes (non-deterministic)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ffmzv", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    for name, hlp in [
        ("mzv", "zeta value by direct summation"),
        ("atpoly", "generating-series polynomials H_0..H_smax"),
        ("omega", "period product series and its functional equation"),
        ("pitilde", "the fundamental period by its product formula"),
        ("cmpl", "multiple polylogarithm value and series"),
        ("verify-period", "factorial*zeta = polylog value at the H arguments"),
        ("verify-rat", "series side satisfies the twisted difference equation"),
        ("verify-derived", "same trivialization for the derived system"),
        ("group-closure", "block shape closure/inverse re-parse on samples"),
        ("group-commutator", "exact commutator coordinate law on samples"),
        ("suite", "the full verification matrix"),
    ]:
        sp = sub.add_parser(name, help=hlp)
        if name in ("group-closure", "group-commutator"):
            sp.add_argument("--indices", required=True, help="index set, e.g. '1,2' or '1;2'")
            sp.add_argument("--gf", default="3,4", help="sample field 'p,N'")
            sp.add_argument("--samples", type=int, default=100)
            sp.add_argument("--rational", action="store_true", help="sample over F_p(t) instead")
            _add_common(sp, level=False)
        elif name == "suite":
            sp.add_argument("--fixtures", default=None, help="override golden fixtures directory")
            _add_common(sp, level=False)
        else:
            if name in ("mzv", "cmpl", "verify-period", "verify-rat"):
                sp.add_argument("--index", required=True, help="e.g. '2,1'")
            if name == "cmpl":
                sp.add_argument("--u", default=None, help="semicolon-separated polynomials in t, theta")
            if name == "atpoly":
                sp.add_argument("--smax", type=int, default=4)
            if name == "verify-derived":
                sp.add_argument("--derive", type=int, default=2)
                sp.add_argument("--index", default=None)
            _add_common(sp)
    return ap


def _ctx_from(args) -> CarlitzContext:
    if not _is_prime(args.p):
        raise UsageError("p must be prime")
    levels = [int(x) for x in str(args.l).split(",")]
    if any(x < 1 for x in levels):
        raise UsageError("levels must be positive integers")
    if len(set(levels)) != len(levels):
        raise UsageError("levels must be distinct")
    if len(levels) != 1:
        raise UsageError("this command takes a single level")
    if args.prec < 1:
        raise UsageError("precision must be positive")
    return CarlitzContext(
        args.p, levels[0], prec=args.prec, tdeg=args.tdeg, enum_budget=args.enum_budget
    )


class UsageError(Exception):
    pass


def _envelope(args, **payload) -> dict:
    cfg = {
        k: getattr(args, k)
        for k in ("p", "l", "prec", "tdeg", "seed", "enum_budget")
        if hasattr(args, k)
    }
    out = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": cfg,
        "conventions": CONVENTIONS,
    }
    out.update(payload)
    return out


def _verdict(args, report: dict) -> int:
    """Emit a report; exit 0 only if every one of its checks passed."""
    _emit(args, report)
    return 0 if all(c["status"] == "pass" for c in report["checks"]) else 1


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
    """The check entry of a residual verdict; `located` names the worst entry.
    A zero certified below `prec` z-digits is "incomparable"."""
    if rep.passed:
        detail = f"floor {rep.floor_z} z-digits"
        if rep.floor_z < prec:
            return check_entry(name, "incomparable", f"{detail}, below the requested {prec}")
        return check_entry(name, "pass", detail)
    where = f"entry {rep.location} " if located else ""
    return check_entry(name, "fail", f"{where}residual exponent {rep.worst_exponent}")


def _gf_field(text: str) -> tuple[int, int]:
    try:
        p, ndeg = (int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"--gf must be two integers 'p,N', got {text!r}") from None
    if not _is_prime(p):
        raise UsageError("p must be prime")
    if ndeg < 1:
        raise UsageError(f"--gf degree N must be positive, got {text!r}")
    return p, ndeg


def _run(args) -> int:
    cmd = args.command
    if cmd == "suite":
        cfg = RunConfig(
            seed=args.seed,
            timings=args.timings,
            enum_budget=args.enum_budget,
            fixtures_dir=args.fixtures,
        )
        report = run_suite(cfg)
        _emit(args, report)
        return 0 if report["passed"] else 1

    if cmd in ("group-closure", "group-commutator"):
        if args.samples < 1:
            raise UsageError(f"--samples must be positive, got {args.samples}")
        p, ndeg = _gf_field(args.gf)
        dom = RationalFunctionDomain(p) if args.rational else FiniteFieldDomain(ff_field(p, ndeg))
        idx = subclosure(parse_index_set(args.indices))
        fn = closure_report if cmd == "group-closure" else commutator_report
        rep = fn(dom, idx, args.samples, args.seed)
        status = "fail" if not rep.passed else "pass" if rep.certified else "incomparable"
        report = _envelope(
            args,
            index_set=[str(i) for i in idx],
            domain=dom.name,
            checks=[check_entry(cmd, status, rep.note if rep.passed else str(rep.failures[:3]))],
        )
        return _verdict(args, report)

    ctx = _ctx_from(args)

    if cmd == "mzv":
        s = parse_index(args.index)
        value = mzv(ctx, s, args.prec)
        report = _envelope(
            args,
            index=str(s),
            value=ls_text(value),
            terms_used=mzv_tuple_count(ctx, s, args.prec),
            precision_achieved=value.prec,
        )
        _emit(args, report)
        return 0

    if cmd == "atpoly":
        hs = anderson_thakur_polynomials(ctx, args.smax)
        bounds = at_bound_report(ctx, hs)
        report = _envelope(
            args,
            polynomials=[poly_text(h) for h in hs],
            bounds_ok=bounds.passed,
        )
        _emit(args, report)
        return 0 if bounds.passed else 1

    if cmd == "omega":
        om = omega_series(ctx)
        rep = omega_functional_residual(ctx, om)
        report = _envelope(
            args,
            series=tate_text(om),
            checks=[_residual_entry("omega-functional-equation", rep, args.prec)],
        )
        return _verdict(args, report)

    if cmd == "pitilde":
        value = pi_tilde(ctx, args.prec)
        report = _envelope(args, value=ls_text(value), precision_achieved=value.prec)
        _emit(args, report)
        return 0

    if cmd == "cmpl":
        s = parse_index(args.index)
        if args.u is None:
            u = at_arguments(ctx, s)
        else:
            u = tuple(parse_poly(ctx.field, part) for part in args.u.split(";"))
        spec = CmplSpec(s, u)
        value = cmpl_value(ctx, spec, args.prec)
        ser = cmpl_series(ctx, spec, args.tdeg, args.prec)
        report = _envelope(
            args,
            index=str(s),
            arguments=[poly_text(x) for x in u],
            value=ls_text(value),
            series=tate_text(ser),
        )
        _emit(args, report)
        return 0

    if cmd == "verify-period":
        s = parse_index(args.index)
        rep = period_identity_report(ctx, s, args.prec)
        detail = (
            f"equal to {rep.precision} z-digits"
            if rep.passed
            else f"{rep.status}"
            + (f" at z-exponent {rep.exponent}" if rep.exponent is not None else "")
        )
        report = _envelope(
            args, checks=[check_entry("period-identity", rep.status if rep.status != "equal" else "pass", detail)]
        )
        return _verdict(args, report)

    if cmd == "verify-rat":
        s = parse_index(args.index)
        u = at_arguments(ctx, s)
        rep = frobenius_residual(phi_matrix(ctx, u, s), psi_matrix(ctx, u, s))
        entry = _residual_entry("rigid-analytic-trivialization", rep, args.prec, located=True)
        return _verdict(args, _envelope(args, checks=[entry]))

    if cmd == "verify-derived":
        if args.index is None:
            phi, psi = carlitz_system(ctx)
        else:
            s = parse_index(args.index)
            u = at_arguments(ctx, s)
            phi, psi = phi_matrix(ctx, u, s), psi_matrix(ctx, u, s)
        rep = frobenius_residual(derived_matrix(phi, args.derive), psi)
        report = _envelope(
            args,
            derive=args.derive,
            checks=[_residual_entry("derived-same-trivialization", rep, args.prec)],
        )
        return _verdict(args, report)

    raise UsageError(f"unknown command {cmd!r}")


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
