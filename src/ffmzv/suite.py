"""The verification suite behind `ffmzv suite` and the acceptance tests.

Each check is a pure function returning (status, detail); the runner
aggregates them in name order into a versioned JSON-able report.  Output is
byte-identical for identical (argv, seed) across runs: check functions share
no state, aggregation order is fixed by check name, and runtimes are
reported as 0 unless timings are explicitly requested.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from importlib import resources

from .carlitz import (
    CarlitzContext,
    carlitz_d,
    carlitz_d_bruteforce,
    omega_functional_residual,
    omega_series,
    pi_omega_cross_check,
    pi_tilde,
)
from .ffield import field as ff_field
from .laurent import to_text as ls_text
from .motive import (
    FiniteFieldDomain,
    carlitz_system,
    closure_report,
    commutator_report,
    component_collapse_report,
    example_system,
    frobenius_residual,
    derived_matrix,
    phi_matrix,
    psi_matrix,
    residual_and_kill,
)
from .poly import BivarPoly
from .special import (
    Index,
    at_arguments,
    mzv,
    mzv_bruteforce,
    period_identity_report,
    subclosure,
)

SCHEMA_VERSION = "1"

CONVENTIONS = {
    "uniformizer": "z = (-theta)^(-1/(q-1)) with theta = -z^(-(q-1)) and "
    "(-theta)^(1/(q-1)) = z^(-1); |theta| = p^l <-> v_z(theta) = -(q-1)",
    "at_slot": "H_s is extracted from the plain x^s coefficient slot of the "
    "inverted generating series (validated by H_s = 1 for s <= q-1 and by the "
    "period identity against the monic-sum path)",
    "twist_form": "all Frobenius equations are verified positively twisted, "
    "Psi = Phi^{(l)} Psi^{(l)} (and Psi = (Phi')^{(ls)} Psi^{(ls)} for derived "
    "systems); inverse twists never leave the ramified coefficient ring",
}


@dataclass
class RunConfig:
    seed: int = 0
    timings: bool = False
    enum_budget: int = 10**6
    fixtures_dir: str | None = None


def _wt_indices(max_wt: int, max_dep: int) -> list[Index]:
    out = []
    for wt in range(1, max_wt + 1):
        stack = [((), wt)]
        while stack:
            prefix, rest = stack.pop()
            if rest == 0:
                if 1 <= len(prefix) <= max_dep:
                    out.append(Index(prefix))
                continue
            if len(prefix) >= max_dep:
                continue
            for s in range(1, rest + 1):
                stack.append((prefix + (s,), rest - s))
    return sorted(set(out), key=lambda ix: (ix.wt, ix.dep, ix.entries))


def check_carlitz_tower(cfg: RunConfig):
    for p, l in [(2, 1), (3, 1), (2, 2)]:
        ctx = CarlitzContext(p, l, enum_budget=cfg.enum_budget)
        for i in range(4):
            if carlitz_d(ctx, i) != carlitz_d_bruteforce(ctx, i):
                return "fail", f"recursion vs enumeration differ at (p,l)=({p},{l}), i={i}"
    return "pass", "recursion equals brute-force product for i <= 3 at (2,1),(3,1),(2,2)"


def check_omega_functional(cfg: RunConfig):
    details = []
    for p, l in [(2, 1), (3, 1), (2, 2)]:
        ctx = CarlitzContext(p, l, prec=64, tdeg=20)
        om = omega_series(ctx)
        rep = omega_functional_residual(ctx, om)
        if (status := rep.verdict(60)) != "pass":
            return status, f"(p,l)=({p},{l}): passed={rep.passed} floor={rep.floor_z}"
        bad = omega_series(ctx, drop_factor=1)
        ctrl = omega_functional_residual(ctx, bad)
        if ctrl.passed:
            return "fail", f"(p,l)=({p},{l}): dropped-factor negative control passed"
        details.append(f"({p},{l}) floor {rep.floor_z}, control fails at exp {ctrl.worst_exponent}")
    return "pass", "; ".join(details)


def check_pi_two_path(cfg: RunConfig):
    details = []
    for p, l in [(2, 1), (3, 1), (2, 2)]:
        ctx = CarlitzContext(p, l)
        rep = pi_omega_cross_check(ctx, 50)
        if (status := rep.verdict()) != "pass":
            return status, f"(p,l)=({p},{l}): {rep.status} at exponent {rep.exponent}"
        details.append(f"({p},{l}) agree to {rep.precision} z-digits")
    return "pass", "; ".join(details)


def check_mzv_bruteforce(cfg: RunConfig):
    indices = [Index((1,)), Index((2,)), Index((1, 1)), Index((2, 1)), Index((1, 1, 1))]
    for p in (2, 3):
        ctx = CarlitzContext(p, 1, enum_budget=cfg.enum_budget)
        for s in indices:
            a = mzv(ctx, s, 24, max_degree=3)
            b = mzv_bruteforce(ctx, s, 3, 24)
            joint = min(a.prec, b.prec)
            if (a.truncate(joint).val, a.truncate(joint).coeffs) != (
                b.truncate(joint).val,
                b.truncate(joint).coeffs,
            ):
                return "fail", f"q={p}: partial sums differ for {s}"
    return "pass", "exact agreement, q in {2,3}, depth <= 3, degree <= 3"


def check_period_identity(cfg: RunConfig):
    indices = _wt_indices(6, 3)
    count = 0
    for p, l in [(2, 1), (3, 1)]:
        ctx = CarlitzContext(p, l)
        for s in indices:
            rep = period_identity_report(ctx, s, 30)
            if (status := rep.verdict()) != "pass":
                return status, f"(p,l)=({p},{l}), s={s}: {rep.status} at {rep.exponent}"
            count += 1
        # perturbation negative controls: shifted first argument must break it
        for s in (Index((1,)), Index((2, 1))):
            u = at_arguments(ctx, s)
            bad = (u[0] + BivarPoly.one(ctx.field),) + u[1:]
            rep = period_identity_report(ctx, s, 30, u=bad)
            if rep.verdict() != "fail" or rep.exponent is None:
                return "fail", f"(p,l)=({p},{l}), s={s}: perturbed control was {rep.status}"
    return "pass", f"{count} indices (wt <= 6, dep <= 3) equal to >= 30 z-digits; controls fail"


def check_rigid_analytic(cfg: RunConfig):
    indices = [Index((1,)), Index((2,)), Index((1, 1)), Index((2, 1)), Index((1, 2))]
    details = []
    for p, l in [(2, 1), (3, 1)]:
        ctx = CarlitzContext(p, l, prec=64, tdeg=8)
        for s in indices:
            u = at_arguments(ctx, s)
            phi = phi_matrix(ctx, u, s)
            psi = psi_matrix(ctx, u, s)
            rep, kill = residual_and_kill(phi, psi)
            if (status := rep.verdict(40)) != "pass":
                return status, f"(p,l)=({p},{l}), s={s}: passed={rep.passed} floor={rep.floor_z}"
            if (status := kill.verdict()) != "pass":
                return status, f"(p,l)=({p},{l}), s={s}: mutations survived at {kill.failures}"
        details.append(f"({p},{l}) floors >= 40, kill rate 100%")
    return "pass", "; ".join(details)


def check_derived(cfg: RunConfig):
    details = []
    for p in (2, 3):
        ctx = CarlitzContext(p, 1, prec=56, tdeg=8)
        phi, psi = carlitz_system(ctx)
        for s in (2, 3):
            rep = frobenius_residual(derived_matrix(phi, s), psi)
            if (status := rep.verdict(ctx.prec)) != "pass":
                return status, f"p={p}, s={s}: floor {rep.floor_z}, exponent {rep.worst_exponent}"
            details.append(f"p={p} s={s} floor {rep.floor_z}")
    return "pass", "same trivialization satisfies the s-fold equations; " + "; ".join(details)


def check_group_closure(cfg: RunConfig):
    dom = FiniteFieldDomain(ff_field(3, 4))
    idx = subclosure([Index((1, 2))])
    rep = closure_report(dom, idx, 100, cfg.seed + 1)
    if (status := rep.verdict()) != "pass":
        return status, f"witnesses: {rep.failures[:3]}; {rep.note}"
    return "pass", f"100 product+inverse re-parses over F_(3^4); {rep.note}"


def check_group_commutator(cfg: RunConfig):
    dom = FiniteFieldDomain(ff_field(3, 4))
    idx = subclosure([Index((1, 2))])
    rep = commutator_report(dom, idx, 100, cfg.seed + 2)
    if (status := rep.verdict()) != "pass":
        return status, f"witnesses: {rep.failures[:3]}; {rep.note}"
    return "pass", f"x -> v*b^wt and v*(1-b^-wt) exact on 100 samples; {rep.note}"


def check_telescoping(cfg: RunConfig):
    details = []
    for p, l in [(2, 1), (3, 1)]:
        ctx = CarlitzContext(p, l, prec=40, tdeg=10)
        for s in (Index((1, 2)), Index((2, 1)), Index((2,))):
            for i in range(1, s.dep + 2):
                for j in range(1, i):
                    rep = component_collapse_report(ctx, s, i, j)
                    if (status := rep.verdict(30)) != "pass":
                        return status, (
                            f"(p,l)=({p},{l}), s={s}, (i,j)=({i},{j}): "
                            f"passed={rep.passed} floor={rep.floor_z}"
                        )
        details.append(f"({p},{l}) all i > j zero to >= 30 z-digits")
    return "pass", "; ".join(details)


def _golden_payload() -> dict:
    ctx2 = CarlitzContext(2, 1, prec=40, tdeg=6)
    ctx3 = CarlitzContext(3, 1, prec=40, tdeg=6)
    phi8, psi8 = example_system(ctx2, 1, 2)
    return {
        "example_system_p2_l1_m1_n2": {"phi": phi8.to_json(), "psi": psi8.to_json()},
        "values": {
            "p2_l1": {
                "zeta_1": ls_text(mzv(ctx2, Index((1,)), 40)),
                "zeta_2_1": ls_text(mzv(ctx2, Index((2, 1)), 40)),
                "pi_tilde": ls_text(pi_tilde(ctx2, 40)),
            },
            "p3_l1": {
                "zeta_1": ls_text(mzv(ctx3, Index((1,)), 40)),
                "zeta_2_1": ls_text(mzv(ctx3, Index((2, 1)), 40)),
                "pi_tilde": ls_text(pi_tilde(ctx3, 40)),
            },
        },
    }


def _first_term_diff(got: str, want: str) -> str:
    gt, wt = got.split(" + "), want.split(" + ")
    for k, (g, w) in enumerate(zip(gt, wt)):
        if g != w:
            return f"first differing term #{k}: got {g!r}, expected {w!r}"
    return f"term count differs: got {len(gt)}, expected {len(wt)}"


def check_golden(cfg: RunConfig):
    if cfg.fixtures_dir is not None:
        import pathlib

        stored = json.loads((pathlib.Path(cfg.fixtures_dir) / "golden.json").read_text())
    else:
        stored = json.loads(resources.files("ffmzv").joinpath("golden/golden.json").read_text())
    current = _golden_payload()
    diffs = []

    def walk(a, b, path):
        if isinstance(a, dict):
            for k in a:
                if k not in b:
                    diffs.append(f"{path}.{k}: missing in stored")
                else:
                    walk(a[k], b[k], f"{path}.{k}")
        elif isinstance(a, list):
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{i}]")
            if len(a) != len(b):
                diffs.append(f"{path}: length {len(a)} vs {len(b)}")
        elif a != b:
            if isinstance(a, str) and " + " in a:
                diffs.append(f"{path}: {_first_term_diff(a, b)}")
            else:
                diffs.append(f"{path}: got {a!r}, expected {b!r}")

    walk(current, stored, "golden")
    if diffs:
        return "fail", "; ".join(diffs[:4])
    return "pass", "regression values and example system matrices match the stored forms"


CHECKS = [
    ("carlitz-tower-oracle", check_carlitz_tower),
    ("derived-same-trivialization", check_derived),
    ("golden-regression", check_golden),
    ("group-closure", check_group_closure),
    ("group-commutator", check_group_commutator),
    ("mzv-bruteforce-equivalence", check_mzv_bruteforce),
    ("omega-functional-equation", check_omega_functional),
    ("period-identity-scan", check_period_identity),
    ("pi-tilde-two-path", check_pi_two_path),
    ("psi-tilde-telescoping", check_telescoping),
    ("rigid-analytic-trivialization", check_rigid_analytic),
]


def check_entry(name: str, status: str, detail: str, ms: int = 0) -> dict:
    """One record of a report's "checks" list, in the suite and the CLI alike."""
    return {"name": name, "status": status, "detail": detail, "runtime_ms": ms}


def run_suite(cfg: RunConfig) -> dict:
    def run_one(item):
        name, fn = item
        t0 = time.perf_counter()
        try:
            status, detail = fn(cfg)
        except Exception as exc:  # a crashed check is a failed check
            status, detail = "fail", f"exception: {type(exc).__name__}: {exc}"
        ms = int((time.perf_counter() - t0) * 1000)
        return check_entry(name, status, detail, ms if cfg.timings else 0)

    results = sorted((run_one(item) for item in CHECKS), key=lambda r: r["name"])
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "seed": cfg.seed,
            "enum_budget": cfg.enum_budget,
        },
        "conventions": CONVENTIONS,
        "checks": results,
        "passed": all(r["status"] == "pass" for r in results),
    }
