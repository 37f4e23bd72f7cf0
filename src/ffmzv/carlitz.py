"""The Carlitz tower: D_i, factorials, the period series Omega, and pi-tilde.

Working conventions at level l (q = p^l):

  * D_0 = 1, D_i = (theta^{q^i} - theta) * D_{i-1}^q; equal to the product of
    all monic polynomials of degree i, which the brute-force oracle checks.
  * Gamma_{n+1} = prod D_i^{n_i} over the base-q digits of n.
  * Omega(t) = z^q * prod_{i>=1} (1 - t/theta^{q^i}): the (-theta)^{-q/(q-1)}
    prefactor is the exact monomial z^q in the fixed uniformizer.  Factor i
    contributes 1 + O(z^{(q-1)q^i}) per t-coefficient, so the factor count is
    derived from the precision target, never user-guessed.
  * pi_tilde = theta*(-theta)^{1/(q-1)} * prod (1 - theta^{1-q^i})^{-1}, an
    independent computation path cross-checked against 1/Omega(theta).
  * Omega's functional equation Omega = (t - theta^q) Omega^{(l)} is the
    residual of the 1x1 system (t - theta stored twisted, Omega), computed by
    the same `tate` residual as every matrix system.

Every theta-power, with its sign, comes from `laurent.theta_pow`, and all
formulas use explicit field negation, so characteristic 2 needs no
special-casing (-1 = 1 there).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product
from typing import Any, Callable

from .errors import BudgetError
from .ffield import FieldSpec, field as ff_field, ops
from .laurent import LaurentSeries, compare_to_precision, monomial, one, theta_pow
from .poly import BivarPoly, dense_theta_mul, t_minus_theta_frob
from .reports import IdentityReport, ResidualReport
from . import tate
from .tate import TateElement


@dataclass
class CarlitzContext:
    """Level data: prime p and level l, from which the field F_q (q = p^l) and
    q derive, plus working sizes and a cache of values shared by every caller.

    `prec` (z-digits) and `tdeg` (t-degree) size the matrix systems built
    from the context (`motive.psi_matrix`, `carlitz_system`, `example_system`,
    `component_collapse_report`) and are Omega's default sizes.  Every other
    function names its sizes, so one context serves any precision.
    """

    p: int
    l: int
    prec: int = 64
    tdeg: int = 16
    enum_budget: int = 10**6
    field: FieldSpec = dc_field(init=False)
    q: int = dc_field(init=False)
    _cache: dict = dc_field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.field = ff_field(self.p, self.l)
        self.q = self.field.order
        if self.prec < 1:
            raise ValueError("precision >= 1 required")

    def cached(self, key, build: Callable[[], Any]) -> Any:
        """The value stored under `key`, built by `build()` on the first call.

        Cached values are shared by every caller and must not be mutated.  A
        series asked for at several precisions goes through `cached_to`
        instead, with one entry per key rather than one per precision.
        """
        try:
            return self._cache[key]
        except KeyError:
            val = self._cache[key] = build()
            return val

    def cached_to(self, key, level: int, build: Callable[[int], Any]) -> Any:
        """The series `build(level)`, a LaurentSeries or a TateElement (whose
        precision is its coefficients' least), for builds whose precision is
        level plus a constant of the key and whose coefficients below it do
        not depend on level.

        Precision-monotone: one entry per key holds the highest level built
        so far.  A request at or below it is that series truncated by the
        difference in level (a hit); a request above it builds afresh and
        replaces the entry (a miss).
        """
        entry = self._cache.get(key)
        if entry is not None and entry[0] >= level:
            top, val = entry
            return val.truncate(val.prec - (top - level))
        val = build(level)
        self._cache[key] = (level, val)
        return val


def carlitz_d(ctx: CarlitzContext, i: int) -> BivarPoly:
    """D_i as an exact theta-polynomial, by the Frobenius recursion."""

    def build() -> BivarPoly:
        if i == 0:
            return BivarPoly.one(ctx.field)
        prev = carlitz_d(ctx, i - 1)
        neg1 = ops(ctx.field).neg[1]
        lin = BivarPoly(ctx.field, {(0, ctx.q**i): 1, (0, 1): neg1})
        return lin * prev.twist(ctx.l)  # prev^q is the l-fold twist of a theta-poly

    return ctx.cached(("D", i), build)


def monic_coeff_lists(q: int, d: int):
    """Dense coefficient lists (lowest first) of the q^d monic polynomials of
    degree d over F_q, in encoding order (the constant term varies fastest)."""
    return ([*reversed(digits), 1] for digits in product(range(q), repeat=d))


def carlitz_d_bruteforce(ctx: CarlitzContext, i: int) -> BivarPoly:
    """Product over all q^i monic polynomials of degree i (enumeration
    oracle), capped by ctx.enum_budget."""
    if ctx.q**i > ctx.enum_budget:
        raise BudgetError(f"enumerating {ctx.q**i} monic polynomials exceeds budget {ctx.enum_budget}")
    if i == 0:
        return BivarPoly.one(ctx.field)
    fld = ctx.field
    polys = list(monic_coeff_lists(ctx.q, i))
    # balanced product tree over packed dense multiplications
    while len(polys) > 1:
        nxt = [
            dense_theta_mul(fld, polys[k], polys[k + 1]) if k + 1 < len(polys) else polys[k]
            for k in range(0, len(polys), 2)
        ]
        polys = nxt
    return BivarPoly.from_theta_coeffs(fld, {k: c for k, c in enumerate(polys[0]) if c})


def carlitz_factorial(ctx: CarlitzContext, n: int) -> BivarPoly:
    """Gamma_{n+1} = prod D_i^{n_(i)} over the base-q digits n_(i) of n."""
    if n < 0:
        raise ValueError("factorial index must be non-negative")
    result = BivarPoly.one(ctx.field)
    i = 0
    while n:
        n, digit = divmod(n, ctx.q)
        if digit:
            result = result * carlitz_d(ctx, i) ** digit
        i += 1
    return result


def omega_factor_count(q: int, prec: int) -> int:
    """Factors needed so both omitted-factor and omitted-coefficient errors are O(z^prec)."""
    f = 1
    while q ** (f + 1) < prec:
        f += 1
    return f + 1  # safety margin


def omega_series(
    ctx: CarlitzContext,
    tdeg: int | None = None,
    prec: int | None = None,
    drop_factor: int | None = None,
) -> TateElement:
    """Truncated period product with certified tail (slope (q-1)q, offset q),
    at the context's sizes unless `tdeg` or `prec` is given: Omega is the
    Carlitz system's Psi, and `omega_for_eval` asks for evaluation sizes.

    `drop_factor` skips one factor of the product; the result then violates
    the functional equation and serves as a negative control.  The full
    product is cached in the context per (tdeg, prec); a product with
    `drop_factor` set is built afresh on every call.
    """
    q, fld = ctx.q, ctx.field
    prec = ctx.prec if prec is None else prec
    tdeg = ctx.tdeg if tdeg is None else tdeg

    def build() -> TateElement:
        work = prec + q + 2
        nfac = omega_factor_count(q, work)
        acc = tate.from_laurent(monomial(fld, q, 1, work))  # the exact prefactor z^q
        for i in range(1, nfac + 1):
            if i == drop_factor:
                continue
            # 1 - t/theta^{q^i}: the t-coefficient is -theta^{-q^i}
            lin = [one(fld, work), -theta_pow(fld, -(q**i), work)]
            fac = TateElement(fld, lin, None, True)
            acc = (acc * fac).truncate_tdeg(tdeg)
        coeffs = list(acc.coeffs)
        while len(coeffs) < tdeg + 1:
            coeffs.append(LaurentSeries(fld, work, [], work))
        return TateElement(fld, coeffs, ((q - 1) * q, q), False)

    if drop_factor is None:
        return ctx.cached(("omega", tdeg, prec), build)
    return build()


def omega_power(ctx: CarlitzContext, e: int, tdeg: int, prec: int) -> TateElement:
    """Omega^e by repeated multiplication with `omega_series(ctx, tdeg, prec)`,
    cached in the context per (tdeg, prec, e); Omega^0 is the exact 1."""

    def build() -> TateElement:
        if e == 0:
            return tate.one(ctx.field, prec + ctx.q + 2)
        if e == 1:
            return omega_series(ctx, tdeg=tdeg, prec=prec)
        return omega_power(ctx, e - 1, tdeg, prec) * omega_power(ctx, 1, tdeg, prec)

    return ctx.cached(("omega", tdeg, prec, e), build)


def omega_for_eval(ctx: CarlitzContext, target: int) -> TateElement:
    """Omega sized so that evaluation at t = theta is certified to O(z^target).

    The tail cap is (sigma-(q-1))(D+1)+tau with sigma = q(q-1), tau = q, and
    each stored coefficient must carry target + (q-1)k z-digits.
    """
    q = ctx.q
    step = (q - 1) * (q - 1)
    tdeg = max(1, -(-(target - q) // step))
    prec = target + (q - 1) * tdeg + 2
    return omega_series(ctx, tdeg=tdeg, prec=prec)


def pi_tilde(ctx: CarlitzContext, prec: int) -> LaurentSeries:
    """The fundamental period by its own product formula (never through Omega)."""
    q, fld = ctx.q, ctx.field
    work = prec + q + 2
    # theta * (-theta)^{1/(q-1)} = theta * z^{-1}, known to O(z^work)
    acc = theta_pow(fld, 1, work + 1).shift(-1)
    i = 1
    while True:
        v = (q - 1) * (q**i - 1)  # valuation of theta^{1-q^i}
        if v >= work + q:
            break
        factor = one(fld, work) - theta_pow(fld, 1 - q**i, work)
        acc = acc * factor.inv()
        i += 1
    return acc.truncate(prec)


def pi_omega_cross_check(ctx: CarlitzContext, target: int) -> IdentityReport:
    """Two independent paths to the period: product formula vs 1/Omega(theta).

    pi_tilde * Omega(theta) equals the exact constant -1 (the prefactors give
    theta * (-theta)^{1/(q-1)} * (-theta)^{-q/(q-1)} = theta/(-theta), root
    choice cancelling); in characteristic 2 this is +1.  The check certifies
    agreement of the two paths to at least `target` z-digits.
    """
    q = ctx.q
    work = target + q + 4
    pt = pi_tilde(ctx, work)
    ev = tate.eval_at_theta(omega_for_eval(ctx, work))
    prod = pt * ev
    expect = monomial(ctx.field, 0, ops(ctx.field).neg[1], prod.prec)
    return IdentityReport.from_comparison(
        compare_to_precision(prod, expect),
        target,
        note="product formula x Omega(theta) = -1 exactly (+1 in characteristic 2)",
    )


def omega_functional_residual(ctx: CarlitzContext, omega: TateElement) -> ResidualReport:
    """Residual of Omega = (t - theta^q) * Omega^(l), the defining equation.

    Verified, not assumed: after a precheck of the constant coefficient, the
    residual of the 1x1 system (t - theta stored twisted, Omega), with its
    worst Gauss-norm exponent against the certified precision floor.
    """
    if omega.coeffs[0].is_zero():
        return ResidualReport(
            passed=False,
            worst_exponent=None,
            floor_z=min(c.prec for c in omega.coeffs),
            note="sanity precheck failed: constant coefficient is zero to precision",
        )
    psi = [[omega]]
    res = tate.residual_setup([[t_minus_theta_frob(ctx.field, ctx.l)]], psi, ctx.l)
    return ResidualReport.from_checks(tate.residual_checks(res, psi), ctx.q)
