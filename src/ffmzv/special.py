"""Power sums, multiple zeta values, Anderson-Thakur polynomials, and
multiple polylogarithms, all as exact truncated z-series.

The depth-d zeta value at level l is the sum of 1/(a_1^{s_1}...a_d^{s_d})
over monic tuples with strictly decreasing degrees; it is assembled from the
degree-d power sums S_d(s) = sum(a^-s, a monic of degree d) by dynamic
programming over degree tuples.

Power sums come in closed form, never by enumeration.  Write a monic of
degree d as theta^d (1 + X) with u = 1/theta = -z^(q-1) and
X = sum_{j=1..d} b_j u^j, the b_j running over F_q.  Expanding
(1 + X)^-s = sum_k (-1)^k C(s+k-1, k) X^k and summing each coefficient with
sum_{c in F_q} c^e = -1 when e > 0 and (q-1) | e, and 0 otherwise, gives

    S_d(s) = (-1)^d u^{ds} sum_e (-1)^K C(s+K-1, K) multinomial(K; e) u^D,

over exponent vectors e = (e_1..e_d) of positive multiples of q-1, with
K = sum e_j and D = sum j e_j.  Every coefficient lies in F_p, so a dynamic
program over j with state (K, D) and Lucas binomials mod p computes S_d(s)
to any precision in time polynomial in the precision, independent of q^d.
The same expansion gives the certified valuation bound

    v_z(S_d(s)) >= (q-1) * (d*s + (q-1)*d*(d+1)/2),

quadratic in d, which stops the degree-tuple summations.  Stopping criteria
use exact a-priori bounds, never floating estimates.  Enumeration is the
oracle: the brute-force tuple sum here (a suite reference) and the q^d-term
power-sum loop in tests/test_special.py run under the context's enumeration
budget.

Anderson-Thakur polynomials come from inverting the generating series
1 - sum_i N_i / D_i x^{q^i}, N_i = prod_{j=1..i} (t^{q^i} - theta^{q^j}), as
a power series in x and scaling slot n by Gamma_{n+1}, with theta renamed t
in D_i and Gamma.  Multiplied through, this is the integral recurrence
H_0 = 1, H_n = sum_{q^i <= n} B_{n,i} N_i H_{n-q^i}, where each
B_{n,i} = Gamma_{n+1} / (Gamma_{n-q^i+1} D_i) is an exact division in t:
no fraction is ever formed, and a remainder raises ConventionError.  The
extraction convention is the plain x^s coefficient slot: it is the one that
reproduces H_s = 1 for 0 <= s <= q-1 and is validated operationally by the
period identity against the convention-free monic-sum path, which never
touches the H polynomials.  All checked identities are printed with this
convention note.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .carlitz import CarlitzContext, carlitz_d, carlitz_factorial, monic_coeff_lists
from .errors import BudgetError, ConventionError
from .ffield import ops
from .laurent import LaurentSeries, compare_to_precision, from_rational, theta_pow
from .laurent import zero as ls_zero
from .poly import BivarPoly, dense_theta_mul
from .reports import CheckReport, IdentityReport
from . import tate
from .tate import TateElement


# -- indices -------------------------------------------------------------------


@dataclass(frozen=True)
class Index:
    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries or any(s < 1 for s in self.entries):
            raise ValueError("an index is a nonempty tuple of positive integers")

    @property
    def dep(self) -> int:
        return len(self.entries)

    @property
    def wt(self) -> int:
        return sum(self.entries)

    def window(self, i: int, j: int) -> "Index":
        """The contiguous window (s_i..s_j), 1-based inclusive."""
        return Index(self.entries[i - 1 : j])

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.entries)) + ")"


def parse_index(text: str) -> Index:
    return Index(tuple(int(x) for x in text.split(",")))


def parse_index_set(text: str) -> tuple[Index, ...]:
    indices = tuple(parse_index(part) for part in text.split(";") if part)
    if not indices:
        raise ValueError(f"{text!r} names no index")
    return indices


def subclosure(indices) -> tuple[Index, ...]:
    """Minimal window-closed superset, depth-ascending, lexicographic ties."""
    seen = set()
    for idx in indices:
        d = idx.dep
        for i in range(1, d + 1):
            for j in range(i, d + 1):
                seen.add(idx.window(i, j))
    return tuple(sorted(seen, key=lambda ix: (ix.dep, ix.entries)))


def is_subclosed(indices) -> bool:
    have = set(indices)
    return all(w in have for idx in indices for w in subclosure([idx]))


# -- monic power sums and zeta values --------------------------------------------


def power_sum_val_bound(q: int, d: int, s: int) -> int:
    """Certified lower bound for v_z(S_d(s)); quadratic in d."""
    return (q - 1) * (d * s + (q - 1) * d * (d + 1) // 2)


@lru_cache(maxsize=1 << 16)
def _binom_mod_p(n: int, k: int, p: int) -> int:
    """C(n, k) mod p by Lucas's theorem, digit by digit in base p."""
    r = 1
    while k:
        n, a = divmod(n, p)
        k, b = divmod(k, p)
        if b > a:
            return 0
        r = r * comb(a, b) % p
    return r


def monic_power_sum(ctx: CarlitzContext, d: int, s: int, prec: int | None = None) -> LaurentSeries:
    """S_d(s) = sum of a^-s over the q^d monic polynomials of degree d,
    from the exponent-vector closed form (see the module docstring)."""
    if s < 1 or d < 0:
        raise ValueError("need s >= 1 and d >= 0")
    prec = ctx.prec if prec is None else prec
    return ctx.cached(("S", d, s, prec), lambda: _monic_power_sum_dp(ctx, d, s, prec))


def _monic_power_sum_dp(ctx: CarlitzContext, d: int, s: int, prec: int) -> LaurentSeries:
    q, p = ctx.q, ctx.p
    step = q - 1
    # u^N is the z-monomial of exponent step*N; N = d*s + D must stay below prec
    top = (prec - 1) // step - d * s
    # DP over j = d..1: (K, D) -> sum over e_j..e_d of the multinomial, mod p;
    # `reserve` is the least D that e_1..e_{j-1} must still add
    states = {(0, 0): 1} if top >= 0 else {}
    for j in range(d, 0, -1):
        reserve = step * j * (j - 1) // 2
        nxt: dict[tuple[int, int], int] = {}
        for (k, dd), w in states.items():
            e = step
            while dd + j * e + reserve <= top:
                c = _binom_mod_p(k + e, e, p)
                if c:
                    st = (k + e, dd + j * e)
                    nxt[st] = (nxt.get(st, 0) + w * c) % p
                e += step
        states = nxt
    # F_p coefficients: the field encoding of c in F_p is c itself
    coeffs = [0] * (step * (top + d * s) + 1) if states else []
    for (k, dd), w in states.items():
        c = w * _binom_mod_p(s + k - 1, k, p)
        n = d * s + dd
        coeffs[step * n] += -c if (d + k + n) % 2 else c
    return LaurentSeries(ctx.field, 0, [c % p for c in coeffs], prec)


def _decreasing_tuples(d: int, contrib, stop: int):
    """Strictly decreasing tuples (i_0 > ... > i_{d-1} >= 0) with total
    contribution below `stop`; contrib(j, v) must be nondecreasing in v."""
    chosen = [0] * d

    def rec(pos: int, lo: int, acc: int):
        v = lo
        while True:
            c = contrib(pos, v)
            rest = sum(contrib(k, v + pos - k) for k in range(pos))
            if acc + c + rest >= stop:
                return
            chosen[pos] = v
            if pos == 0:
                yield tuple(chosen)
            else:
                yield from rec(pos - 1, v + 1, acc + c)
            v += 1

    yield from rec(d - 1, 0, 0)


def mzv(
    ctx: CarlitzContext,
    s: Index,
    prec: int | None = None,
    max_degree: int | None = None,
) -> LaurentSeries:
    """zeta_l(s_1,...,s_d) over decreasing-degree monic tuples.

    With `max_degree` set, returns the exact partial sum over all degree
    tuples with d_1 <= max_degree (the oracle comparison form); otherwise the
    degree cutoff comes from the certified valuation bound.
    """
    prec = ctx.prec if prec is None else prec
    work = prec + 2
    q, fld = ctx.q, ctx.field
    entries = s.entries
    d = len(entries)
    if max_degree is not None:
        tuples = _decreasing_tuples(d, lambda j, v: v > max_degree, 1)
    else:
        tuples = _decreasing_tuples(
            d, lambda j, v: power_sum_val_bound(q, v, entries[j]), work
        )
    acc = ls_zero(fld, work)
    for tup in tuples:
        term = monic_power_sum(ctx, tup[0], entries[0], work)
        for j in range(1, d):
            term = term * monic_power_sum(ctx, tup[j], entries[j], work)
        acc = acc + term.truncate(work)
    return acc.truncate(prec)


def mzv_tuple_count(ctx: CarlitzContext, s: Index, prec: int | None = None) -> int:
    """Number of degree tuples the direct summation visits at this precision."""
    prec = ctx.prec if prec is None else prec
    entries = s.entries
    return sum(
        1
        for _ in _decreasing_tuples(
            s.dep, lambda j, v: power_sum_val_bound(ctx.q, v, entries[j]), prec + 2
        )
    )


def mzv_bruteforce(ctx: CarlitzContext, s: Index, max_degree: int, prec: int) -> LaurentSeries:
    """Exhaustive enumeration over monic tuples with deg a_1 <= max_degree."""
    q, fld = ctx.q, ctx.field
    entries = s.entries
    d = len(entries)
    # a degree tuple holds q^(sum of degrees) monic tuples; stop counting at the cap
    count = 0
    for tup in _decreasing_tuples(d, lambda j, v: v > max_degree, 1):
        count += q ** sum(tup)
        if count > ctx.enum_budget:
            raise BudgetError(
                f"more than {ctx.enum_budget} monic tuples up to degree {max_degree}"
            )
    acc = ls_zero(fld, prec + 2)
    for tup in _decreasing_tuples(d, lambda j, v: v > max_degree, 1):
        pools = [list(monic_coeff_lists(q, dv)) for dv in tup]
        stack = [(0, [1])]  # (position, accumulated denominator poly)
        while stack:
            pos, den = stack.pop()
            if pos == d:
                acc = acc + from_rational(fld, {0: 1}, dict(enumerate(den)), prec + 2)
                continue
            for a in pools[pos]:
                a_pow = a
                for _ in range(entries[pos] - 1):
                    a_pow = dense_theta_mul(fld, a_pow, a)
                stack.append((pos + 1, dense_theta_mul(fld, den, a_pow)))
    return acc.truncate(prec)


# -- Anderson-Thakur polynomials ---------------------------------------------------


def anderson_thakur_polynomials(ctx: CarlitzContext, s_max: int) -> list[BivarPoly]:
    """H_0..H_{s_max}; integral by construction (exact division, loud abort)."""
    return ctx.cached(("AT", s_max), lambda: _at_polys(ctx, s_max))


def _at_polys(ctx: CarlitzContext, s_max: int) -> list[BivarPoly]:
    q, fld = ctx.q, ctx.field
    neg1 = ops(fld).neg[1]
    # (q^i, N_i, D_i(t)) per term; H_n follows the module docstring's recurrence
    steps = []
    i = 0
    while q**i <= s_max:
        num = BivarPoly.one(fld)
        for j in range(1, i + 1):
            num = num * BivarPoly(fld, {(q**i, 0): 1, (0, q**j): neg1})
        steps.append((q**i, num, carlitz_d(ctx, i).subs_theta_to_t()))
        i += 1
    gammas = [carlitz_factorial(ctx, n).subs_theta_to_t() for n in range(s_max + 1)]
    hs = [BivarPoly.one(fld)]
    for n in range(1, s_max + 1):
        h = BivarPoly.zero(fld)
        for qi, num, d_t in steps:
            if qi > n:
                break
            b, rem = gammas[n].divmod_t(gammas[n - qi] * d_t)
            if not rem.is_zero():
                raise ConventionError(
                    f"generating-series slot {n} did not divide out: convention bug"
                )
            h = h + b * num * hs[n - qi]
        hs.append(h)
    return hs


def at_bound_report(ctx: CarlitzContext, hs: list[BivarPoly]) -> CheckReport:
    """Convergence bound per polynomial: ||H_{s-1}|| < |theta|^{sq/(q-1)}."""
    q = ctx.q
    failures = []
    for s_idx in range(1, len(hs) + 1):
        h = hs[s_idx - 1]
        e = h.gauss_exponent()
        if e is not None and (q - 1) * e >= s_idx * q:
            failures.append((s_idx - 1, e, Fraction(s_idx * q, q - 1)))
    return CheckReport(passed=not failures, checked=len(hs), failures=failures)


# -- Carlitz multiple polylogarithms ------------------------------------------------


@dataclass(frozen=True)
class CmplSpec:
    """Index s with one polynomial argument per entry."""

    s: Index
    u: tuple[BivarPoly, ...]

    def __post_init__(self):
        if len(self.u) != self.s.dep:
            raise ValueError("argument list length must equal the depth")


def convergence_report(ctx: CarlitzContext, spec: CmplSpec) -> CheckReport:
    """Strict norm condition ||u_i|| < |theta|^{s_i q/(q-1)}, compared exactly."""
    q = ctx.q
    items = []
    passed = True
    for i, (si, ui) in enumerate(zip(spec.s.entries, spec.u), start=1):
        e = ui.gauss_exponent()
        bound = Fraction(si * q, q - 1)
        ok = e is None or (q - 1) * e < si * q
        passed &= ok
        items.append((i, e, bound, ok))
    return CheckReport(
        passed=passed,
        checked=len(items),
        failures=[it for it in items if not it[3]],
        note="; ".join(
            f"u_{i}: ||u|| exponent {e if e is not None else '-inf'} vs bound {b}"
            for i, e, b, _ in items
        ),
    )


def check_convergence(ctx: CarlitzContext, spec: CmplSpec) -> CmplSpec:
    """`spec` itself, or ValueError with the report's note if an argument diverges."""
    rep = convergence_report(ctx, spec)
    if not rep.passed:
        raise ValueError(f"convergence condition violated: {rep.note}")
    return spec


def _deltas(ctx: CarlitzContext, spec: CmplSpec) -> list[int]:
    q = ctx.q
    out = []
    for si, ui in zip(spec.s.entries, spec.u):
        e = ui.gauss_exponent()
        out.append(si * q - (q - 1) * (0 if e is None else e))
    return out


def _ell_inv_pow(ctx: CarlitzContext, i: int, e: int, rel: int) -> LaurentSeries:
    """((theta - theta^q)...(theta - theta^{q^i}))^-e with rel relative z-digits."""

    def build() -> LaurentSeries:
        q, fld = ctx.q, ctx.field
        neg = ops(fld).neg
        poly = BivarPoly.one(fld)
        for a in range(1, i + 1):
            poly = poly * BivarPoly(fld, {(0, 1): 1, (0, q**a): neg[1]})
        ser = poly.eval_theta(rel + 2)  # negative valuation, so relative > rel
        return ser.inv() ** e

    return ctx.cached(("ellinv", i, e, rel), build)


def cmpl_value(ctx: CarlitzContext, spec: CmplSpec, prec: int | None = None) -> LaurentSeries:
    """The polylogarithm value at t = theta, by direct summation.

    Exact valuation bookkeeping: the tuple (i_1 > ... > i_d >= 0) contributes
    at least sum_j (q^{i_j} delta_j - s_j q - (q-1) deg_t u_j) z-digits, with
    delta_j = s_j q - (q-1) deg_theta u_j > 0 under the convergence condition,
    so the dominant q^{i_1} factor terminates the sum.  Every atomic factor is
    materialized at a uniform relative precision, which the multiplication
    rule turns into absolute precision >= work for every term.
    """
    prec = ctx.prec if prec is None else prec
    q, fld = ctx.q, ctx.field
    check_convergence(ctx, spec)
    if any(ui.is_zero() for ui in spec.u):
        return ls_zero(fld, prec)
    entries = spec.s.entries
    d = spec.s.dep
    deltas = _deltas(ctx, spec)
    tpen = [(q - 1) * ui.deg_t() for ui in spec.u]
    work = prec + 4

    def contrib(j: int, v: int) -> int:
        return q**v * deltas[j] - entries[j] * q - tpen[j]

    tuples = list(_decreasing_tuples(d, contrib, work))
    if not tuples:
        return ls_zero(fld, prec)
    bmin = min(sum(contrib(j, ij) for j, ij in enumerate(tup)) for tup in tuples)
    rel = work - min(bmin, 0) + 6
    acc = ls_zero(fld, work)
    for tup in tuples:
        term = None
        bound = 0
        for j, ij in enumerate(tup):
            bound += contrib(j, ij)
            low = -(q - 1) * (spec.u[j].deg_t() + spec.u[j].deg_theta() * q**ij)
            f = spec.u[j].eval_theta_twisted(ij * ctx.l, low + rel)
            term = f if term is None else term * f
            if ij > 0:
                term = term * _ell_inv_pow(ctx, ij, entries[j], rel)
        if not term.is_zero() and term.val < bound:
            raise ConventionError(
                f"term {tup} has valuation {term.val} below its certified bound {bound}"
            )
        acc = acc + term.truncate(work)
    return acc.truncate(prec)


def cmpl_series(
    ctx: CarlitzContext, spec: CmplSpec, tdeg: int | None = None, prec: int | None = None
) -> TateElement:
    """The t-motivic polylogarithm as a Tate element with certified tail,
    cached in the context per (spec, tdeg, prec)."""
    prec = ctx.prec if prec is None else prec
    tdeg = ctx.tdeg if tdeg is None else tdeg
    return ctx.cached(("cmpl", spec, tdeg, prec), lambda: _cmpl_series(ctx, spec, tdeg, prec))


def _cmpl_series(ctx: CarlitzContext, spec: CmplSpec, tdeg: int, prec: int) -> TateElement:
    q, fld = ctx.q, ctx.field
    check_convergence(ctx, spec)
    if any(ui.is_zero() for ui in spec.u):
        return tate.zero(fld, prec, tdeg)
    entries = spec.s.entries
    d = spec.s.dep
    deltas = _deltas(ctx, spec)
    work = prec + 4
    sigma = (q - 1) * q

    def contrib(j: int, v: int) -> int:
        return q**v * deltas[j] - entries[j] * q

    tuples = list(_decreasing_tuples(d, contrib, work))
    bmin = min(
        (sum(contrib(j, ij) for j, ij in enumerate(tup)) for tup in tuples), default=0
    )
    rel = work - min(bmin, 0) + 6
    acc = tate.zero(fld, work, tdeg)
    for tup in tuples:
        num = spec.u[0].twist(tup[0] * ctx.l)
        for j in range(1, d):
            num = num * spec.u[j].twist(tup[j] * ctx.l)
        term = tate.from_poly(num, -(q - 1) * num.deg_theta() + rel)
        # group the inverted linear factors by twist exponent
        for a in range(1, tup[0] + 1):
            e = sum(entries[j] for j in range(d) if tup[j] >= a)
            fac = ctx.cached(("teinv", a, e, tdeg, rel), lambda: _teinv(ctx, a, e, tdeg, rel))
            term = (term * fac).truncate_tdeg(tdeg)
        acc = acc + term
    coeffs = [c.truncate(work) for c in acc.coeffs]
    while len(coeffs) < tdeg + 1:
        coeffs.append(ls_zero(fld, work))
    tau_min = sum(deltas) - sigma * sum(ui.deg_t() for ui in spec.u) - q * spec.s.wt
    return TateElement(fld, coeffs[: tdeg + 1], (sigma, tau_min), False)


def _teinv(ctx: CarlitzContext, a: int, e: int, tdeg: int, rel: int) -> TateElement:
    """(t - theta^{q^a})^-e to t-degree tdeg, with rel relative z-digits."""
    q = ctx.q
    c = theta_pow(ctx.field, q**a, -(q - 1) * q**a + rel)
    return tate.invert_linear_factor(c, e, tdeg)


# -- the period identity --------------------------------------------------------


def at_arguments(ctx: CarlitzContext, s: Index) -> tuple[BivarPoly, ...]:
    hs = anderson_thakur_polynomials(ctx, max(s.entries) - 1)
    return tuple(hs[si - 1] for si in s.entries)


def period_identity_report(
    ctx: CarlitzContext,
    s: Index,
    prec: int | None = None,
    u: tuple[BivarPoly, ...] | None = None,
) -> IdentityReport:
    """Compare the polylogarithm value at the AT arguments against
    Gamma_{s_1}...Gamma_{s_d} * zeta(s), two fully independent paths.

    Passing `u` overrides the arguments (perturbation controls).
    """
    prec = ctx.prec if prec is None else prec
    q, fld = ctx.q, ctx.field
    if u is None:
        u = at_arguments(ctx, s)
    gamma = BivarPoly.one(fld)
    for si in s.entries:
        gamma = gamma * carlitz_factorial(ctx, si - 1)
    work = prec + (q - 1) * gamma.deg_theta() + 4
    lhs = cmpl_value(ctx, CmplSpec(s, u), work)
    zeta = mzv(ctx, s, work)
    rhs = gamma.eval_theta(work + (q - 1) * gamma.deg_theta() + 2) * zeta
    return IdentityReport.from_comparison(
        compare_to_precision(lhs, rhs), prec, note=f"index {s}, AT-argument path vs factorial*zeta path"
    )
