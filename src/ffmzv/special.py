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
From state K it steps only to the e that add to K without a carry in base
p: by Kummer those are exactly the e with C(K+e, e) != 0 mod p.
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


@lru_cache(maxsize=1 << 12)
def _carry_free(k: int, p: int, step: int, limit: int) -> tuple[tuple[int, int], ...]:
    """(e, C(k+e, e) mod p), ascending, for the multiples e of step in
    1..limit whose base-p digits add to those of k without a carry: by
    Kummer, exactly the e with C(k+e, e) != 0 mod p."""
    es = [0]  # the carry-free e below `place`, ascending
    kk, place = k, 1
    while place <= limit:
        kk, digit = divmod(kk, p)
        es = [x + c * place for c in range(p - digit) for x in es if x + c * place <= limit]
        place *= p
    return tuple((e, _binom_mod_p(k + e, e, p)) for e in es if e and e % step == 0)


def monic_power_sum(ctx: CarlitzContext, d: int, s: int, prec: int) -> LaurentSeries:
    """S_d(s) = sum of a^-s over the q^d monic polynomials of degree d,
    from the exponent-vector closed form (see the module docstring)."""
    if s < 1 or d < 0:
        raise ValueError("need s >= 1 and d >= 0")
    return ctx.cached_to(("S", d, s), prec, lambda prec: _monic_power_sum_dp(ctx, d, s, prec))


def _monic_power_sum_dp(ctx: CarlitzContext, d: int, s: int, prec: int) -> LaurentSeries:
    """S_d(s) by the closed form's DP, whose sign (-1)^(d + K + N) it applies
    itself: u^N = (-1)^N z^((q-1)N), the coefficients being integers mod p."""
    q, p = ctx.q, ctx.p
    step = q - 1
    # u^N is the z-monomial of exponent step*N; N = d*s + D must stay below prec
    top = (prec - 1) // step - d * s
    # DP over j = d..1: (K, D) -> sum over e_j..e_d of the multinomial, mod p;
    # `reserve` is the least D that e_1..e_{j-1} must still add
    states = {(0, 0): 1} if top >= 0 else {}
    limit = 1 << max(top, 0).bit_length()  # rounded up, so that calls share moves
    for j in range(d, 0, -1):
        reserve = step * j * (j - 1) // 2
        nxt: dict[tuple[int, int], int] = {}
        for (k, dd), w in states.items():
            room = top - dd - reserve
            for e, c in _carry_free(k, p, step, limit):
                if j * e > room:
                    break
                st = (k + e, dd + j * e)
                nxt[st] = (nxt.get(st, 0) + w * c) % p
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
    prec: int,
    max_degree: int | None = None,
) -> LaurentSeries:
    """zeta_l(s_1,...,s_d) over decreasing-degree monic tuples.

    With `max_degree` set, returns the exact partial sum over all degree
    tuples with d_1 <= max_degree (the oracle comparison form); otherwise the
    degree cutoff comes from the certified valuation bound.
    """
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


def mzv_tuple_count(ctx: CarlitzContext, s: Index, prec: int) -> int:
    """Number of degree tuples the direct summation visits at this precision."""
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
    """H_0..H_{s_max}; integral by construction (exact division, loud abort).

    Raises BudgetError before any work when `at_slot_estimate` exceeds the
    context's enumeration budget."""
    return ctx.cached(("AT", s_max), lambda: _at_polys(ctx, s_max))


def at_slot_estimate(q: int, s_max: int, cap: int) -> int:
    """Estimated coefficient slots of H_0..H_{s_max}, counted up to the first
    sum above cap: H_n has t-degree about that of Gamma_{n+1} and
    theta-degree below (n+1)q/(q-1), so it takes the sum over n of
    (deg Gamma_{n+1} + 1) * ((n+1)q // (q-1) + 1)."""
    total = 0
    for n in range(s_max + 1):
        deg, i, m = 0, 0, n
        while m:
            m, digit = divmod(m, q)
            deg += digit * i * q**i
            i += 1
        total += (deg + 1) * ((n + 1) * q // (q - 1) + 1)
        if total > cap:
            break
    return total


def _at_polys(ctx: CarlitzContext, s_max: int) -> list[BivarPoly]:
    q, fld = ctx.q, ctx.field
    slots = at_slot_estimate(q, s_max, ctx.enum_budget)
    if slots > ctx.enum_budget:
        raise BudgetError(
            f"H_0..H_{s_max}: at least {slots} estimated coefficient slots "
            f"(at_slot_estimate) exceed the budget {ctx.enum_budget}"
        )
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


def convergence_margin(q: int, s: int, u: BivarPoly) -> int:
    """s q - (q-1) deg_theta u, which is positive exactly when
    ||u|| < |theta|^{sq/(q-1)}; a zero u has margin s q."""
    return s * q - (q - 1) * u.deg_theta()


def at_bound_report(ctx: CarlitzContext, hs: list[BivarPoly]) -> CheckReport:
    """Convergence bound per polynomial: ||H_{s-1}|| < |theta|^{sq/(q-1)}."""
    q = ctx.q
    failures = [
        (s_idx - 1, h.gauss_exponent(), Fraction(s_idx * q, q - 1))
        for s_idx, h in enumerate(hs, start=1)
        if convergence_margin(q, s_idx, h) <= 0
    ]
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
        ok = convergence_margin(q, si, ui) > 0
        passed &= ok
        items.append((i, ui.gauss_exponent(), Fraction(si * q, q - 1), ok))
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
    return [convergence_margin(ctx.q, si, ui) for si, ui in zip(spec.s.entries, spec.u)]


def _ell_inv_pow(ctx: CarlitzContext, i: int, e: int, rel: int) -> LaurentSeries:
    """((theta - theta^q)...(theta - theta^{q^i}))^-e with rel relative z-digits;
    its precision is rel plus a constant of (i, e)."""

    def build(rel: int) -> LaurentSeries:
        if e > 1:  # the e-th power of the cached inverse
            return _ell_inv_pow(ctx, i, 1, rel) ** e
        q, fld = ctx.q, ctx.field
        neg = ops(fld).neg
        poly = BivarPoly.one(fld)
        for a in range(1, i + 1):
            poly = poly * BivarPoly(fld, {(0, 1): 1, (0, q**a): neg[1]})
        return poly.eval_theta(rel + 2).inv()  # negative valuation, so relative > rel

    return ctx.cached_to(("ellinv", i, e), rel, build)


def _sum_plan(ctx: CarlitzContext, spec: CmplSpec, prec: int, at_theta: bool):
    """(work, rel, terms) of the polylogarithm sum for spec to O(z^prec),
    or None when an argument, and with it the sum, is zero.

    Each term is a degree tuple (i_1 > ... > i_d >= 0) with its certified
    valuation bound sum_j (q^{i_j} delta_j - s_j q), delta_j = s_j q -
    (q-1) deg_theta u_j > 0 under the convergence condition, so the dominant
    q^{i_1} factor terminates the sum; at t = theta (`at_theta`) each u_j
    costs (q-1) deg_t u_j more.  Every atomic factor is materialized at rel
    relative z-digits, which gives every term absolute precision >= work.
    """
    check_convergence(ctx, spec)
    if any(ui.is_zero() for ui in spec.u):
        return None
    q, entries = ctx.q, spec.s.entries
    deltas = _deltas(ctx, spec)
    tpen = [(q - 1) * ui.deg_t() if at_theta else 0 for ui in spec.u]
    work = prec + 4

    def contrib(j: int, v: int) -> int:
        return q**v * deltas[j] - entries[j] * q - tpen[j]

    tuples = _decreasing_tuples(spec.s.dep, contrib, work)
    terms = [(tup, sum(contrib(j, ij) for j, ij in enumerate(tup))) for tup in tuples]
    bmin = min((bound for _, bound in terms), default=0)
    return work, work - min(bmin, 0) + 6, terms


def cmpl_value(ctx: CarlitzContext, spec: CmplSpec, prec: int) -> LaurentSeries:
    """The polylogarithm value at t = theta, by direct summation (see
    `_sum_plan`); a term below its certified valuation bound raises
    ConventionError."""
    q, fld = ctx.q, ctx.field
    plan = _sum_plan(ctx, spec, prec, at_theta=True)
    if plan is None:
        return ls_zero(fld, prec)
    work, rel, terms = plan
    entries = spec.s.entries
    acc = ls_zero(fld, work)
    for tup, bound in terms:
        term = None
        for j, ij in enumerate(tup):
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


def cmpl_series(ctx: CarlitzContext, spec: CmplSpec, tdeg: int, prec: int) -> TateElement:
    """The t-motivic polylogarithm as a Tate element with certified tail,
    cached in the context per (spec, tdeg, prec)."""
    return ctx.cached(("cmpl", spec, tdeg, prec), lambda: _cmpl_series(ctx, spec, tdeg, prec))


def _cmpl_series(ctx: CarlitzContext, spec: CmplSpec, tdeg: int, prec: int) -> TateElement:
    """The polylogarithm series, summed over the degree tuples as one dot.

    The tuple (i_1 > ... > i_d >= 0) contributes u_1^(i_1 l)...u_d^(i_d l)
    times prod_{a <= i_1} (t - theta^(q^a))^(-e_a), e_a the sum of the s_j
    with i_j >= a.  That product depends only on (e_1..e_(i_1)) and is a
    cached prefix product, so the windows of one Psi share it.  Only
    t-degrees <= tdeg of the numerator reach the dot, so its factors and
    partial products are cut there; its theta-degree, which sets its
    precision, is that of the whole product: the sum of its factors'.
    """
    q, fld = ctx.q, ctx.field
    plan = _sum_plan(ctx, spec, prec, at_theta=False)
    if plan is None:
        return tate.zero(fld, prec, tdeg)
    work, rel, terms = plan
    entries = spec.s.entries
    d = spec.s.dep
    sigma = (q - 1) * q
    pairs = []
    for tup, _ in terms:
        num = spec.u[0].twist(tup[0] * ctx.l).truncate_t(tdeg)
        for j in range(1, d):
            num = (num * spec.u[j].twist(tup[j] * ctx.l).truncate_t(tdeg)).truncate_t(tdeg)
        deg_theta = sum(ui.deg_theta() * q**i for ui, i in zip(spec.u, tup))
        exps = tuple(
            sum(entries[j] for j in range(d) if tup[j] >= a) for a in range(1, tup[0] + 1)
        )
        prefix = _teinv_prefix(ctx, exps, tdeg, rel)
        pairs.append((tate.from_poly(num, -(q - 1) * deg_theta + rel), prefix))
    acc = tate.dot(pairs, tdeg) if pairs else tate.zero(fld, work, tdeg)
    coeffs = [c.truncate(work) for c in acc.coeffs]
    while len(coeffs) < tdeg + 1:
        coeffs.append(ls_zero(fld, work))
    tau_min = sum(_deltas(ctx, spec)) - sigma * sum(ui.deg_t() for ui in spec.u) - q * spec.s.wt
    return TateElement(fld, coeffs[: tdeg + 1], (sigma, tau_min), False)


def _teinv_prefix(ctx: CarlitzContext, exps: tuple[int, ...], tdeg: int, rel: int) -> TateElement:
    """prod_{a <= len(exps)} (t - theta^(q^a))^(-exps[a-1]) to t-degree tdeg,
    cached per exponent sequence and built from the prefix one shorter.  The
    empty product is the exact 1 known to rel z-digits, so that a numerator,
    known to at most rel relative digits, keeps its precision times it."""

    def build() -> TateElement:
        if not exps:
            return tate.one(ctx.field, rel, 0)
        a, e = len(exps), exps[-1]
        fac = ctx.cached(("teinv", a, e, tdeg, rel), lambda: _teinv(ctx, a, e, tdeg, rel))
        if a == 1:
            return fac
        return (_teinv_prefix(ctx, exps[:-1], tdeg, rel) * fac).truncate_tdeg(tdeg)

    return ctx.cached(("teprod", exps, tdeg, rel), build)


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
    prec: int,
    u: tuple[BivarPoly, ...] | None = None,
) -> IdentityReport:
    """Compare the polylogarithm value at the AT arguments against
    Gamma_{s_1}...Gamma_{s_d} * zeta(s), two fully independent paths.

    Passing `u` overrides the arguments (perturbation controls).
    """
    if u is None:
        # before the factorials: its budget check refuses runaway weights
        u = at_arguments(ctx, s)
    gamma = factorial_product(ctx, s)
    work = prec + (ctx.q - 1) * gamma.deg_theta() + 4
    lhs = cmpl_value(ctx, CmplSpec(s, u), work)
    rhs = zeta_side(ctx, s, gamma, work)
    return IdentityReport.from_comparison(
        compare_to_precision(lhs, rhs), prec, note=f"index {s}, AT-argument path vs factorial*zeta path"
    )


def factorial_product(ctx: CarlitzContext, s: Index) -> BivarPoly:
    """Gamma_{s_1} ... Gamma_{s_d}."""
    gamma = BivarPoly.one(ctx.field)
    for si in s.entries:
        gamma = gamma * carlitz_factorial(ctx, si - 1)
    return gamma


def zeta_side(ctx: CarlitzContext, s: Index, gamma: BivarPoly, work: int) -> LaurentSeries:
    """The identity's zeta side, `gamma` (the factorial product) times zeta(s);
    the other side is `cmpl_value` at `at_arguments`."""
    zeta = mzv(ctx, s, work)
    return gamma.eval_theta(work + (ctx.q - 1) * gamma.deg_theta() + 2) * zeta
