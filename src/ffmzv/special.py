"""Power sums, multiple zeta values, Anderson-Thakur polynomials, and
multiple polylogarithms, all as exact truncated z-series.

The depth-d zeta value at level l is the sum of 1/(a_1^{s_1}...a_d^{s_d})
over monic tuples with strictly decreasing degrees.  It, the polylogarithm
value at t = theta and the polylogarithm series in t are each one nested sum
(`_NestedSum`) over the degree tuples (i_0 > ... > i_{d-1} >= 0) of the
products of one factor per position; factor(j, i) has the certified
valuation bound bound(j, i), nondecreasing in i.  With delta_j = s_j q -
(q-1) deg_theta u_j > 0 under the convergence condition:

  * zeta: the power sum S_i(s_j) over the monics of degree i, bounded by
    `power_sum_val_bound`;
  * the value: u_j^{(il)}(theta) ell_i^{-s_j}, bounded by q^i delta_j -
    s_j q - (q-1) deg_t u_j;
  * the series: u_j^{(il)} P_i^{-s_j} cut at t-degree tdeg, P_i = (t -
    theta^q)...(t - theta^{q^i}) the t-analogue of ell_i, bounded by
    q^i delta_j - s_j q at every t-degree.

The sum is sum_v factor(0, v) T_1(v), where the tail sum T_j(v) over the
tuples (v > i_j > ... > i_{d-1} >= 0) is T_j(v-1) + factor(j, v-1)
T_{j+1}(v-1) and T_d = 1 (`_tail_sum`); no degree tuple is enumerated.

The precision argument, made here once for all three sums: every term of
T_j has valuation at least floors[j], the bound of its least tuple
(d-1-j, ..., 0), so the term factor(j, i) T_{j+1}(i) has valuation at least
bound(j, i) + floors[j+1].  For the sum to O(z^prec), the degrees where that
reaches prec add nothing (`_degree_cap`), and factor(j, i) is needed only
to O(z^(prec - floors[j+1])) and T_{j+1}(i) only to O(z^(prec - bound(j, i))):
a series of valuation >= a known to O(z^(prec - b)) times one of valuation
>= b known to O(z^(prec - a)) is known to O(z^prec).  The context keeps the
tails by absolute precision and each factor by its precision relative to
its bound (`cached_to`), so a request below an entry is served by
truncation, and the sums of one context that share a tail share its partial
sums.  The value and the series keep theirs under different kinds, so
neither serves the other.

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

quadratic in d, which stops the nested sums.  Stopping criteria
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
from itertools import combinations
from math import comb, inf
from typing import Callable

from .carlitz import CarlitzContext, carlitz_d, carlitz_factorial, monic_coeff_lists
from .errors import BudgetError, ConventionError
from .ffield import FieldSpec, ops
from .laurent import LaurentSeries, compare_to_precision, from_rational, from_theta_poly, theta_pow
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


class _NestedSum:
    """A sum over strictly decreasing degree tuples (i_0 > ... > i_{d-1} >= 0)
    of the products of one factor per index position (module docstring).

    `factor(j, v, prec)` is position j's factor at degree v known to at
    least O(z^prec), of valuation at least `bound(j, v)`.  Both read only
    parts[j], so the tail from position j is named by (`kind`, parts[j:]) and
    shared by every sum that agrees with it from j on.  floors[j] is the
    bound of T_j's least tuple.  `zero(field, prec)` is the empty sum:
    `laurent.zero` for series in z, `tate.zero` for Tate elements.
    """

    def __init__(
        self,
        kind: str,
        parts: tuple,
        bound: Callable[[int, int], int],
        factor: Callable[[int, int, int], LaurentSeries | TateElement],
        zero: Callable[[FieldSpec, int], LaurentSeries | TateElement],
    ):
        self.kind, self.parts, self.bound, self.factor, self.zero = kind, parts, bound, factor, zero
        d = len(parts)
        self.floors = [0] * (d + 1)
        for j in reversed(range(d)):
            self.floors[j] = self.floors[j + 1] + bound(j, d - 1 - j)


def _degree_cap(ns: _NestedSum, j: int, v: float, prec: int) -> int:
    """min(v, the least degree at position j whose terms vanish to O(z^prec)):
    the degrees i with bound(j, i) + floors[j+1] >= prec add nothing."""
    least, rest = len(ns.parts) - 1 - j, ns.floors[j + 1]
    # at once when degree v - 1 still adds, so that all below it do
    top = v if least < v < inf and ns.bound(j, v - 1) + rest < prec else least
    while top < v and ns.bound(j, top) + rest < prec:
        top += 1
    return top


def _nested_sum(ctx: CarlitzContext, ns: _NestedSum, v: float, prec: int):
    """The sum over the tuples (v > i_0 > ... > i_{d-1} >= 0) to O(z^prec),
    sum_{i < v} factor(0, i) T_1(i) (module docstring).

    The sum itself is not kept: a whole index is asked for about once per
    context, and its partial sums would only be more cached objects for
    every garbage collection to traverse.
    """
    acc = ns.zero(ctx.field, prec)
    for i in range(len(ns.parts) - 1, _degree_cap(ns, 0, v, prec)):
        acc = acc + _term(ctx, ns, 0, i, prec)
    return acc


def _term(ctx: CarlitzContext, ns: _NestedSum, j: int, i: int, prec: int):
    """factor(j, i) T_{j+1}(i) to O(z^prec), each known to the precision the
    module docstring gives; the last position's tail, 1, is not multiplied."""
    if j + 1 == len(ns.parts):
        return ns.factor(j, i, prec)
    tail = _tail_sum(ctx, ns, j + 1, i, prec - ns.bound(j, i))
    return ns.factor(j, i, prec - ns.floors[j + 1]) * tail


def _tail_sum(ctx: CarlitzContext, ns: _NestedSum, j: int, v: float, prec: int):
    """T_j(v), the sum over the tuples (v > i_j > ... > i_{d-1} >= 0) of the
    products of the factors from position j on, to O(z^prec): T_j(v-1) plus
    the term at v-1, kept in the context (module docstring)."""
    top = _degree_cap(ns, j, v, prec)
    if top == len(ns.parts) - 1 - j:
        return ns.zero(ctx.field, prec)

    def build(prec: int):
        # T_j(top - 1) first: it asks for the T_{j+1} below top - 1 at higher precision
        return _tail_sum(ctx, ns, j, top - 1, prec) + _term(ctx, ns, j, top - 1, prec)

    return ctx.cached_to((ns.kind, ns.parts[j:], top), prec, build)


def mzv(
    ctx: CarlitzContext,
    s: Index,
    prec: int,
    max_degree: int | None = None,
) -> LaurentSeries:
    """zeta_l(s_1,...,s_d), the nested sum (module docstring) over the power
    sums, its tails kept under the kind "ztail"; it reads only the power sums.

    With `max_degree` set, returns the partial sum over all degree tuples
    with d_1 <= max_degree (the oracle comparison form); otherwise the degree
    cutoff comes from the certified valuation bound.
    """
    q, entries = ctx.q, s.entries
    ns = _NestedSum(
        "ztail",
        entries,
        lambda j, v: power_sum_val_bound(q, v, entries[j]),
        lambda j, v, prec: monic_power_sum(ctx, v, entries[j], prec),
        ls_zero,
    )
    return _nested_sum(ctx, ns, inf if max_degree is None else max_degree + 1, prec)


def mzv_tuple_count(ctx: CarlitzContext, s: Index, prec: int) -> int:
    """Number of degree tuples whose certified valuation bound lies below
    prec + 2, the terms of zeta(s) that can reach O(z^(prec+2)); the CLI
    reports it as `terms_used`.

    Counted, not enumerated: g_j(v, r), the number of tuples v > i_j > ...
    > i_(d-1) whose bounds b_j(i_j) + ... add to less than r, is g_j(v-1, r)
    + g_(j+1)(v-1, r - b_j(v-1)), and g_d(v, r) = 1 for r > 0.
    """
    q, entries, d = ctx.q, s.entries, s.dep
    memo: dict[tuple[int, int], list[int]] = {}

    def g(j: int, r: int) -> list[int]:
        # [g_j(0, r), g_j(1, r), ...], up to the degree from which it stays put
        got = memo.get((j, r))
        if got is None:
            got, i = [0], 0
            while (rest := r - power_sum_val_bound(q, i, entries[j])) > 0:
                if j + 1 == d:
                    got.append(got[-1] + 1)
                else:
                    tail = g(j + 1, rest)
                    got.append(got[-1] + tail[min(i, len(tail) - 1)])
                i += 1
            memo[(j, r)] = got
        return got

    return g(0, prec + 2)[-1]


def mzv_bruteforce(ctx: CarlitzContext, s: Index, max_degree: int, prec: int) -> LaurentSeries:
    """Exhaustive enumeration over monic tuples with deg a_1 <= max_degree."""
    q, fld = ctx.q, ctx.field
    entries = s.entries
    d = len(entries)
    # a degree tuple holds q^(sum of degrees) monic tuples; stop counting at the cap
    count = 0
    for tup in combinations(range(max_degree + 1), d):
        count += q ** sum(tup)
        if count > ctx.enum_budget:
            raise BudgetError(
                f"more than {ctx.enum_budget} monic tuples up to degree {max_degree}"
            )
    acc = ls_zero(fld, prec + 2)
    for tup in combinations(range(max_degree + 1), d):
        # deg a_1 > ... > deg a_d: the increasing degrees reversed
        pools = [list(monic_coeff_lists(q, dv)) for dv in reversed(tup)]
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

    The context keeps one list of the H's built so far, with the factorials
    and recurrence terms they need, and extends it to s_max in place.  Raises
    BudgetError before any work when `at_slot_estimate` exceeds the
    context's enumeration budget."""
    slots = at_slot_estimate(ctx.q, s_max, ctx.enum_budget)
    if slots > ctx.enum_budget:
        raise BudgetError(
            f"H_0..H_{s_max}: at least {slots} estimated coefficient slots "
            f"(at_slot_estimate) exceed the budget {ctx.enum_budget}"
        )
    hs, gammas, steps = ctx.cached(("AT",), lambda: ([BivarPoly.one(ctx.field)], [], []))
    if len(hs) <= s_max:
        _extend_at_polys(ctx, s_max, hs, gammas, steps)
    return hs[: s_max + 1]


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


def _extend_at_polys(ctx: CarlitzContext, s_max: int, hs: list, gammas: list, steps: list) -> None:
    """Extend H_0..H_k to H_0..H_{s_max}, the Gamma_{n+1}(t) to n = s_max and
    the recurrence terms (q^i, N_i, D_i(t)) to q^i <= s_max, all in place."""
    q, fld = ctx.q, ctx.field
    neg1 = ops(fld).neg[1]
    while q ** len(steps) <= s_max:
        i = len(steps)
        num = BivarPoly.one(fld)
        for j in range(1, i + 1):
            num = num * BivarPoly(fld, {(q**i, 0): 1, (0, q**j): neg1})
        steps.append((q**i, num, carlitz_d(ctx, i).subs_theta_to_t()))
    gammas += [carlitz_factorial(ctx, n).subs_theta_to_t() for n in range(len(gammas), s_max + 1)]
    for n in range(len(hs), s_max + 1):
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
    if min(_deltas(ctx, spec)) <= 0:
        raise ValueError(f"convergence condition violated: {convergence_report(ctx, spec).note}")
    return spec


def _deltas(ctx: CarlitzContext, spec: CmplSpec) -> list[int]:
    return [convergence_margin(ctx.q, si, ui) for si, ui in zip(spec.s.entries, spec.u)]


def _ell_inv_pow(ctx: CarlitzContext, i: int, e: int, rel: int) -> LaurentSeries:
    """ell_i^-e for ell_i = (theta - theta^q)...(theta - theta^{q^i}), i >= 1,
    known to rel z-digits past its valuation e q (q^i - 1): ell_{i-1}^-e times

        (theta - theta^Q)^-e = (-1)^e theta^{-eQ} sum_k C(e+k-1, k) theta^{k(1-Q)},

    Q = q^i, a series with one nonzero z-coefficient every (q-1)(Q-1) digits."""

    def build(rel: int) -> LaurentSeries:
        q, p, fld = ctx.q, ctx.p, ctx.field
        big_q = q**i
        target = e * (q - 1) * big_q + rel
        # the terms k <= n lie below the target: theta^-lead times a
        # theta-polynomial of degree n(Q-1) with F_p coefficients, each its
        # own field encoding
        n = max(0, -(-rel // ((q - 1) * (big_q - 1))) - 1)
        lead = e * big_q + n * (big_q - 1)
        coeffs = {
            (n - k) * (big_q - 1): (-1) ** e * _binom_mod_p(e + k - 1, k, p) % p
            for k in range(n + 1)
        }
        fac = from_theta_poly(fld, coeffs, target - (q - 1) * lead)
        fac = theta_pow(fld, -lead, target + (q - 1) * n * (big_q - 1)) * fac
        return fac if i == 1 else _ell_inv_pow(ctx, i - 1, e, rel) * fac

    return ctx.cached_to(("ellinv", i, e), rel, build)


def _parts(spec: CmplSpec) -> tuple:
    """(s_j, the terms of u_j) per position: cache keys name an argument by
    its terms, which hash much faster than a BivarPoly."""
    return tuple((si, tuple(sorted(ui.terms.items()))) for si, ui in zip(spec.s.entries, spec.u))


def cmpl_value(ctx: CarlitzContext, spec: CmplSpec, prec: int) -> LaurentSeries:
    """The polylogarithm value at t = theta, the nested sum (module
    docstring) over the factors u_j^{(il)}(theta) ell_i^{-s_j}, its tails
    kept under the kind "ltail"; it reads only the arguments and the
    ell-inverses.  A factor below its bound raises ConventionError."""
    check_convergence(ctx, spec)
    if any(ui.is_zero() for ui in spec.u):
        return ls_zero(ctx.field, prec)
    q, entries, u = ctx.q, spec.s.entries, spec.u
    deltas = _deltas(ctx, spec)
    tpen = [(q - 1) * ui.deg_t() for ui in u]
    parts = _parts(spec)

    def bound(j: int, v: int) -> int:
        return q**v * deltas[j] - entries[j] * q - tpen[j]

    def factor(j: int, v: int, prec: int) -> LaurentSeries:
        b = bound(j, v)
        return _polylog_factor(ctx, parts[j], u[j], v, b, prec - b)

    ns = _NestedSum("ltail", parts, bound, factor, ls_zero)
    return _nested_sum(ctx, ns, inf, prec)


def _polylog_factor(
    ctx: CarlitzContext, part: tuple, u: BivarPoly, i: int, bound: int, rel: int
) -> LaurentSeries:
    """u^{(il)}(theta) ell_i^{-s}, part = (s, the terms of u), of certified
    valuation `bound`, to O(z^(bound + rel)), cached by rel under the kind
    "lfactor"; a factor below its bound raises ConventionError."""
    s = part[0]

    def build(rel: int) -> LaurentSeries:
        q = ctx.q
        low = -(q - 1) * (u.deg_t() + u.deg_theta() * q**i)  # u^{(il)}(theta)'s bound
        f = u.eval_theta_twisted(i * ctx.l, low + rel)
        if i:
            f = (f * _ell_inv_pow(ctx, i, s, rel)).truncate(bound + rel)
        if not f.is_zero() and f.val < bound:
            raise ConventionError(
                f"factor u^({i}l)(theta) ell_{i}^-{s} has valuation {f.val} "
                f"below its certified bound {bound}"
            )
        return f

    return ctx.cached_to(("lfactor", part, i), rel, build)


def cmpl_series(ctx: CarlitzContext, spec: CmplSpec, tdeg: int, prec: int) -> TateElement:
    """The t-motivic polylogarithm as a Tate element with certified tail,
    cached in the context per (the terms of spec, tdeg, prec)."""
    return ctx.cached(("cmpl", _parts(spec), tdeg, prec), lambda: _cmpl_series(ctx, spec, tdeg, prec))


def _cmpl_series(ctx: CarlitzContext, spec: CmplSpec, tdeg: int, prec: int) -> TateElement:
    """The polylogarithm series to O(z^(prec+4)) at t-degrees <= tdeg, the
    nested sum (module docstring) over the factors u_j^{(il)} P_i^{-s_j}, its
    tails kept under the kind "stail"; it reads only the arguments and the
    inverted linear factors.  Its tail certificate has slope (q-1) q."""
    check_convergence(ctx, spec)
    fld = ctx.field
    if any(ui.is_zero() for ui in spec.u):
        return tate.zero(fld, prec, tdeg)
    q, entries, u = ctx.q, spec.s.entries, spec.u
    deltas = _deltas(ctx, spec)
    # a factor is cut at tdeg, so its part names it
    parts = tuple(part + (tdeg,) for part in _parts(spec))

    def bound(j: int, v: int) -> int:
        return q**v * deltas[j] - entries[j] * q

    def factor(j: int, v: int, prec: int) -> TateElement:
        b = bound(j, v)
        return _series_factor(ctx, parts[j], u[j], v, prec - b)

    work = prec + 4
    acc = _nested_sum(ctx, _NestedSum("stail", parts, bound, factor, tate.zero), inf, work)
    coeffs = [c.truncate(work) for c in acc.coeffs]
    coeffs += [ls_zero(fld, work) for _ in range(tdeg + 1 - len(coeffs))]
    sigma = (q - 1) * q
    tau_min = sum(deltas) - sigma * sum(ui.deg_t() for ui in u) - q * spec.s.wt
    return TateElement(fld, coeffs, (sigma, tau_min), False)


def _series_factor(ctx: CarlitzContext, part: tuple, u: BivarPoly, i: int, rel: int) -> TateElement:
    """u^{(il)} P_i^{-s}, part = (s, the terms of u, tdeg), cut at t-degree
    tdeg and known to rel z-digits past its certified bound, cached by rel
    under the kind "sfac"."""
    s, _, tdeg = part

    def build(rel: int) -> TateElement:
        q = ctx.q
        low = -(q - 1) * u.deg_theta() * q**i  # u^{(il)}'s bound
        num = tate.from_poly(u.truncate_t(tdeg).twist(i * ctx.l), low + rel)
        return num * _p_inv_pow(ctx, i, s, tdeg, rel) if i else num

    return ctx.cached_to(("sfac", part, i), rel, build)


def _p_inv_pow(ctx: CarlitzContext, i: int, e: int, tdeg: int, rel: int) -> TateElement:
    """P_i^-e for P_i = (t - theta^q)...(t - theta^{q^i}), i >= 1, to t-degree
    tdeg, known to rel z-digits past its valuation e q (q^i - 1): P_{i-1}^-e
    times (t - theta^{q^i})^-e, cached by rel under the kind "tepow"."""

    def build(rel: int) -> TateElement:
        fac = _teinv(ctx, i, e, tdeg, rel)
        return fac if i == 1 else _p_inv_pow(ctx, i - 1, e, tdeg, rel) * fac

    return ctx.cached_to(("tepow", i, e, tdeg), rel, build)


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
    """Gamma_{s_1} ... Gamma_{s_d}, each Gamma_n kept in the context."""
    gamma = BivarPoly.one(ctx.field)
    for si in s.entries:
        gamma = gamma * ctx.cached(("gamma", si), lambda: carlitz_factorial(ctx, si - 1))
    return gamma


def zeta_side(ctx: CarlitzContext, s: Index, gamma: BivarPoly, work: int) -> LaurentSeries:
    """The identity's zeta side, `gamma` (the factorial product) times zeta(s);
    the other side is `cmpl_value` at `at_arguments`."""
    zeta = mzv(ctx, s, work)
    return gamma.eval_theta(work + (ctx.q - 1) * gamma.deg_theta() + 2) * zeta
