"""Zeta values, generating-series polynomials, and polylogarithms."""

import random

import pytest
from helpers import certificate_ok, decreasing_tuples
from hypothesis import given, settings, strategies as st

from ffmzv import tate
from ffmzv.carlitz import CarlitzContext, carlitz_d, carlitz_factorial, monic_coeff_lists
from ffmzv.errors import BudgetError, ConventionError
from ffmzv.ffield import ops
from ffmzv.laurent import (
    LaurentSeries,
    compare_to_precision,
    from_rational,
    one as ls_one,
    zero as ls_zero,
)
from ffmzv.poly import BivarPoly, dense_theta_mul, t_minus_theta_frob
from ffmzv.reports import ResidualReport
from ffmzv.special import (
    CmplSpec,
    Index,
    _binom_mod_p,
    _monic_power_sum_dp,
    anderson_thakur_polynomials,
    at_arguments,
    at_bound_report,
    at_slot_estimate,
    cmpl_series,
    cmpl_value,
    convergence_report,
    is_subclosed,
    monic_power_sum,
    mzv,
    mzv_bruteforce,
    mzv_tuple_count,
    parse_index,
    parse_index_set,
    period_identity_report,
    power_sum_val_bound,
    subclosure,
)


def _monic_power_sum_enum(ctx, d, s, prec):
    """S_d(s) by enumerating and inverting all q^d monic polynomials (oracle)."""
    q, fld = ctx.q, ctx.field
    if q**d > ctx.enum_budget:
        raise BudgetError(f"{q**d} monic polynomials exceed budget {ctx.enum_budget}")
    acc = ls_zero(fld, prec)
    for coeffs in monic_coeff_lists(q, d):
        a_pow = coeffs
        for _ in range(s - 1):
            a_pow = dense_theta_mul(fld, a_pow, coeffs)
        acc = acc + from_rational(fld, {0: 1}, {k: c for k, c in enumerate(a_pow)}, prec)
    return acc


def _monic_power_sum_stepwise(ctx, d, s, prec):
    """The power-sum DP walking every positive multiple e of q-1 and testing
    its binomial (oracle for the carry-free enumeration)."""
    q, p = ctx.q, ctx.p
    step = q - 1
    top = (prec - 1) // step - d * s
    states = {(0, 0): 1} if top >= 0 else {}
    for j in range(d, 0, -1):
        reserve = step * j * (j - 1) // 2
        nxt = {}
        for (k, dd), w in states.items():
            e = step
            while dd + j * e + reserve <= top:
                c = _binom_mod_p(k + e, e, p)
                if c:
                    st = (k + e, dd + j * e)
                    nxt[st] = (nxt.get(st, 0) + w * c) % p
                e += step
        states = nxt
    coeffs = [0] * (step * (top + d * s) + 1) if states else []
    for (k, dd), w in states.items():
        c = w * _binom_mod_p(s + k - 1, k, p)
        n = d * s + dd
        coeffs[step * n] += -c if (d + k + n) % 2 else c
    return LaurentSeries(ctx.field, 0, [c % p for c in coeffs], prec)


def cmpl_frobenius_residual(ctx, spec, tdeg=None, prec=None):
    """Residual of the defining recurrence, in its polynomial-only twisted form:

        (t - theta^q)^wt * L  =  (t - theta^q)^{s_d} * u_d * L'^{(l)}  +  L^{(l)}

    where L' drops the last index entry (empty L' = 1).  Checked, not assumed.
    """
    prec = ctx.prec if prec is None else prec
    tdeg = ctx.tdeg if tdeg is None else tdeg
    q, fld = ctx.q, ctx.field
    entries = spec.s.entries
    d = spec.s.dep
    big = cmpl_series(ctx, spec, tdeg, prec)
    if d == 1:
        prefix = tate.one(fld, prec + 4)
    else:
        prefix = cmpl_series(ctx, CmplSpec(Index(entries[:-1]), spec.u[:-1]), tdeg, prec)
    cap = min(c.prec for c in big.coeffs)
    lin = t_minus_theta_frob(fld, ctx.l)
    lhs = tate.from_poly(lin ** spec.s.wt, cap + q * (q - 1) * spec.s.wt + 2) * big
    rhs1 = (
        tate.from_poly(lin ** entries[-1] * spec.u[-1], cap + q * (q - 1) * spec.s.wt + 2)
        * tate.twist(prefix, ctx.l).truncate(cap)
    )
    rhs2 = tate.twist(big, ctx.l).truncate(cap)
    resid = (lhs + -rhs1 + -rhs2).truncate_tdeg(tdeg)
    return ResidualReport.from_zero_check(tate.zero_check(resid), q)


def test_index_basics():
    s = Index((2, 1, 3))
    assert (s.dep, s.wt) == (3, 6)
    assert s.window(2, 3) == Index((1, 3))
    with pytest.raises(ValueError):
        Index((0, 1))
    assert parse_index("2,1") == Index((2, 1))
    assert parse_index_set("1,2;3") == (Index((1, 2)), Index((3,)))


def test_subclosure_examples():
    m, n = 2, 5
    assert subclosure([Index((m, n))]) == (Index((m,)), Index((n,)), Index((m, n)))
    assert subclosure([Index((4,))]) == (Index((4,)),)
    assert subclosure([Index((1, 2, 3))]) == (
        Index((1,)),
        Index((2,)),
        Index((3,)),
        Index((1, 2)),
        Index((2, 3)),
        Index((1, 2, 3)),
    )
    assert is_subclosed(subclosure([Index((1, 1, 2))]))
    assert not is_subclosed([Index((1, 2))])


def test_power_sum_degree_zero():
    ctx = CarlitzContext(3, 1)
    for s in (1, 2, 5):
        assert compare_to_precision(monic_power_sum(ctx, 0, s, 20), ls_one(ctx.field, 20)).status == "equal"


def test_power_sum_q3_closed_form():
    ctx = CarlitzContext(3, 1)
    got = monic_power_sum(ctx, 1, 1, 30)
    # 1/theta + 1/(theta+1) + 1/(theta+2) = -1/(theta^3 - theta)
    expect = from_rational(ctx.field, {0: 2}, {3: 1, 1: 2}, 30)
    assert compare_to_precision(got, expect).status == "equal"


def test_power_sum_reverse_order_equality():
    # exact addition is order independent: re-sum the enumeration reversed
    ctx = CarlitzContext(2, 1)
    d, s, prec = 3, 2, 24
    fwd = monic_power_sum(ctx, d, s, prec)
    acc = ls_zero(ctx.field, prec)
    for coeffs in reversed(list(monic_coeff_lists(2, d))):
        a_pow = coeffs
        for _ in range(s - 1):
            a_pow = dense_theta_mul(ctx.field, a_pow, coeffs)
        acc = acc + from_rational(ctx.field, {0: 1}, dict(enumerate(a_pow)), prec)
    assert (fwd.val, fwd.coeffs) == (acc.val, acc.coeffs)


def test_power_sum_valuation_bound():
    ctx = CarlitzContext(3, 1)
    for d in range(3):
        for s in (1, 2, 3):
            got = monic_power_sum(ctx, d, s, 60)
            if not got.is_zero():
                assert got.val >= power_sum_val_bound(3, d, s)


def test_power_sum_budget():
    # the budget bounds the enumeration oracle; the closed form ignores it
    ctx = CarlitzContext(3, 1, enum_budget=8)
    with pytest.raises(BudgetError):
        _monic_power_sum_enum(ctx, 2, 1, 20)
    assert monic_power_sum(ctx, 2, 1, 20).prec == 20


_ORACLE_LEVELS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 3)]


@st.composite
def _power_sum_case(draw):
    p, l = draw(st.sampled_from(_ORACLE_LEVELS))
    q = p**l
    d_max = 0
    while q ** (d_max + 1) <= 5000:
        d_max += 1
    return p, l, draw(st.integers(0, d_max)), draw(st.integers(1, 7)), draw(st.integers(1, 90))


@settings(max_examples=15, deadline=None)
@given(_power_sum_case())
def test_power_sum_matches_enumeration(case):
    p, l, d, s, prec = case
    ctx = CarlitzContext(p, l)
    got = monic_power_sum(ctx, d, s, prec)
    want = _monic_power_sum_enum(ctx, d, s, prec)
    assert (got.val, got.coeffs, got.prec) == (want.val, want.coeffs, want.prec)


def _assert_dp_matches_stepwise(level, d, s, prec):
    ctx = CarlitzContext(*level)
    got = _monic_power_sum_dp(ctx, d, s, prec)
    want = _monic_power_sum_stepwise(ctx, d, s, prec)
    assert (got.val, got.coeffs, got.prec) == (want.val, want.coeffs, want.prec)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_ORACLE_LEVELS + [(7, 1), (3, 3)]),
    st.integers(0, 10),
    st.integers(1, 8),
    st.integers(-5, 300),
)
def test_carry_free_power_sum_dp_matches_stepwise(level, d, s, prec):
    _assert_dp_matches_stepwise(level, d, s, prec)


@pytest.mark.parametrize("p,l", [(2, 1), (3, 1), (2, 2)])
def test_carry_free_power_sum_dp_matches_stepwise_at_high_precision(p, l):
    for d in range(1, 5):
        for s in (1, 2, 3):
            _assert_dp_matches_stepwise((p, l), d, s, 400)


@pytest.mark.parametrize("p,l", [(2, 1), (3, 1), (2, 2)])
def test_power_sum_negative_precision_matches_enumeration(p, l):
    # below z^0 both paths must return the zero-to-precision series
    ctx = CarlitzContext(p, l)
    for d in range(3):
        for s in (1, 2, 3):
            for prec in (-1, -2, -7, -20):
                got = monic_power_sum(ctx, d, s, prec)
                want = _monic_power_sum_enum(ctx, d, s, prec)
                assert (got.val, got.coeffs, got.prec) == (want.val, want.coeffs, want.prec)


def test_power_sum_val_bound_beyond_enumeration():
    # Carlitz: S_d(1) = 1/l_d with l_d = prod_{i=1..d} (theta - theta^{q^i}),
    # so v_z(S_d(1)) = q(q^d - 1); at q = 2, d = 12 that is 8190
    for p, d_exact in [(2, 6), (3, 3)]:
        ctx = CarlitzContext(p, 1)
        q, neg = ctx.q, ops(ctx.field).neg
        for d in range(1, 13):
            v_true = q * (q**d - 1)
            assert power_sum_val_bound(q, d, 1) <= v_true
            for s in range(1, 6):
                bound = power_sum_val_bound(q, d, s)
                got = monic_power_sum(ctx, d, s, bound + 40)
                assert got.is_zero() or got.val >= bound
            if d <= d_exact:
                ell = BivarPoly.one(ctx.field)
                for i in range(1, d + 1):
                    ell = ell * BivarPoly(ctx.field, {(0, 1): 1, (0, q**i): neg[1]})
                den = {k: c for (_, k), c in ell.terms.items()}
                prec = v_true + 10
                want = from_rational(ctx.field, {0: 1}, den, prec)
                got = monic_power_sum(ctx, d, 1, prec)
                assert got.val == v_true
                assert (got.val, got.coeffs) == (want.val, want.coeffs)
            else:
                assert monic_power_sum(ctx, d, 1, 200).is_zero()


def test_at_polynomials_refuse_an_estimate_over_the_budget():
    ctx = CarlitzContext(2, 1)
    with pytest.raises(BudgetError, match="at_slot_estimate"):
        anderson_thakur_polynomials(ctx, 973517)
    assert at_slot_estimate(2, 40, ctx.enum_budget) <= ctx.enum_budget
    starved = CarlitzContext(3, 1, enum_budget=100)
    with pytest.raises(BudgetError, match="budget 100"):
        anderson_thakur_polynomials(starved, 20)
    assert anderson_thakur_polynomials(starved, 2) == [BivarPoly.one(starved.field)] * 3


def test_mzv_bruteforce_budget():
    ctx = CarlitzContext(2, 1, enum_budget=1000)
    with pytest.raises(BudgetError):
        mzv_bruteforce(ctx, Index((2, 1)), 10**6, 20)


def test_mzv_enumerates_nothing():
    for p in (2, 3):
        starved = CarlitzContext(p, 1, enum_budget=1)
        full = CarlitzContext(p, 1)
        for entries in [(1,), (3,), (2, 1), (1, 2, 1)]:
            s = Index(entries)
            a, b = mzv(starved, s, 60), mzv(full, s, 60)
            assert (a.val, a.coeffs, a.prec) == (b.val, b.coeffs, b.prec)
        a = mzv(starved, Index((2, 1)), 30, max_degree=8)
        b = mzv(full, Index((2, 1)), 30, max_degree=8)
        assert (a.val, a.coeffs, a.prec) == (b.val, b.coeffs, b.prec)


def test_mzv_depth_one_constant_term():
    for p in (2, 3):
        ctx = CarlitzContext(p, 1)
        for s in (1, 2, 4):
            v = mzv(ctx, Index((s,)), 20)
            assert v.val == 0 and v.coeffs[0] == 1


def test_mzv_zeta1_assembled_from_power_sums():
    ctx = CarlitzContext(3, 1)
    prec = 30
    got = mzv(ctx, Index((1,)), prec)
    acc = ls_zero(ctx.field, prec + 2)
    d = 0
    while power_sum_val_bound(3, d, 1) < prec + 2:
        acc = acc + monic_power_sum(ctx, d, 1, prec + 2)
        d += 1
    assert compare_to_precision(got, acc).status == "equal"


@pytest.mark.parametrize("p,l", [(2, 1), (3, 1), (2, 2)])
@pytest.mark.parametrize("entries", [(1,), (2,), (1, 1), (2, 1), (1, 1, 1)])
def test_mzv_bruteforce_equivalence(p, l, entries):
    ctx = CarlitzContext(p, l)
    s = Index(entries)
    prec = 24 if ctx.q < 4 else 20
    a = mzv(ctx, s, prec, max_degree=3)
    b = mzv_bruteforce(ctx, s, 3, prec)
    joint = min(a.prec, b.prec)
    at, bt = a.truncate(joint), b.truncate(joint)
    assert (at.val, at.coeffs) == (bt.val, bt.coeffs)


def test_mzv_term_order_independence():
    # summing the degree-tuple products in shuffled order changes nothing
    ctx = CarlitzContext(3, 1)
    s = Index((2, 1))
    prec = 26
    terms = []
    for tup in decreasing_tuples(2, lambda j, v: v > 3, 1):
        t = monic_power_sum(ctx, tup[0], 2, prec) * monic_power_sum(ctx, tup[1], 1, prec)
        terms.append(t.truncate(prec))
    rng = random.Random(13)
    sums = []
    for _ in range(3):
        rng.shuffle(terms)
        acc = ls_zero(ctx.field, prec)
        for t in terms:
            acc = acc + t
        sums.append(acc)
    ref = mzv(ctx, s, prec, max_degree=3)
    for acc in sums:
        joint = min(acc.prec, ref.prec)
        assert (acc.truncate(joint).val, acc.truncate(joint).coeffs) == (
            ref.truncate(joint).val,
            ref.truncate(joint).coeffs,
        )


@pytest.mark.parametrize("p,l", [(2, 1), (3, 1), (2, 2)])
def test_at_polynomials_low_slots_are_one(p, l):
    ctx = CarlitzContext(p, l)
    hs = anderson_thakur_polynomials(ctx, ctx.q)
    for s in range(ctx.q):
        assert hs[s] == BivarPoly.one(ctx.field), f"H_{s} != 1"
    assert at_bound_report(ctx, hs).passed


def test_at_weight_q_slot():
    # H_q = 2 t^q - t - theta^q, integral with theta-degree q
    ctx = CarlitzContext(3, 1)
    hq = anderson_thakur_polynomials(ctx, 3)[3]
    o = ops(ctx.field)
    expect = BivarPoly(ctx.field, {(3, 0): 2, (1, 0): o.neg[1], (0, 3): o.neg[1]})
    assert hq == expect


class _Frac:
    """num/den with num in F[t, theta] and den monic in t (no gcd reduction)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def __add__(self, other):
        return _Frac(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return _Frac(self.num * other.num, self.den * other.den)


def _at_polys_frac(ctx, s_max):
    """H_0..H_{s_max} by inverting the generating series over unreduced
    fractions, then dividing Gamma_{s+1}(t) * c_s out at the end (oracle)."""
    q, fld = ctx.q, ctx.field
    one = BivarPoly.one(fld)
    neg = ops(fld).neg

    # generating coefficients a_i of x^{q^i}; a_0 = 1
    a = {0: _Frac(one, one)}
    i = 1
    while q**i <= s_max:
        num = one
        den = one
        for j in range(1, i + 1):
            num = num * BivarPoly(fld, {(q**i, 0): 1, (0, q**j): neg[1]})
        for j in range(i):
            den = den * BivarPoly(fld, {(q**i, 0): 1, (q**j, 0): neg[1]})
        a[i] = _Frac(num, den)
        i += 1
    # series inversion: c_n = sum_i a_i c_{n - q^i}
    c = [_Frac(one, one)]
    for n in range(1, s_max + 1):
        acc = None
        for i, ai in a.items():
            if q**i <= n:
                term = ai * c[n - q**i]
                acc = term if acc is None else acc + term
        c.append(acc)
    out = []
    for s_idx in range(s_max + 1):
        gamma_t = carlitz_factorial(ctx, s_idx).subs_theta_to_t()
        quot, rem = (gamma_t * c[s_idx].num).divmod_t(c[s_idx].den)
        assert rem.is_zero(), f"slot {s_idx} did not divide out"
        out.append(quot)
    return out


# the largest s_max at which the fraction oracle finishes in about a second
@pytest.mark.parametrize("p,l,s_max", [(3, 1, 18), (2, 1, 12), (2, 2, 20), (5, 1, 30), (3, 2, 20)])
def test_at_polynomials_match_the_fraction_oracle(p, l, s_max):
    want = _at_polys_frac(CarlitzContext(p, l), s_max)
    ctx = CarlitzContext(p, l)
    for s in range(s_max + 1):
        assert anderson_thakur_polynomials(ctx, s) == want[: s + 1], s


def test_at_slot_that_does_not_divide_out_raises(monkeypatch):
    from ffmzv import special

    real = special.carlitz_d
    # D_i (theta + 1) is no factor of Gamma_2 = 1, so slot 1 leaves a remainder
    monkeypatch.setattr(
        special,
        "carlitz_d",
        lambda ctx, i: real(ctx, i) * BivarPoly(ctx.field, {(0, 1): 1, (0, 0): 1}),
    )
    with pytest.raises(ConventionError, match="slot 1 did not divide out"):
        anderson_thakur_polynomials(CarlitzContext(3, 1), 4)


def _at_polys_from_scratch(ctx, s_max):
    """H_0..H_{s_max} by the integral recurrence, built from nothing for each
    s_max, as anderson_thakur_polynomials did before its context kept one
    growing list (oracle)."""
    q, fld = ctx.q, ctx.field
    neg1 = ops(fld).neg[1]
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
            assert rem.is_zero(), n
            h = h + b * num * hs[n - qi]
        hs.append(h)
    return hs


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]), st.lists(st.integers(0, 24), min_size=1, max_size=6))
def test_at_polynomials_extended_in_place_equal_the_from_scratch_build(level, s_maxes):
    # one context answers the requests in the order drawn, extending its list
    ctx = CarlitzContext(*level)
    scratch = _at_polys_from_scratch(CarlitzContext(*level), max(s_maxes))
    for s_max in s_maxes:
        assert anderson_thakur_polynomials(ctx, s_max) == scratch[: s_max + 1], s_max
    assert [key for key in ctx._cache if key[0] == "AT"] == [("AT",)]


def test_convergence_examples():
    ctx2 = CarlitzContext(2, 1)
    ok = convergence_report(ctx2, CmplSpec(Index((3,)), (BivarPoly.one(ctx2.field),)))
    assert ok.passed
    boundary = convergence_report(
        ctx2, CmplSpec(Index((1,)), (BivarPoly(ctx2.field, {(0, 2): 1}),))
    )
    assert not boundary.passed  # ||theta^2|| = |theta|^2 vs bound |theta|^2: strict fails
    hs_ok = convergence_report(ctx2, CmplSpec(Index((2, 1)), at_arguments(ctx2, Index((2, 1)))))
    assert hs_ok.passed


def test_cmpl_zero_argument():
    ctx = CarlitzContext(3, 1)
    spec = CmplSpec(Index((2,)), (BivarPoly.zero(ctx.field),))
    assert cmpl_value(ctx, spec, 20).is_zero()
    assert tate.zero_check(cmpl_series(ctx, spec, 4, 20)).ok


def test_cmpl_depth_one_leading_term():
    ctx = CarlitzContext(3, 1)
    for s in (1, 2, 3):
        v = cmpl_value(ctx, CmplSpec(Index((s,)), (BivarPoly.one(ctx.field),)), 24)
        assert v.val == 0 and v.coeffs[0] == 1


def test_cmpl_three_term_truncation_q3():
    # depth 1, s = 1, u = 1: the i <= 2 partial sum, assembled by hand
    ctx = CarlitzContext(3, 1)
    fld = ctx.field
    # choose the precision between the i=2 and i=3 term valuations
    prec = 70  # bound(i=3) = 81 - 3 = 78 > 70 > bound(i=2) = 24
    got = cmpl_value(ctx, CmplSpec(Index((1,)), (BivarPoly.one(fld),)), prec)
    ell1 = BivarPoly(fld, {(0, 1): 1, (0, 3): 2})  # theta - theta^3
    ell2 = ell1 * BivarPoly(fld, {(0, 1): 1, (0, 9): 2})
    expect = ls_one(fld, 90)
    expect = expect + from_rational(fld, {0: 1}, {b: c for (_, b), c in ell1.terms.items()}, 90)
    expect = expect + from_rational(fld, {0: 1}, {b: c for (_, b), c in ell2.terms.items()}, 90)
    assert compare_to_precision(got, expect.truncate(prec)).status == "equal"


@pytest.mark.parametrize("p,l", [(2, 1), (3, 1)])
@pytest.mark.parametrize("entries", [(1,), (2,), (1, 2)])
def test_cmpl_series_evaluates_to_value(p, l, entries):
    ctx = CarlitzContext(p, l)
    s = Index(entries)
    spec = CmplSpec(s, at_arguments(ctx, s))
    ser = cmpl_series(ctx, spec, 14, 36)
    ev = tate.eval_at_theta(ser)
    val = cmpl_value(ctx, spec, 30)
    cmp = compare_to_precision(ev, val)
    assert cmp.status == "equal" and cmp.exponent > 8


@pytest.mark.parametrize("p,l", [(2, 1), (3, 1)])
def test_cmpl_frobenius_recurrence(p, l):
    ctx = CarlitzContext(p, l, prec=36, tdeg=8)
    q = ctx.q
    # the weight-q case with the nontrivial polynomial argument, plus depth 2
    for entries in [(q,), (1, 1)]:
        s = Index(entries)
        rep = cmpl_frobenius_residual(ctx, CmplSpec(s, at_arguments(ctx, s)))
        assert rep.passed, (p, l, entries)


@pytest.mark.parametrize("p,l", [(2, 1), (3, 1)])
def test_period_identity_examples(p, l):
    ctx = CarlitzContext(p, l)
    for entries in [(1,), (2, 1), (ctx.q,), (ctx.q + 1,)]:
        rep = period_identity_report(ctx, Index(entries), 30)
        assert rep.status == "equal" and rep.precision >= 30, (p, l, entries)


def test_period_identity_full_scan_q4():
    # the (2,2) configuration over all wt <= 6, dep <= 3 indices
    from ffmzv.suite import _wt_indices

    ctx = CarlitzContext(2, 2)
    for s in _wt_indices(6, 3):
        rep = period_identity_report(ctx, s, 30)
        assert rep.status == "equal" and rep.precision >= 30, str(s)


def test_period_identity_perturbation_control():
    ctx = CarlitzContext(3, 1)
    s = Index((1,))
    bad = (BivarPoly.one(ctx.field) + BivarPoly.one(ctx.field),)  # u = H_0 + 1 = 2
    rep = period_identity_report(ctx, s, 30, u=bad)
    assert rep.status == "unequal"
    assert rep.exponent is not None


def test_period_identity_low_precision_never_spurious():
    # a starved budget can verify fewer digits or be incomparable, but a
    # true identity must never come back "unequal"
    ctx = CarlitzContext(3, 1, prec=1)
    rep = period_identity_report(ctx, Index((1,)), 1)
    assert rep.status in ("equal", "incomparable")


def test_mzv_tuple_count_positive():
    ctx = CarlitzContext(2, 1)
    assert mzv_tuple_count(ctx, Index((2, 1)), 30) >= 3


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)]),
    st.lists(st.integers(1, 4), min_size=1, max_size=5),
    st.integers(-3, 160),
)
def test_mzv_tuple_count_equals_the_enumeration(level, entries, prec):
    ctx, s = CarlitzContext(*level), Index(tuple(entries))
    bound = lambda j, v: power_sum_val_bound(ctx.q, v, entries[j])  # noqa: E731
    assert mzv_tuple_count(ctx, s, prec) == sum(1 for _ in decreasing_tuples(s.dep, bound, prec + 2))


def test_cmpl_series_certificates():
    ctx = CarlitzContext(2, 1)
    for entries in [(1,), (2, 1)]:
        s = Index(entries)
        ser = cmpl_series(ctx, CmplSpec(s, at_arguments(ctx, s)), 10, 30)
        assert certificate_ok(ser)
