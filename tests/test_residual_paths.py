"""The motive-residual fast paths against the paths they replaced.

The oracles here are the replaced code, kept as it was:

* `_cmpl_series_oracle`: every degree tuple multiplies its own inverted
  linear factors into its numerator, one after the other, and the tuples
  are added one by one;
* `_cmpl_series_prefix_dot`: the shared prefix products and one dot, every
  numerator cut at the series' t-degree; the nested sum over cached tails
  replaced it;
* `_cmpl_series_full_numerators`: the same with every numerator multiplied
  out at all its t-degrees;
* `_mutation_residual_oracle`: a mutation twists the mutated entry and
  recomputes every residual entry it moves as a full dot;
* `_collapse_oracle`: the collapsed chain sum adds its truncated terms one
  by one;
* `_omega_residual_oracle`: Omega's functional equation with its own cap,
  2 z-digits past the (q-1)q loss, one Tate product and one subtraction.

The fast paths must give the same elements (val, coeffs and prec of every
coefficient, tail and exactness) and the same reports.  Omega's residual is
now the 1x1 system residual, which caps 8 digits past the loss: it may fail
a dropped-factor control the oracle passes, and must agree everywhere else.
"""

from itertools import combinations

import pytest
from helpers import decreasing_tuples, mutation_reports
from hypothesis import example, given, settings, strategies as st

from ffmzv import motive, special, tate
from ffmzv.carlitz import CarlitzContext, omega_functional_residual, omega_power, omega_series
from ffmzv.ffield import field
from ffmzv.laurent import LaurentSeries
from ffmzv.laurent import twist as ls_twist
from ffmzv.laurent import zero as ls_zero
from ffmzv.poly import BivarPoly, t_minus_theta_frob
from ffmzv.motive import (
    component_collapse_report,
    derived_matrix,
    frobenius_residual,
    perturb_entry,
    phi_matrix,
    psi_matrix,
)
from ffmzv.reports import ResidualReport
from ffmzv.special import CmplSpec, Index, at_arguments, cmpl_series
from ffmzv.tate import TateElement

CONFIGS = [(2, 1), (3, 1), (2, 2)]


def _data(x: TateElement):
    return x.tail, x.exact, [(c.val, c.coeffs, c.prec) for c in x.coeffs]


# -- oracles ----------------------------------------------------------------------


def _cmpl_series_oracle(ctx, spec, tdeg, prec):
    q, fld = ctx.q, ctx.field
    special.check_convergence(ctx, spec)
    if any(ui.is_zero() for ui in spec.u):
        return tate.zero(fld, prec, tdeg)
    entries = spec.s.entries
    d = spec.s.dep
    deltas = special._deltas(ctx, spec)
    work = prec + 4
    sigma = (q - 1) * q

    def contrib(j, v):
        return q**v * deltas[j] - entries[j] * q

    tuples = list(decreasing_tuples(d, contrib, work))
    bmin = min((sum(contrib(j, ij) for j, ij in enumerate(tup)) for tup in tuples), default=0)
    rel = work - min(bmin, 0) + 6
    acc = tate.zero(fld, work, tdeg)
    for tup in tuples:
        num = spec.u[0].twist(tup[0] * ctx.l)
        for j in range(1, d):
            num = num * spec.u[j].twist(tup[j] * ctx.l)
        term = tate.from_poly(num, -(q - 1) * num.deg_theta() + rel)
        for a in range(1, tup[0] + 1):
            e = sum(entries[j] for j in range(d) if tup[j] >= a)
            term = (term * special._teinv(ctx, a, e, tdeg, rel)).truncate_tdeg(tdeg)
        acc = acc + term
    coeffs = [c.truncate(work) for c in acc.coeffs]
    while len(coeffs) < tdeg + 1:
        coeffs.append(ls_zero(fld, work))
    tau_min = sum(deltas) - sigma * sum(ui.deg_t() for ui in spec.u) - q * spec.s.wt
    return TateElement(fld, coeffs[: tdeg + 1], (sigma, tau_min), False)


def _sum_plan(ctx, spec, prec):
    """(work, rel, terms) of the polylogarithm series for spec to O(z^prec),
    or None when an argument, and with it the sum, is zero: every degree
    tuple whose certified valuation bound lies below work, each atomic
    factor materialized at rel relative z-digits."""
    special.check_convergence(ctx, spec)
    if any(ui.is_zero() for ui in spec.u):
        return None
    q, entries = ctx.q, spec.s.entries
    deltas = special._deltas(ctx, spec)
    work = prec + 4

    def contrib(j, v):
        return q**v * deltas[j] - entries[j] * q

    tuples = decreasing_tuples(spec.s.dep, contrib, work)
    terms = [(tup, sum(contrib(j, ij) for j, ij in enumerate(tup))) for tup in tuples]
    bmin = min((bound for _, bound in terms), default=0)
    return work, work - min(bmin, 0) + 6, terms


def _teinv_prefix(ctx, exps, tdeg, rel):
    """prod_{a <= len(exps)} (t - theta^(q^a))^(-exps[a-1]) to t-degree tdeg,
    cached per exponent sequence and built from the prefix one shorter; the
    empty product is the exact 1 known to rel z-digits."""

    def build():
        if not exps:
            return tate.one(ctx.field, rel)
        a, e = len(exps), exps[-1]
        fac = ctx.cached(("teinv", a, e, tdeg, rel), lambda: special._teinv(ctx, a, e, tdeg, rel))
        if a == 1:
            return fac
        return (_teinv_prefix(ctx, exps[:-1], tdeg, rel) * fac).truncate_tdeg(tdeg)

    return ctx.cached(("teprod", exps, tdeg, rel), build)


def _cmpl_series_prefix_dot(ctx, spec, tdeg, prec):
    """The series summed over the degree tuples as one dot, each tuple's
    numerator times its cached prefix product; the numerator's factors and
    partial products are cut at t-degree tdeg, and its theta-degree, which
    sets its precision, is that of the whole product."""
    q, fld = ctx.q, ctx.field
    plan = _sum_plan(ctx, spec, prec)
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
        exps = tuple(sum(entries[j] for j in range(d) if tup[j] >= a) for a in range(1, tup[0] + 1))
        prefix = _teinv_prefix(ctx, exps, tdeg, rel)
        pairs.append((tate.from_poly(num, -(q - 1) * deg_theta + rel), prefix))
    acc = tate.dot(pairs, tdeg) if pairs else tate.zero(fld, work, tdeg)
    coeffs = [c.truncate(work) for c in acc.coeffs]
    while len(coeffs) < tdeg + 1:
        coeffs.append(ls_zero(fld, work))
    tau_min = sum(special._deltas(ctx, spec)) - sigma * sum(ui.deg_t() for ui in spec.u) - q * spec.s.wt
    return TateElement(fld, coeffs[: tdeg + 1], (sigma, tau_min), False)


def _cmpl_series_full_numerators(ctx, spec, tdeg, prec):
    """`_cmpl_series_prefix_dot` with each tuple's numerator multiplied out at
    every t-degree, its precision offset read off the whole product."""
    q, fld = ctx.q, ctx.field
    plan = _sum_plan(ctx, spec, prec)
    if plan is None:
        return tate.zero(fld, prec, tdeg)
    work, rel, terms = plan
    entries = spec.s.entries
    d = spec.s.dep
    sigma = (q - 1) * q
    pairs = []
    for tup, _ in terms:
        num = spec.u[0].twist(tup[0] * ctx.l)
        for j in range(1, d):
            num = num * spec.u[j].twist(tup[j] * ctx.l)
        exps = tuple(sum(entries[j] for j in range(d) if tup[j] >= a) for a in range(1, tup[0] + 1))
        prefix = _teinv_prefix(ctx, exps, tdeg, rel)
        pairs.append((tate.from_poly(num, -(q - 1) * num.deg_theta() + rel), prefix))
    acc = tate.dot(pairs, tdeg) if pairs else tate.zero(fld, work, tdeg)
    coeffs = [c.truncate(work) for c in acc.coeffs]
    while len(coeffs) < tdeg + 1:
        coeffs.append(ls_zero(fld, work))
    tau_min = sum(special._deltas(ctx, spec)) - sigma * sum(ui.deg_t() for ui in spec.u) - q * spec.s.wt
    return TateElement(fld, coeffs[: tdeg + 1], (sigma, tau_min), False)


def _mutation_residual_oracle(phi, psi, res, checks, th, i, j):
    new = psi.entries[i][j] + th
    col = list(res.cols[j])
    col[i] = tate.twist(new, phi.level).truncate(res.cap)
    out = [row[:] for row in checks]
    for a in range(psi.size):
        if a == i:
            out[a][j] = tate.zero_check(tate.residual_value(res, a, new, col))
        elif res.mats[a][i] is not None:
            out[a][j] = tate.zero_check(tate.residual_value(res, a, psi.entries[a][j], col))
    return ResidualReport.from_checks(out, res.q)


def _collapse_oracle(ctx, s, i, j, tdeg, prec):
    """component_collapse_report for i > j with AT arguments, adding terms one by one."""
    fld, u, d = ctx.field, at_arguments(ctx, s), s.dep
    L = {}
    for a in range(1, d + 2):
        for b in range(1, a):
            window = CmplSpec(Index(s.entries[b - 1 : a - 1]), tuple(u[b - 1 : a - 1]))
            L[(a, b)] = cmpl_series(ctx, window, tdeg, prec)
        L[(a, a)] = tate.one(fld, prec + 4)
    ompow = omega_power(ctx, sum(s.entries[j - 1 : i - 1]), tdeg, prec)
    acc = None
    for n in range(j, i + 1):
        if n == i:
            coeff = tate.one(fld, prec + 4)
        else:
            coeff = None
            mids = list(range(n + 1, i))
            for m_len in range(0, len(mids) + 1):
                for subset in combinations(mids, m_len):
                    chain = (n,) + subset + (i,)
                    prod = L[(chain[1], chain[0])]
                    for a, b in zip(chain[2:], chain[1:]):
                        prod = prod * L[(a, b)]
                    prod = -prod if (len(chain) - 1) % 2 == 1 else prod
                    coeff = prod if coeff is None else coeff + prod
        term = (coeff * ompow * L[(n, j)]).truncate_tdeg(tdeg)
        acc = term if acc is None else acc + term
    return ResidualReport.from_zero_check(
        tate.zero_check(acc), ctx.q, prefix=(i, j), note="collapsed alternating chain sum"
    )


def _omega_residual_oracle(ctx, omega):
    """omega_functional_residual after its precheck, as it was."""
    q = ctx.q
    cap = min(c.prec for c in omega.coeffs)
    work = cap + q * (q - 1) + 2
    factor = tate.from_poly(t_minus_theta_frob(ctx.field, ctx.l), work)
    twisted = tate.twist(omega, ctx.l, work)
    rhs = (factor * twisted).truncate_tdeg(omega.tdeg)
    return ResidualReport.from_zero_check(tate.zero_check(omega + -rhs), q)


# -- polylogarithm windows ------------------------------------------------------------


@st.composite
def _systems(draw, max_prec=72, max_tdeg=14):
    p, l = draw(st.sampled_from(CONFIGS))
    q = p**l
    entries = tuple(draw(st.lists(st.integers(1, q + 2), min_size=1, max_size=3)))
    prec = draw(st.integers(6, max_prec))
    tdeg = draw(st.integers(0, max_tdeg))
    return p, l, entries, prec, tdeg


@settings(max_examples=40, deadline=None)
@given(_systems())
@example((2, 1, (1, 2, 1), 72, 14))
@example((2, 2, (3, 1, 2), 40, 8))
@example((3, 1, (4,), 6, 0))
def test_windows_equal_the_per_tuple_oracle(system):
    p, l, entries, prec, tdeg = system
    ctx = CarlitzContext(p, l, prec=prec, tdeg=tdeg)
    s = Index(entries)
    u = at_arguments(ctx, s)
    for a in range(s.dep):
        for b in range(a + 1, s.dep + 1):
            w = CmplSpec(Index(entries[a:b]), u[a:b])
            want = _data(_cmpl_series_oracle(ctx, w, tdeg, prec))
            assert _data(special._cmpl_series(ctx, w, tdeg, prec)) == want, (a, b)


@st.composite
def _polylog_specs(draw, levels=((2, 1), (3, 1), (2, 2), (5, 1)), max_tdeg=6, max_prec=30):
    """A small index at one of `levels` with its AT arguments or random
    convergent ones (theta-degree below s q/(q-1), some with high t-degree)."""
    p, l = draw(st.sampled_from(levels))
    ctx = CarlitzContext(p, l)
    q = ctx.q
    s = Index(tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))))
    if draw(st.booleans()):
        u = at_arguments(ctx, s)
    else:
        u = tuple(
            BivarPoly(ctx.field, draw(st.dictionaries(
                st.tuples(st.integers(0, 9), st.integers(0, (si * q - 1) // (q - 1))),
                st.integers(1, q - 1),
                min_size=1,
                max_size=3,
            )))
            for si in s.entries
        )
    return ctx, CmplSpec(s, u), draw(st.integers(0, max_tdeg)), draw(st.integers(4, max_prec))


@settings(max_examples=60, deadline=None)
@given(_polylog_specs())
def test_cut_numerators_equal_the_full_numerator_products(case):
    ctx, spec, tdeg, prec = case
    want = _data(_cmpl_series_full_numerators(ctx, spec, tdeg, prec))
    assert _data(special._cmpl_series(ctx, spec, tdeg, prec)) == want


@settings(max_examples=40, deadline=None)
@given(_polylog_specs(levels=((2, 1), (3, 1), (2, 2), (5, 1), (3, 2)), max_tdeg=14, max_prec=72))
@example((CarlitzContext(2, 1), CmplSpec(Index((1, 2, 1)), (BivarPoly.one(field(2, 1)),) * 3), 14, 72))
def test_nested_series_equals_the_prefix_product_dot(case):
    """Every window on one context, at a precision, one below it (tails and
    factors served by truncation) and one above it (rebuilt), against the
    replaced path on a context of its own."""
    ctx, spec, tdeg, prec = case
    s, u = spec.s, spec.u
    oracle_ctx = CarlitzContext(ctx.p, ctx.l)
    for pr in (prec, prec // 2, prec + 9):
        for a in range(s.dep):
            for b in range(a + 1, s.dep + 1):
                w = CmplSpec(Index(s.entries[a:b]), u[a:b])
                want = _data(_cmpl_series_prefix_dot(oracle_ctx, w, tdeg, pr))
                assert _data(special._cmpl_series(ctx, w, tdeg, pr)) == want, (pr, a, b)


def test_psi_matrix_makes_at_most_half_the_products(monkeypatch):
    """Regression guard: the windows of one Psi share their prefix products."""

    def convolve_calls():
        calls = []
        convolve = tate._convolve
        monkeypatch.setattr(tate, "_convolve", lambda *a: calls.append(1) or convolve(*a))
        ctx = CarlitzContext(2, 1, prec=72, tdeg=14)
        s = Index((1, 2, 1))
        psi_matrix(ctx, at_arguments(ctx, s), s)
        monkeypatch.setattr(tate, "_convolve", convolve)
        return len(calls)

    new = convolve_calls()
    monkeypatch.setattr(special, "_cmpl_series", _cmpl_series_oracle)
    old = convolve_calls()
    assert 2 * new <= old, (new, old)


def test_psi_matrix_reads_the_series_tails_from_the_cache(monkeypatch):
    # the count README states; with the series' tails (`stail`) left
    # uncached the same Psi makes 58, which the bound above still allows
    calls = []
    convolve = tate._convolve
    monkeypatch.setattr(tate, "_convolve", lambda *a: calls.append(1) or convolve(*a))
    ctx = CarlitzContext(2, 1, prec=72, tdeg=14)
    s = Index((1, 2, 1))
    psi_matrix(ctx, at_arguments(ctx, s), s)
    assert len(calls) <= 53, len(calls)


# -- mutation reports -----------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(_systems(max_prec=48, max_tdeg=8), st.sampled_from([1, 2, 3]))
@example((2, 1, (1, 3), 40, 6), 2)
@example((2, 2, (1, 2, 1), 40, 8), 3)
@example((3, 1, (4,), 20, 4), 1)
def test_every_mutation_report_equals_full_recomputation(system, derive):
    p, l, entries, prec, tdeg = system
    ctx = CarlitzContext(p, l, prec=prec, tdeg=tdeg)
    s = Index(entries)
    u = at_arguments(ctx, s)
    psi = psi_matrix(ctx, u, s)
    phi = phi_matrix(ctx, u, s)
    if derive > 1:
        phi = derived_matrix(phi, derive)
    res = motive._residual_setup(phi, psi)
    checks, reports = mutation_reports(phi, psi, res)
    assert checks == tate.residual_checks(res, psi.entries)
    th = motive._theta_mutation(psi)
    r = psi.size
    assert list(reports) == [(i, j) for i in range(r) for j in range(r)]
    for (i, j), rep in reports.items():
        assert rep == _mutation_residual_oracle(phi, psi, res, checks, th, i, j), (i, j)
        assert rep == frobenius_residual(phi, perturb_entry(psi, i, j)), (i, j)


# -- Omega's functional equation ---------------------------------------------------------


def _fields(rep):
    return rep.passed, rep.worst_exponent, rep.floor_z, rep.location and rep.location[-1]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]),
    st.integers(8, 80),
    st.integers(0, 20),
    st.sampled_from([None, 1, 2]),
)
@example((3, 2), 64, 10, 1)
@example((2, 3), 48, 2, 1)
@example((5, 1), 80, 20, None)
def test_omega_residual_equals_the_replaced_path(pl, prec, tdeg, drop):
    ctx = CarlitzContext(*pl, prec=prec, tdeg=tdeg)
    omega = omega_series(ctx, drop_factor=drop)
    got, want = omega_functional_residual(ctx, omega), _omega_residual_oracle(ctx, omega)
    if want.passed and not got.passed:
        # the only difference allowed: a control the oracle's cap missed
        assert drop is not None
    else:
        assert _fields(got) == _fields(want)


# -- the collapse sum -------------------------------------------------------------------


@pytest.mark.parametrize("p,l", CONFIGS)
@pytest.mark.parametrize("entries", [(3,), (2, 1), (1, 2, 1)])
def test_collapse_reports_equal_the_term_by_term_sum(p, l, entries):
    ctx = CarlitzContext(p, l, prec=40, tdeg=8)
    s = Index(entries)
    for i in range(2, s.dep + 2):
        for j in range(1, i):
            want = _collapse_oracle(ctx, s, i, j, 8, 40)
            assert component_collapse_report(ctx, s, i, j) == want, (i, j)


# -- twists with a cap ------------------------------------------------------------------


@st.composite
def _laurent(draw, fld):
    coeffs = draw(st.lists(st.integers(0, fld.order - 1), max_size=8))
    val = draw(st.integers(-12, 6))
    prec = val + len(coeffs) + draw(st.integers(0, 4))
    return LaurentSeries(fld, val, coeffs, prec)


def _caps(f: LaurentSeries, s: int):
    """Caps below the twisted valuation, inside the series and above its precision."""
    lo, hi = f.val * s, f.prec * s
    return sorted({lo - 5, lo - 1, lo, lo + 1, (lo + hi) // 2, hi - 1, hi, hi + 7})


def _ls_data(c: LaurentSeries):
    return c.val, c.coeffs, c.prec


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)]), st.integers(0, 3), st.data())
def test_twist_with_cap_equals_twist_then_truncate(pl, n, data):
    fld = field(*pl)
    s = fld.p**n
    f = data.draw(_laurent(fld))
    for cap in _caps(f, s):
        assert _ls_data(ls_twist(f, n, cap)) == _ls_data(ls_twist(f, n).truncate(cap)), cap
    coeffs = [f] + data.draw(st.lists(_laurent(fld), max_size=3))
    tail = data.draw(st.one_of(st.none(), st.tuples(st.integers(1, 9), st.integers(-20, 20))))
    g = TateElement(fld, coeffs, tail, tail is None and data.draw(st.booleans()))
    for cap in _caps(f, s):
        assert _data(tate.twist(g, n, cap)) == _data(tate.twist(g, n).truncate(cap)), cap
