"""Precision-monotone caches and the independence of the two sides of each
identity check.

A power sum, ell-inverse, polylogarithm factor or tail sum served by
truncating a higher-precision entry must equal a fresh build, and the
polylogarithm side and the zeta side may share no cache entry beyond the
factorials the identity's statement puts on both: the zeta tails read only
power sums, the polylogarithm factors and tails only the Anderson-Thakur
arguments and the ell-inverses.  The polylogarithm series, the same nested
sum over Tate elements, keeps its factors and tails under kinds of its own:
it reads none of the value's entries or the zeta side's, and the value reads
none of its.
The product-formula pi-tilde and 1/Omega(theta) share no cache entry, and
the brute-force Carlitz-tower oracle reads none of the recursion's D_i: the
two sides of those checks share only the convention `laurent.theta_pow`.
"""

import pytest
from helpers import cache_stats, counting

from ffmzv import tate
from ffmzv.carlitz import (
    CarlitzContext,
    carlitz_d,
    carlitz_d_bruteforce,
    omega_for_eval,
    pi_omega_cross_check,
    pi_tilde,
)
from ffmzv.motive import psi_matrix
from ffmzv.special import (
    CmplSpec,
    Index,
    _ell_inv_pow,
    at_arguments,
    cmpl_series,
    cmpl_value,
    factorial_product,
    monic_power_sum,
    mzv,
    zeta_side,
)

LEVELS = [(2, 1), (3, 1), (2, 2), (5, 1)]

# Gamma_{s_1}...Gamma_{s_d} multiplies the zeta side by the statement of the
# identity, and the AT polynomials are built from the same D_i
SHARED_KINDS = {"D", "gamma"}
ZETA_KINDS = {"S", "ztail"}
POLYLOG_KINDS = {"AT", "ellinv", "lfactor", "ltail"}
SERIES_KINDS = {"cmpl", "sfac", "tepow", "stail"}


def _same(a, b):
    return (a.val, a.coeffs, a.prec) == (b.val, b.coeffs, b.prec)


def polylog_side(ctx, s, work):
    """The identity's polylogarithm side, as `period_identity_report` builds it."""
    return cmpl_value(ctx, CmplSpec(s, at_arguments(ctx, s)), work)


@pytest.mark.parametrize("p,l", LEVELS)
def test_truncation_served_power_sums_equal_fresh_builds(p, l):
    ctx = counting(CarlitzContext(p, l))
    for d in range(4):
        for s in (1, 2, 5):
            # a descending run, then one above the entry and one below it
            for prec in (150, 97, 40, 7, 1, -3, 170, 120):
                got = monic_power_sum(ctx, d, s, prec)
                assert _same(got, monic_power_sum(CarlitzContext(p, l), d, s, prec)), (d, s, prec)
    assert cache_stats(ctx).size == 4 * 3


@pytest.mark.parametrize("p,l", LEVELS)
def test_truncation_served_ell_inverses_equal_fresh_builds(p, l):
    ctx = CarlitzContext(p, l)
    for i in (1, 2, 3):
        for e in (1, 2, 4):
            for rel in (90, 61, 30, 12, 1, 110, 75):
                got = _ell_inv_pow(ctx, i, e, rel)
                assert _same(got, _ell_inv_pow(CarlitzContext(p, l), i, e, rel)), (i, e, rel)


@pytest.mark.parametrize("p,l", LEVELS)
def test_truncation_served_tails_equal_fresh_builds(p, l):
    ctx = CarlitzContext(p, l)
    served = set()  # kinds of the requests an entry of higher precision served
    cached_to = ctx.cached_to

    def record(key, level, build):
        entry = ctx._cache.get(key)
        if entry is not None and entry[0] > level:
            served.add(key[0])
        return cached_to(key, level, build)

    ctx.cached_to = record
    for entries in [(1,), (2, 1), (1, 2, 1), (3, 1, 2)]:
        s = Index(entries)
        for prec in (150, 97, 40, 7, 1, 170, 120):
            got = mzv(ctx, s, prec)
            assert _same(got, mzv(CarlitzContext(p, l), s, prec)), (s, prec)
            got = polylog_side(ctx, s, prec)
            assert _same(got, polylog_side(CarlitzContext(p, l), s, prec)), (s, prec)
    assert {"ztail", "lfactor", "ltail"} <= served


def test_monotone_entries_count_truncations_as_hits():
    ctx = counting(CarlitzContext(3, 1))
    monic_power_sum(ctx, 2, 1, 50)
    assert cache_stats(ctx) == (0, 1, 1)
    low = monic_power_sum(ctx, 2, 1, 30)
    assert cache_stats(ctx) == (1, 1, 1) and low.prec == 30
    monic_power_sum(ctx, 2, 1, 80)  # above the entry: rebuilt and replaced
    assert cache_stats(ctx) == (1, 2, 1)
    assert monic_power_sum(ctx, 2, 1, 80) is monic_power_sum(ctx, 2, 1, 80)
    assert cache_stats(ctx) == (3, 2, 1)


def _recording_context(p, l, **sizes):
    """A fresh context and the set of cache-key kinds its lookups touch."""
    ctx = counting(CarlitzContext(p, l, **sizes))
    kinds = set()
    for name in ("cached", "cached_to"):
        lookup = getattr(ctx, name)

        def record(key, *args, _lookup=lookup):
            kinds.add(key[0])
            return _lookup(key, *args)

        setattr(ctx, name, record)
    return ctx, kinds


@pytest.mark.parametrize("p,l", LEVELS)
def test_period_identity_sides_share_no_cache_entry(p, l):
    touched = set()
    for entries in [(1,), (3,), (2, 1), (1, 2), (1, 1, 2)]:
        s = Index(entries)
        zctx, zkinds = _recording_context(p, l)
        gamma = factorial_product(zctx, s)
        work = 30 + (zctx.q - 1) * gamma.deg_theta() + 4
        zeta = zeta_side(zctx, s, gamma, work)
        pctx, pkinds = _recording_context(p, l)
        polylog = polylog_side(pctx, s, work)
        touched |= zkinds | pkinds
        assert not (zkinds & pkinds) - SHARED_KINDS, (s, zkinds, pkinds)
        assert zkinds - SHARED_KINDS <= ZETA_KINDS, (s, zkinds)
        assert pkinds - SHARED_KINDS <= POLYLOG_KINDS, (s, pkinds)
        # each side is the same series on its own context as on a shared one,
        # whichever side runs first there
        for zeta_first in (True, False):
            shared = CarlitzContext(p, l)
            if zeta_first:
                z = zeta_side(shared, s, factorial_product(shared, s), work)
                y = polylog_side(shared, s, work)
            else:
                y = polylog_side(shared, s, work)
                z = zeta_side(shared, s, factorial_product(shared, s), work)
            assert _same(z, zeta) and _same(y, polylog), (s, zeta_first)
    # at depth 3 and q >= 4 zeta vanishes to this precision and touches no S
    assert ZETA_KINDS | POLYLOG_KINDS <= touched


@pytest.mark.parametrize("p,l", LEVELS)
def test_polylog_series_shares_no_cache_entry_with_the_value_or_zeta(p, l):
    s, prec, tdeg = Index((1, 2, 1)), 40, 8
    sctx, skinds = _recording_context(p, l, prec=prec, tdeg=tdeg)
    u = at_arguments(sctx, s)
    psi_matrix(sctx, u, s)
    series = cmpl_series(sctx, CmplSpec(s, u), tdeg, prec)
    assert SERIES_KINDS <= skinds
    assert not skinds & (ZETA_KINDS | POLYLOG_KINDS - {"AT"}), skinds
    value = polylog_side(CarlitzContext(p, l), s, prec)
    # each is the same on a shared context, whichever runs first there
    for value_first in (True, False):
        shared = CarlitzContext(p, l)
        if value_first:
            assert _same(polylog_side(shared, s, prec), value)
        got = cmpl_series(shared, CmplSpec(s, at_arguments(shared, s)), tdeg, prec)
        assert tate.to_text(got) == tate.to_text(series), value_first
        assert _same(polylog_side(shared, s, prec), value)


@pytest.mark.parametrize("p,l", LEVELS)
def test_pi_omega_sides_share_no_cache_entry(p, l):
    work = 40
    pctx, pkinds = _recording_context(p, l)
    pt = pi_tilde(pctx, work)
    assert not pkinds and cache_stats(pctx).size == 0  # the product formula caches nothing
    octx, okinds = _recording_context(p, l)
    ev = tate.eval_at_theta(omega_for_eval(octx, work))
    assert okinds == {"omega"}
    # each side is the same series on a shared context, whichever side runs first
    for omega_first in (True, False):
        shared = CarlitzContext(p, l)
        if omega_first:
            tate.eval_at_theta(omega_for_eval(shared, work))
        assert _same(pi_tilde(shared, work), pt)
        assert _same(tate.eval_at_theta(omega_for_eval(shared, work)), ev)
    cctx, ckinds = _recording_context(p, l)
    assert pi_omega_cross_check(cctx, 30).status == "equal"
    assert ckinds == {"omega"}


@pytest.mark.parametrize("p,l", LEVELS)
def test_carlitz_tower_oracle_reads_no_recursion_entry(p, l):
    bctx, bkinds = _recording_context(p, l)
    dctx, dkinds = _recording_context(p, l)
    for i in range(4 if p ** l < 5 else 3):
        assert carlitz_d_bruteforce(bctx, i) == carlitz_d(dctx, i)
    assert not bkinds and cache_stats(bctx).size == 0
    assert dkinds == {"D"}
