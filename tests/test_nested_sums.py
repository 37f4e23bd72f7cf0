"""The nested tail sums of both sides of the period identity against the
per-tuple sums they replaced.

* `_mzv_oracle`: zeta(s) as the sum over every degree tuple below the
  certified cutoff of the product of its power sums.
* `_cmpl_value_oracle`: the polylogarithm value at t = theta as the sum over
  the degree tuples of the product of each tuple's factors, every factor at
  one relative precision, with the ell-inverses of `_ell_inv_pow_oracle`.
* `_ell_inv_pow_oracle`: ell_i^-e as the e-th power of the inverse of ell_i.

`mzv` and `cmpl_value` keep their tails in one context across a rising and
falling run of precisions, so later requests are served by truncation; each
result must equal its oracle on a fresh context.
"""

import pytest
from helpers import decreasing_tuples
from hypothesis import given, settings, strategies as st

from ffmzv import special
from ffmzv.carlitz import CarlitzContext
from ffmzv.errors import ConventionError
from ffmzv.ffield import ops
from ffmzv.laurent import compare_to_precision, zero as ls_zero
from ffmzv.poly import BivarPoly
from ffmzv.special import CmplSpec, Index, at_arguments, cmpl_value, mzv

LEVELS = [(2, 1), (3, 1), (2, 2), (5, 1)]


def _key(f):
    return (f.val, f.coeffs, f.prec)


def _mzv_oracle(ctx, s, prec):
    work = prec + 2
    entries = s.entries
    tuples = decreasing_tuples(
        s.dep, lambda j, v: special.power_sum_val_bound(ctx.q, v, entries[j]), work
    )
    acc = ls_zero(ctx.field, work)
    for tup in tuples:
        term = special.monic_power_sum(ctx, tup[0], entries[0], work)
        for j in range(1, s.dep):
            term = term * special.monic_power_sum(ctx, tup[j], entries[j], work)
        acc = acc + term.truncate(work)
    return acc.truncate(prec)


def _ell_inv_pow_oracle(ctx, i, e, rel):
    neg = ops(ctx.field).neg
    poly = BivarPoly.one(ctx.field)
    for a in range(1, i + 1):
        poly = poly * BivarPoly(ctx.field, {(0, 1): 1, (0, ctx.q**a): neg[1]})
    return poly.eval_theta(rel + 2).inv() ** e


def _cmpl_value_oracle(ctx, spec, prec):
    q, fld = ctx.q, ctx.field
    special.check_convergence(ctx, spec)
    if any(ui.is_zero() for ui in spec.u):
        return ls_zero(fld, prec)
    entries = spec.s.entries
    deltas = special._deltas(ctx, spec)
    tpen = [(q - 1) * ui.deg_t() for ui in spec.u]
    work = prec + 4

    def contrib(j, v):
        return q**v * deltas[j] - entries[j] * q - tpen[j]

    tuples = list(decreasing_tuples(spec.s.dep, contrib, work))
    bounds = [sum(contrib(j, ij) for j, ij in enumerate(tup)) for tup in tuples]
    rel = work - min(min(bounds, default=0), 0) + 6
    acc = ls_zero(fld, work)
    for tup, bound in zip(tuples, bounds):
        term = None
        for j, ij in enumerate(tup):
            low = -(q - 1) * (spec.u[j].deg_t() + spec.u[j].deg_theta() * q**ij)
            f = spec.u[j].eval_theta_twisted(ij * ctx.l, low + rel)
            term = f if term is None else term * f
            if ij > 0:
                term = term * _ell_inv_pow_oracle(ctx, ij, entries[j], rel)
        assert term.is_zero() or term.val >= bound, (tup, term.val, bound)
        acc = acc + term.truncate(work)
    return acc.truncate(prec)


def _perturbed(ctx, s, u):
    """u with theta^k added to its first entry, k the largest degree the
    convergence bound deg < s_1 q/(q-1) allows."""
    k = -(-s.entries[0] * ctx.q // (ctx.q - 1)) - 1
    return (u[0] + BivarPoly(ctx.field, {(0, k): 1}),) + u[1:]


INDICES = st.lists(st.integers(1, 5), min_size=1, max_size=4).filter(lambda e: sum(e) <= 8).map(tuple)
# a rise, a fall below the lowest precision (or to 1), and a rise past the peak
PRECS = st.lists(st.integers(1, 70), min_size=3, max_size=5).map(
    lambda ps: sorted(ps[:-2]) + [min(ps) - 1 or 1, max(ps) + 1 + ps[-1] % 17]
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(LEVELS), st.lists(INDICES, min_size=1, max_size=3), PRECS)
def test_nested_sums_equal_the_per_tuple_sums(level, indices, precs):
    shared = CarlitzContext(*level)
    for prec in precs:
        for entries in indices:
            s = Index(entries)
            assert _key(mzv(shared, s, prec)) == _key(_mzv_oracle(CarlitzContext(*level), s, prec))
            u = at_arguments(shared, s)
            for args in (u, _perturbed(shared, s, u)):
                got = cmpl_value(shared, CmplSpec(s, args), prec)
                want = _cmpl_value_oracle(CarlitzContext(*level), CmplSpec(s, args), prec)
                assert _key(got) == _key(want), (level, entries, prec, args is u)


@pytest.mark.parametrize("p,l", LEVELS)
def test_ell_inverse_powers_equal_the_powers_of_the_inverse(p, l):
    ctx = CarlitzContext(p, l)
    for i in range(1, 5):
        for e in range(1, 8):
            for rel in (1, 9, 40):
                got = special._ell_inv_pow(ctx, i, e, rel)
                want = _ell_inv_pow_oracle(ctx, i, e, rel)
                assert compare_to_precision(got, want).status == "equal", (i, e, rel)
                assert got.val == want.val and got.prec - got.val >= rel, (i, e, rel)


def test_a_factor_below_its_certified_bound_raises(monkeypatch):
    ell_inv_pow = special._ell_inv_pow
    # one z-digit too low: the i = 1 factor of u = 1 is ell_1^-1 itself
    monkeypatch.setattr(
        special, "_ell_inv_pow", lambda ctx, i, e, rel: ell_inv_pow(ctx, i, e, rel).shift(-1)
    )
    ctx = CarlitzContext(3, 1)
    spec = CmplSpec(Index((1,)), (BivarPoly.one(ctx.field),))
    with pytest.raises(ConventionError, match="below its certified bound"):
        cmpl_value(ctx, spec, 30)
