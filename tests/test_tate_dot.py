"""Tate products and residual entries as one packed sum per t-degree, checked
against the pair-by-pair loops they replaced.

`_mul_loop` is the old `TateElement.__mul__`: one Laurent product and one
Laurent sum for every pair of t-coefficients.  `_residual_entry_loop` is the
old zero check of a residual entry (now `tate.residual_value`): per Phi
entry one Tate product (by `_mul_loop`), a truncation and a Tate add.  Both keep the certificate rule `tate._combine`.
The new paths must agree bit for bit: (val, coeffs, prec) of every
coefficient, (tdeg, tail, exact) of every element, and every ZeroCheck.

Operands range over F_2, F_3, F_4 and F_8 (so the m >= 3 schoolbook runs
too); exact, certified and uncertified elements; dense, sparse and all-zero
coefficient lists and coefficients that are zero to precision; and twists by
p^n up to 64, whose sparse columns keep the table schoolbook.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ffmzv import motive, tate
from ffmzv.carlitz import CarlitzContext
from ffmzv.ffield import field
from ffmzv.laurent import LaurentSeries, zero as ls_zero
from ffmzv.special import Index, at_arguments
from ffmzv.tate import TateElement

FIELDS = [field(p, m) for p, m in [(2, 1), (3, 1), (2, 2), (2, 3)]]


def _mul_loop(a, b):
    """The old TateElement.__mul__ (oracle)."""
    a._compat(b)
    d, tail, exact = tate._combine(a, b, product=True)
    out = []
    for k in range(d + 1):
        acc = None
        for i in range(max(0, k - b.tdeg), min(k, a.tdeg) + 1):
            term = a.coeffs[i] * b.coeffs[k - i]
            acc = term if acc is None else acc + term
        if acc is None:
            acc = ls_zero(a.field, a.coeffs[0].prec)
        out.append(acc)
    return TateElement(a.field, out, tail, exact)


def _dot_loop(pairs, tdeg):
    """The sum of truncated products, added left to right (oracle)."""
    acc = None
    for x, y in pairs:
        term = _mul_loop(x, y).truncate_tdeg(tdeg)
        acc = term if acc is None else acc + term
    return acc


def _residual_entry_loop(res, a, entry, col):
    """The old zero check of a residual entry (oracle)."""
    acc = None
    for mat, tw in zip(res.mats[a], col):
        if mat is None:
            continue
        term = _mul_loop(mat, tw).truncate_tdeg(res.tdeg)
        acc = term if acc is None else acc + term
    resid = entry.truncate_tdeg(res.tdeg) + -acc if acc is not None else entry
    return tate.zero_check(resid)


def _snapshot(f):
    tail = None if f.tail is None else tuple((type(x), x) for x in f.tail)
    return [(c.val, c.coeffs, c.prec) for c in f.coeffs], f.tdeg, tail, f.exact


_slopes = st.one_of(st.integers(-2, 8), st.builds(Fraction, st.integers(-6, 24), st.integers(1, 4)))


@st.composite
def _series(draw, fld):
    """A coefficient: dense, sparse or all-zero digits, or zero to precision
    (its precision may cut the digits it is given)."""
    val = draw(st.integers(-6, 6))
    length = draw(st.integers(0, 24))
    kind = draw(st.sampled_from(["dense", "sparse", "zero"]))
    cs = [0] * length
    for i in {"dense": range(length), "sparse": range(0, length, 5), "zero": ()}[kind]:
        cs[i] = draw(st.integers(0, fld.order - 1))
    return LaurentSeries(fld, val, cs, val + draw(st.one_of(st.integers(-2, length + 4), st.just(10**6))))


@st.composite
def _operand(draw, fld):
    """An exact, certified or uncertified element of t-degree 0..5, twisted
    by p^n <= 64 or not."""
    coeffs = [draw(_series(fld)) for _ in range(draw(st.integers(0, 5)) + 1)]
    kind = draw(st.sampled_from(["exact", "certified", "uncertified"]))
    tail = (draw(_slopes), draw(_slopes)) if kind == "certified" else None
    f = TateElement(fld, coeffs, tail, kind == "exact")
    most = max(n for n in range(7) if fld.p**n <= 64)
    return tate.twist(f, draw(st.sampled_from([0, 0, 1, most])))


@st.composite
def _pairs(draw):
    fld = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    return [(draw(_operand(fld)), draw(_operand(fld))) for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(_pairs())
def test_products_match_the_pair_loop(pairs):
    for x, y in pairs:
        assert _snapshot(x * y) == _snapshot(_mul_loop(x, y))


@settings(max_examples=150, deadline=None)
@given(_pairs())
def test_dot_matches_the_sum_of_truncated_products_at_every_cut(pairs):
    top = max(_mul_loop(x, y).tdeg for x, y in pairs)
    for cut in range(top + 2):
        assert _snapshot(tate.dot(pairs, cut)) == _snapshot(_dot_loop(pairs, cut))


@st.composite
def _residuals(draw):
    """A residual row: exact Phi entries (some absent), a column of operands,
    the entry of Psi and the t-degree cut."""
    fld = draw(st.sampled_from(FIELDS))
    r = draw(st.integers(1, 3))
    mats = []
    for _ in range(r):
        m = draw(_operand(fld))
        mats.append(None if draw(st.booleans()) and len(mats) < r - 1 else TateElement(fld, m.coeffs, None, True))
    col = [draw(_operand(fld)) for _ in range(r)]
    entry = draw(_operand(fld))
    tdeg = draw(st.integers(0, 6))
    res = tate.Residual(fld.order, 0, tdeg, [mats], [col])
    return res, entry, col


@settings(max_examples=150, deadline=None)
@given(_residuals())
def test_residual_entry_matches_the_loop(case):
    res, entry, col = case
    got = tate.zero_check(tate.residual_value(res, 0, entry, col))
    assert got == _residual_entry_loop(res, 0, entry, col)


def test_residual_entries_of_real_systems_match_the_loop():
    # plain, mutated and derived systems; derive 3 at (2,2) twists by p^6 = 64
    for (p, l), derive in [((2, 1), 2), ((3, 1), 2), ((2, 2), 3)]:
        ctx = CarlitzContext(p, l, prec=24, tdeg=5)
        s = Index((1, 2))
        u = at_arguments(ctx, s)
        phi, psi = motive.phi_matrix(ctx, u, s), motive.psi_matrix(ctx, u, s)
        for ph, ps in [(phi, psi), (phi, motive.perturb_entry(psi, 1, 0)), (motive.derived_matrix(phi, derive), psi)]:
            res = motive._residual_setup(ph, ps)
            for a, row in enumerate(ps.entries):
                for b, e in enumerate(row):
                    got = tate.zero_check(tate.residual_value(res, a, e, res.cols[b]))
                    assert got == _residual_entry_loop(res, a, e, res.cols[b]), (p, l, a, b)
