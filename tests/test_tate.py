"""Tate layer: truncated t-series, tail certificates, evaluation at theta."""

import random
from fractions import Fraction

import pytest
from helpers import certificate_ok, t_var, theta
from hypothesis import given, settings, strategies as st

from ffmzv import tate
from ffmzv.errors import CertificateError
from ffmzv.ffield import FieldSpec, field
from ffmzv.laurent import LaurentSeries, compare_to_precision, theta_pow, zero as ls_zero
from ffmzv.poly import BivarPoly
from ffmzv.tate import (
    TateElement,
    eval_at_theta,
    from_poly,
    invert_linear_factor,
    one,
    twist,
    zero,
    zero_check,
)

F3 = field(3, 1)
F2 = field(2, 1)


def _rand_te(rng, fld, tdeg=4, prec=20):
    coeffs = []
    for _ in range(tdeg + 1):
        val = rng.randrange(-3, 4)
        cs = [rng.randrange(fld.order) for _ in range(6)]
        coeffs.append(LaurentSeries(fld, val, cs, prec))
    return TateElement(fld, coeffs, None, True)


def test_add_and_mul_basics():
    o = one(F3, 20)
    z = zero(F3, 20, 2)
    a = _rand_te(random.Random(1), F3)
    assert zero_check((a + z) + -a).ok
    t = t_var(F3, 20)
    prod = (o + t) * (o + -t)  # 1 - t^2
    assert prod.coeffs[1].is_zero()
    assert compare_to_precision(prod.coeffs[2], -(o.coeffs[0])).status == "equal"


def test_mul_matches_naive_convolution():
    rng = random.Random(77)
    for _ in range(20):
        a = _rand_te(rng, F3)
        b = _rand_te(rng, F3)
        prod = a * b
        for k in range(prod.tdeg + 1):
            acc = ls_zero(F3, 99)
            for i in range(0, k + 1):
                if i <= a.tdeg and k - i <= b.tdeg:
                    acc = acc + a.coeffs[i] * b.coeffs[k - i]
            assert compare_to_precision(prod.coeffs[k], acc).status == "equal"


def test_twist_examples():
    t = t_var(F3, 20)
    assert zero_check(twist(t, 2) + -t).ok  # coefficients in the prime field
    th_t = from_poly(BivarPoly(F3, {(1, 1): 1}), 30)  # theta*t
    tw = twist(th_t, 1)
    assert compare_to_precision(tw.coeffs[1], theta_pow(F3, 3, 30)).status == "equal"


def test_twist_is_homomorphism():
    rng = random.Random(3)
    for _ in range(10):
        a = _rand_te(rng, F2)
        b = _rand_te(rng, F2)
        lhs = twist(a * b, 1)
        rhs = twist(a, 1) * twist(b, 1)
        assert zero_check(lhs + -rhs).ok


def test_invert_linear_factor():
    c = theta_pow(F3, 3, 60)  # theta^q
    f = invert_linear_factor(c, 1, 8)
    # constant term is -theta^{-q}
    expect = -(c.inv())
    assert compare_to_precision(f.coeffs[0], expect).status == "equal"
    assert certificate_ok(f)
    # square consistency
    f2 = invert_linear_factor(c, 2, 8)
    assert zero_check(f2 + -(f * f)).ok
    # multiply back: (t - c) * (t - c)^{-1} = 1
    lin = TateElement(F3, [-c, LaurentSeries(F3, 0, [1], 60)], None, True)
    assert zero_check(lin * f + -one(F3, 40)).ok


def test_invert_linear_factor_region():
    with pytest.raises(ValueError, match="convergence region"):
        invert_linear_factor(theta_pow(F3, 3, 40).inv(), 1, 4)


def test_roundtrip_random_constants():
    rng = random.Random(21)
    for _ in range(25):
        val = -rng.randrange(1, 9)
        cs = [rng.randrange(1, 3)] + [rng.randrange(3) for _ in range(8)]
        c = LaurentSeries(F3, val, cs, 40)
        s = rng.randrange(1, 4)
        f = invert_linear_factor(c, s, 6)
        lin = TateElement(F3, [-c, LaurentSeries(F3, 0, [1], 40)], None, True)
        acc = one(F3, 40)
        for _ in range(s):
            acc = acc * lin
        assert zero_check(acc * f + -one(F3, 30)).ok


def test_eval_at_theta():
    c = theta(F3, 30)
    assert compare_to_precision(eval_at_theta(tate.from_laurent(c)), c).status == "equal"
    lin = from_poly(BivarPoly(F3, {(1, 0): 1, (0, 1): 2}), 30)  # t - theta
    assert eval_at_theta(lin).is_zero()


def test_eval_requires_certificate():
    f = _rand_te(random.Random(2), F3)
    f_uncert = TateElement(F3, f.coeffs, None, False)
    with pytest.raises(CertificateError):
        eval_at_theta(f_uncert)
    # slope at most q-1 is not summable either
    f_bad = TateElement(F3, [ls_zero(F3, 30)] * 3, (1, 0), False)
    with pytest.raises(CertificateError):
        eval_at_theta(f_bad)


def test_eval_is_ring_homomorphism_on_certified_products():
    rng = random.Random(8)
    for _ in range(10):
        # slopes -v must exceed q-1 = 2 for certified evaluation
        v1, v2 = -rng.randrange(3, 8), -rng.randrange(3, 8)
        c1 = LaurentSeries(F3, v1, [1, rng.randrange(3), rng.randrange(3)], 50)
        c2 = LaurentSeries(F3, v2, [2, rng.randrange(3)], 50)
        f = invert_linear_factor(c1, 1, 14)
        g = invert_linear_factor(c2, 2, 14)
        lhs = eval_at_theta(f * g)
        rhs = eval_at_theta(f) * eval_at_theta(g)
        assert compare_to_precision(lhs, rhs).status == "equal"


def test_certificate_validator():
    c = theta_pow(F3, 3, 40)
    f = invert_linear_factor(c, 1, 6)
    assert certificate_ok(f)
    bad = TateElement(F3, f.coeffs, (f.tail[0] + 100, f.tail[1] + 100), False)
    assert not certificate_ok(bad)


# -- the tail certificate of sums and products --------------------------------


def _add_oracle(a, b):
    """TateElement.__add__ with the four-branch certificate rule it replaced."""
    if a.exact and b.exact:
        d = max(a.tdeg, b.tdeg)
        exact, tail = True, None
    elif a.exact:
        d = b.tdeg
        exact = False
        tail = None if b.tail is None else (b.tail[0], min(b.tail[1], a._tail_shift(b.tail[0])))
    elif b.exact:
        d = a.tdeg
        exact = False
        tail = None if a.tail is None else (a.tail[0], min(a.tail[1], b._tail_shift(a.tail[0])))
    else:
        d = min(a.tdeg, b.tdeg)
        exact = False
        if a.tail is None or b.tail is None:
            tail = None
        else:
            tail = (min(a.tail[0], b.tail[0]), min(a.tail[1], b.tail[1]))
    out = []
    for k in range(d + 1):
        if k > a.tdeg:
            out.append(b.coeffs[k])
        elif k > b.tdeg:
            out.append(a.coeffs[k])
        else:
            out.append(a.coeffs[k] + b.coeffs[k])
    return TateElement(a.field, out, tail, exact)


def _mul_oracle(a, b):
    """TateElement.__mul__ with the four-branch certificate rule it replaced."""
    big = 1 << 60
    ua = a.tdeg + 1 if not a.exact else big
    ub = b.tdeg + 1 if not b.exact else big
    d = min(ua, ub, a.tdeg + b.tdeg + 1) - 1
    if a.exact and b.exact:
        d = a.tdeg + b.tdeg
        exact, tail = True, None
    elif a.exact:
        exact = False
        tail = None if b.tail is None else (b.tail[0], b.tail[1] + a._tail_shift(b.tail[0]))
    elif b.exact:
        exact = False
        tail = None if a.tail is None else (a.tail[0], a.tail[1] + b._tail_shift(a.tail[0]))
    else:
        exact = False
        if a.tail is None or b.tail is None:
            tail = None
        else:
            tail = (min(a.tail[0], b.tail[0]), a.tail[1] + b.tail[1])
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


def _snapshot(f):
    tail = None if f.tail is None else tuple((type(x), x) for x in f.tail)
    return [(c.val, c.coeffs, c.prec) for c in f.coeffs], f.tdeg, tail, f.exact


_slopes = st.one_of(
    st.integers(-2, 8),
    st.builds(Fraction, st.integers(-6, 24), st.integers(1, 4)),
)


@st.composite
def _tate_operands(draw):
    """Exact, certified (integer or Fraction slope and offset) or uncertified
    elements of t-degree 0..4; some coefficients are zero to precision."""
    coeffs = []
    for _ in range(draw(st.integers(0, 4)) + 1):
        val = draw(st.integers(-4, 4))
        cs = draw(st.lists(st.integers(0, 2), max_size=5))
        coeffs.append(LaurentSeries(F3, val, cs, val + len(cs) + draw(st.integers(0, 3))))
    kind = draw(st.sampled_from(["exact", "certified", "uncertified"]))
    if kind == "exact":
        return TateElement(F3, coeffs, None, True)
    if kind == "uncertified":
        return TateElement(F3, coeffs, None, False)
    return TateElement(F3, coeffs, (draw(_slopes), draw(_slopes)), False)


@settings(max_examples=300, deadline=None)
@given(_tate_operands(), _tate_operands())
def test_certificate_rule_matches_the_four_branch_oracle(a, b):
    assert _snapshot(a + b) == _snapshot(_add_oracle(a, b))
    assert _snapshot(a * b) == _snapshot(_mul_oracle(a, b))


def test_mixed_fields_are_refused():
    f3, f9 = field(3, 1), field(3, 2)
    a, b = LaurentSeries(f3, 0, [1], 10), LaurentSeries(f9, 0, [1], 10)
    ta, tb = tate.from_laurent(a), tate.from_laurent(b)
    for x, y in ((a, b), (b, a), (ta, tb), (tb, ta)):
        with pytest.raises(ValueError, match="mixed"):
            x + y
        with pytest.raises(ValueError, match="mixed"):
            x * y
    # a spec equal to the interned one but built directly is the same field
    twin = FieldSpec(3, 2, f9.modulus)
    assert twin is not f9
    c = LaurentSeries(twin, 0, [1], 10)
    assert compare_to_precision(b + c, b * c + b).status == "equal"
    tc = tate.from_laurent(c)
    assert zero_check((tb + tc) + -(tb * tc + tb)).ok
