"""Laurent layer: the uniformizer convention, precision propagation, twists."""

import random

import pytest
from helpers import field_product, field_sum, theta

from ffmzv.errors import PrecisionError
from ffmzv.ffield import field, ops
from ffmzv.laurent import (
    LaurentSeries,
    compare_to_precision,
    from_rational,
    from_theta_poly,
    monomial,
    one,
    theta_pow,
    to_text,
    twist,
    zero,
)

F3 = field(3, 1)
F2 = field(2, 1)


def _rand_series(rng, fld, minval=-6, length=12, prec=24):
    val = rng.randrange(minval, 3)
    coeffs = [rng.randrange(fld.order) for _ in range(length)]
    coeffs[0] = rng.randrange(1, fld.order)
    return LaurentSeries(fld, val, coeffs, prec)


def test_theta_is_minus_z_pow():
    th = theta(F3, 20)
    assert (th.val, th.coeffs) == (-2, [2])
    inv = th.inv()
    assert (inv.val, inv.coeffs) == (2, [2])  # 1/theta = -z^(q-1)
    assert to_text(th * inv).startswith("1 + O(")


def test_embed_rational_divides_back():
    # 1/(theta^3 - theta) at q=3: valuation +6, and multiplying back gives 1
    s = from_rational(F3, {0: 1}, {3: 1, 1: 2}, 30)
    assert s.val == 6
    back = s * from_theta_poly(F3, {3: 1, 1: 2}, 60)
    assert compare_to_precision(back, one(F3, 30)).status == "equal"


def test_embed_rational_exact_polynomial():
    s = from_rational(F3, {1: 1}, {0: 1}, 20)
    assert (s.val, s.coeffs) == (-2, [2])
    with pytest.raises(ZeroDivisionError):
        from_rational(F3, {0: 1}, {}, 20)


def test_geometric_series():
    g = LaurentSeries(F3, 0, [1, 2], 10)  # 1 - z
    assert g.inv().coeffs == [1] * 10


def test_valuation_additivity_random():
    rng = random.Random(11)
    for _ in range(200):
        a = _rand_series(rng, F3)
        b = _rand_series(rng, F3)
        assert (a * b).val == a.val + b.val


def test_pow_theta_matches_twist():
    for fld, q, l in [(F3, 3, 1), (F2, 2, 1), (field(2, 2), 4, 2)]:
        th = theta(fld, 40)
        diff = th**q - twist(th, l)
        assert diff.is_zero()


def test_twist_is_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(100):
        a = _rand_series(rng, F2)
        b = _rand_series(rng, F2)
        assert compare_to_precision(twist(a * b, 1), twist(a, 1) * twist(b, 1)).status == "equal"
        assert compare_to_precision(twist(a + b, 1), twist(a, 1) + twist(b, 1)).status == "equal"


def test_twist_scales_valuation_and_precision():
    z1 = monomial(F2, 1, 1, 9)
    t = twist(z1, 1)
    assert (t.val, t.prec) == (2, 18)
    t3 = twist(z1, 3)
    assert (t3.val, t3.prec) == (8, 72)


def test_double_inverse():
    rng = random.Random(3)
    for _ in range(100):
        a = _rand_series(rng, F3)
        assert compare_to_precision(a.inv().inv(), a).status == "equal"


def test_rational_multiplicativity():
    num, den = {2: 1, 0: 1}, {3: 1, 1: 2}
    lhs = from_rational(F3, num, den, 24) * from_theta_poly(F3, den, 48)
    rhs = from_theta_poly(F3, num, 24)
    assert compare_to_precision(lhs, rhs).status == "equal"


def test_norm_exponents():
    # |f| = |theta|^e for a series that is not zero to precision, e = -val/(q-1)
    step = F3.order - 1
    th = theta(F3, 10)
    assert not th.is_zero() and th.val == -1 * step
    assert not th.inv().is_zero() and th.inv().val == 1 * step
    assert zero(F3, 10).is_zero()
    a, b = theta_pow(F3, 2, 20), theta_pow(F3, 3, 20)
    assert not (a * b).is_zero() and (a * b).val == a.val + b.val == -5 * step


def test_compare_cases():
    f = _rand_series(random.Random(1), F3)
    assert compare_to_precision(f, f).status == "equal"
    a = LaurentSeries(F3, 1, [1], 9)  # z
    b = LaurentSeries(F3, 1, [1, 1], 9)  # z + z^2
    st = compare_to_precision(a, b)
    assert (st.status, st.exponent) == ("unequal", 2)
    # zero to O(z^5) vs z^7 + O(z^9): difference below joint precision
    za = zero(F3, 5)
    zb = LaurentSeries(F3, 7, [1], 9)
    cmp = compare_to_precision(za, zb)
    assert (cmp.status, cmp.exponent) == ("equal", 5)
    # a vacuous equality carries its (useless) joint precision for the caller
    low = compare_to_precision(zero(F3, -3), one(F3, 20))
    assert (low.status, low.exponent) == ("equal", -3)


def test_inverting_zero_to_precision_raises():
    with pytest.raises(PrecisionError):
        zero(F3, 8).inv()


def test_precision_rules():
    a = LaurentSeries(F3, -2, [1, 1], 10)
    b = LaurentSeries(F3, 1, [2], 7)
    assert (a + b).prec == 7
    assert (a * b).prec == min(-2 + 7, 1 + 10)
    assert a.inv().prec == 10 - 2 * (-2)


from hypothesis import given, settings, strategies as st

_series = st.builds(
    lambda val, coeffs, slack: LaurentSeries(F3, val, coeffs, val + len(coeffs) + slack),
    st.integers(-5, 5),
    st.lists(st.integers(0, 2), min_size=1, max_size=10),
    st.integers(0, 4),
)


@settings(max_examples=60, deadline=None)
@given(_series, _series, _series)
def test_ring_laws(a, b, c):
    assert compare_to_precision((a + b) * c, a * c + b * c).status == "equal"
    assert compare_to_precision(a * (b * c), (a * b) * c).status == "equal"
    assert compare_to_precision(a * b, b * a).status == "equal"


# -- the strided inverse against the dense recurrence ------------------------------


def _dense_inv(f):
    """1/f by the dense recurrence over every output and offset (oracle)."""
    o = ops(f.field)
    v = f.val
    rel = f.prec - v
    fa = f.coeffs
    la = len(fa)
    c0inv = o.inv[fa[0]]
    out = [0] * rel
    out[0] = c0inv
    neg = o.neg
    for k in range(1, rel):
        acc = 0
        for j in range(1, min(k, la - 1) + 1):
            aj = fa[j]
            if aj:
                acc = field_sum(o, acc, field_product(o, aj, out[k - j]))
        out[k] = field_product(o, c0inv, neg[acc])
    return LaurentSeries(f.field, -v, out, f.prec - 2 * v)


_INV_FIELDS = {2: field(2, 1), 3: F3, 4: field(2, 2), 5: field(5, 1), 9: field(3, 2)}


@st.composite
def _strided_series(draw):
    """A series whose nonzero offsets lie on a stride, optionally with one
    off-stride term, at a random precision."""
    fld = _INV_FIELDS[draw(st.sampled_from(sorted(_INV_FIELDS)))]
    q = fld.order
    stride = draw(st.integers(1, 16))
    rows = draw(st.lists(st.integers(0, q - 1), min_size=0, max_size=24))
    coeffs = [draw(st.integers(1, q - 1))]
    for c in rows:
        coeffs += [0] * (stride - 1) + [c]
    off = draw(st.integers(0, len(coeffs)))
    if off % stride and draw(st.booleans()):
        # one term off the stride: the gcd drops although most terms lie on it
        coeffs += [0] * (off + 1 - len(coeffs))
        coeffs[off] = draw(st.integers(1, q - 1))
    val = draw(st.integers(-40, 10))
    return LaurentSeries(fld, val, coeffs, val + draw(st.integers(1, 160)))


@settings(max_examples=300, deadline=None)
@given(_strided_series())
def test_strided_inverse_matches_dense_recurrence(f):
    got, want = f.inv(), _dense_inv(f)
    assert (got.val, got.coeffs, got.prec) == (want.val, want.coeffs, want.prec)


def test_strided_inverse_edge_cases():
    for fld in _INV_FIELDS.values():
        c = fld.order - 1  # a nonzero encoding
        cases = [
            LaurentSeries(fld, -3, [c], 40),  # the lead alone
            LaurentSeries(fld, 0, [c, 0, 0, 0, 1], 3),  # every other term at or past prec
            LaurentSeries(fld, 2, [1] + [0] * 5 + [c] + [0] * 5 + [1] + [0] * 4 + [c], 90),
            # gcd 1 although all but one term lie on a stride of 6
            LaurentSeries(fld, -5, [1, 0, 0, 0, 0, 0, c, 0, 0, 0, 0, 0, 1, c], 70),
        ]
        for f in cases:
            got, want = f.inv(), _dense_inv(f)
            assert (got.val, got.coeffs, got.prec) == (want.val, want.coeffs, want.prec)
