"""The shared exact-arithmetic rules against the paths they replaced.

Each rule has one implementation in `src/`; the code it replaced is kept
here as the oracle:

* `_eval_theta_twisted_oracle`: a twisted (t, theta)-polynomial evaluated at
  t = theta by signing and placing each z-exponent itself, in a dict;
* `_eval_at_theta_oracle`: a Tate element at t = theta as a left-to-right
  sum of shifted and signed coefficients;
* `_poly_mat_mul_oracle`: the derived system's own sparse matrix product;
* repeated multiplication, for the one square-and-multiply loop behind the
  powers of Laurent series, (t, theta)-polynomials, Tate elements and F_p(t);
* `_TupleRationalDomain`: F_p(t) fractions of coefficient tuples, for the
  packed-int polynomials of `RationalFunctionDomain`;
* the explicit parity formulas for the factors of Omega and pi-tilde.
"""

from functools import partial, reduce
from operator import mul

import pytest
from helpers import rf_coeffs, tate_pow
from hypothesis import example, given, settings, strategies as st

from ffmzv import tate
from ffmzv.errors import BudgetError
from ffmzv.ffield import field, fp_list_mul, ops, power
from ffmzv.laurent import LaurentSeries, monomial, one, theta_combination, theta_pow
from ffmzv.motive import MAX_POWER_DEGREE, MotiveMatrix, RationalFunctionDomain, derived_matrix
from ffmzv.poly import BivarPoly

FIELDS = {2: field(2, 1), 3: field(3, 1), 4: field(2, 2), 5: field(5, 1), 9: field(3, 2)}


def _key(f: LaurentSeries):
    return (f.val, f.coeffs, f.prec)


def _tate_key(f):
    return ([_key(c) for c in f.coeffs], f.tail, f.exact)


@st.composite
def _polys(draw, fld=None, max_terms=6, max_deg=5):
    fld = fld or FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, max_deg), st.integers(0, max_deg)),
            st.integers(1, fld.order - 1),
            max_size=max_terms,
        )
    )
    return BivarPoly(fld, terms)


@st.composite
def _series(draw, fld=None):
    fld = fld or FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    val = draw(st.integers(-12, 6))
    coeffs = draw(st.lists(st.integers(0, fld.order - 1), max_size=10))
    return LaurentSeries(fld, val, coeffs, val + len(coeffs) + draw(st.integers(0, 6)))


# -- evaluation at t = theta ---------------------------------------------------------


def _eval_theta_twisted_oracle(f: BivarPoly, n: int, prec: int) -> LaurentSeries:
    o = ops(f.field)
    if not f.terms:
        return LaurentSeries(f.field, prec, [], prec)
    s = f.field.p**n
    step = f.field.order - 1
    acc: dict[int, int] = {}
    for (a, b), c in f.terms.items():
        k = a + b * s
        cc = o.frob_n(c, n) if n else c
        if k % 2:
            cc = o.neg[cc]
        z = -k * step
        prev = acc.get(z, 0)
        acc[z] = o.add[prev * o.n + cc] if prev else cc
    val = min(acc)
    out = [0] * (max(acc) - val + 1)
    for z, c in acc.items():
        out[z - val] = c
    return LaurentSeries(f.field, val, out, prec)


@settings(max_examples=300, deadline=None)
@given(_polys(), st.integers(0, 3), st.integers(-60, 80))
def test_eval_theta_twisted_matches_dict_oracle(f, n, prec):
    assert _key(f.eval_theta_twisted(n, prec)) == _key(_eval_theta_twisted_oracle(f, n, prec))


def test_eval_theta_twisted_adds_colliding_degrees():
    # t * theta and t^2 land on theta^2 and cancel when their coefficients do
    fld = FIELDS[3]
    f = BivarPoly(fld, {(1, 1): 1, (2, 0): 2, (0, 1): 1})
    assert _key(f.eval_theta_twisted(0, 20)) == _key(_eval_theta_twisted_oracle(f, 0, 20))
    assert f.eval_theta_twisted(0, 20).val == -2


def _eval_at_theta_oracle(coeffs: list[LaurentSeries]) -> LaurentSeries:
    o = ops(coeffs[0].field)
    q = coeffs[0].field.order
    acc = None
    for k, c in enumerate(coeffs):
        term = c.shift(-k * (q - 1))
        if k % 2:
            term = term.scalar_mul(o.neg[1])
        acc = term if acc is None else acc + term
    return acc


@st.composite
def _coeff_lists(draw):
    fld = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    return draw(st.lists(_series(fld), min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(_coeff_lists())
def test_theta_combination_matches_shift_and_sign_sum(coeffs):
    assert _key(theta_combination(coeffs)) == _key(_eval_at_theta_oracle(coeffs))


# -- derived systems -------------------------------------------------------------------


def _poly_mat_mul_oracle(a, b, fld):
    n = len(a)
    zero = BivarPoly.zero(fld)
    out = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k].is_zero():
                continue
            for j in range(n):
                if not b[k][j].is_zero():
                    out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


def _derived_oracle(phi: MotiveMatrix, s: int):
    acc = phi.entries
    for k in range(1, s):
        twisted = [[e.twist(k * phi.level) for e in row] for row in phi.entries]
        acc = _poly_mat_mul_oracle(acc, twisted, phi.field)
    return [list(row) for row in acc]


@st.composite
def _systems(draw):
    p, level = draw(st.sampled_from([(2, 1), (3, 1), (2, 2)]))
    fld = field(p, level)
    r = draw(st.integers(1, 3))
    rows = tuple(
        tuple(draw(_polys(fld, max_terms=3, max_deg=3)) for _ in range(r)) for _ in range(r)
    )
    return MotiveMatrix(level, rows), draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(_systems())
def test_derived_matrix_matches_poly_mat_mul_oracle(system):
    phi, s = system
    got = derived_matrix(phi, s)
    assert got.level == phi.level * s and got.size == phi.size
    assert [list(row) for row in got.entries] == _derived_oracle(phi, s)


# -- powers ------------------------------------------------------------------------------


def _repeated(x, e, unit):
    return reduce(mul, [x] * e, unit)


@settings(max_examples=200, deadline=None)
@given(_series(), st.integers(-4, 7))
def test_laurent_power_matches_repeated_multiplication(f, e):
    if e == 0:
        assert _key(f**0) == _key(one(f.field, f.prec))
        return
    if e < 0:
        with pytest.raises(ValueError, match="negative"):
            f**e
        if not f.coeffs:
            return
        f, e = f.inv(), -e
    # a product of e copies has val e*val and relative precision prec - val,
    # zero series included (val == prec, so e copies reach e*prec)
    assert _key(f**e) == _key(reduce(mul, [f] * e))


@settings(max_examples=150, deadline=None)
@given(_polys(max_terms=4, max_deg=3), st.integers(0, 5))
def test_poly_power_matches_repeated_multiplication(f, e):
    assert f**e == _repeated(f, e, BivarPoly.one(f.field))


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_tate_power_matches_repeated_multiplication(q):
    fld = FIELDS[q]
    exact = tate.from_poly(BivarPoly(fld, {(0, 0): 1, (1, 1): 1, (2, 0): fld.order - 1}), 30)
    series = tate.invert_linear_factor(theta_pow(fld, 1, 30), 1, 5)
    for f in (exact, series, exact * series):
        unit = tate.one(fld, f.coeffs[0].prec)
        for e in range(6):
            assert _tate_key(tate_pow(f, e)) == _tate_key(_repeated(f, e, unit)), (q, e)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.lists(st.integers(0, 4), min_size=1, max_size=4),
    st.lists(st.integers(0, 4), min_size=1, max_size=4),
    st.integers(-70, 70),
)
def test_rational_function_power_matches_repeated_multiplication(p, num, den, e):
    dom = RationalFunctionDomain(p)
    num = tuple(c % p for c in num)
    den = tuple(c % p for c in den)
    if not any(den):
        den = (1,) + den[1:]
    deg = max(max((i for i, c in enumerate(x) if c), default=0) for x in (num, den))
    a = (dom.encode(num), dom.encode(den))
    if abs(e) * deg > MAX_POWER_DEGREE:
        with pytest.raises(BudgetError, match="MAX_POWER_DEGREE"):
            dom.pow(a, e)
        return
    if e < 0 and dom.is_zero(a):
        with pytest.raises(ZeroDivisionError):
            dom.pow(a, e)
        return
    base = a if e >= 0 else dom.inv(a)
    want = reduce(dom.mul, [base] * abs(e), dom.one())
    assert dom.eq(dom.pow(a, e), want)


# -- F_p(t): packed-int polynomials against coefficient tuples --------------------


def _trimmed(out: list) -> tuple:
    """The coefficient list out without trailing zeros (at least one entry)."""
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


class _TupleRationalDomain:
    """F_p(t) with unreduced fractions of coefficient tuples (lowest degree
    first, trimmed), the arithmetic RationalFunctionDomain had before its
    polynomials were packed ints."""

    def __init__(self, p: int):
        self.p = p

    def _pmul(self, x, y):
        return _trimmed(fp_list_mul(x, y, self.p))

    def _padd(self, x, y):
        out = [0] * max(len(x), len(y))
        for i, a in enumerate(x):
            out[i] = a
        for i, b in enumerate(y):
            out[i] = (out[i] + b) % self.p
        return _trimmed(out)

    def one(self):
        return ((1,), (1,))

    def add(self, a, b):
        return (
            self._padd(self._pmul(a[0], b[1]), self._pmul(b[0], a[1])),
            self._pmul(a[1], b[1]),
        )

    def neg(self, a):
        return (tuple((-c) % self.p for c in a[0]), a[1])

    def mul(self, a, b):
        return (self._pmul(a[0], b[0]), self._pmul(a[1], b[1]))

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        return (a[1], a[0])

    def pow(self, a, e):
        bound = abs(e) * max(len(_trimmed(list(x))) - 1 for x in a)
        if bound > MAX_POWER_DEGREE:
            raise BudgetError(
                f"a power a^{e} over F_p(t) of degree bound {bound} (|e| * deg a) "
                f"exceeds MAX_POWER_DEGREE = {MAX_POWER_DEGREE}"
            )
        if e < 0:
            return self.pow(self.inv(a), -e)
        return power(a, e, self.one(), self.mul)

    def eq(self, a, b):
        return self._pmul(a[0], b[1]) == self._pmul(b[0], a[1])

    def is_zero(self, a):
        return not any(a[0])


# every slot kernel: p = 2 (one bit), 8-bit slots in place and spread (p = 5
# holds 15 products of 4^2 in a byte), spread from 8 and from 16 bits, from
# 32 to 64 bits, from 64 bits to whole bytes, and whole bytes throughout
RATIONAL_PRIMES = (2, 3, 5, 7, 17, 251, 257, 65537, 4294967311, 2**64 + 13)


@st.composite
def _fractions(draw, p):
    """A fraction of coefficient tuples of lengths 1 to 40 with trailing
    zeros drawn on purpose, over a nonzero denominator."""

    def poly():
        cs = draw(st.lists(st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1)), min_size=1, max_size=40))
        return tuple(cs + [0] * draw(st.integers(0, 40 - len(cs))))

    num, den = poly(), poly()
    return num, den if any(den) else (1,) + den[1:]


def _outcome(f, *args):
    try:
        return f(*args)
    except (BudgetError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


_full = (4,) * 16  # p = 5: 16 products of 4^2 overflow a byte, 15 do not


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(RATIONAL_PRIMES).flatmap(lambda p: st.tuples(st.just(p), _fractions(p), _fractions(p))),
    st.one_of(st.integers(-4, 4), st.integers(-70, 70)),
)
@example((5, (_full, _full[:15]), (_full[:15], _full)), 1)
@example((5, (_full[:8], _full[:8]), (_full[:8], _full[:8] + (0,))), 2)
@example((3, ((0, 0, 0), (1, 2, 0)), ((1, 0, 1, 0), (2,))), -43)
def test_packed_rational_functions_equal_the_tuple_oracle(fractions, e):
    p, a, b = fractions
    dom, oracle = RationalFunctionDomain(p), _TupleRationalDomain(p)
    enc = lambda f: (dom.encode(f[0]), dom.encode(f[1]))
    x, y = enc(a), enc(b)
    assert tuple(map(partial(rf_coeffs, dom), x)) == tuple(_trimmed(list(c)) for c in a)
    # the same unreduced fractions, not only equal ones
    assert dom.add(x, y) == enc(oracle.add(a, b))
    assert dom.mul(x, y) == enc(oracle.mul(a, b))
    assert dom.neg(x) == enc(oracle.neg(a))
    assert dom.is_zero(x) == oracle.is_zero(a)
    assert _outcome(dom.inv, x) == _outcome(lambda f: enc(oracle.inv(f)), a)
    assert _outcome(dom.pow, x, e) == _outcome(lambda f, k: enc(oracle.pow(f, k)), a, e)
    assert dom.eq(x, y) == oracle.eq(a, b)
    # and equality by cross-multiplication where the terms differ
    same = oracle.mul(a, (b[1], b[1]))
    assert dom.eq(x, enc(same)) and oracle.eq(a, same)
    assert dom.is_zero(dom.add(x, dom.neg(x)))


# -- the factors of Omega and pi-tilde -----------------------------------------------------


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_omega_and_pi_tilde_factors_match_parity_formulas(q):
    fld = FIELDS[q]
    o = ops(fld)
    work = 200
    for i in range(1, 5):
        # Omega: the t-coefficient of 1 - t/theta^{q^i} is (-1)^{q^i + 1} z^{(q-1)q^i}
        c = 1 if (q**i + 1) % 2 == 0 else o.neg[1]
        assert _key(-theta_pow(fld, -(q**i), work)) == _key(monomial(fld, (q - 1) * q**i, c, work))
        # pi-tilde: 1 - theta^{1-q^i} = 1 + (-1)^{q^i} z^{(q-1)(q^i-1)}
        v = (q - 1) * (q**i - 1)
        c = 1 if (q**i) % 2 == 0 else o.neg[1]
        want = LaurentSeries(fld, 0, [1] + [0] * (v - 1) + [c], work)
        assert _key(one(fld, work) - theta_pow(fld, 1 - q**i, work)) == _key(want)
    # pi-tilde's prefactor theta * (-theta)^{1/(q-1)} = theta * z^{-1} = -z^{-q}
    assert _key(theta_pow(fld, 1, work + 1).shift(-1)) == _key(monomial(fld, -q, o.neg[1], work))
