"""Field layer: canonical moduli, arithmetic axioms, Frobenius, the tables."""

import random
import sys
from array import array

import pytest
from helpers import field_product, field_sum
from hypothesis import given, settings, strategies as st

from ffmzv import ffield
from ffmzv.cli import main
from ffmzv.errors import ConventionError, FieldSizeError
from ffmzv.ffield import FieldSpec, field, fp_list_mul, ops
from ffmzv.motive import FiniteFieldDomain, RationalFunctionDomain


def _product_by_reduction(spec, a, b):
    # one schoolbook product of two encodings, reduced by the modulus
    p, m = spec.p, spec.m
    da, db = ffield._decode(a, m, p), ffield._decode(b, m, p)
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        if x:
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
    r = ffield._poly_mod(prod, list(spec.modulus), p)
    return ffield._encode(r + [0] * (m - len(r)), p)


def _pow_by_squaring(mul, n, a, e):
    # square-and-multiply by the product mul(x, y), negative e through a^(n-2)
    if e < 0:
        if a == 0:
            raise ZeroDivisionError
        a, e = _pow_by_squaring(mul, n, a, n - 2), -e
    if a == 0:
        return 1 if e == 0 else 0
    e %= n - 1
    result = 1
    while e:
        if e & 1:
            result = mul(result, a)
        a = mul(a, a)
        e >>= 1
    return result


def _tables_by_reduction(spec):
    """add, mul, neg, inv, frob built pair by pair by polynomial reduction."""
    p, m, n = spec.p, spec.m, spec.order
    add = [0] * (n * n)
    mul = [0] * (n * n)
    for a in range(n):
        da = ffield._decode(a, m, p)
        for b in range(a, n):
            db = ffield._decode(b, m, p)
            add[a * n + b] = add[b * n + a] = ffield._encode([x + y for x, y in zip(da, db)], p)
            mul[a * n + b] = mul[b * n + a] = _product_by_reduction(spec, a, b)
    neg = [ffield._encode([-c for c in ffield._decode(a, m, p)], p) for a in range(n)]
    by_table = lambda x, y: mul[x * n + y]  # noqa: E731
    inv = [0] + [_pow_by_squaring(by_table, n, a, n - 2) for a in range(1, n)]
    frob = [_pow_by_squaring(by_table, n, a, p) for a in range(n)]
    return {"add": add, "mul": mul, "neg": neg, "inv": inv, "frob": frob}


def _product_table(o):
    """Every product of o, row-major: entry a*n + b is a * b."""
    return [field_product(o, a, b) for a in range(o.n) for b in range(o.n)]


def _sum_table(o):
    """Every sum of o, row-major: entry a*n + b is a + b."""
    return [o.add(a, b) for a in range(o.n) for b in range(o.n)]


def _zech_row(o, c, x, y):
    """c + x*y as a schoolbook row computes it, without the log of x*y."""
    lc = o.log[c]
    return o.exp[lc + o.zech[o.log[x] + o.log[y] - lc]]


_PRIMES_TO_256 = [p for p in range(2, 257) if all(p % d for d in range(2, p))]
_FIELDS_TO_256 = [(p, m) for p in _PRIMES_TO_256 for m in range(1, 9) if p**m <= 256]
_FIELDS_TO_64 = [(p, m) for p, m in _FIELDS_TO_256 if p**m <= 64]


def _poly_divides(den, num, p):
    # tiny schoolbook remainder check over F_p, independent of the library
    num = list(num)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        c = num[-1]
        off = len(num) - len(den)
        for i, d in enumerate(den):
            num[off + i] = (num[off + i] - c * d) % p
    return not any(num)


def test_f4_modulus_is_the_unique_irreducible_quadratic():
    spec = field(2, 2)
    assert spec.modulus == (1, 1, 1)  # x^2 + x + 1
    # oracle: of the 4 monic quadratics over F_2, only x^2+x+1 has no root
    irreducible = []
    for c0 in (0, 1):
        for c1 in (0, 1):
            poly = (c0, c1, 1)
            if not any(_poly_divides((r, 1), poly, 2) for r in (0, 1)):
                irreducible.append(poly)
    assert irreducible == [(1, 1, 1)]


def test_prime_fields_and_determinism():
    assert field(2, 1).modulus == (0, 1)
    assert field(3, 1).modulus == (0, 1)
    assert field(3, 2) == field(3, 2)


def test_create_errors():
    with pytest.raises(ValueError, match="prime"):
        field(4, 1)
    with pytest.raises(ValueError, match="positive"):
        field(2, 0)


def test_f3_arithmetic():
    o = ops(field(3, 1))
    assert field_product(o, 2, 2) == 1
    assert o.add(2, 2) == field_sum(o, 2, 2) == 1
    assert field_product(o, 2, o.inv[2]) == 1


def test_f4_multiplication_example():
    o = ops(field(2, 2))
    w = ffield._encode((0, 1), 2)
    w1 = ffield._encode((1, 1), 2)
    assert field_product(o, w, w1) == 1  # w*(w+1) = w^2 + w = 1 under w^2 = w+1


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4)])
def test_qth_power_fixes_everything(p, m):
    spec = field(p, m)
    o = ops(spec)
    for v in range(spec.order):
        assert o.pow(v, spec.order) == v


def test_frobenius_examples():
    o = ops(field(2, 2))
    w = 2
    assert o.frob_n(1, 5) == 1
    assert o.frob_n(w, 1) == 3  # w^2 = w + 1
    assert o.frob_n(w, 2) == w
    for n in (1, 2, 3, 7):
        for v in range(4):
            assert o.frob_n(o.frob_n(v, n), -n) == v


def test_large_exponents_square_multiply():
    o = ops(field(3, 2))
    e = 3**64 + 7
    assert o.pow(5, e) == o.pow(5, e % (9 - 1))


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2)])
def test_field_axioms_on_1000_random_pairs(p, m):
    o = ops(field(p, m))
    n = o.n

    def add(a, b):
        return field_sum(o, a, b)

    def mul(a, b):
        return field_product(o, a, b)

    rng = random.Random(20240915)
    for _ in range(1000):
        a, b, c = (rng.randrange(n) for _ in range(3))
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_frobenius_is_ring_endomorphism_on_samples():
    o = ops(field(3, 2))
    rng = random.Random(7)
    for _ in range(300):
        a, b = rng.randrange(9), rng.randrange(9)
        assert o.frob_n(field_sum(o, a, b), 1) == field_sum(o, o.frob_n(a, 1), o.frob_n(b, 1))
        assert o.frob_n(field_product(o, a, b), 1) == field_product(o, o.frob_n(a, 1), o.frob_n(b, 1))


@given(st.integers(0, 8), st.integers(0, 30), st.integers(0, 30))
def test_pow_additivity(v, i, j):
    o = ops(field(3, 2))
    assert o.pow(v, i + j) == field_product(o, o.pow(v, i), o.pow(v, j))


@pytest.mark.parametrize("p,m", _FIELDS_TO_256)
def test_tables_equal_the_reduction_oracle(p, m):
    spec = field(p, m)
    o = ffield.FieldOps(spec)
    computed = {"add": _sum_table(o), "mul": _product_table(o)}
    for name, table in _tables_by_reduction(spec).items():
        assert computed.get(name, getattr(o, name, None)) == table, name


@pytest.mark.parametrize("p,m", [(3, 6), (2, 10), (3, 7)])
def test_large_field_products_equal_the_oracle_on_random_pairs(p, m):
    spec = field(p, m)
    o = ffield.FieldOps(spec)  # not ops(): keep the large tables out of the cache
    rng = random.Random(p * 100 + m)
    for _ in range(400):
        a, b = rng.randrange(o.n), rng.randrange(o.n)
        assert field_product(o, a, b) == _product_by_reduction(spec, a, b)
        if a:
            assert field_product(o, a, o.inv[a]) == 1


@pytest.mark.parametrize("p,m", _FIELDS_TO_256)
def test_products_with_zero_read_the_zero_tail(p, m):
    # the log of 0 is a sentinel: every sum that holds it reads 0, F_2 too
    o = ops(field(p, m))
    for a in range(o.n):
        assert field_product(o, 0, a) == field_product(o, a, 0) == 0, a


def test_largest_field_products_equal_the_oracle_on_random_pairs():
    spec = field(2, 12)
    o = ffield.FieldOps(spec)  # not ops(): keep the large tables out of the cache
    rng = random.Random(4096)
    draws = [rng.randrange(o.n) for _ in range(800)] + [0, 1, o.n - 1]
    for a, b in zip(draws, reversed(draws)):
        assert field_product(o, a, b) == _product_by_reduction(spec, a, b), (a, b)
    for a in (0, 1, o.n - 1):
        assert field_product(o, 0, a) == field_product(o, a, 0) == 0


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (3, 4), (2, 8)])
def test_lane_products_with_zeros_equal_the_scalar_products(p, m):
    dom = FiniteFieldDomain(field(p, m))
    lanes = dom.lanes(32)
    rng = random.Random(p * 10 + m)
    for _ in range(20):
        x, y = ([rng.choice([0, rng.randrange(dom.spec.order)]) for _ in range(32)] for _ in range(2))
        assert lanes.mul(x, y) == [dom.mul(a, b) for a, b in zip(x, y)]
    zero = lanes.zero()
    assert lanes.mul(zero, x) == lanes.mul(x, zero) == lanes.mul(zero, zero) == zero


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (3, 4), (2, 8)])
def test_lane_sums_with_zeros_equal_the_scalar_sums(p, m):
    dom = FiniteFieldDomain(field(p, m))
    o, lanes = ops(dom.spec), dom.lanes(32)
    rng = random.Random(p * 10 + m)
    for _ in range(20):
        x, y = ([rng.choice([0, rng.randrange(dom.spec.order)]) for _ in range(32)] for _ in range(2))
        want = [field_sum(o, a, b) for a, b in zip(x, y)]
        assert lanes.add(x, y) == [dom.add(a, b) for a, b in zip(x, y)] == want
        assert lanes.add(x, lanes.neg(x)) == lanes.zero()
    zero = lanes.zero()
    assert lanes.add(zero, x) == lanes.add(x, zero) == x and lanes.add(zero, zero) == zero


@pytest.mark.parametrize("p,m", _FIELDS_TO_64)
def test_zech_sums_and_rows_equal_the_digit_sums(p, m):
    o = ffield.FieldOps(field(p, m))
    for c in range(o.n):
        for x in range(o.n):
            assert o.add(c, x) == field_sum(o, c, x), (c, x)
            for y in range(o.n):
                if x or y:  # a row never has x = y = 0: FieldOps excludes it
                    assert _zech_row(o, c, x, y) == field_sum(o, c, field_product(o, x, y)), (c, x, y)


@pytest.mark.parametrize("p,m", [(2, 7), (2, 8), (3, 5), (5, 3), (3, 6), (2, 12)])
def test_zech_rows_equal_the_digit_sums_on_random_triples(p, m):
    o = ffield.FieldOps(field(p, m))  # not ops(): keep the large tables out of the cache
    rng = random.Random(p * 100 + m)
    for k in range(1200):
        c, x, y = (rng.randrange(o.n) for _ in range(3))
        if k % 4 == 1:
            c = 0
        elif k % 4 == 2:
            x = 0
        elif k % 4 == 3:
            y = 0
        assert o.add(c, x) == field_sum(o, c, x) and o.add(x, c) == field_sum(o, x, c), (c, x)
        if x or y:
            assert _zech_row(o, c, x, y) == field_sum(o, c, field_product(o, x, y)), (c, x, y)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 4), (3, 3), (5, 2), (2, 12)])
def test_sums_that_cancel_read_the_zero_tail(p, m):
    # a + (-a) = 0: 1 + g^d = 0 at d = log(-a) - log(a), where zech holds the sentinel
    o = ffield.FieldOps(field(p, m))
    sentinel = o.log[0]
    for a in range(1, o.n):
        assert o.add(a, o.neg[a]) == o.add(o.neg[a], a) == o.sub(a, a) == 0, a
        assert o.zech[o.log[o.neg[a]] - o.log[a]] == sentinel
        # a row whose product cancels c: c + (-1)*c
        assert _zech_row(o, a, o.neg[1], a) == _zech_row(o, a, a, o.neg[1]) == 0, a


def test_no_field_list_exceeds_8n():
    for p, m in [(3, 6), (2, 12)]:
        o = ffield.FieldOps(field(p, m))
        sizes = {name: len(getattr(o, name)) for name in o.__slots__ if hasattr(getattr(o, name), "__len__")}
        assert "add" not in sizes and "mul" not in sizes
        assert max(sizes.values()) <= 8 * o.n, sizes


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 4), (3, 3), (5, 2)])
def test_pow_and_frob_n_equal_square_and_multiply(p, m):
    o = ffield.ops(field(p, m))
    n = o.n
    mul = lambda x, y: field_product(o, x, y)  # noqa: E731
    exponents = [-(3 * n + 1), -n, -2, -1, 0, 1, 2, n - 2, n - 1, n, n + 1, 5 * n + 3, 3**40]
    for a in range(n):
        for e in exponents:
            if a == 0 and e < 0:
                with pytest.raises(ZeroDivisionError):
                    o.pow(a, e)
            else:
                assert o.pow(a, e) == _pow_by_squaring(mul, n, a, e), (a, e)
        for k in (-7 * m - 1, -m, -1, 0, 1, m, m + 1, 10**6 + 1):
            assert o.frob_n(a, k) == _pow_by_squaring(mul, n, a, p ** (k % m)), (a, k)


def test_reducible_modulus_has_no_primitive_element():
    # x^2 + 1 = (x + 1)^2 over F_2: the residue ring is not a field
    with pytest.raises(ConventionError, match="primitive"):
        ffield.FieldOps(FieldSpec(2, 2, (1, 0, 1)))


def test_field_order_above_the_table_cap_is_a_typed_error(capsys):
    with pytest.raises(FieldSizeError, match="table cap 4096"):
        ffield.FieldOps(field(2, 13))
    assert issubclass(FieldSizeError, ValueError)
    assert main(["group-closure", "--indices", "1,2", "--gf", "2,13", "--samples", "2"]) == 1
    assert "FieldSizeError" in capsys.readouterr().err


def test_field_above_the_table_cap_fails_before_the_modulus_search(monkeypatch, capsys):
    # the trial-division search for a modulus of F_(2^40) would run for minutes
    def no_search(p, m):
        raise AssertionError(f"modulus search ran for ({p}, {m})")

    monkeypatch.setattr(ffield, "_least_irreducible", no_search)
    with pytest.raises(FieldSizeError, match="table cap 4096"):
        field(2, 40)
    assert main(["group-closure", "--indices", "1,2", "--gf", "2,40", "--samples", "2"]) == 1
    assert main(["mzv", "--p", "2", "--l", "40", "--index", "1", "--prec", "3"]) == 1
    assert capsys.readouterr().err.count("FieldSizeError: field order 1099511627776 exceeds") == 2


def test_field_spec_is_interned():
    assert field(3, 4) is field(3, 4)
    assert field(3, 4) is not field(3, 3)
    # a spec built directly still works wherever an equal interned one does
    twin = FieldSpec(3, 4, field(3, 4).modulus)
    assert twin is not field(3, 4)
    assert ops(twin).add(5, 7) == field_sum(ops(field(3, 4)), 5, 7)


def test_ops_looks_up_directly_built_specs_by_identity():
    canonical = field(3, 2)  # modulus x^2 + 1
    twin = FieldSpec(3, 2, canonical.modulus)
    assert ffield.ops(twin) is ffield.ops(twin)
    assert _product_table(ffield.ops(twin)) == _product_table(ffield.ops(canonical))
    # other moduli get their own tables, even where a dropped spec's id comes back
    for modulus in [(2, 1, 1), (2, 2, 1)]:
        spec = FieldSpec(3, 2, modulus)
        assert ffield.ops(spec).spec == spec
        assert _product_table(ffield.ops(spec)) == _tables_by_reduction(spec)["mul"]
        del spec


# -- the dense product kernel ------------------------------------------------


def schoolbook_product(spec, a, b):
    """The pairwise schoolbook every dense_mul path is compared against (oracle)."""
    o = ffield.ops(spec)
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = field_sum(o, out[i + j], field_product(o, x, y))
    return out


# every dense_mul path: packed (m = 1), Karatsuba (m = 2), schoolbook (m = 3)
KERNEL_FIELDS = [(2, 1), (3, 1), (5, 1), (251, 1), (2, 2), (3, 2), (5, 2), (2, 3), (3, 3)]


@st.composite
def _factor_pairs(draw):
    # F_9 also under x^2 + x + 2, whose g^2 = -2 - g exercises both Karatsuba terms
    spec = draw(st.sampled_from([field(p, m) for p, m in KERNEL_FIELDS] + [FieldSpec(3, 2, (2, 1, 1))]))
    p, m = spec.p, spec.m
    top = 8 * max(ffield._PACKED_MIN, ffield._KARATSUBA_MIN)  # both sides of each crossover

    def factor():
        length = draw(st.integers(0, top))
        out = [0] * length
        # dense, all zero, or a few nonzero rows spread over a long factor
        kind = draw(st.sampled_from(["dense", "zero", "sparse"]))
        for i in {"dense": range(length), "zero": (), "sparse": range(0, length, 7)}[kind]:
            out[i] = draw(st.integers(0, p**m - 1))
        return out

    a = factor()
    return spec, a, a if draw(st.booleans()) else factor()  # a * a: a square


@settings(max_examples=200, deadline=None)
@given(_factor_pairs())
def test_dense_mul_equals_the_table_schoolbook(case):
    spec, a, b = case
    full = schoolbook_product(spec, a, b)
    assert ffield.dense_mul(spec, a, b) == full
    # every truncation, and past the full length (never padded)
    for n in range(len(full) + 2):
        assert ffield.dense_mul(spec, a, b, n) == full[:n]


@pytest.mark.parametrize(
    "p,short,bits",
    [(2, 255, 8), (2, 256, 16), (3, 63, 8), (3, 64, 16), (251, 2, 32), (4093, 256, 32), (4093, 257, 64)],
)
def test_packed_slots_hold_the_largest_coefficient_sums(p, short, bits):
    # all digits p - 1: every slot sum is at its largest
    a, b = [p - 1] * short, [p - 1] * (short + 3)
    n = len(a) + len(b) - 1
    # the slot dense_sums picks: (p-1)^2 times min(len a, len b) terms per slot
    width = ffield._width((p - 1) ** 2 * short)
    prod = ffield._packed_sum([(a, b, 0, n)], n, width, {})
    assert width == bits == prod.itemsize * 8
    terms = [min(k, short - 1) - max(0, k - len(b) + 1) + 1 for k in range(len(a) + len(b) - 1)]
    assert list(prod) == [(p - 1) ** 2 * t for t in terms]
    # random digits against an integer schoolbook (F_4093 has no tables)
    rng = random.Random(p * short)
    a = [rng.randrange(p) for _ in range(short)]
    b = [rng.randrange(p) for _ in range(short + 3)]
    expect = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            expect[i + j] += x * y
    assert ffield.dense_mul(field(p, 1), a, b) == [c % p for c in expect]
    assert ffield.dense_mul(field(p, 1), a, b, short) == [c % p for c in expect[:short]]


# -- primality -----------------------------------------------------------------


def _trial_division(n):
    """The trial division _is_prime replaced (oracle)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division_below_10_5():
    assert [n for n in range(-10, 10**5) if ffield._is_prime(n)] == [
        n for n in range(-10, 10**5) if _trial_division(n)
    ]


def test_is_prime_on_large_primes_and_strong_pseudoprimes():
    for n in [100000000000031, 999999937, 2**61 - 1, 10**24 + 7]:
        assert ffield._is_prime(n), n
    # the least strong pseudoprimes to the prime bases up to 7, 31 and 37; a
    # Carmichael number; squares of primes
    for n in [3215031751, 3825123056546413051, 318665857834031151167461, 561, 4099**2, (2**31 - 1) ** 2]:
        assert not ffield._is_prime(n), n


def test_is_prime_refuses_numbers_from_the_limit_on():
    limit = ffield._PRIME_LIMIT
    assert not ffield._is_prime(limit - 1)
    for n in (limit, limit + 2, 10**30):
        with pytest.raises(ValueError, match=str(limit)):
            ffield._is_prime(n)


def test_table_cap_comes_before_the_primality_test(monkeypatch):
    def no_test(n):
        raise AssertionError(f"primality tested for {n}")

    monkeypatch.setattr(ffield, "_is_prime", no_test)
    for p, m in [(100000000000031, 1), (4099, 1), (2, 13)]:
        with pytest.raises(FieldSizeError, match="table cap 4096"):
            field(p, m)


def test_huge_degrees_are_refused_without_building_the_order(capsys):
    # 2^20000 has more digits than int-to-text conversion allows by default
    for m in (20000, 10**12):
        with pytest.raises(FieldSizeError, match=f"field order 2\\^{m} exceeds table cap 4096"):
            field(2, m)
    assert main(["omega", "--l", "20000"]) == 1
    assert "error: FieldSizeError: field order 2^20000" in capsys.readouterr().err


_LITTLE_HOST = sys.byteorder == "little"  # read before any test patches it


class _BigEndianArray(array):
    """An `array` whose bytes are laid out as a big-endian host lays them
    out: each item most significant byte first."""

    def __new__(cls, code, init=()):
        out = super().__new__(cls, code, init)
        if isinstance(init, bytes) and _LITTLE_HOST:
            out.byteswap()
        return out

    def tobytes(self):
        out = array(self.typecode, self)
        if _LITTLE_HOST:
            out.byteswap()
        return out.tobytes()


@pytest.mark.parametrize("p,short,bits", [(3, 7, 8), (3, 64, 16), (251, 2, 32)])
def test_packed_products_are_exact_on_a_big_endian_host(monkeypatch, p, short, bits):
    # the slot packing is little-endian whatever the host: with the host's
    # byte order and its `array` layout both big-endian, a packed dense_mul
    # (slots of `bits`) and an F_3(t) product spread to 16-bit slots (63
    # products of 2^2 fill a byte) equal the integer schoolbook
    rng = random.Random(bits)
    a = [rng.randrange(1, p) for _ in range(short)]
    b = [rng.randrange(1, p) for _ in range(short + 3)]
    n = len(a) + len(b) - 1
    assert ffield._width((p - 1) ** 2 * short) == bits
    dom = RationalFunctionDomain(3)
    x, y = ([rng.randrange(3) for _ in range(70)] + [1] for _ in range(2))
    frac = lambda num: (dom.encode(num), dom.encode([1]))  # noqa: E731
    monkeypatch.setattr(sys, "byteorder", "big")
    monkeypatch.setattr(ffield, "array", _BigEndianArray)
    assert ffield.dense_mul(field(p, 1), a, b, n - 1) == fp_list_mul(a, b, p)[: n - 1]
    assert dom.mul(frac(x), frac(y)) == frac(fp_list_mul(x, y, 3))
