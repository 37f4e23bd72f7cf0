"""Field layer: canonical moduli, arithmetic axioms, Frobenius, the tables."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ffmzv import ffield
from ffmzv.cli import main
from ffmzv.errors import ConventionError, FieldSizeError
from ffmzv.ffield import FieldSpec, field, ops


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
    # square-and-multiply over a mul table, negative e through a^(n-2)
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
            result = mul[result * n + a]
        a = mul[a * n + a]
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
    inv = [0] + [_pow_by_squaring(mul, n, a, n - 2) for a in range(1, n)]
    frob = [_pow_by_squaring(mul, n, a, p) for a in range(n)]
    return {"add": add, "mul": mul, "neg": neg, "inv": inv, "frob": frob}


_PRIMES_TO_256 = [p for p in range(2, 257) if all(p % d for d in range(2, p))]
_FIELDS_TO_256 = [(p, m) for p in _PRIMES_TO_256 for m in range(1, 9) if p**m <= 256]


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
    assert o.mul[2 * 3 + 2] == 1
    assert o.add[2 * 3 + 2] == 1
    assert o.mul[2 * 3 + o.inv[2]] == 1


def test_f4_multiplication_example():
    o = ops(field(2, 2))
    w = ffield._encode((0, 1), 2)
    w1 = ffield._encode((1, 1), 2)
    assert o.mul[w * 4 + w1] == 1  # w*(w+1) = w^2 + w = 1 under w^2 = w+1


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
        return o.add[a * n + b]

    def mul(a, b):
        return o.mul[a * n + b]

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
        assert o.frob_n(o.add[a * 9 + b], 1) == o.add[o.frob_n(a, 1) * 9 + o.frob_n(b, 1)]
        assert o.frob_n(o.mul[a * 9 + b], 1) == o.mul[o.frob_n(a, 1) * 9 + o.frob_n(b, 1)]


@given(st.integers(0, 8), st.integers(0, 30), st.integers(0, 30))
def test_pow_additivity(v, i, j):
    o = ops(field(3, 2))
    assert o.pow(v, i + j) == o.mul[o.pow(v, i) * 9 + o.pow(v, j)]


@pytest.mark.parametrize("p,m", _FIELDS_TO_256)
def test_tables_equal_the_reduction_oracle(p, m):
    spec = field(p, m)
    o = ffield.FieldOps(spec)
    for name, table in _tables_by_reduction(spec).items():
        assert getattr(o, name) == table, name


@pytest.mark.parametrize("p,m", [(3, 6), (2, 10), (3, 7)])
def test_large_field_products_equal_the_oracle_on_random_pairs(p, m):
    spec = field(p, m)
    o = ffield.FieldOps(spec)  # not ops(): keep the large tables out of the cache
    rng = random.Random(p * 100 + m)
    for _ in range(400):
        a, b = rng.randrange(o.n), rng.randrange(o.n)
        assert o.mul[a * o.n + b] == _product_by_reduction(spec, a, b)
        if a:
            assert o.mul[a * o.n + o.inv[a]] == 1


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 4), (3, 3), (5, 2)])
def test_pow_and_frob_n_equal_square_and_multiply(p, m):
    o = ffield.ops(field(p, m))
    n = o.n
    exponents = [-(3 * n + 1), -n, -2, -1, 0, 1, 2, n - 2, n - 1, n, n + 1, 5 * n + 3, 3**40]
    for a in range(n):
        for e in exponents:
            if a == 0 and e < 0:
                with pytest.raises(ZeroDivisionError):
                    o.pow(a, e)
            else:
                assert o.pow(a, e) == _pow_by_squaring(o.mul, n, a, e), (a, e)
        for k in (-7 * m - 1, -m, -1, 0, 1, m, m + 1, 10**6 + 1):
            assert o.frob_n(a, k) == _pow_by_squaring(o.mul, n, a, p ** (k % m)), (a, k)


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
    assert ops(twin).add[5 * 81 + 7] == ops(field(3, 4)).add[5 * 81 + 7]


def test_ops_looks_up_directly_built_specs_by_identity():
    canonical = field(3, 2)  # modulus x^2 + 1
    twin = FieldSpec(3, 2, canonical.modulus)
    assert ffield.ops(twin) is ffield.ops(twin)
    assert ffield.ops(twin).mul == ffield.ops(canonical).mul
    # other moduli get their own tables, even where a dropped spec's id comes back
    for modulus in [(2, 1, 1), (2, 2, 1)]:
        spec = FieldSpec(3, 2, modulus)
        assert ffield.ops(spec).spec == spec
        assert ffield.ops(spec).mul == _tables_by_reduction(spec)["mul"]
        del spec


# -- the dense product kernel ------------------------------------------------


def schoolbook_product(spec, a, b):
    """The table schoolbook every dense_mul path is compared against (oracle)."""
    o = ffield.ops(spec)
    mul, add, n = o.mul, o.add, o.n
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            base = x * n
            for j, y in enumerate(b):
                if y:
                    out[i + j] = add[out[i + j] * n + mul[base + y]]
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
    prod = ffield._packed_sum([(a, b, 0, n)], n, ffield._slot((p - 1) ** 2 * short), {})
    assert prod.itemsize * 8 == bits
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
