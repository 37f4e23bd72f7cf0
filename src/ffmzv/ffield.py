"""Arithmetic in finite fields F_{p^m} with Frobenius.

Elements are encoded as integers in [0, p^m): the encoding of the residue
class c_0 + c_1*g + ... + c_{m-1}*g^{m-1} (g a root of the modulus) is
sum(c_i * p^i).  The modulus for (p, m) is the monic irreducible of degree m
whose non-leading coefficient vector has the least integer encoding, so the
same (p, m) always yields the same field, bit for bit.  `field(p, m)` returns
one shared FieldSpec per (p, m), so compatibility checks can test identity
before equality.

For fields with p^m <= 4096 full add/mul tables are precomputed by
:class:`FieldOps`, and callers work on raw encodings through the cached
FieldOps object.  Larger fields raise FieldSizeError, in `field(p, m)`
before the modulus search.  The tables come from discrete logarithms: the
least primitive element g (in encoding order) is found by stepping powers
with one polynomial product mod the modulus each, which gives exp[k] = g^k
and its inverse permutation log.  Then mul[a, b] = exp[log a + log b],
inverses, negatives and Frobenius powers are exp/log lookups, and each add
row is a block rotation of an earlier row, because adding a single digit
c*p^j rotates digit j.  The build costs O(n^2) list writes instead of one
polynomial reduction per pair; tests/test_ffield.py keeps the pairwise
reduction as the oracle every table is compared against.

`dense_mul(spec, a, b, n)` is the one dense product of coefficient lists,
used by Laurent series and theta-polynomials.  Its path depends on m and on
the rows a schoolbook would run, the nonzero coefficients of the shorter
factor (series in z^(q-1) are mostly zeros).  m = 1: one big-int product
with each coefficient in a byte-aligned `array` slot (8 to 64 bits) wide
enough for (p-1)^2 * min(len a, len b), so no slot carries.  m = 2:
Karatsuba, three packed F_p products over the two digits of each encoding.
m >= 3 or few rows: the table schoolbook.  The oracle for every path is the
double loop in tests/test_ffield.py.  The primitive-element search keeps its
own product, because it builds the tables the kernel reads.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import ConventionError, FieldSizeError

_TABLE_CAP = 4096

# fewest schoolbook rows at which the packed (m = 1) and Karatsuba (m = 2)
# paths of dense_mul beat the table schoolbook (measured, see CHANGES.md)
_PACKED_MIN, _KARATSUBA_MIN = 2, 10
_SLOTS = tuple((array(c).itemsize * 8, c) for c in "BHIQ")  # (bits, typecode), narrowest first


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    # remainder of num by den over F_p; den monic
    num = num[:]
    dd = len(den) - 1
    while len(num) - 1 >= dd and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) - 1 < dd:
            break
        lead = num[-1]
        shift = len(num) - 1 - dd
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - lead * c) % p
    while num and num[-1] == 0:
        num.pop()
    return num


def _poly_is_irreducible(poly: list[int], p: int) -> bool:
    deg = len(poly) - 1
    if deg == 1:
        return True
    # trial division by every monic polynomial of degree 1..deg//2
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            den = _decode(code, d, p) + [1]
            if not _poly_mod(poly[:], den, p):
                return False
    return True


def _decode(code: int, length: int, p: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(code % p)
        code //= p
    return out


def _encode(coeffs: Sequence[int], p: int) -> int:
    val = 0
    for c in reversed(coeffs):
        val = val * p + (c % p)
    return val


def _least_irreducible(p: int, m: int) -> tuple[int, ...]:
    for code in range(p**m):
        poly = _decode(code, m, p) + [1]
        if _poly_is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError("no irreducible polynomial found")  # unreachable


@dataclass(frozen=True)
class FieldSpec:
    """Defining data of F_{p^m}: characteristic, degree, canonical modulus."""

    p: int
    m: int
    modulus: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.p**self.m

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, m={self.m})"


def _check_table_cap(order: int) -> None:
    if order > _TABLE_CAP:
        raise FieldSizeError(f"field order {order} exceeds table cap {_TABLE_CAP}")


def field(p: int, m: int) -> FieldSpec:
    """Create the canonical F_{p^m}; deterministic in (p, m)."""
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    _check_table_cap(p**m)  # before the modulus search, which grows with p^m
    return _canonical_field(p, m)


@lru_cache(maxsize=None)
def _canonical_field(p: int, m: int) -> FieldSpec:
    return FieldSpec(p, m, _least_irreducible(p, m))


def _mul_by_reduction(a: int, b: int, spec: FieldSpec) -> int:
    """Product of two encodings: polynomial product reduced by the modulus."""
    p, m = spec.p, spec.m
    db = _decode(b, m, p)
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(_decode(a, m, p)):
        if x:
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
    return _encode(_poly_mod(prod, list(spec.modulus), p), p)


def _primitive_powers(spec: FieldSpec) -> list[int]:
    """[g^0, g^1, ..., g^(n-2)] for the least primitive element g."""
    n = spec.order
    for g in range(1, n):
        exp, x = [], 1
        while len(exp) < n - 1:
            exp.append(x)
            x = _mul_by_reduction(x, g, spec)
            if x == 1:
                break
        if len(exp) == n - 1:
            break
    if sorted(exp) != list(range(1, n)):
        raise ConventionError(f"no primitive element found in {spec}")
    return exp


class FieldOps:
    """Precomputed arithmetic tables for one FieldSpec (internal fast path).

    add/mul are row-major n*n tables; exp[k] = g^k for the primitive element
    g and log inverts it on nonzero encodings (log[0] is a placeholder);
    frobs[k][a] = a^(p^k) for 0 <= k < m.
    """

    __slots__ = ("spec", "n", "p", "m", "add", "mul", "neg", "inv", "frob", "exp", "log", "frobs")

    def __init__(self, spec: FieldSpec):
        p, m = spec.p, spec.m
        n = p**m
        _check_table_cap(n)
        self.spec = spec
        self.n, self.p, self.m = n, p, m
        exp = _primitive_powers(spec)
        log = [0] * n
        for k, x in enumerate(exp):
            log[x] = k
        self.exp, self.log = exp, log

        # row 0 is the identity; writing a = c*w + r with c*w the leading
        # digit of a (w = p^j), a + b rotates digit j of b by c, so in every
        # chunk of p*w entries row a is row r rotated left by c*w
        add = [0] * (n * n)
        add[:n] = range(n)
        w = 1
        for a in range(1, n):
            if a == w * p:
                w = a
            c, r = divmod(a, w)
            chunk, shift = p * w, c * w
            for base in range(0, n, chunk):
                src, dst = r * n + base, a * n + base
                add[dst : dst + chunk - shift] = add[src + shift : src + chunk]
                add[dst + chunk - shift : dst + chunk] = add[src : src + shift]
        self.add = add

        exp2 = exp + exp
        logs = log[1:]
        mul = [0] * (n * n)
        for a in range(1, n):
            la = log[a]
            mul[a * n + 1 : (a + 1) * n] = [exp2[la + lb] for lb in logs]
        self.mul = mul

        self.neg = mul[(p - 1) * n : p * n]  # row of -1
        self.inv = [0] + [exp[-lb] for lb in logs]  # g^(-lb)
        self.frob = [0] + [exp[p * lb % (n - 1)] for lb in logs]
        frobs = [list(range(n))]
        for _ in range(1, m):
            frobs.append([self.frob[x] for x in frobs[-1]])
        self.frobs = frobs

    def sub(self, a: int, b: int) -> int:
        return self.add[a * self.n + self.neg[b]]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of zero field element")
            return 1 if e == 0 else 0
        return self.exp[self.log[a] * e % (self.n - 1)]

    def frob_n(self, a: int, n_fold: int) -> int:
        return self.frobs[n_fold % self.m][a]

    def from_int(self, c: int) -> int:
        # image of the rational integer c under Z -> F_p -> F_{p^m}
        return c % self.p


_ops_by_value = lru_cache(maxsize=None)(FieldOps)  # equal specs share one FieldOps
_OPS: dict[int, tuple[FieldSpec, FieldOps]] = {}  # by id; holding the spec keeps its id unique


def ops(spec: FieldSpec) -> FieldOps:
    """The FieldOps of spec, looked up by identity instead of by hash."""
    entry = _OPS.get(id(spec))
    if entry is None:
        entry = _OPS[id(spec)] = (spec, _ops_by_value(spec))
    return entry[1]


# -- the dense product kernel ----------------------------------------------------


def _packed_mul(a: list[int], b: list[int], p: int, n: int) -> array:
    """First n unreduced coefficients of a*b for digits below p; a slot sum is
    below 2^24 * min(len a, len b), so 64 bits hold any list that fits in memory."""
    bound = (p - 1) ** 2 * min(len(a), len(b))
    for bits, code in _SLOTS:
        if not bound >> bits:
            break
    x = int.from_bytes(array(code, a).tobytes(), sys.byteorder)
    y = int.from_bytes(array(code, b).tobytes(), sys.byteorder)
    size = bits // 8
    return array(code, (x * y).to_bytes(size * (len(a) + len(b) - 1), sys.byteorder)[: size * n])


def dense_mul(spec: FieldSpec, a: list[int], b: list[int], n: int | None = None) -> list[int]:
    """The first n coefficients of a*b (all when n is None) for dense lists of
    encodings, lowest degree first: min(n, len(a) + len(b) - 1) entries, never
    padded, and none when a factor is empty."""
    if not a or not b:
        return []
    full = len(a) + len(b) - 1
    n = full if n is None else max(0, min(n, full))
    a, b = (a, b) if len(a) <= len(b) else (b, a)  # a is the shorter factor
    if len(b) > n:
        a, b = a[:n], b[:n]
    # the schoolbook runs one row per nonzero coefficient of a
    rows = len(a) - a.count(0)
    p, m = spec.p, spec.m
    if m == 1 and rows >= _PACKED_MIN:
        return [c % p for c in _packed_mul(a, b, p, n)]
    if m == 2 and rows >= _KARATSUBA_MIN:
        # a = a0 + a1*g digit-wise; the middle product gives the cross term
        a0, a1 = [c % p for c in a], [c // p for c in a]
        b0, b1 = [c % p for c in b], [c // p for c in b]
        lo, hi = _packed_mul(a0, b0, p, n), _packed_mul(a1, b1, p, n)
        a01, b01 = [(x + y) % p for x, y in zip(a0, a1)], [(x + y) % p for x, y in zip(b0, b1)]
        mid = _packed_mul(a01, b01, p, n)
        mu0, mu1 = -spec.modulus[0] % p, -spec.modulus[1] % p  # g^2 = mu0 + mu1*g
        return [(u + mu0 * w) % p + p * ((v - u - w + mu1 * w) % p) for u, v, w in zip(lo, mid, hi)]
    o = ops(spec)
    mul, add, q = o.mul, o.add, o.n
    if len(a) == 1:  # a scalar multiple of b: no sums
        base = a[0] * q
        return [mul[base + y] for y in b]
    lb = len(b)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            base = x * q
            out[i : i + lb] = [add[s * q + mul[base + y]] for s, y in zip(out[i : i + lb], b)]
    return out


def element_text(spec: FieldSpec, value: int) -> str:
    """Canonical text in the polynomial basis: '0', '1', 'g+1', '2*g^3+1', ..."""
    if spec.m == 1:
        return str(value % spec.p)
    digits = _decode(value, spec.m, spec.p)
    terms = []
    for i in range(spec.m - 1, -1, -1):
        c = digits[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            var = "g" if i == 1 else f"g^{i}"
            terms.append(var if c == 1 else f"{c}*{var}")
    return "+".join(terms) if terms else "0"
