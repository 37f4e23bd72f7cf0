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
c*p^j rotates digit j.  Each mul row is one C-level gather
(`operator.itemgetter` over the logs) from a slice of exp, so the build
costs O(n) Python steps and O(n^2) element copies in C instead of one
polynomial reduction per pair; tests/test_ffield.py keeps the pairwise
reduction as the oracle every table is compared against.

`dense_sums(spec, sums)` is the one dense product kernel, used by Laurent
series, Tate products and theta-polynomials: for each output it sums the
products z^s * a * b of coefficient lists, each term shifted by s, and
`dense_mul(spec, a, b, n)` is its one-term case.  A pair's path depends on
m and on the rows a schoolbook would run, the nonzero coefficients of its
shorter factor (series in z^(q-1), and twisted ones, are mostly zeros).
m = 1 with `_PACKED_MIN` rows: the pair joins its output's packed sum,
one big-int product per pair, shifted by s slots, added, and unpacked once
per output, in byte-aligned `array` slots (8 to 64 bits) wide enough for
(p-1)^2 times that output's sum of min(len a, len b), so no slot carries;
each list is packed once per slot width in a call.  m = 2 with
`_KARATSUBA_MIN` rows: the same over the two digits of each encoding, three
packed sums combined by Karatsuba.  Fewer rows, or m >= 3: the table
schoolbook, one row per nonzero coefficient, added into the output.  The
oracle for every path is the double loop in tests/test_ffield.py.  The
primitive-element search, which builds the tables the kernel reads, uses
the plain list product `fp_list_mul`.
`power` is the one square-and-multiply loop, for every ring that has one.

Primality is a deterministic Miller-Rabin over the prime bases 2..41, exact
below 3317044064679887385961981 and refused from there on; `field(p, m)`
checks the table cap before it tests p.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

from .errors import ConventionError, FieldSizeError

_TABLE_CAP = 4096

# fewest schoolbook rows at which the packed (m = 1) and Karatsuba (m = 2)
# paths of dense_sums beat the table schoolbook (measured, see CHANGES.md)
_PACKED_MIN, _KARATSUBA_MIN = 2, 10
_SLOTS = tuple((array(c).itemsize * 8, c) for c in "BHIQ")  # (bits, typecode), narrowest first


# Miller-Rabin over the primes 2..41 is exact below _PRIME_LIMIT, the least
# strong pseudoprime to all of them (2..37 alone fail at 318665857834031151167461)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError from _PRIME_LIMIT on, where it is not exact."""
    if n >= _PRIME_LIMIT:
        raise ValueError(f"primality is decided only below {_PRIME_LIMIT}, got {n}")
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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

    @cached_property
    def tables(self) -> "FieldOps":
        """The FieldOps of this spec, built on first use and kept in the
        instance dict (the frozen dataclass has no slots)."""
        return FieldOps(self)

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, m={self.m})"


def _check_table_cap(p: int, m: int) -> None:
    # p >= 2, so p^m is above the cap once m exceeds its bit length: a huge m
    # never builds p^m, and a huge order is named as a power
    if m > _TABLE_CAP.bit_length() or p**m > _TABLE_CAP:
        order = p**m if m * p.bit_length() <= 256 else f"{p}^{m}"
        raise FieldSizeError(f"field order {order} exceeds table cap {_TABLE_CAP}")


def field(p: int, m: int) -> FieldSpec:
    """Create the canonical F_{p^m}; deterministic in (p, m)."""
    if p >= 2 and m >= 1:
        _check_table_cap(p, m)  # before the primality test and the modulus search
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    return _canonical_field(p, m)


@lru_cache(maxsize=None)
def _canonical_field(p: int, m: int) -> FieldSpec:
    return FieldSpec(p, m, _least_irreducible(p, m))


def fp_list_mul(x: Sequence[int], y: Sequence[int], p: int) -> list[int]:
    """Product of nonempty F_p coefficient lists (lowest degree first), all
    len(x) + len(y) - 1 entries, trailing zeros kept."""
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                out[i + j] = (out[i + j] + a * b) % p
    return out


def power(x, e: int, one, mul=operator.mul):
    """one * x^e for e >= 0 by square-and-multiply; every product is
    mul(result, x) or mul(x, x)."""
    result = one
    while e:
        if e & 1:
            result = mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return result


def _mul_by_reduction(a: int, b: int, spec: FieldSpec) -> int:
    """Product of two encodings: polynomial product reduced by the modulus."""
    p, m = spec.p, spec.m
    prod = fp_list_mul(_decode(a, m, p), _decode(b, m, p), p)
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
        _check_table_cap(p, m)
        n = p**m
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

        # row a is exp2[log a + log b] over b >= 1: one C-level gather by the
        # logs from a slice of exp2.  An itemgetter of one index returns the
        # item, not a 1-tuple; F_2's one index is 0, where the gather is the slice
        exp2 = exp + exp
        logs = log[1:]
        get = operator.itemgetter(*logs) if n > 2 else list
        mul = [0] * (n * n)
        for a in range(1, n):
            la = log[a]
            mul[a * n + 1 : (a + 1) * n] = get(exp2[la : la + n - 1])
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


def ops(spec: FieldSpec) -> FieldOps:
    """The FieldOps of spec, read off the spec without hashing it."""
    return spec.tables


# -- the dense product kernel ----------------------------------------------------


def _slot(bound: int) -> tuple[int, str]:
    """(bits, typecode) of the narrowest byte-aligned `array` slot, 8 to 64
    bits, that holds bound.  A slot sums digit products below 2^24 each, so
    64 bits hold any sum of products that fits in memory."""
    for bits, code in _SLOTS:
        if not bound >> bits:
            break
    return bits, code


def _packed_sum(terms: list, n: int, slot: tuple[int, str], packed: dict) -> array:
    """The first n slots, unreduced, of the sum of z^s * a * b over terms
    (a, b, s, w) of digit lists: a no longer than b, w = n - s > 0.

    The slots of `slot` must hold (p-1)^2 times the sum of min(len a, w) over
    the terms: then no slot below n carries, and slots at or above n, which
    may, are cut off.  `packed` keeps each list's packed form by (id, slot
    type), for lists that stay alive while it is used.
    """
    bits, code = slot
    size, order = bits // 8, sys.byteorder
    total = 0
    for a, b, s, w in terms:
        ka, kb = (id(a), code), (id(b), code)
        x, y = packed.get(ka), packed.get(kb)
        if x is None:
            x = packed[ka] = int.from_bytes(array(code, a).tobytes(), order)
        if y is None:
            y = packed[kb] = int.from_bytes(array(code, b).tobytes(), order)
        if len(b) > w:  # only the first w coefficients of a factor reach a slot below n
            mask = (1 << bits * w) - 1
            x, y = x & mask, y & mask
        total += x * y << bits * s
    return array(code, (total & ((1 << bits * n) - 1)).to_bytes(size * n, order))


def dense_sums(spec: FieldSpec, sums: list) -> list[list[int]]:
    """For each (terms, base, n) of sums, the coefficients of z^base ..
    z^(base+n-1) of the sum of z^v * a * b over its terms (a, b, v), v >= base,
    for nonempty dense lists of encodings, lowest degree first.  Each list
    stops where the last product ends, so it is never padded past it.

    A pair whose shorter factor has `_PACKED_MIN` (m = 1) or
    `_KARATSUBA_MIN` (m = 2) nonzero coefficients below the cut joins its
    sum's packed big-int sum, shifted by v - base slots, in slots sized for
    that sum; every other pair, and every pair when m >= 3, runs the table
    schoolbook, one row per nonzero coefficient of its shorter factor.  Each
    list is packed once per slot width in a call; for m = 2 it is split once
    into its digits d0, d1 and d0 + d1 mod p, and three packed sums give the
    Karatsuba terms.
    """
    p, m = spec.p, spec.m
    least = _PACKED_MIN if m == 1 else _KARATSUBA_MIN if m == 2 else math.inf
    packed: dict = {}  # by (id, slot type): every list stays alive until the call returns
    split: dict[int, tuple] = {}  # m = 2: the digit lists, by id

    def digits(x):
        got = split.get(id(x))
        if got is None:
            d0, d1 = [c % p for c in x], [c // p for c in x]
            got = split[id(x)] = (d0, d1, [(u + v) % p for u, v in zip(d0, d1)])
        return got

    out = []
    for terms, base, n in sums:
        fast, slow, top, load = [], [], 0, 0
        for a, b, v in terms:
            s = v - base
            w = n - s
            if w <= 0:
                continue
            la, lb = len(a), len(b)
            if la > lb:
                a, b, la, lb = b, a, lb, la
            if s + la + lb - 1 > top:
                top = s + la + lb - 1
            # too short to have least rows, or too few nonzero below the cut
            if la < least or min(la, w) - (a[:w] if la > w else a).count(0) < least:
                slow.append((a, b, s, w))
            else:
                fast.append((a, b, s, w))
                load += min(la, w)
        n = max(0, min(n, top))
        if not fast:
            acc = [0] * n
        elif m == 1:
            acc = [c % p for c in _packed_sum(fast, n, _slot((p - 1) ** 2 * load), packed)]
        else:
            slot = _slot((p - 1) ** 2 * load)
            fast = [(digits(a), digits(b), s, w) for a, b, s, w in fast]
            lo, hi, mid = (_packed_sum([(x[i], y[i], s, w) for x, y, s, w in fast], n, slot, packed) for i in range(3))
            # a = a0 + a1*g digit-wise; the middle product gives the cross term
            mu0, mu1 = -spec.modulus[0] % p, -spec.modulus[1] % p  # g^2 = mu0 + mu1*g
            acc = [(u + mu0 * w) % p + p * ((v - u - w + mu1 * w) % p) for u, v, w in zip(lo, mid, hi)]
        if slow:
            o = ops(spec)
            mul, add, q = o.mul, o.add, o.n
            fresh = not fast  # acc is all zeros: its first row is written, not added
            for a, b, s, w in slow:
                lb = len(b)
                if lb > w:
                    a, b, lb = a[:w], b[:w], w
                for i, x in enumerate(a):
                    if x:
                        xq, at = x * q, s + i
                        if fresh and at + lb <= n:
                            acc[at : at + lb] = [mul[xq + y] for y in b]
                        else:
                            acc[at : at + lb] = [add[c * q + mul[xq + y]] for c, y in zip(acc[at : at + lb], b)]
                        fresh = False
        out.append(acc)
    return out


def dense_mul(spec: FieldSpec, a: list[int], b: list[int], n: int | None = None) -> list[int]:
    """The first n coefficients of a*b (all when n is None) for dense lists of
    encodings, lowest degree first: min(n, len(a) + len(b) - 1) entries, never
    padded, and none when a factor is empty.  The one-term case of dense_sums."""
    if not a or not b:
        return []
    return dense_sums(spec, [([(a, b, 0)], 0, len(a) + len(b) if n is None else n)])[0]


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
