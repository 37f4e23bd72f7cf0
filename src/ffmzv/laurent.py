"""Truncated Laurent series over F_{p^m} in the ramified uniformizer z.

Convention (printed in every report): z is the fixed (q-1)-th root
z = (-theta)^(-1/(q-1)), so

    theta = -z^(-(q-1)),     (-theta)^(1/(q-1)) = z^(-1),

and |theta| = p^l corresponds to v_z(theta) = -(q-1), where q = p^l is the
order of the coefficient field (a series reads it as field.order).  A series
is stored as (val, coeffs, prec): coefficients for exponents val..val+len-1,
known modulo O(z^prec).  All coefficients below val are known zeros and the
leading stored coefficient is nonzero (normalized form); a series that is
zero to its precision has empty coeffs and val == prec.  Only this module
turns theta-powers into z-monomials, with their sign (-1)^k: `theta_pow`,
`from_theta_poly` and `theta_combination` (a sum of series times theta^k).

Precision propagates pessimistically: add/sub keep min(prec_a, prec_b); mul
keeps min(val_a + prec_b, val_b + prec_a); the inverse of a series of
valuation v known mod z^prec is known mod z^(prec - 2v).  "Zero to
precision" is distinct from exact zero: comparisons never claim inequality
below the joint precision floor, and inverting a zero-to-precision series
raises PrecisionError rather than ZeroDivisionError.

The inverse runs the recurrence out[k] = -a_0^-1 * sum_j a_j out[k-j] over
the nonzero a_j alone.  With g the gcd of their offsets j, only every g-th
output can be nonzero: the recurrence runs over those outputs and the result
is spread back onto the stride.  A theta-polynomial's z-series lives on a
stride of q-1 and its inverse powers on (q-1)^2; at q = 2, g is 1 and this
is a loop over the nonzero terms.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import PrecisionError
from .ffield import FieldSpec, dense_mul, ops, power


class LaurentSeries:
    __slots__ = ("field", "val", "coeffs", "prec")

    def __init__(self, field: FieldSpec, val: int, coeffs: list[int], prec: int):
        # normalize: drop leading zeros, drop anything at/above prec
        n = len(coeffs)
        if val + n > prec:
            n = max(0, prec - val)
            coeffs = coeffs[:n]
        i = 0
        while i < n and coeffs[i] == 0:
            i += 1
        if i == n:
            val, coeffs = prec, []
        else:
            val += i
            j = n
            while coeffs[j - 1] == 0:
                j -= 1
            coeffs = coeffs[i:j]
        self.field = field
        self.val = val
        self.coeffs = coeffs
        self.prec = prec

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        """Zero to the stored precision."""
        return not self.coeffs

    def _compat(self, other: "LaurentSeries") -> None:
        if self.field is not other.field and self.field != other.field:
            raise ValueError("mixed Laurent series rings")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._compat(other)
        prec = min(self.prec, other.prec)
        if not self.coeffs:
            return LaurentSeries(self.field, other.val, other.coeffs[:], prec)
        if not other.coeffs:
            return LaurentSeries(self.field, self.val, self.coeffs[:], prec)
        o = ops(self.field)
        add, n = o.add, o.n
        val = min(self.val, other.val)
        out = [0] * (max(self.val + len(self.coeffs), other.val + len(other.coeffs)) - val)
        lo, hi = self.val - val, self.val - val + len(self.coeffs)
        out[lo:hi] = self.coeffs
        lo, hi = other.val - val, other.val - val + len(other.coeffs)
        out[lo:hi] = [add[x * n + c] for x, c in zip(out[lo:hi], other.coeffs)]
        return LaurentSeries(self.field, val, out, prec)

    def __neg__(self) -> "LaurentSeries":
        neg = ops(self.field).neg
        return LaurentSeries(self.field, self.val, [neg[c] for c in self.coeffs], self.prec)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._compat(other)
        val = self.val + other.val
        prec = min(self.val + other.prec, other.val + self.prec)
        out = dense_mul(self.field, self.coeffs, other.coeffs, prec - val)
        return LaurentSeries(self.field, val, out, prec)

    def scalar_mul(self, c: int) -> "LaurentSeries":
        if c == 0:
            return LaurentSeries(self.field, self.prec, [], self.prec)
        o = ops(self.field)
        mul, n = o.mul, o.n
        return LaurentSeries(self.field, self.val, [mul[c * n + x] for x in self.coeffs], self.prec)

    def shift(self, k: int) -> "LaurentSeries":
        """Exact multiplication by z^k."""
        return LaurentSeries(self.field, self.val + k, self.coeffs[:], self.prec + k)

    def inv(self) -> "LaurentSeries":
        """1/self on the stride of self's nonzero offsets (module docstring)."""
        if not self.coeffs:
            raise PrecisionError("inverting a series that is zero to precision")
        o = ops(self.field)
        v = self.val
        rel = self.prec - v
        fa = self.coeffs
        c0inv = o.inv[fa[0]]
        terms = [(j, a) for j, a in enumerate(fa[1:rel], 1) if a]
        g = 0
        for j, _ in terms:
            g = gcd(g, j)
        g = g or rel  # the lead alone: only out[0] is nonzero
        terms = [(j // g, a) for j, a in terms]
        # out[k] of the stride sits at buf[top + k]; the top leading zeros
        # stand in for the terms that reach below out[0]
        top = terms[-1][0] if terms else 0
        buf = [0] * top + [c0inv]
        stop = top + (rel - 1) // g + 1
        if o.m == 1:  # F_p encodes c as the integer c
            p = o.p
            neg_c0inv = p - c0inv
            for k in range(top + 1, stop):
                buf.append(neg_c0inv * sum(a * buf[k - j] for j, a in terms) % p)
        else:
            mul, add, n = o.mul, o.add, o.n
            row = o.neg[c0inv] * n
            for k in range(top + 1, stop):
                acc = 0
                for j, a in terms:
                    acc = add[acc * n + mul[a * n + buf[k - j]]]
                buf.append(mul[row + acc])
        out = [0] * ((stop - top - 1) * g + 1)
        out[::g] = buf[top:]
        return LaurentSeries(self.field, -v, out, self.prec - 2 * v)

    def __pow__(self, e: int) -> "LaurentSeries":
        if e < 0:
            raise ValueError("negative power of a series: invert it first")
        if e == 0:
            return one(self.field, self.prec)
        # seed with relative precision prec - val: square-and-multiply then gives
        # the power's true precision e*val + prec - val (e*prec for a zero series)
        return power(self, e, one(self.field, self.prec - self.val))

    def truncate(self, prec: int) -> "LaurentSeries":
        if prec >= self.prec:
            return self
        return LaurentSeries(self.field, self.val, self.coeffs[:], prec)

    def __repr__(self) -> str:
        return f"LaurentSeries({to_text(self)})"


class Comparison(NamedTuple):
    status: str  # "equal" | "unequal"
    exponent: int  # first differing exponent, or the joint precision


def compare_to_precision(a: LaurentSeries, b: LaurentSeries) -> Comparison:
    """Compare two series on their joint known range.

    Returns "unequal" with the first differing exponent when the difference
    has a nonzero coefficient below min(prec_a, prec_b), else "equal" with
    the joint precision.  An "equal" whose joint precision falls below the
    caller's target carries no information; the report layer downgrades such
    results to "incomparable" rather than calling them passes or failures.
    """
    a._compat(b)
    joint = min(a.prec, b.prec)
    diff = a.truncate(joint) - b.truncate(joint)
    if diff.coeffs:
        return Comparison("unequal", diff.val)
    return Comparison("equal", joint)


# -- twists ------------------------------------------------------------------


def twist(f: LaurentSeries, n: int, cap: int | None = None) -> LaurentSeries:
    """n-fold Frobenius twist: exponents i -> i*p^n, coefficients a -> a^{p^n};
    with `cap`, truncated to O(z^cap) as it is built."""
    if n < 0:
        raise ValueError("twist requires n >= 0")
    if n == 0:
        return f if cap is None else f.truncate(cap)
    o = ops(f.field)
    s = f.field.p**n
    prec = f.prec * s if cap is None else min(f.prec * s, cap)
    if not f.coeffs:
        return LaurentSeries(f.field, prec, [], prec)
    # only coefficients below prec survive
    m = min(len(f.coeffs), max(0, -(-(prec - f.val * s) // s)))
    out = [0] * max(0, (m - 1) * s + 1)
    for i, c in enumerate(f.coeffs[:m]):
        if c:
            out[i * s] = o.frob_n(c, n)
    return LaurentSeries(f.field, f.val * s, out, prec)


# -- constructors --------------------------------------------------------------


def zero(field: FieldSpec, prec: int) -> LaurentSeries:
    return LaurentSeries(field, prec, [], prec)


def one(field: FieldSpec, prec: int) -> LaurentSeries:
    return LaurentSeries(field, 0, [1], prec)


def monomial(field: FieldSpec, k: int, coeff: int, prec: int) -> LaurentSeries:
    return LaurentSeries(field, k, [coeff], prec)


def theta_pow(field: FieldSpec, k: int, prec: int) -> LaurentSeries:
    """theta^k as the exact monomial (-1)^k z^(-k(q-1))."""
    o = ops(field)
    c = 1 if k % 2 == 0 else o.neg[1]
    return LaurentSeries(field, -k * (field.order - 1), [c], prec)


def from_theta_poly(field: FieldSpec, poly: dict[int, int], prec: int) -> LaurentSeries:
    """Embed sum(c_k theta^k) (k >= 0, c_k field encodings, zeros allowed)
    as a z-series."""
    if not poly:
        return zero(field, prec)
    o = ops(field)
    step = field.order - 1
    deg = max(poly)
    out = [0] * (deg * step + 1)
    for k, c in poly.items():
        if c:
            out[(deg - k) * step] = c if k % 2 == 0 else o.mul[o.neg[1] * o.n + c]
    return LaurentSeries(field, -deg * step, out, prec)


def theta_combination(coeffs: list[LaurentSeries]) -> LaurentSeries:
    """sum_k coeffs[k] * theta^k for series coeffs[k] (at least one): with
    theta^k the exact monomial (-1)^k z^(-k(q-1)), each coefficient is
    shifted and negated at odd k, and no series product is formed."""
    step = coeffs[0].field.order - 1
    acc = None
    for k, c in enumerate(coeffs):
        term = c.shift(-k * step)
        term = -term if k % 2 else term
        acc = term if acc is None else acc + term
    return acc


def from_rational(
    field: FieldSpec, num: dict[int, int], den: dict[int, int], prec: int
) -> LaurentSeries:
    """Expansion of num/den (polynomials in theta) at precision O(z^prec)."""
    if not any(den.values()):
        raise ZeroDivisionError("zero denominator polynomial")
    step = field.order - 1
    deg_n = max((k for k, c in num.items() if c), default=0)
    deg_d = max(k for k, c in den.items() if c)
    # slack so the propagated precision of the quotient reaches prec; at least
    # one digit past the denominator's valuation -(q-1)*deg_d, so that a
    # negative prec never leaves it zero to precision
    work = max(prec + 2 * deg_d * step + deg_n * step + 2, 1 - deg_d * step)
    n_series = from_theta_poly(field, num, work)
    d_series = from_theta_poly(field, den, work)
    return (n_series * d_series.inv()).truncate(prec)


def to_text(f: LaurentSeries) -> str:
    """Canonical text form 'c*z^k + ... + O(z^N)'."""
    from .ffield import element_text

    parts = []
    for i, c in enumerate(f.coeffs):
        if c:
            k = f.val + i
            ct = element_text(f.field, c)
            if "+" in ct:
                ct = f"({ct})"
            if k == 0:
                parts.append(ct)
            else:
                zk = "z" if k == 1 else f"z^{k}"
                parts.append(zk if ct == "1" else f"{ct}*{zk}")
    parts.append(f"O(z^{f.prec})")
    return " + ".join(parts)
