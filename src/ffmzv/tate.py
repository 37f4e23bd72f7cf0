"""Truncated power series in t with Laurent-series coefficients.

Computational model of the Tate algebra: an element stores coefficients
c_0..c_D (each a truncated z-series with its own precision) plus a tail
certificate.  The certificate is either

  * exact   -- every coefficient beyond t^D is exactly zero (polynomials), or
  * (sigma, tau) -- a linear bound v_z(c_k) >= sigma*k + tau valid for ALL
    k >= 0 of the true series (checked against the stored range too), or
  * None    -- no claim; such elements cannot be evaluated at t = theta.

Every series built here (the period product, inverted linear factors, the
polylogarithm sums and their matrix products) has coefficient valuations
growing at least linearly in t-degree, so a linear certificate is always
available and composes: add keeps the weaker of the two bounds, mul adds
offsets and keeps the weaker slope, an n-fold twist scales both by p^n.

Evaluation at t = theta is certified: it requires slope > q-1, so that the
omitted tail sum(c_k theta^k, k > D) is O(z^((sigma-(q-1))(D+1)+tau)).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import CertificateError, PrecisionError
from .ffield import FieldSpec, ops
from .laurent import LaurentSeries
from .laurent import twist as ls_twist
from .laurent import zero as ls_zero
from .poly import BivarPoly


class TateElement:
    __slots__ = ("field", "tdeg", "coeffs", "tail", "exact")

    def __init__(
        self,
        field: FieldSpec,
        coeffs: list[LaurentSeries],
        tail: tuple | None,
        exact: bool,
    ):
        if not coeffs:
            raise ValueError("a Tate element stores at least the t^0 coefficient")
        self.field = field
        self.coeffs = coeffs
        self.tdeg = len(coeffs) - 1
        self.tail = tail
        self.exact = exact

    def _compat(self, other: "TateElement") -> None:
        if self.field is not other.field and self.field != other.field:
            raise ValueError("mixed Tate algebras")

    def is_zero_to_precision(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    # -- certificate plumbing -------------------------------------------------

    def _coeff_val_bound(self, k: int) -> int:
        # lower bound for v_z of the true k-th coefficient from storage
        c = self.coeffs[k]
        return c.val if c.coeffs else c.prec

    def _tail_shift(self, sigma) -> int | Fraction:
        # min_k (v(c_k) - sigma*k): how an exact operand shifts a partner's offset
        return min(self._coeff_val_bound(k) - sigma * k for k in range(self.tdeg + 1))

    def _combine(self, other: "TateElement", product: bool) -> tuple[int, tuple | None, bool]:
        """(t-degree, tail, exact) of self + other, or of self * other.

        Two exact operands give an exact result.  Otherwise the result is
        known up to the least t-degree of the non-exact operands and takes
        their weaker slope sigma; each operand contributes an offset at
        sigma (a series its own tau, an exact operand its _tail_shift), and
        a sum keeps the smaller offset, a product their sum.
        """
        if self.exact and other.exact:
            return (self.tdeg + other.tdeg if product else max(self.tdeg, other.tdeg)), None, True
        series = [f for f in (self, other) if not f.exact]
        d = min(f.tdeg for f in series)
        if any(f.tail is None for f in series):
            return d, None, False
        sigma = min(f.tail[0] for f in series)
        offsets = [f.tail[1] for f in series] + [
            f._tail_shift(sigma) for f in (self, other) if f.exact
        ]
        return d, (sigma, sum(offsets) if product else min(offsets)), False

    def __add__(self, other: "TateElement") -> "TateElement":
        self._compat(other)
        d, tail, exact = self._combine(other, product=False)
        out = []
        for k in range(d + 1):
            if k > self.tdeg:
                out.append(other.coeffs[k])
            elif k > other.tdeg:
                out.append(self.coeffs[k])
            else:
                out.append(self.coeffs[k] + other.coeffs[k])
        return TateElement(self.field, out, tail, exact)

    def __neg__(self) -> "TateElement":
        return TateElement(self.field, [-c for c in self.coeffs], self.tail, self.exact)

    def __sub__(self, other: "TateElement") -> "TateElement":
        return self + (-other)

    def __mul__(self, other: "TateElement") -> "TateElement":
        self._compat(other)
        d, tail, exact = self._combine(other, product=True)
        out = []
        for k in range(d + 1):
            acc = None
            lo = max(0, k - other.tdeg)
            hi = min(k, self.tdeg)
            for i in range(lo, hi + 1):
                term = self.coeffs[i] * other.coeffs[k - i]
                acc = term if acc is None else acc + term
            if acc is None:
                acc = ls_zero(self.field, self.coeffs[0].prec)
            out.append(acc)
        return TateElement(self.field, out, tail, exact)

    def __pow__(self, e: int) -> "TateElement":
        if e < 0:
            raise ValueError("negative Tate power; use invert_unit")
        result = one(self.field, self.coeffs[0].prec, 0)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def cap_precision(self, prec: int) -> "TateElement":
        return TateElement(
            self.field, [c.truncate(prec) for c in self.coeffs], self.tail, self.exact
        )

    def truncate_tdeg(self, d: int) -> "TateElement":
        if d >= self.tdeg:
            return self
        return TateElement(self.field, self.coeffs[: d + 1], self.tail, False)

    def __repr__(self) -> str:
        return f"TateElement({to_text(self)})"


# -- twists -------------------------------------------------------------------


def twist(f: TateElement, n: int) -> TateElement:
    """n-fold twist: t-exponents fixed, every coefficient twisted."""
    if n < 0:
        raise ValueError("twist requires n >= 0")
    if n == 0:
        return f
    s = f.field.p**n
    tail = None if f.tail is None else (f.tail[0] * s, f.tail[1] * s)
    return TateElement(f.field, [ls_twist(c, n) for c in f.coeffs], tail, f.exact)


# -- constructors ---------------------------------------------------------------


def zero(field: FieldSpec, prec: int, tdeg: int = 0) -> TateElement:
    return TateElement(field, [ls_zero(field, prec) for _ in range(tdeg + 1)], None, True)


def one(field: FieldSpec, prec: int, tdeg: int = 0) -> TateElement:
    c = [ls_zero(field, prec) for _ in range(tdeg + 1)]
    c[0] = LaurentSeries(field, 0, [1], prec)
    return TateElement(field, c, None, True)


def t_var(field: FieldSpec, prec: int) -> TateElement:
    return TateElement(
        field, [ls_zero(field, prec), LaurentSeries(field, 0, [1], prec)], None, True
    )


def from_laurent(c: LaurentSeries) -> TateElement:
    return TateElement(c.field, [c], None, True)


def from_poly(poly: BivarPoly, prec: int) -> TateElement:
    """Exact Tate element of a (t, theta)-polynomial, coefficients mod O(z^prec)."""
    field = poly.field
    rows: dict[int, dict[int, int]] = {}
    for (a, b), c in poly.terms.items():
        rows.setdefault(a, {})[b] = c
    d = max(rows, default=0)
    from .laurent import from_theta_poly

    out = []
    for k in range(d + 1):
        out.append(from_theta_poly(field, rows.get(k, {}), prec))
    return TateElement(field, out, None, True)


# -- the operations -------------------------------------------------------------


def invert_linear_factor(c: LaurentSeries, s: int, tdeg: int) -> TateElement:
    """(t - c)^(-s) for |c| > 1, via the geometric expansion; certified tail.

    Coefficient of t^k is (-1)^s C(s+k-1, k) c^-(s+k); the certificate has
    slope -v_z(c) and offset s * (-v_z(c)).
    """
    if s < 1:
        raise ValueError("s must be a positive integer")
    if c.is_zero():
        raise PrecisionError("linear factor constant is zero to precision")
    if c.val >= 0:
        raise ValueError(f"v_z(c) = {c.val} >= 0: outside the convergence region")
    o = ops(c.field)
    inv_c = c.inv()
    w = inv_c**s
    sign = 1 if s % 2 == 0 else o.neg[1]
    out = []
    for k in range(tdeg + 1):
        b = math.comb(s + k - 1, k) % c.field.p
        scal = o.mul[sign * o.n + b] if b else 0
        out.append(w.scalar_mul(scal))
        if k < tdeg:
            w = w * inv_c
    slope = -c.val
    return TateElement(c.field, out, (slope, s * slope), False)


def invert_unit(f: TateElement, tdeg: int | None = None) -> TateElement:
    """Power-series inverse of an element with invertible constant term.

    The result carries no tail certificate (used for consistency checks only).
    """
    if f.coeffs[0].is_zero():
        raise PrecisionError("constant coefficient is zero to precision")
    d = f.tdeg if tdeg is None else min(tdeg, f.tdeg) if not f.exact else tdeg
    g0 = f.coeffs[0].inv()
    out = [g0]
    for k in range(1, d + 1):
        acc = None
        for j in range(1, k + 1):
            cj = f.coeffs[j] if j <= f.tdeg else None
            if cj is None:
                continue
            term = cj * out[k - j]
            acc = term if acc is None else acc + term
        if acc is None:
            acc = ls_zero(f.field, f.coeffs[0].prec)
        out.append(-(g0 * acc))
    return TateElement(f.field, out, None, False)


def eval_at_theta(f: TateElement) -> LaurentSeries:
    """Specialize t -> theta with certified precision.

    Requires an exact tail or a certificate with slope > q - 1, so the
    omitted tail is O(z^((slope-(q-1))(D+1)+offset)).
    """
    q = f.field.order
    o = ops(f.field)
    acc = None
    for k, c in enumerate(f.coeffs):
        term = c.shift(-k * (q - 1))
        if k % 2:
            term = term.scalar_mul(o.neg[1])
        acc = term if acc is None else acc + term
    if f.exact:
        return acc
    if f.tail is None:
        raise CertificateError("missing tail certificate: cannot certify evaluation")
    sigma, tau = f.tail
    if sigma <= q - 1:
        raise CertificateError(f"tail slope {sigma} <= q-1 = {q - 1}: evaluation not certified")
    cap = math.floor((sigma - (q - 1)) * (f.tdeg + 1) + tau)
    return acc.truncate(min(acc.prec, cap))


class ZeroCheck(NamedTuple):
    ok: bool
    worst_tdeg: int | None
    worst_zval: int | None
    floor_z: int


def zero_check(f: TateElement) -> ZeroCheck:
    """Is f zero to precision?  Reports the worst offending coefficient."""
    worst_k = worst_v = None
    floor = min(c.prec for c in f.coeffs)
    for k, c in enumerate(f.coeffs):
        if not c.is_zero():
            if worst_v is None or c.val < worst_v:
                worst_k, worst_v = k, c.val
    return ZeroCheck(worst_v is None, worst_k, worst_v, floor)


def certificate_ok(f: TateElement) -> bool:
    """Stored coefficients are consistent with the tail certificate."""
    if f.exact or f.tail is None:
        return True
    sigma, tau = f.tail
    for k in range(f.tdeg + 1):
        bound = min(sigma * k + tau, f.coeffs[k].prec)
        if f._coeff_val_bound(k) < bound:
            return False
    return True


def to_text(f: TateElement) -> str:
    from .laurent import to_text as ls_text

    parts = [f"({ls_text(c)})" + ("" if k == 0 else "*t" if k == 1 else f"*t^{k}")
             for k, c in enumerate(f.coeffs)]
    if f.exact:
        tail = "exact"
    elif f.tail is None:
        tail = "uncertified"
    else:
        tail = f"slope {f.tail[0]}, offset {f.tail[1]}"
    return " + ".join(parts) + f" + O(t^{f.tdeg + 1}; {tail})"
