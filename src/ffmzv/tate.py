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

Products compute each t-degree k as one packed sum (`_convolve`).  A pair
x_i * y_(k-i) with a factor that is zero to precision is skipped, but its
precision min(val_x + prec_y, val_y + prec_x) still bounds degree k's, as
the Laurent product would.  The nonzero pairs go to one `ffield.dense_sums`
call over all degrees, each shifted by its valuation above the degree's
least one; there a pair stays sparse (exp/log schoolbook) when its shorter
factor has fewer nonzero coefficients than the packed or Karatsuba
threshold, or when m >= 3, which keeps the very sparse twisted columns off
the big-int path.  `dot(pairs, tdeg)` does the same for a sum of products,
each truncated to tdeg, and gives exactly the element that adding the
truncated products left to right would.

The Frobenius residual Psi - Phi * Psi^{(n)} of a square system (exact Phi,
series Psi) lives here, for Omega's 1x1 system and the matrix systems alike:
`residual_setup` caps the twisted columns past the exact side's z-span, and
each residual entry is one `dot` (`residual_value`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import NamedTuple

from .errors import BudgetError, CertificateError, PrecisionError
from .ffield import FieldSpec, dense_sums, ops
from .laurent import LaurentSeries, from_theta_poly, theta_combination
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

    # -- certificate plumbing -------------------------------------------------

    def _coeff_val_bound(self, k: int) -> int:
        # lower bound for v_z of the true k-th coefficient from storage
        c = self.coeffs[k]
        return c.val if c.coeffs else c.prec

    def _tail_shift(self, sigma) -> int | Fraction:
        # min_k (v(c_k) - sigma*k): how an exact operand shifts a partner's offset
        return min(self._coeff_val_bound(k) - sigma * k for k in range(self.tdeg + 1))

    def __add__(self, other: "TateElement") -> "TateElement":
        self._compat(other)
        d, tail, exact = _combine(self, other, product=False)
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

    def __mul__(self, other: "TateElement") -> "TateElement":
        self._compat(other)
        d, tail, exact = _combine(self, other, product=True)
        return TateElement(self.field, _convolve(self.field, [(self, other, d)], d), tail, exact)

    @property
    def prec(self) -> int:
        """The least z-precision of the stored coefficients."""
        return min(c.prec for c in self.coeffs)

    def truncate(self, prec: int) -> "TateElement":
        """Every coefficient truncated to O(z^prec)."""
        return TateElement(
            self.field, [c.truncate(prec) for c in self.coeffs], self.tail, self.exact
        )

    def truncate_tdeg(self, d: int) -> "TateElement":
        if d >= self.tdeg:
            return self
        return TateElement(self.field, self.coeffs[: d + 1], self.tail, False)

    def __repr__(self) -> str:
        return f"TateElement({to_text(self)})"


def _combine(f, g, product: bool) -> tuple[int, tuple | None, bool]:
    """(t-degree, tail, exact) of f + g, or of f * g.

    Two exact operands give an exact result.  Otherwise the result is known
    up to the least t-degree of the non-exact operands and takes their weaker
    slope sigma; each operand contributes an offset at sigma (a series its
    own tau, an exact operand its _tail_shift), and a sum keeps the smaller
    offset, a product their sum.
    """
    if f.exact and g.exact:
        return (f.tdeg + g.tdeg if product else max(f.tdeg, g.tdeg)), None, True
    series = [h for h in (f, g) if not h.exact]
    d = min(h.tdeg for h in series)
    if any(h.tail is None for h in series):
        return d, None, False
    sigma = min(h.tail[0] for h in series)
    offsets = [h.tail[1] for h in series] + [h._tail_shift(sigma) for h in (f, g) if h.exact]
    return d, (sigma, sum(offsets) if product else min(offsets)), False


# -- products: one packed sum per t-degree ----------------------------------------


def _convolve(field: FieldSpec, terms: list, d: int) -> list[LaurentSeries]:
    """Coefficients of t^0..t^d of the sum of x * y over terms (x, y, e), a
    term counting in the degrees k <= e only.

    Degree k is one dense_sums entry over every pair x_i * y_(k-i) whose
    factors are both nonzero, each placed at its valuation; a pair with a
    zero factor adds nothing but its precision min(val_x + prec_y,
    val_y + prec_x), which every pair folds into the degree's precision.
    The result equals the sum of the Laurent products, coefficient for
    coefficient and in precision.
    """
    precs: list = [None] * (d + 1)
    pairs: list[list] = [[] for _ in range(d + 1)]
    for x, y, e in terms:
        e = min(e, d)
        xs, ys = x.coeffs, y.coeffs
        # (val, prec) of x against (prec, val) of y reversed: x_i meets
        # y_(k-i), entry r + i of the reversed y, in entries 2i and 2i + 1
        xvp = [n for c in xs for n in (c.val, c.prec)]
        ypv = [n for c in reversed(ys) for n in (c.prec, c.val)]
        for k in range(e + 1):
            lo, hi, r = max(0, k - y.tdeg), min(k, x.tdeg) + 1, y.tdeg - k
            p = min(map(add, xvp[2 * lo : 2 * hi], ypv[2 * (r + lo) : 2 * (r + hi)]))
            if precs[k] is None or p < precs[k]:
                precs[k] = p
        nonzero = [(j, b) for j, b in enumerate(ys) if b.coeffs]
        for i, a in enumerate(xs[: e + 1]):
            if a.coeffs:
                for j, b in nonzero:
                    if i + j > e:
                        break
                    pairs[i + j].append((a.coeffs, b.coeffs, a.val + b.val))
    bases = [min((v for _, _, v in row), default=prec) for row, prec in zip(pairs, precs)]
    out = dense_sums(field, [(row, base, prec - base) for row, base, prec in zip(pairs, bases, precs)])
    return [LaurentSeries(field, *z) for z in zip(bases, out, precs)]


class _Sum(NamedTuple):
    """A sum of products not yet computed: its terms and (t-degree, tail, exact)."""

    field: FieldSpec
    terms: list  # (x, y, e) as _convolve takes them
    tdeg: int
    tail: tuple | None
    exact: bool

    def value(self) -> TateElement:
        return TateElement(self.field, _convolve(self.field, self.terms, self.tdeg), self.tail, self.exact)

    def _tail_shift(self, sigma) -> int | Fraction:
        return self.value()._tail_shift(sigma)


def dot(pairs: list[tuple[TateElement, TateElement]], tdeg: int) -> TateElement:
    """The sum of x * y over pairs (at least one), each product truncated to
    t-degree tdeg.

    The same element, tail certificate included, as adding the truncated
    products left to right, but every t-degree is one packed sum over all
    pairs.  Only an exact partial sum that meets a certified series needs
    its coefficients early, for its _tail_shift.
    """
    acc = None
    for x, y in pairs:
        x._compat(y)
        d, tail, exact = _combine(x, y, product=True)
        if d > tdeg:
            d, exact = tdeg, False
        term = _Sum(x.field, [(x, y, d)], d, tail, exact)
        acc = term if acc is None else _Sum(acc.field, acc.terms + term.terms, *_combine(acc, term, product=False))
    return acc.value()


# -- twists -------------------------------------------------------------------


def twist(f: TateElement, n: int, cap: int | None = None) -> TateElement:
    """n-fold twist: t-exponents fixed, every coefficient twisted; with `cap`,
    every coefficient is truncated to O(z^cap) as it is built."""
    if n < 0:
        raise ValueError("twist requires n >= 0")
    if n == 0:
        return f if cap is None else f.truncate(cap)
    s = f.field.p**n
    tail = None if f.tail is None else (f.tail[0] * s, f.tail[1] * s)
    return TateElement(f.field, [ls_twist(c, n, cap) for c in f.coeffs], tail, f.exact)


# -- constructors ---------------------------------------------------------------


def zero(field: FieldSpec, prec: int, tdeg: int = 0) -> TateElement:
    return TateElement(field, [ls_zero(field, prec) for _ in range(tdeg + 1)], None, True)


def one(field: FieldSpec, prec: int) -> TateElement:
    return TateElement(field, [LaurentSeries(field, 0, [1], prec)], None, True)


def from_laurent(c: LaurentSeries) -> TateElement:
    return TateElement(c.field, [c], None, True)


def from_poly(poly: BivarPoly, prec: int) -> TateElement:
    """Exact Tate element of a (t, theta)-polynomial, coefficients mod O(z^prec)."""
    field = poly.field
    rows: dict[int, dict[int, int]] = {}
    for (a, b), c in poly.terms.items():
        rows.setdefault(a, {})[b] = c
    d = max(rows, default=0)
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
    out = []
    for k in range(tdeg + 1):
        b = math.comb(s + k - 1, k) % c.field.p  # an F_p integer, its own encoding
        out.append(w.scalar_mul(b if s % 2 == 0 else o.neg[b]))
        if k < tdeg:
            w = w * inv_c
    slope = -c.val
    return TateElement(c.field, out, (slope, s * slope), False)


def eval_at_theta(f: TateElement) -> LaurentSeries:
    """Specialize t -> theta with certified precision.

    Requires an exact tail or a certificate with slope > q - 1, so the
    omitted tail is O(z^((slope-(q-1))(D+1)+offset)).
    """
    q = f.field.order
    acc = theta_combination(f.coeffs)
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
    for k, c in enumerate(f.coeffs):
        if not c.is_zero():
            if worst_v is None or c.val < worst_v:
                worst_k, worst_v = k, c.val
    return ZeroCheck(worst_v is None, worst_k, worst_v, f.prec)


# -- the Frobenius residual -----------------------------------------------------

# a residual refuses an exact side whose z-span (q-1) * deg_theta is larger:
# every Phi coefficient becomes a z-series that long
MAX_RESIDUAL_SPAN = 500_000


def residual_span(q: int, deg_theta: int) -> int:
    """The z-span (q-1) * deg_theta of an exact side of theta-degree
    deg_theta; BudgetError when it exceeds MAX_RESIDUAL_SPAN."""
    span = (q - 1) * deg_theta
    if span > MAX_RESIDUAL_SPAN:
        raise BudgetError(
            f"the exact side spans {span} z-digits ((q-1) * theta-degree {deg_theta}), "
            f"which exceeds MAX_RESIDUAL_SPAN = {MAX_RESIDUAL_SPAN}"
        )
    return span


class Residual(NamedTuple):
    """What every entry of Psi - Phi * Psi^{(n)} shares."""

    q: int
    cap: int  # z-precision the twisted entries are capped at
    tdeg: int  # t-degree the residual is checked to
    mats: list  # Phi entries as exact Tate elements at cap, None where zero
    cols: list  # columns of Psi^{(n)}, capped at cap


def residual_setup(phi, psi, n: int) -> Residual:
    """The shared part of the residual Psi - Phi * Psi^{(n)}, for square
    matrices (rows) of exact (t, theta)-polynomials phi and Tate elements psi."""
    entries = [e for row in psi for e in row]
    q = entries[0].field.order
    p0 = min(e.prec for e in entries)  # least stored z-precision
    # exact entries (the 1s and 0s) are reliable at every t-degree
    tdeg = min((e.tdeg for e in entries if not e.exact), default=max(e.tdeg for e in entries))
    # the exact side has valuations down to -(q-1)*deg_theta; cap high enough
    # that multiplying by it still leaves p0 digits
    maxdeg = max((pe.deg_theta() for row in phi for pe in row if not pe.is_zero()), default=0)
    cap = p0 + residual_span(q, maxdeg) + 8
    mats = [[None if pe.is_zero() else from_poly(pe, cap) for pe in row] for row in phi]
    tw = [[twist(e, n, cap) for e in row] for row in psi]
    return Residual(q, cap, tdeg, mats, [list(c) for c in zip(*tw)])


def minus_one(entry: TateElement) -> TateElement:
    """-1, known to entry's largest relative precision, so that entry times
    it keeps entry's precision."""
    rel = max(1, *(c.prec - c.val for c in entry.coeffs))
    return from_laurent(LaurentSeries(entry.field, 0, [ops(entry.field).neg[1]], rel))


def residual_value(res: Residual, a: int, entry: TateElement, col) -> TateElement:
    """sum_k Phi[a][k] * col[k] - entry, the negated residual entry, where
    entry is Psi[a][b] and col is column b of Psi^{(n)}; it has the same zero
    check as the residual entry."""
    pairs = [(mat, tw) for mat, tw in zip(res.mats[a], col) if mat is not None]
    if not pairs:
        return -entry
    # one dot: entry times -1 comes first
    return dot([(entry, minus_one(entry))] + pairs, res.tdeg)


def residual_checks(res: Residual, psi) -> list[list[ZeroCheck]]:
    """The zero check of every residual entry, row by row."""
    return [
        [zero_check(residual_value(res, a, e, res.cols[b])) for b, e in enumerate(row)]
        for a, row in enumerate(psi)
    ]


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
