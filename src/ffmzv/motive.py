"""Matrix systems for Frobenius difference equations and their verifiers.

The exact side of a system is stored positively twisted: for an index
(s_1..s_d) with arguments (u_1..u_d) the stored matrix is lower bidiagonal
with column k carrying (t - theta^q)^{s_{k+1}+...+s_d} on the diagonal and
(t - theta^q)^{s_{k+1}+...+s_d} * u_{k+1} below it, all polynomial in
(t, theta).  The series side is lower triangular with Omega-powers on the
diagonal and Omega^{...} times polylogarithm series below.  Every equation is
verified in the positively twisted form

    Psi = Phi^{(l)} * Psi^{(l)}

(and Psi = (Phi')^{(ls)} * Psi^{(ls)} for derived systems), never with
inverse twists, which would leave the ramified coefficient ring.  This is an
exact logical equivalence: apply the bijective l-fold twist to both sides.
The residual itself is computed in `tate`, as for Omega's 1x1 system; this
module validates the matrices and runs the mutations.  The series side and
the collapsed component identity are built at their context's sizes
(`ctx.prec` z-digits, t-degree `ctx.tdeg`).  A `MotiveMatrix` holds its twist
level and entries only, and reads its size, kind and field off the entries.

Mutation testing adds theta to each entry of Psi in turn, and every mutated
residual must fail.  Entry (a, b) of the residual reads only row a of Phi,
column b of the twisted Psi and Psi[a][b].  The added theta is exact, of
t-degree 0 and known to the z-precision of Psi[0][0], which is at least the
least precision of Psi, so the mutation leaves the residual's precision and
t-degree unchanged: the mutation (i, j) moves only the entries (a, j) with
a == i or Phi[a][i] != 0; the other entry checks are those of the unmutated
residual.  Twisting is additive, so a moved entry is its unmutated value
plus a correction, -theta on row i and Phi[a][i] * theta^{(n)} on every row
a that column i of Phi feeds, which depends on (a, i) alone: it is computed
once per mutated row and added in every column, whose unmutated values are
held one column at a time.  One mutation is always also recomputed in full
by `frobenius_residual` as a spot check, and a mismatch raises
ConventionError: (r-2, 0) when r >= 2, whose update covers both the mutated
entry and the entry (r-1, 0) below it that Phi's subdiagonal feeds, else
(0, 0).

The block-group shells of the independence argument live at the bottom of
the module: parameterized lower-triangular shapes (a) + X_{s_1} + ... with
exact closure, inversion, and commutator checks over finite fields or a
univariate rational function field.  A shape is block diagonal, so the checks
multiply, invert and parse it block by block.  A sampled check evaluates its
law once over the product ring F^L whose L lanes are its trials (a domain's
`lanes(L)`: each entry is a list of L values, and the unchanged kernels
`_mat_mul` and `_mat_inv_lower` run over it), for each chunk of at most
SAMPLE_LANES trials.  `_read` reads a result over all lanes at once; each
lane is read alone, over the domain itself as `BlockShape.parse` reads, only
when some lane's scalar is zero or some check fails.  An F_p(t) element is
an unreduced fraction of F_p[t] polynomials, each packed into one int, so a
product of polynomials is one integer product and one reduction mod p
(`RationalFunctionDomain`).  F_p(t) has one zero, (0, 1): every operation
whose result is zero returns it, and a zero operand makes a product zero
and a sum the other operand.  So a product with a zero factor, which a lane
computes where the per-trial kernel skips it, changes nothing, and every
lane computes the same unreduced fractions as a trial run alone.  The first
trial also runs on the whole matrices as scalars (`realize`, the kernels,
`BlockShape.parse`): that spot check certifies the zeros outside the
blocks.  Failures come per trial in trial order, and an exception is the
one the first failing trial raises alone.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import combinations, count
from types import SimpleNamespace
from typing import NamedTuple

from .carlitz import CarlitzContext, omega_power, omega_series
from .errors import BudgetError, ConventionError, ShapeParseError
from .ffield import FieldSpec, _pack, _unpack, _width, ops, power
from .poly import BivarPoly, t_minus_theta_frob, to_text as poly_text
from .reports import CheckReport, ResidualReport
from .special import CmplSpec, Index, at_arguments, check_convergence, cmpl_series, is_subclosed, subclosure
from . import tate
from .tate import TateElement, to_text as tate_text


@dataclass
class MotiveMatrix:
    """Square system matrix of twist level `level`; its size, kind and field
    are read off its entries: kind 'phi-exact' (BivarPoly entries, stored
    twisted) or 'psi-series' (TateElement entries)."""

    level: int
    entries: tuple  # tuple of tuples; BivarPoly or TateElement

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def kind(self) -> str:
        return "phi-exact" if isinstance(self.entries[0][0], BivarPoly) else "psi-series"

    @property
    def field(self) -> FieldSpec:
        return self.entries[0][0].field

    def to_json(self) -> dict:
        text = poly_text if self.kind == "phi-exact" else tate_text
        out = {
            "schema": "motive-matrix/1",
            "level": self.level,
            "size": self.size,
            "kind": self.kind,
            "entries": [[text(e) for e in row] for row in self.entries],
        }
        if self.kind == "phi-exact":
            # the untwisted matrix (with inverse-twisted arguments) is never
            # materialized; what is stored is its level-fold twist
            out["stored_twist"] = self.level
        return out


def _suffix_weights(s: Index) -> list[int]:
    entries = s.entries
    return [sum(entries[k:]) for k in range(len(entries) + 1)]  # last is 0


def phi_matrix(ctx: CarlitzContext, u: tuple[BivarPoly, ...], s: Index) -> MotiveMatrix:
    """The exact matrix of the system for (u, s), stored in (+l)-twisted form.

    The twist turns the u^{(-l)} factors of the untwisted matrix back into u,
    keeping every entry polynomial; the untwisted matrix is never
    materialized.
    """
    if len(u) != s.dep:
        raise ValueError("argument list length must equal the depth")
    fld = ctx.field
    d = s.dep
    lin = t_minus_theta_frob(fld, ctx.l)
    sw = _suffix_weights(s)
    zero = BivarPoly.zero(fld)
    rows = [[zero for _ in range(d + 1)] for _ in range(d + 1)]
    for k in range(d + 1):
        rows[k][k] = lin ** sw[k]
        if k < d:
            rows[k + 1][k] = lin ** sw[k] * u[k]
    return MotiveMatrix(ctx.l, tuple(map(tuple, rows)))


def psi_matrix(ctx: CarlitzContext, u: tuple[BivarPoly, ...], s: Index) -> MotiveMatrix:
    """The series side at the context's sizes: Omega-powers down the
    diagonal, window polylogarithm series below, bottom-right 1; entries
    carry valid tail certificates."""
    prec, tdeg = ctx.prec, ctx.tdeg
    check_convergence(ctx, CmplSpec(s, u))
    fld = ctx.field
    d = s.dep
    sw = _suffix_weights(s)
    zero = tate.zero(fld, prec, tdeg)
    rows = [[zero for _ in range(d + 1)] for _ in range(d + 1)]
    for col in range(d + 1):
        diag = rows[col][col] = omega_power(ctx, sw[col], tdeg, prec)
        for row in range(col + 1, d + 1):
            window = CmplSpec(Index(s.entries[col:row]), tuple(u[col:row]))
            ser = cmpl_series(ctx, window, tdeg, prec)
            rows[row][col] = (diag * ser).truncate_tdeg(tdeg)
    return MotiveMatrix(ctx.l, tuple(map(tuple, rows)))


def carlitz_system(ctx: CarlitzContext) -> tuple[MotiveMatrix, MotiveMatrix]:
    """The 1x1 system (t - theta stored twisted, Omega as its trivialization)
    at the context's sizes."""
    phi = MotiveMatrix(ctx.l, ((t_minus_theta_frob(ctx.field, ctx.l),),))
    psi = MotiveMatrix(ctx.l, ((omega_series(ctx),),))
    return phi, psi


def example_system(ctx: CarlitzContext, m: int, n: int) -> tuple[MotiveMatrix, MotiveMatrix]:
    """The worked 8x8 block pair for {(m), (n), (m, n)} with AT arguments:
    a 1x1 block, two 2x2 blocks, and a 3x3 block, as one direct sum, at the
    context's sizes."""
    phi, psi = carlitz_system(ctx)
    for s in (Index((m,)), Index((n,)), Index((m, n))):
        u = at_arguments(ctx, s)
        phi = direct_sum(phi, phi_matrix(ctx, u, s))
        psi = direct_sum(psi, psi_matrix(ctx, u, s))
    return phi, psi


def direct_sum(a: MotiveMatrix, b: MotiveMatrix) -> MotiveMatrix:
    if a.kind != b.kind or a.level != b.level or a.field != b.field:
        raise ValueError("direct sum requires matching kind, level, and field")
    n, m = a.size, b.size
    if a.kind == "phi-exact":
        zero = BivarPoly.zero(a.field)
    else:
        first = a.entries[0][0]
        pad_tdeg = max(e.tdeg for mm in (a, b) for row in mm.entries for e in row)
        zero = tate.zero(first.field, first.coeffs[0].prec, pad_tdeg)
    rows = []
    for i in range(n):
        rows.append(tuple(list(a.entries[i]) + [zero] * m))
    for i in range(m):
        rows.append(tuple([zero] * n + list(b.entries[i])))
    return MotiveMatrix(a.level, tuple(rows))


MAX_DERIVED_SIZE = 4_000_000  # derived systems refuse a larger (deg_t + 1) * (deg_theta + 1) bound


def derived_matrix(phi: MotiveMatrix, s: int) -> MotiveMatrix:
    """The s-th derived system, materialized fully twisted: the stored matrix
    becomes Phi^{(l)} Phi^{(2l)} ... Phi^{(sl)}, of level l*s (all positive
    twists, all polynomial).

    Before any product, BudgetError when the bounds deg_t <= s * deg_t Phi
    and deg_theta <= deg_theta Phi * sum_{k<s} p^{kl} give the residual's
    z-span refusal (`tate.residual_span`), or a size estimate above
    MAX_DERIVED_SIZE."""
    if phi.kind != "phi-exact":
        raise ValueError("derived systems are built from the exact side")
    if s < 1:
        raise ValueError("s must be a positive integer")
    l, fld = phi.level, phi.field
    entries = [e for row in phi.entries for e in row]
    deg_t = s * max(e.deg_t() for e in entries)
    deg_theta = max(e.deg_theta() for e in entries) * sum(fld.p ** (k * l) for k in range(s))
    tate.residual_span(fld.order, deg_theta)
    size = (deg_t + 1) * (deg_theta + 1)
    if size > MAX_DERIVED_SIZE:
        raise BudgetError(
            f"the derived system of t-degree <= {deg_t} and theta-degree <= {deg_theta} has size estimate "
            f"{size} ((t-degree + 1) * (theta-degree + 1)), which exceeds MAX_DERIVED_SIZE = {MAX_DERIVED_SIZE}"
        )
    # BivarPoly arithmetic in the interface of the shell domains
    ring = SimpleNamespace(zero=partial(BivarPoly.zero, fld), is_zero=BivarPoly.is_zero,
                           add=operator.add, mul=operator.mul)
    acc = phi.entries
    for k in range(1, s):
        acc = _mat_mul(ring, acc, [[e.twist(k * l) for e in row] for row in phi.entries])
    return MotiveMatrix(l * s, tuple(map(tuple, acc)))


def _theta_mutation(psi: MotiveMatrix) -> TateElement:
    first = psi.entries[0][0]
    return tate.from_poly(BivarPoly.theta(psi.field), first.coeffs[0].prec)


def perturb_entry(psi: MotiveMatrix, i: int, j: int) -> MotiveMatrix:
    """Add theta to entry (i, j): a mutation no trivialization can absorb.

    Adding a twist-fixed constant to a bottom-row entry is invisible (it is a
    rational column operation), so mutations use theta, which no entry can
    hide at any position.
    """
    rows = [list(r) for r in psi.entries]
    rows[i][j] = rows[i][j] + _theta_mutation(psi)
    return MotiveMatrix(psi.level, tuple(map(tuple, rows)))


def _residual_setup(phi: MotiveMatrix, psi: MotiveMatrix) -> tate.Residual:
    if phi.size != psi.size:
        raise ValueError("size mismatch")
    if phi.kind != "phi-exact" or psi.kind != "psi-series":
        raise ValueError("need an exact side and a series side")
    if phi.level % psi.level != 0:
        raise ValueError("twist level of the exact side must be a multiple of the series level")
    return tate.residual_setup(phi.entries, psi.entries, phi.level)


def frobenius_residual(phi: MotiveMatrix, psi: MotiveMatrix) -> ResidualReport:
    """Max Gauss-norm exponent of Psi - Phi_stored * Psi^{(n)}, n = phi.level.

    For a plain system n = l; for a derived system the stored matrix already
    is (Phi')^{(ls)} and n = l*s, so the SAME Psi must satisfy the equation.
    """
    res = _residual_setup(phi, psi)
    return ResidualReport.from_checks(tate.residual_checks(res, psi.entries), res.q)


def _corrections(
    res: tate.Residual, th: TateElement, thn: TateElement, i: int
) -> dict[int, TateElement]:
    """What adding th to Psi[i][b] adds to the negated residual entries of
    column b, whatever b: Phi[a][i] * thn on every row a that column i of
    Phi feeds, and -th on row i; thn is th^{(n)} capped as the columns are."""
    out = {}
    for a, row in enumerate(res.mats):
        pairs = [(th, tate.minus_one(th))] if a == i else []
        if row[i] is not None:
            pairs.append((row[i], thn))
        if pairs:
            out[a] = tate.dot(pairs, res.tdeg)
    return out


def _mutation_checks(values: list, corr: dict[int, TateElement]) -> dict[int, tate.ZeroCheck]:
    """The entry checks of one column that a mutation moves: base value
    plus correction on every row the correction names."""
    return {a: tate.zero_check(values[a] + c) for a, c in corr.items()}


def _mutation_moves(
    phi: MotiveMatrix, psi: MotiveMatrix, res: tate.Residual
) -> tuple[list[list[tate.ZeroCheck]], dict[tuple[int, int], dict[int, tate.ZeroCheck]]]:
    """The entry checks of the unmutated residual, and for every mutation
    (i, j), row-major, the checks of column j that
    frobenius_residual(phi, perturb_entry(psi, i, j)) moves, by row.

    Column by column, the base entry values are held while the mutations of
    that column add their corrections.  The sums are known exactly as far as
    a full recomputation knows them, except where theta^{(n)} cancels the
    leading term of a twisted entry: there the full recomputation's twisted
    entry has a higher valuation, and its products a higher precision.
    """
    th = _theta_mutation(psi)
    thn = tate.twist(th, phi.level, res.cap)
    r = psi.size
    corr = [_corrections(res, th, thn, i) for i in range(r)]
    checks: list[list] = [[None] * r for _ in range(r)]
    moved = {}
    for j in range(r):
        values = [tate.residual_value(res, a, psi.entries[a][j], res.cols[j]) for a in range(r)]
        for a, v in enumerate(values):
            checks[a][j] = tate.zero_check(v)
        for i in range(r):
            moved[i, j] = _mutation_checks(values, corr[i])
    return checks, {(i, j): moved[i, j] for i in range(r) for j in range(r)}


def _mutated_report(checks: list[list[tate.ZeroCheck]], j: int, moved: dict, q: int) -> ResidualReport:
    """The report of the residual whose entry checks are checks with those
    of column j replaced by moved's, by row."""
    out = [row[:] for row in checks]
    for a, chk in moved.items():
        out[a][j] = chk
    return ResidualReport.from_checks(out, q)


def residual_and_kill(phi: MotiveMatrix, psi: MotiveMatrix) -> tuple[ResidualReport, CheckReport]:
    """frobenius_residual(phi, psi) and the mutation kill report of
    mutation_kill_report, from one residual set-up and one pass of entry
    values.

    Each mutation perturbs one entry of the series side, and every mutated
    residual must fail.  A mutated residual entry is the unmutated one plus
    a correction that depends only on the mutated row and the entry's row
    (see _corrections), so the r^2 mutations cost r sets of corrections and
    one addition per moved entry instead of full entry dots.  A mutation
    survives when its moved checks pass and every failing base check is one
    of them; only the (r-2, 0) mutation ((0, 0) when r == 1) gets a full
    report, which is also recomputed in full, and a mismatch raises
    ConventionError.
    """
    res = _residual_setup(phi, psi)
    checks, moved = _mutation_moves(phi, psi, res)
    r = psi.size
    spot = (max(r - 2, 0), 0)
    if frobenius_residual(phi, perturb_entry(psi, *spot)) != _mutated_report(checks, spot[1], moved[spot], res.q):
        raise ConventionError(
            f"incremental residual of mutation {spot} differs from full recomputation"
        )
    bad = [(a, j) for a, row in enumerate(checks) for j, chk in enumerate(row) if not chk.ok]
    survivors = [
        (i, j) for (i, j), mv in moved.items()
        if all(chk.ok for chk in mv.values()) and all(b == j and a in mv for a, b in bad)
    ]
    kill = CheckReport(
        passed=not survivors,
        checked=r * r,
        failures=survivors,
        note="each surviving location is a mutation the residual failed to detect",
    )
    return ResidualReport.from_checks(checks, res.q), kill


def mutation_kill_report(ctx: CarlitzContext, phi: MotiveMatrix, psi: MotiveMatrix) -> CheckReport:
    """Perturb every entry of the series side once; all residuals must fail
    (see residual_and_kill)."""
    return residual_and_kill(phi, psi)[1]


# -- the collapsed component identity ------------------------------------------


def component_collapse_report(ctx: CarlitzContext, s: Index, i: int, j: int) -> ResidualReport:
    """Alternating chain sum for the (i, j) component, with the tensor
    collapsed to an ordinary product (1-based, i > j), with AT arguments at
    the context's sizes.

    The sum telescopes to zero: the chain coefficients are exactly
    the entries of the inverse of the unipotent matrix of window series, so
    the sum is a component of U^{-1} U.  The chain factors pair consecutive
    indices L[k_t][k_{t-1}]; the alternative pairing with a shifted second
    index does not cancel and is rejected by this check.
    """
    prec, tdeg = ctx.prec, ctx.tdeg
    u = at_arguments(ctx, s)
    if not 1 <= j < i <= s.dep + 1:
        raise ValueError("need 1 <= j < i <= dep + 1")
    fld, q = ctx.field, ctx.q
    d = s.dep

    L: dict[tuple[int, int], TateElement] = {}
    for a in range(1, d + 2):
        for b in range(1, a):
            window = CmplSpec(Index(s.entries[b - 1 : a - 1]), tuple(u[b - 1 : a - 1]))
            L[(a, b)] = cmpl_series(ctx, window, tdeg, prec)
        L[(a, a)] = tate.one(fld, prec + 4)
    ompow = omega_power(ctx, sum(s.entries[j - 1 : i - 1]), tdeg, prec)
    terms = []
    for n in range(j, i + 1):
        # inverse-of-unipotent chain coefficient from n up to i
        if n == i:
            coeff = tate.one(fld, prec + 4)
        else:
            coeff = None
            mids = list(range(n + 1, i))
            for m_len in range(0, len(mids) + 1):
                for subset in combinations(mids, m_len):
                    chain = (n,) + subset + (i,)
                    prod = L[(chain[1], chain[0])]
                    for a, b in zip(chain[2:], chain[1:]):
                        prod = prod * L[(a, b)]
                    prod = -prod if (len(chain) - 1) % 2 == 1 else prod
                    coeff = prod if coeff is None else coeff + prod
        terms.append((coeff * ompow, L[(n, j)]))
    acc = tate.dot(terms, tdeg)
    return ResidualReport.from_zero_check(
        tate.zero_check(acc), q, prefix=(i, j), note="collapsed alternating chain sum"
    )


# -- block-group shells -----------------------------------------------------------


class FiniteFieldDomain:
    """Sample/arithmetic domain F_{p^N} for exact block-shape checks."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self._o = ops(spec)
        self.draws = spec.order - 1  # distinct values of sample_nonzero

    name = "finite-field"

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return self._o.add(a, b)

    def mul(self, a, b):
        return self._o.exp[self._o.log[a] + self._o.log[b]]

    def neg(self, a):
        return self._o.neg[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._o.inv[a]

    def pow(self, a, e):
        return self._o.pow(a, e)

    eq = staticmethod(operator.eq)
    is_zero = staticmethod(operator.not_)

    def lanes(self, width: int) -> SimpleNamespace:
        """F^width, componentwise: list lookups over lists of `width`
        encodings, products by exp/log and sums by Zech logarithms, with
        is_zero and eq true when they hold in every lane and dom the domain
        of one lane."""
        o = self._o
        exp, log, zech, neg, inv = o.exp, o.log, o.zech, o.neg, o.inv
        return SimpleNamespace(
            dom=self, zero=lambda: [0] * width, one=lambda: [1] * width,
            add=lambda x, y: [exp[(la := log[a]) + zech[log[b] - la]] for a, b in zip(x, y)],
            mul=lambda x, y: [exp[log[a] + log[b]] for a, b in zip(x, y)], neg=lambda x: [neg[a] for a in x],
            inv=lambda x: [inv[a] for a in x], pow=lambda x, e: [o.pow(a, e) for a in x],
            is_zero=lambda x: not any(x), eq=operator.eq,
        )

    def sample(self, rng: random.Random):
        return rng.randrange(self._o.n)

    def sample_nonzero(self, rng: random.Random):
        return rng.randrange(1, self._o.n)


MAX_SAMPLE_DEGREE = 2  # F_p(t) samples have numerators and denominators of degree <= 2
MAX_POWER_DEGREE = 128  # F_p(t) refuses a power whose degree bound is larger
SAMPLE_LANES = 32  # trials evaluated together: the lanes of one law evaluation


def _clmul(x: int, y: int) -> int:
    """The carry-less product of F_2[t] polynomials held one bit per
    coefficient: y shifted to every set bit of the smaller factor, xor-ed."""
    if x > y:
        x, y = y, x
    out = 0
    while x:
        low = x & -x
        out ^= y * low
        x ^= low
    return out


class RationalFunctionDomain:
    """F_p(t) with unreduced fractions; equality by cross-multiplication.

    A fraction is a pair (num, den) of F_p[t] polynomials, each held as one
    int (Kronecker substitution): the coefficient of t^i, in [0, p), fills
    slot i, the bits [i*B, (i+1)*B).  So 0 is the zero polynomial, equal
    polynomials are equal ints, and the degree is (bit_length - 1) // B.
    The slot width B and the product kernel are fixed per domain.  Every
    operation on polynomials is a product x*y or a sum of two, x*y + u*v,
    reduced once (a negation is the product with the constant p - 1):

    - p = 2: B = 1.  A product is carry-less (`_clmul`) and a sum is xor,
      which add coefficients mod 2 with nothing to carry.
    - odd p: B is the narrowest byte-aligned width that holds p - 1.  Slot k
      of the integer product x*y sums x_i*y_j over i + j = k: at most
      min(len x, len y) products of at most (p-1)^2 each.  So slots of W
      bits hold x*y + u*v without a carry into the next slot when
      (p-1)^2 * (min(len x, len y) + min(len u, len v)) < 2^W, and the
      slot values are the coefficients before reduction mod p.  When that
      holds for W = B (only B = 8 can: wider B have (p-1)^2 >= 2^B), the
      ints are multiplied in place and each byte is reduced by one
      `bytes.translate` through a table of v mod p.  Otherwise the factors
      are spread to the narrowest byte-aligned W that holds the sum,
      multiplied, reduced slot by slot and packed back to B.

    There is one zero, (0, 1), and every operation whose result is zero
    returns it: a zero operand makes a product zero and a sum the other
    operand, and a sum that cancels is (0, 1).  So adding a product with a
    zero factor leaves a sum exactly as skipping that product would.
    """

    def __init__(self, p: int):
        self.p = p
        # distinct values of sample_nonzero: the nonzero n/d with deg n, deg d <= k
        # number exactly p^(2k+1) - 1
        self.draws = p ** (2 * MAX_SAMPLE_DEGREE + 1) - 1
        if p == 2:
            self._bits, self._mul, self._dot = 1, _clmul, lambda x, y, u, v: _clmul(x, y) ^ _clmul(u, v)
        else:
            self._bits, self._mul, self._dot = _width(p - 1), self._bytes_mul, self._bytes_dot
            # how many products of (p-1)^2 a byte slot sums without a carry:
            # 0 from p = 17 on, which takes in every B > 8
            self._room = 255 // (p - 1) ** 2
            self._mod = bytes(v % p for v in range(256))

    name = "rational-function"

    def _bytes_mul(self, x, y):
        """x*y reduced mod p, for polynomials in B-bit slots (odd p)."""
        if min(x.bit_length(), y.bit_length()) > 8 * self._room:
            return self._spread_dot(x, y, 0, 0)
        t = x * y
        return int.from_bytes(t.to_bytes((t.bit_length() + 7) // 8, "little").translate(self._mod), "little")

    def _bytes_dot(self, x, y, u, v):
        """x*y + u*v reduced mod p, for polynomials in B-bit slots (odd p)."""
        slots = (min(x.bit_length(), y.bit_length()) + 7) // 8 + (min(u.bit_length(), v.bit_length()) + 7) // 8
        if slots > self._room:
            return self._spread_dot(x, y, u, v)
        t = x * y + u * v
        return int.from_bytes(t.to_bytes((t.bit_length() + 7) // 8, "little").translate(self._mod), "little")

    def _spread_dot(self, x, y, u, v):
        """x*y + u*v reduced mod p, multiplied in the narrowest byte-aligned
        slots that hold it."""
        bits = self._bits
        load = -(-min(x.bit_length(), y.bit_length()) // bits) - (-min(u.bit_length(), v.bit_length()) // bits)
        wide = _width((self.p - 1) ** 2 * load)
        x, y, u, v = (_pack(_unpack(z, bits), wide) for z in (x, y, u, v))
        return _pack([c % self.p for c in _unpack(x * y + u * v, wide)], bits)

    def encode(self, coeffs) -> int:
        """The polynomial with coefficients coeffs, each in [0, p), lowest degree first."""
        x = 0
        for c in reversed(coeffs):
            x = x << self._bits | c
        return x

    def zero(self):
        return (0, 1)

    def one(self):
        return (1, 1)

    def add(self, a, b):
        if not a[0]:
            return b if b[0] else (0, 1)
        if not b[0]:
            return a
        num = self._dot(a[0], b[1], b[0], a[1])
        return (num, self._mul(a[1], b[1])) if num else (0, 1)

    def neg(self, a):
        return (self._mul(a[0], self.p - 1), a[1]) if a[0] else (0, 1)

    def mul(self, a, b):
        if not (a[0] and b[0]):
            return (0, 1)
        return (self._mul(a[0], b[0]), self._mul(a[1], b[1]))

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        return (a[1], a[0])

    def pow(self, a, e):
        """a^e; BudgetError up front when its degree bound |e| * deg(a) (deg a
        the larger of numerator and denominator degree) exceeds
        MAX_POWER_DEGREE."""
        # the zero numerator reads as degree -1, below the nonzero denominator's
        bound = abs(e) * max((x.bit_length() - 1) // self._bits for x in a)
        if bound > MAX_POWER_DEGREE:
            raise BudgetError(
                f"a power a^{e} over F_p(t) of degree bound {bound} (|e| * deg a) "
                f"exceeds MAX_POWER_DEGREE = {MAX_POWER_DEGREE}"
            )
        if e < 0:
            return self.pow(self.inv(a), -e)
        return power(a, e, self.one(), self.mul)

    def eq(self, a, b):
        return self._mul(a[0], b[1]) == self._mul(b[0], a[1])

    def is_zero(self, a):
        return not a[0]

    def lanes(self, width: int) -> SimpleNamespace:
        """F_p(t)^width, as for a finite field: each operation maps over lists
        of `width` fractions."""
        zero, one = self.zero(), self.one()
        add, mul, neg, inv, eq = self.add, self.mul, self.neg, self.inv, self.eq
        return SimpleNamespace(
            dom=self, zero=lambda: [zero] * width, one=lambda: [one] * width,
            add=lambda x, y: list(map(add, x, y)), mul=lambda x, y: list(map(mul, x, y)),
            neg=lambda x: list(map(neg, x)), inv=lambda x: list(map(inv, x)),
            pow=lambda x, e: [self.pow(a, e) for a in x],
            is_zero=lambda x: not any(num for num, _ in x), eq=lambda x, y: all(map(eq, x, y)),
        )

    def sample(self, rng: random.Random):
        num, den = self._sample_poly(rng), self._sample_nonzero_poly(rng)
        return (num, den) if num else (0, 1)

    def _sample_poly(self, rng):
        return self.encode([rng.randrange(self.p) for _ in range(rng.randrange(1, MAX_SAMPLE_DEGREE + 2))])

    def _sample_nonzero_poly(self, rng):
        while True:
            c = self._sample_poly(rng)
            if c:
                return c

    def sample_nonzero(self, rng: random.Random):
        return (self._sample_nonzero_poly(rng), self._sample_nonzero_poly(rng))


class _ShapeLayout(NamedTuple):
    size: int
    spans: tuple  # (first row, end) of each diagonal block; block 0 is the scalar slot
    diagonals: tuple  # per block after the scalar slot: the power of a down its diagonal
    entries: tuple  # per block after the scalar slot: (row, col, exponent, window id) below its diagonal
    windows: tuple  # the window of each id
    exponents: frozenset
    error: str | None  # why the index set carries no shape


@lru_cache(maxsize=256)
def _shape_layout(index_set: tuple[Index, ...]) -> _ShapeLayout:
    """Where (a) + X_{s_1} + ... puts which power of a and which window, in
    the coordinates of each diagonal block."""
    error = None
    if not is_subclosed(index_set):
        have = set(index_set)
        missing = [str(w) for w in subclosure(index_set) if w not in have]
        error = f"index set is not window-closed; missing {missing}"
    elif [ix.dep for ix in index_set] != sorted(ix.dep for ix in index_set):
        error = "index set must be enumerated depth-ascending"
    spans, diagonals, entries, ids = [(0, 1)], [], [], {}
    for idx in index_set:
        d, off = idx.dep, spans[-1][1]
        sw = [sum(idx.entries[k:]) for k in range(d + 1)]
        spans.append((off, off + d + 1))
        diagonals.append(tuple(sw))
        entries.append(tuple(
            (r, c, sw[c], ids.setdefault(idx.window(c + 1, r), len(ids)))
            for c in range(d + 1) for r in range(c + 1, d + 1)
        ))
    exponents = frozenset(e for sw in diagonals for e in sw)
    return _ShapeLayout(spans[-1][1], tuple(spans), tuple(diagonals), tuple(entries), tuple(ids), exponents, error)


def _blocks(ring, lay: _ShapeLayout, a, xs: list) -> list:
    """The diagonal blocks of the shape with scalar a and window values xs
    (in the layout's window order), over a domain or over its lanes."""
    pw = {e: ring.pow(a, e) for e in lay.exponents}
    zero, mul = ring.zero(), ring.mul
    out = [[[a]]]
    for diag, entries in zip(lay.diagonals, lay.entries):
        block = [[zero] * r + [pw[e]] + [zero] * (len(diag) - r - 1) for r, e in enumerate(diag)]
        for r, c, e, w in entries:
            block[r][c] = mul(pw[e], xs[w])
        out.append(block)
    return out


def _read(ring, lay: _ShapeLayout, rows, whole: bool) -> tuple:
    """(a, window values in layout order) of the shape whose k-th diagonal
    block is rows[k], or (whole) the span of the whole matrix rows[k] holds,
    over a domain or over its lanes; else a ShapeParseError that names the
    first entry off the shape in row-major order (over lanes, in some lane).

    In exact arithmetic an entry below a diagonal is a^e times the value
    extracted from it, so only recurring windows, the diagonals and the
    zeros around the blocks are compared.
    """
    eq, is_zero = ring.eq, ring.is_zero
    a = rows[0][0][0]
    if is_zero(a):
        raise ShapeParseError("scalar parameter is zero")
    pw = {e: ring.pow(a, e) for e in lay.exponents}
    ainv = {e: ring.inv(x) for e, x in pw.items()}
    starts = [lo if whole else 0 for lo, _ in lay.spans]
    xs = [None] * len(lay.windows)
    for o, entries, block in zip(starts[1:], lay.entries, rows[1:]):
        for r, c, e, w in entries:
            x = ring.mul(block[r][o + c], ainv[e])
            if xs[w] is None:
                xs[w] = x
            elif not eq(xs[w], x):
                raise ShapeParseError(f"window {lay.windows[w]} extracted twice with different values")
    diagonals = [(a,)] + [[pw[e] for e in diag] for diag in lay.diagonals]
    for (lo, _), o, diag, block in zip(lay.spans, starts, diagonals, rows):
        for r, (x, row) in enumerate(zip(diag, block)):
            d = o + r  # row r holds x in column d and zeros outside columns o..d
            if not (all(map(is_zero, row[d + 1 :])) and all(map(is_zero, row[:o])) and eq(row[d], x)):
                fixed = (*range(o), *range(d, len(row)))
                j = next(j for j in fixed if not (eq(row[j], x) if j == d else is_zero(row[j])))
                raise ShapeParseError(f"entry ({lo + r}, {lo - o + j}) off the parameterized shape")
    return a, xs


def _read_lanes(ring, lay: _ShapeLayout, blocks) -> list:
    """Per lane of the diagonal blocks over a domain's lanes, (a, window
    values) or the text of the ShapeParseError its _read raises: all lanes
    at once, or each lane alone over the domain when some lane's a is zero
    or some check fails."""
    dom, scalars = ring.dom, blocks[0][0][0]
    if not any(map(dom.is_zero, scalars)):
        try:
            a, xs = _read(ring, lay, blocks, False)
            return [(x, [v[lane] for v in xs]) for lane, x in enumerate(a)]
        except ShapeParseError:
            pass
    out = []
    for lane in range(len(scalars)):
        try:
            out.append(_read(dom, lay, [[[v[lane] for v in row] for row in block] for block in blocks], False))
        except ShapeParseError as exc:
            out.append(str(exc))
    return out


@dataclass
class BlockShape:
    """Parameterized block matrix (a) + X_{s_1} + ... + X_{s_j}.

    Within block X_s, column c carries a^{s_{c+1}+...+s_d} on the diagonal
    and a^{s_{c+1}+...+s_d} x_{(s_{c+1},...,s_r)} below it; the x-parameter of
    a window is shared wherever that window value recurs, in any block.  All
    entries outside the diagonal blocks are zero, so `blocks` holds a shape
    as its diagonal blocks, the scalar slot first.
    """

    domain: object
    index_set: tuple[Index, ...]
    a: object
    xmap: dict[Index, object]

    def __post_init__(self):
        self.index_set = tuple(self.index_set)
        lay = self._layout = _shape_layout(self.index_set)
        if lay.error:
            raise ValueError(lay.error)
        if self.xmap.keys() != set(lay.windows):
            missing = [str(w) for w in lay.windows if w not in self.xmap]
            extra = [str(w) for w in self.xmap if w not in lay.windows]
            raise ValueError(f"xmap must map exactly the windows of the index set; missing {missing}, extra {extra}")
        if self.domain.is_zero(self.a):
            raise ValueError("the scalar parameter must be invertible")

    @property
    def size(self) -> int:
        return self._layout.size

    def blocks(self) -> list:
        lay = self._layout
        return _blocks(self.domain, lay, self.a, [self.xmap[w] for w in lay.windows])

    def realize(self):
        n, zero = self.size, self.domain.zero()
        return [
            [zero] * lo + row + [zero] * (n - hi)
            for (lo, hi), block in zip(self._layout.spans, self.blocks())
            for row in block
        ]

    @classmethod
    def parse(cls, domain, index_set, matrix) -> "BlockShape":
        """Inverse of realize; raises ShapeParseError on any mismatch."""
        index_set = tuple(index_set)
        lay = _shape_layout(index_set)
        n = lay.size
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ShapeParseError(f"expected a {n}x{n} matrix")
        a, xs = _read(domain, lay, [matrix[lo:hi] for lo, hi in lay.spans], True)
        return cls(domain, index_set, a, dict(zip(lay.windows, xs)))


def _mat_mul(dom, a, b):
    """a*b, each nonzero a[i][k] times the nonzero entries of row k of b."""
    is_zero, add, mul = dom.is_zero, dom.add, dom.mul
    zero = dom.zero()
    brows = [[(j, y) for j, y in enumerate(row) if not is_zero(y)] for row in b]
    out = []
    for arow in a:
        row = [None] * len(b[0])
        for k, x in enumerate(arow):
            if not is_zero(x):
                for j, y in brows[k]:
                    t = mul(x, y)
                    row[j] = t if row[j] is None else add(row[j], t)
        out.append([zero if v is None else v for v in row])
    return out


def _mat_inv_lower(dom, a):
    """Forward substitution for lower triangular a with invertible diagonal,
    over the terms a[i][k] * out[k][j] with both factors nonzero."""
    n = len(a)
    is_zero, add, mul = dom.is_zero, dom.add, dom.mul
    dinv = [dom.inv(a[i][i]) for i in range(n)]
    lower = [[(k, x) for k, x in enumerate(a[i][:i]) if not is_zero(x)] for i in range(n)]
    out = [[dom.zero()] * n for _ in range(n)]
    for j in range(n):
        out[j][j] = dinv[j]
        for i in range(j + 1, n):
            acc = None
            for k, x in lower[i]:
                if k >= j and not is_zero(out[k][j]):
                    t = mul(x, out[k][j])
                    acc = t if acc is None else add(acc, t)
            if acc is not None:
                out[i][j] = dom.neg(mul(dinv[i], acc))
    return out


def _random_params(dom, index_set, rng) -> tuple:
    """(a, xmap) of a random shape: a nonzero, then every window in order."""
    return dom.sample_nonzero(rng), {ix: dom.sample(rng) for ix in index_set}


def _mul(dom, *factors) -> list:
    """The product of shapes held as lists of blocks, block by block."""
    return [reduce(partial(_mat_mul, dom), blocks) for blocks in zip(*factors)]


def _inv(dom, blocks) -> list:
    return [_mat_inv_lower(dom, block) for block in blocks]


def _closure_law(dom, m1, m2) -> list:
    """S1 S2 and S1^{-1}."""
    return [_mul(dom, m1, m2), _inv(dom, m1)]


def _commutator_law(dom, rm, *qms) -> list:
    """Q^{-1} R Q and R Q R^{-1} Q^{-1}, for each Q."""
    rinv = _inv(dom, rm)
    out = []
    for qm in qms:
        qinv = _inv(dom, qm)
        out += [_mul(dom, qinv, rm, qm), _mul(dom, rm, qm, rinv, qinv)]
    return out


def _lane_law(ring, lay: _ShapeLayout, law, draws: list) -> list:
    """law over lanes: the k-th shape (a, xmap) of draws[i] in lane i of the k-th argument."""
    return law(ring, *(_blocks(ring, lay, [a for a, _ in shapes], [[x[w] for _, x in shapes] for w in lay.windows])
                       for shapes in zip(*draws)))


def _spot_check(domain, index_set, law, params, got, where) -> list:
    """Trial 0's law on the whole matrices (lists of one block), which
    certifies the zeros outside the blocks: a failure (0, *where, why) when
    they do not parse to the shapes got read from the blocks."""
    try:
        whole = law(domain, *([BlockShape(domain, index_set, a, xmap).realize()] for a, xmap in params))
        want = [BlockShape.parse(domain, index_set, m[0]) for m in whole]
        eq, windows = domain.eq, _shape_layout(index_set).windows
        same = all(eq(a, w.a) and all(eq(x, w.xmap[k]) for k, x in zip(windows, xs)) for (a, xs), w in zip(got, want))
        why = None if same else "spot check: the whole matrix parses to another shape"
    except ShapeParseError as exc:
        why = f"spot check: the whole matrix does not parse: {exc}"
    return [(0, *where, why)] if why else []


def _sampled_failures(domain, index_set, law, draws: list, check, *where) -> list:
    """The failures of a sampled law over draws (tuples of (a, xmap) shapes),
    whose trials are the lanes of one law evaluation per chunk of at most
    SAMPLE_LANES: per trial in order, (trial, why) for the first result off
    the shape, or else trial 0's spot check and check(trial, draw, results
    as (a, window values)).  An exception is the one the first failing trial
    raises alone: the chunk then runs again one lane at a time."""
    lay = _shape_layout(index_set)

    def run(first: int, chunk: list) -> list:
        if lay.error:
            raise ValueError(lay.error)
        ring = domain.lanes(len(chunk))
        parsed = (_read_lanes(ring, lay, m) for m in _lane_law(ring, lay, law, chunk))
        out = []
        for trial, draw, got in zip(count(first), chunk, zip(*parsed)):
            why = next((g for g in got if isinstance(g, str)), None)
            if why:
                out.append((trial, why))
                continue
            if trial == 0:
                out += _spot_check(domain, index_set, law, draw, got, where)
            out += check(trial, draw, got)
        return out

    failures = []
    for first in range(0, len(draws), SAMPLE_LANES):
        chunk = draws[first : first + SAMPLE_LANES]
        try:
            failures += run(first, chunk)
        except Exception:
            for trial, draw in enumerate(chunk, first):
                run(trial, [draw])
            raise
    return failures


def _sampled_report(failures: list, samples: int, bound: int, draws: int) -> CheckReport:
    """The report of a sampled law of degree at most `bound`: it certifies
    (Schwartz-Zippel) only if both the samples and the distinct nonzero values
    the domain can draw exceed the bound."""
    note = (
        f"degree bound {bound} (Schwartz-Zippel); samples {samples} "
        f"{'exceed' if samples > bound else 'DO NOT exceed'} it"
    )
    if draws <= bound:
        note += f"; only {draws} distinct nonzero draws, which DO NOT exceed it"
    return CheckReport(
        passed=not failures,
        checked=samples,
        failures=failures,
        note=note,
        certified=samples > bound and draws > bound,
    )


def closure_report(domain, index_set, samples: int, seed: int) -> CheckReport:
    """Products and inverses of realized shapes parse back, with the scalar
    parameter multiplying; exact over the sample domain.

    The coordinate identities are polynomial in the parameters with degree
    span at most 2*wt + 1, so the report certifies them only when both the
    sample count and the domain's distinct nonzero draws exceed that bound
    (reported in the note).  The law runs over lanes of trials, block by
    block (see _sampled_failures).
    """
    index_set = tuple(index_set)
    rng = random.Random(seed)
    draws = [(_random_params(domain, index_set, rng), _random_params(domain, index_set, rng)) for _ in range(samples)]
    eq, mul, one = domain.eq, domain.mul, domain.one()

    def check(trial, params, got) -> list:
        ((a1, _), (a2, _)), ((prod_a, _), (inv_a, _)) = params, got
        out = []
        if not eq(prod_a, mul(a1, a2)):
            out.append((trial, "product scalar is not a1*a2"))
        if not eq(mul(inv_a, a1), one):
            out.append((trial, "inverse scalar is not a^-1"))
        return out

    failures = _sampled_failures(domain, index_set, _closure_law, draws, check)
    return _sampled_report(failures, samples, 2 * max(ix.wt for ix in index_set) + 1, domain.draws)


def commutator_report(domain, index_set, samples: int, seed: int) -> CheckReport:
    """Exact commutator laws for the one-parameter subgroup of the last index.

    With R the shape whose only nonzero window parameter is x_{s_j} = v (unit
    scalar) and Q any shape with scalar parameter b:

        Q^{-1} R Q          has x_{s_j} = v * b^{wt(s_j)}
        R Q R^{-1} Q^{-1}   has x_{s_j} = v * (1 - b^{-wt(s_j)})

    both again with unit scalar and all other windows zero.  Q is drawn twice
    per trial: once with all window parameters zero (the worked-example
    pattern) and once fully random.  The laws run over lanes of trials,
    block by block (see _sampled_failures).
    """
    index_set = tuple(index_set)
    rng = random.Random(seed)
    last = index_set[-1]
    wt = last.wt
    zeros = {ix: domain.zero() for ix in index_set}
    draws = []
    for _ in range(samples):
        v = domain.sample(rng)
        b = domain.sample_nonzero(rng)
        xmap = {ix: domain.sample(rng) for ix in index_set}
        draws.append(((domain.one(), {**zeros, last: v}), (b, zeros), (b, xmap)))
    at = _shape_layout(index_set).windows.index(last)
    eq, is_zero, mul, one = domain.eq, domain.is_zero, domain.mul, domain.one()
    laws = ("conjugation coordinate is not v*b^wt", "commutator coordinate is not v*(1-b^-wt)")

    def check(trial, params, got) -> list:
        v, b = params[0][1][last], params[1][0]
        expect = (mul(v, domain.pow(b, wt)), mul(v, domain.add(one, domain.neg(domain.pow(b, -wt)))))
        out = []
        for tag, pair in zip(("plain", "random-x"), (got[:2], got[2:])):
            for (a, xs), want, law in zip(pair, expect, laws):
                v_element = eq(a, one) and all(is_zero(x) for k, x in enumerate(xs) if k != at)
                if not (v_element and eq(xs[at], want)):
                    out.append((trial, tag, law))
        return out

    failures = _sampled_failures(domain, index_set, _commutator_law, draws, check, "whole-matrix")
    return _sampled_report(failures, samples, 2 * wt + 1, domain.draws)
