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
module validates the matrices and runs the mutations.

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
multiply, invert and parse it block by block, and run their first trial on
the whole matrices as well.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import combinations
from typing import NamedTuple

from .carlitz import CarlitzContext, omega_power, omega_series
from .errors import BudgetError, ConventionError, ShapeParseError
from .ffield import FieldSpec, ops
from .poly import BivarPoly, t_minus_theta_frob, to_text as poly_text
from .reports import CheckReport, ResidualReport
from .special import CmplSpec, Index, check_convergence, cmpl_series, is_subclosed, subclosure
from . import tate
from .tate import TateElement, to_text as tate_text


@dataclass
class MotiveMatrix:
    """Square system matrix; kind 'phi-exact' (stored twisted) or 'psi-series'."""

    level: int
    size: int
    kind: str
    entries: tuple  # tuple of tuples; BivarPoly or TateElement
    field: FieldSpec

    def entry(self, i: int, j: int):
        return self.entries[i][j]

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
    return MotiveMatrix(ctx.l, d + 1, "phi-exact", tuple(map(tuple, rows)), fld)


def psi_matrix(
    ctx: CarlitzContext,
    u: tuple[BivarPoly, ...],
    s: Index,
    tdeg: int | None = None,
    prec: int | None = None,
) -> MotiveMatrix:
    """The series side: Omega-powers down the diagonal, window polylogarithm
    series below, bottom-right 1; entries carry valid tail certificates."""
    prec = ctx.prec if prec is None else prec
    tdeg = ctx.tdeg if tdeg is None else tdeg
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
    return MotiveMatrix(ctx.l, d + 1, "psi-series", tuple(map(tuple, rows)), fld)


def carlitz_system(
    ctx: CarlitzContext, tdeg: int | None = None, prec: int | None = None
) -> tuple[MotiveMatrix, MotiveMatrix]:
    """The 1x1 system (t - theta stored twisted, Omega as its trivialization)."""
    prec = ctx.prec if prec is None else prec
    tdeg = ctx.tdeg if tdeg is None else tdeg
    phi = MotiveMatrix(ctx.l, 1, "phi-exact", ((t_minus_theta_frob(ctx.field, ctx.l),),), ctx.field)
    psi = MotiveMatrix(
        ctx.l, 1, "psi-series", ((omega_series(ctx, tdeg=tdeg, prec=prec),),), ctx.field
    )
    return phi, psi


def example_system(
    ctx: CarlitzContext, m: int, n: int, tdeg: int | None = None, prec: int | None = None
) -> tuple[MotiveMatrix, MotiveMatrix]:
    """The worked 8x8 block pair for {(m), (n), (m, n)} with AT arguments:
    a 1x1 block, two 2x2 blocks, and a 3x3 block, as one direct sum."""
    from .special import at_arguments

    phi0, psi0 = carlitz_system(ctx, tdeg, prec)
    phi, psi = phi0, psi0
    for s in (Index((m,)), Index((n,)), Index((m, n))):
        u = at_arguments(ctx, s)
        phi = direct_sum(phi, phi_matrix(ctx, u, s))
        psi = direct_sum(psi, psi_matrix(ctx, u, s, tdeg, prec))
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
    return MotiveMatrix(a.level, n + m, a.kind, tuple(rows), a.field)


def derived_matrix(phi: MotiveMatrix, s: int) -> MotiveMatrix:
    """The s-th derived system, materialized fully twisted: the stored matrix
    becomes Phi^{(l)} Phi^{(2l)} ... Phi^{(sl)}, of level l*s (all positive
    twists, all polynomial)."""
    if phi.kind != "phi-exact":
        raise ValueError("derived systems are built from the exact side")
    if s < 1:
        raise ValueError("s must be a positive integer")
    l = phi.level
    acc = phi.entries
    for k in range(1, s):
        twisted = [[e.twist(k * l) for e in row] for row in phi.entries]
        acc = _poly_mat_mul(acc, twisted, phi.field)
    return MotiveMatrix(l * s, phi.size, "phi-exact", tuple(map(tuple, acc)), phi.field)


def _poly_mat_mul(a, b, field: FieldSpec):
    n = len(a)
    zero = BivarPoly.zero(field)
    out = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k].is_zero():
                continue
            for j in range(n):
                if not b[k][j].is_zero():
                    out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


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
    return MotiveMatrix(psi.level, psi.size, psi.kind, tuple(map(tuple, rows)), psi.field)


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


def _mutation_reports(
    phi: MotiveMatrix, psi: MotiveMatrix, res: tate.Residual
) -> tuple[list[list[tate.ZeroCheck]], dict[tuple[int, int], ResidualReport]]:
    """The entry checks of the unmutated residual, and the report of
    frobenius_residual(phi, perturb_entry(psi, i, j)) for every (i, j).

    Column by column, the base entry values are held while the mutations of
    that column add their corrections; only the moved checks are kept.  The
    sums are known exactly as far as a full recomputation knows them, except
    where theta^{(n)} cancels the leading term of a twisted entry: there the
    full recomputation's twisted entry has a higher valuation, and its
    products a higher precision.
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
    reports = {}
    for i in range(r):
        for j in range(r):
            out = [row[:] for row in checks]
            for a, chk in moved[i, j].items():
                out[a][j] = chk
            reports[i, j] = ResidualReport.from_checks(out, res.q)
    return checks, reports


def residual_and_kill(phi: MotiveMatrix, psi: MotiveMatrix) -> tuple[ResidualReport, CheckReport]:
    """frobenius_residual(phi, psi) and the mutation kill report of
    mutation_kill_report, from one residual set-up and one pass of entry
    values.

    Each mutation perturbs one entry of the series side, and every mutated
    residual must fail.  A mutated residual entry is the unmutated one plus
    a correction that depends only on the mutated row and the entry's row
    (see _corrections), so the r^2 mutations cost r sets of corrections and
    one addition per moved entry instead of full entry dots; the (r-2, 0)
    mutation ((0, 0) when r == 1) is also recomputed in full, and a mismatch
    raises ConventionError.
    """
    res = _residual_setup(phi, psi)
    checks, reports = _mutation_reports(phi, psi, res)
    r = psi.size
    spot = (max(r - 2, 0), 0)
    if frobenius_residual(phi, perturb_entry(psi, *spot)) != reports[spot]:
        raise ConventionError(
            f"incremental residual of mutation {spot} differs from full recomputation"
        )
    survivors = [ij for ij, rep in reports.items() if rep.passed]
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


def component_collapse_report(
    ctx: CarlitzContext,
    s: Index,
    i: int,
    j: int,
    u: tuple[BivarPoly, ...] | None = None,
    tdeg: int | None = None,
    prec: int | None = None,
) -> ResidualReport:
    """Alternating chain sum for the (i, j) component, with the tensor
    collapsed to an ordinary product (1-based, i >= j).

    For i > j the sum telescopes to zero: the chain coefficients are exactly
    the entries of the inverse of the unipotent matrix of window series, so
    the sum is a component of U^{-1} U.  The chain factors pair consecutive
    indices L[k_t][k_{t-1}]; the alternative pairing with a shifted second
    index does not cancel and is rejected by this check.  For i == j the
    collapsed component is an Omega-power times its own series inverse,
    verified to equal 1 to precision.
    """
    from .special import at_arguments

    prec = ctx.prec if prec is None else prec
    tdeg = ctx.tdeg if tdeg is None else tdeg
    if u is None:
        u = at_arguments(ctx, s)
    if not 1 <= j <= i <= s.dep + 1:
        raise ValueError("need 1 <= j <= i <= dep + 1")
    fld, q = ctx.field, ctx.q
    d = s.dep

    if i == j:
        w = omega_power(ctx, sum(s.entries[i - 1 :]), tdeg, prec)
        prod = w * tate.invert_unit(w)
        resid = prod - tate.one(fld, min(c.prec for c in prod.coeffs), 0)
        return ResidualReport.from_zero_check(
            tate.zero_check(resid),
            q,
            prefix=None,
            note="diagonal component: Omega-power times its series inverse vs 1",
        )

    L: dict[tuple[int, int], TateElement] = {}
    for a in range(1, d + 2):
        for b in range(1, a):
            window = CmplSpec(Index(s.entries[b - 1 : a - 1]), tuple(u[b - 1 : a - 1]))
            L[(a, b)] = cmpl_series(ctx, window, tdeg, prec)
        L[(a, a)] = tate.one(fld, prec + 4, 0)
    ompow = omega_power(ctx, sum(s.entries[j - 1 : i - 1]), tdeg, prec)
    terms = []
    for n in range(j, i + 1):
        # inverse-of-unipotent chain coefficient from n up to i
        if n == i:
            coeff = tate.one(fld, prec + 4, 0)
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
        return self._o.add[a * self._o.n + b]

    def sub(self, a, b):
        return self._o.sub(a, b)

    def mul(self, a, b):
        return self._o.mul[a * self._o.n + b]

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

    def sample(self, rng: random.Random):
        return rng.randrange(self._o.n)

    def sample_nonzero(self, rng: random.Random):
        return rng.randrange(1, self._o.n)


MAX_SAMPLE_DEGREE = 2  # F_p(t) samples have numerators and denominators of degree <= 2
MAX_POWER_DEGREE = 128  # F_p(t) refuses a power whose degree bound is larger


class RationalFunctionDomain:
    """F_p(t) with unreduced fractions; equality by cross-multiplication."""

    def __init__(self, p: int):
        self.p = p
        # distinct values of sample_nonzero: the nonzero n/d with deg n, deg d <= k
        # number exactly p^(2k+1) - 1
        self.draws = p ** (2 * MAX_SAMPLE_DEGREE + 1) - 1

    name = "rational-function"

    def _pmul(self, x, y):
        out = [0] * (len(x) + len(y) - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    out[i + j] = (out[i + j] + a * b) % self.p
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return tuple(out)

    def _padd(self, x, y):
        out = [0] * max(len(x), len(y))
        for i, a in enumerate(x):
            out[i] = a
        for i, b in enumerate(y):
            out[i] = (out[i] + b) % self.p
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return tuple(out)

    def zero(self):
        return ((0,), (1,))

    def one(self):
        return ((1,), (1,))

    def add(self, a, b):
        return (
            self._padd(self._pmul(a[0], b[1]), self._pmul(b[0], a[1])),
            self._pmul(a[1], b[1]),
        )

    def neg(self, a):
        return (tuple((-c) % self.p for c in a[0]), a[1])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return (self._pmul(a[0], b[0]), self._pmul(a[1], b[1]))

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        return (a[1], a[0])

    def pow(self, a, e):
        """a^e; BudgetError up front when its degree bound |e| * deg(a) (deg a
        the larger of numerator and denominator degree) exceeds MAX_POWER_DEGREE."""
        bound = abs(e) * (max(len(a[0]), len(a[1])) - 1)
        if bound > MAX_POWER_DEGREE:
            raise BudgetError(
                f"a power a^{e} over F_p(t) of degree bound {bound} (|e| * deg a) "
                f"exceeds MAX_POWER_DEGREE = {MAX_POWER_DEGREE}"
            )
        if e < 0:
            return self.pow(self.inv(a), -e)
        out = self.one()
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return out

    def eq(self, a, b):
        return self._pmul(a[0], b[1]) == self._pmul(b[0], a[1])

    def is_zero(self, a):
        return not any(a[0])

    def sample(self, rng: random.Random):
        num = tuple(rng.randrange(self.p) for _ in range(rng.randrange(1, MAX_SAMPLE_DEGREE + 2)))
        den = self._sample_nonzero_poly(rng)
        return (num if any(num) else (0,), den)

    def _sample_nonzero_poly(self, rng):
        while True:
            c = tuple(rng.randrange(self.p) for _ in range(rng.randrange(1, MAX_SAMPLE_DEGREE + 2)))
            if any(c):
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


@dataclass
class BlockShape:
    """Parameterized block matrix (a) + X_{s_1} + ... + X_{s_j}.

    Within block X_s, column c carries a^{s_{c+1}+...+s_d} on the diagonal
    and a^{s_{c+1}+...+s_d} x_{(s_{c+1},...,s_r)} below it; the x-parameter of
    a window is shared wherever that window value recurs, in any block.  All
    entries outside the diagonal blocks are zero, so `blocks` and
    `from_blocks` hold a shape as its diagonal blocks, the scalar slot first.
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
        dom, lay = self.domain, self._layout
        pw = {e: dom.pow(self.a, e) for e in lay.exponents}
        xs = [self.xmap[w] for w in lay.windows]
        zero, mul = dom.zero(), dom.mul
        out = [[[self.a]]]
        for diag, entries in zip(lay.diagonals, lay.entries):
            block = [[zero] * r + [pw[e]] + [zero] * (len(diag) - r - 1) for r, e in enumerate(diag)]
            for r, c, e, w in entries:
                block[r][c] = mul(pw[e], xs[w])
            out.append(block)
        return out

    def realize(self):
        n, zero = self.size, self.domain.zero()
        return [
            [zero] * lo + row + [zero] * (n - hi)
            for (lo, hi), block in zip(self._layout.spans, self.blocks())
            for row in block
        ]

    @classmethod
    def _read(cls, domain, index_set, rows, whole: bool) -> "BlockShape":
        """The shape whose k-th diagonal block is rows[k], or (whole) the
        span of the whole matrix rows[k] holds; ShapeParseError names the
        first entry off the shape in row-major order.

        In exact arithmetic an entry below a diagonal is a^e times the value
        extracted from it, so only recurring windows, the diagonals and the
        zeros around the blocks are compared.
        """
        lay = _shape_layout(index_set)
        a = rows[0][0][0]
        if domain.is_zero(a):
            raise ShapeParseError("scalar parameter is zero")
        eq, is_zero, mul = domain.eq, domain.is_zero, domain.mul
        pw = {e: domain.pow(a, e) for e in lay.exponents}
        ainv = {e: domain.inv(x) for e, x in pw.items()}
        starts = [lo if whole else 0 for lo, _ in lay.spans]
        xs = [None] * len(lay.windows)
        for o, entries, block in zip(starts[1:], lay.entries, rows[1:]):
            for r, c, e, w in entries:
                x = mul(block[r][o + c], ainv[e])
                if xs[w] is None:
                    xs[w] = x
                elif not eq(xs[w], x):
                    raise ShapeParseError(f"window {lay.windows[w]} extracted twice with different values")
        shape = cls(domain, index_set, a, dict(zip(lay.windows, xs)))
        diagonals = [(a,)] + [[pw[e] for e in diag] for diag in lay.diagonals]
        for (lo, _), o, diag, block in zip(lay.spans, starts, diagonals, rows):
            for r, (x, row) in enumerate(zip(diag, block)):
                d = o + r  # row r holds x in column d and zeros outside columns o..d
                if not (eq(row[d], x) and all(map(is_zero, row[d + 1 :])) and all(map(is_zero, row[:o]))):
                    fixed = (*range(o), *range(d, len(row)))
                    j = next(j for j in fixed if not (eq(x, row[j]) if j == d else is_zero(row[j])))
                    raise ShapeParseError(f"entry ({lo + r}, {lo - o + j}) off the parameterized shape")
        return shape

    @classmethod
    def from_blocks(cls, domain, index_set, blocks) -> "BlockShape":
        """Inverse of blocks; raises ShapeParseError on any mismatch."""
        index_set = tuple(index_set)
        sizes = [(hi - lo,) * (hi - lo) for lo, hi in _shape_layout(index_set).spans]
        if [tuple(map(len, block)) for block in blocks] != sizes:
            raise ShapeParseError(f"expected diagonal blocks of sizes {[len(s) for s in sizes]}")
        return cls._read(domain, index_set, blocks, False)

    @classmethod
    def parse(cls, domain, index_set, matrix) -> "BlockShape":
        """Inverse of realize; raises ShapeParseError on any mismatch."""
        index_set = tuple(index_set)
        lay = _shape_layout(index_set)
        n = lay.size
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ShapeParseError(f"expected a {n}x{n} matrix")
        return cls._read(domain, index_set, [matrix[lo:hi] for lo, hi in lay.spans], True)

    def is_v_element(self) -> bool:
        """Identity scalar, all windows zero except possibly the last index."""
        dom = self.domain
        if not dom.eq(self.a, dom.one()):
            return False
        last = self.index_set[-1]
        return all(dom.is_zero(x) for w, x in self.xmap.items() if w != last)

    def x_last(self):
        return self.xmap[self.index_set[-1]]


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


def _random_shape(dom, index_set, rng) -> BlockShape:
    a = dom.sample_nonzero(rng)
    xmap = {ix: dom.sample(rng) for ix in index_set}
    return BlockShape(dom, tuple(index_set), a, xmap)


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


def _parsed(domain, index_set, law, shapes, trial: int, failures: list, *where) -> list:
    """The shapes law(domain, *matrices) gives, with each shape held and
    parsed as its list of diagonal blocks.  The first trial also runs the
    law on the whole matrices (lists of one block), which certifies the zeros
    outside the blocks, and a failure (trial, *where, why) records any
    disagreement."""
    got = [BlockShape.from_blocks(domain, index_set, m) for m in law(domain, *(s.blocks() for s in shapes))]
    if trial == 0:
        try:
            whole = law(domain, *([s.realize()] for s in shapes))
            want = [BlockShape.parse(domain, index_set, m[0]) for m in whole]
            eq = domain.eq
            same = all(eq(g.a, w.a) and all(eq(x, w.xmap[k]) for k, x in g.xmap.items()) for g, w in zip(got, want))
            why = None if same else "spot check: the whole matrix parses to another shape"
        except ShapeParseError as exc:
            why = f"spot check: the whole matrix does not parse: {exc}"
        if why:
            failures.append((trial, *where, why))
    return got


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
    (reported in the note).  Shapes are multiplied block by block; the first
    trial is also run on the whole matrices.
    """
    index_set = tuple(index_set)
    rng = random.Random(seed)
    failures = []
    for trial in range(samples):
        s1 = _random_shape(domain, index_set, rng)
        s2 = _random_shape(domain, index_set, rng)
        try:
            prod, invp = _parsed(domain, index_set, _closure_law, (s1, s2), trial, failures)
            if not domain.eq(prod.a, domain.mul(s1.a, s2.a)):
                failures.append((trial, "product scalar is not a1*a2"))
            if not domain.eq(domain.mul(invp.a, s1.a), domain.one()):
                failures.append((trial, "inverse scalar is not a^-1"))
        except ShapeParseError as exc:
            failures.append((trial, str(exc)))
    return _sampled_report(failures, samples, 2 * max(ix.wt for ix in index_set) + 1, domain.draws)


def commutator_report(domain, index_set, samples: int, seed: int) -> CheckReport:
    """Exact commutator laws for the one-parameter subgroup of the last index.

    With R the shape whose only nonzero window parameter is x_{s_j} = v (unit
    scalar) and Q any shape with scalar parameter b:

        Q^{-1} R Q          has x_{s_j} = v * b^{wt(s_j)}
        R Q R^{-1} Q^{-1}   has x_{s_j} = v * (1 - b^{-wt(s_j)})

    both again with unit scalar and all other windows zero.  Q is drawn twice
    per trial: once with all window parameters zero (the worked-example
    pattern) and once fully random.  Shapes are multiplied block by block;
    the first trial is also run on the whole matrices.
    """
    index_set = tuple(index_set)
    rng = random.Random(seed)
    last = index_set[-1]
    wt = last.wt
    failures = []
    for trial in range(samples):
        v = domain.sample(rng)
        b = domain.sample_nonzero(rng)
        zeros = {ix: domain.zero() for ix in index_set}
        r_shape = BlockShape(domain, index_set, domain.one(), {**zeros, last: v})
        q_shapes = [
            BlockShape(domain, index_set, b, xdraw)
            for xdraw in (zeros, {ix: domain.sample(rng) for ix in index_set})
        ]
        parses = _parsed(domain, index_set, _commutator_law, (r_shape, *q_shapes), trial, failures, "whole-matrix")
        expect_conj = domain.mul(v, domain.pow(b, wt))
        expect_comm = domain.mul(v, domain.sub(domain.one(), domain.pow(b, -wt)))
        for tag, conj, comm in zip(("plain", "random-x"), parses[::2], parses[1::2]):
            if not (conj.is_v_element() and domain.eq(conj.x_last(), expect_conj)):
                failures.append((trial, tag, "conjugation coordinate is not v*b^wt"))
            if not (comm.is_v_element() and domain.eq(comm.x_last(), expect_comm)):
                failures.append((trial, tag, "commutator coordinate is not v*(1-b^-wt)"))
    return _sampled_report(failures, samples, 2 * wt + 1, domain.draws)
