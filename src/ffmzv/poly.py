"""Exact polynomials in (t, theta) over F_{p^m}.

Sparse dict representation {(deg_t, deg_theta): coeff encoding}.  These carry
the Frobenius-twist action (t fixed, theta-exponents scaled by p^n,
coefficients raised to p^n) and evaluate at t = theta into truncated Laurent
series through `laurent.from_theta_poly`.  Powers use `ffield.power`, and
`dense_theta_mul` multiplies dense univariate theta-coefficient lists for
the brute-force product oracles through `ffield.dense_mul`.
"""

from __future__ import annotations

from .errors import ConventionError
from .ffield import FieldSpec, dense_mul, element_text, ops, power
from .laurent import LaurentSeries, from_theta_poly


class BivarPoly:
    __slots__ = ("field", "terms")

    def __init__(self, field: FieldSpec, terms: dict[tuple[int, int], int]):
        self.field = field
        self.terms = {e: c for e, c in terms.items() if c}

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(field: FieldSpec) -> "BivarPoly":
        return BivarPoly(field, {})

    @staticmethod
    def one(field: FieldSpec) -> "BivarPoly":
        return BivarPoly(field, {(0, 0): 1})

    @staticmethod
    def theta(field: FieldSpec) -> "BivarPoly":
        return BivarPoly(field, {(0, 1): 1})

    @staticmethod
    def from_theta_coeffs(field: FieldSpec, coeffs: dict[int, int]) -> "BivarPoly":
        return BivarPoly(field, {(0, k): c for k, c in coeffs.items()})

    # -- queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def deg_t(self) -> int:
        return max((a for a, _ in self.terms), default=0)

    def deg_theta(self) -> int:
        return max((b for _, b in self.terms), default=0)

    def gauss_exponent(self) -> int | None:
        """log_|theta| of the coefficient sup norm: max theta-degree, None if zero."""
        if not self.terms:
            return None
        return self.deg_theta()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BivarPoly)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.terms.items()))))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        o = ops(self.field)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = o.add(out.get(e, 0), c)
        return BivarPoly(self.field, out)

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        o = ops(self.field)
        exp, log, zech = o.exp, o.log, o.zech
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self.terms.items():
            l1 = log[c1]
            for (a2, b2), c2 in other.terms.items():
                e = (a1 + a2, b1 + b2)
                lc = log[out.get(e, 0)]  # c + c1*c2 by Zech logarithms, c1 != 0 (ffield.FieldOps)
                out[e] = exp[lc + zech[l1 + log[c2] - lc]]
        return BivarPoly(self.field, out)

    def truncate_t(self, d: int) -> "BivarPoly":
        """The terms of t-degree <= d."""
        return BivarPoly(self.field, {e: c for e, c in self.terms.items() if e[0] <= d})

    def __pow__(self, e: int) -> "BivarPoly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, e, BivarPoly.one(self.field))

    def twist(self, n: int) -> "BivarPoly":
        """n-fold twist: coefficients to the p^n, theta-exponents times p^n, t fixed."""
        if n == 0:
            return self
        o = ops(self.field)
        s = self.field.p**n
        return BivarPoly(
            self.field, {(a, b * s): o.frob_n(c, n) for (a, b), c in self.terms.items()}
        )

    # -- specializations ------------------------------------------------------

    def eval_theta(self, prec: int) -> LaurentSeries:
        """Substitute t = theta and expand in z (laurent.from_theta_poly)."""
        return self.eval_theta_twisted(0, prec)

    def eval_theta_twisted(self, n: int, prec: int) -> LaurentSeries:
        """(self twisted n-fold) evaluated at t = theta, as a z-series: the
        theta-polynomial with a coefficient at each degree a + b*p^n."""
        o = ops(self.field)
        s = self.field.p**n
        acc: dict[int, int] = {}
        for (a, b), c in self.terms.items():
            k = a + b * s
            cc = o.frob_n(c, n) if n else c
            prev = acc.get(k)
            acc[k] = cc if prev is None else o.add(prev, cc)
        return from_theta_poly(self.field, acc, prec)

    def subs_theta_to_t(self) -> "BivarPoly":
        """Rename theta to t; only valid for polynomials with no t-support."""
        if self.deg_t() != 0:
            raise ValueError("substitution theta -> t requires a pure theta-polynomial")
        return BivarPoly(self.field, {(b, 0): c for (_, b), c in self.terms.items()})

    def divmod_t(self, divisor: "BivarPoly") -> tuple["BivarPoly", "BivarPoly"]:
        """Long division in t; divisor must be monic in t with scalar lead."""
        dd = divisor.deg_t()
        lead = {b: c for (a, b), c in divisor.terms.items() if a == dd}
        if lead != {0: 1}:
            raise ConventionError("divisor is not monic in t")
        o = ops(self.field)
        rem = dict(self.terms)
        quot: dict[tuple[int, int], int] = {}
        div_terms = list(divisor.terms.items())
        while rem:
            a = max(e[0] for e in rem)
            if a < dd:
                break
            slice_terms = [(b, c) for (ta, b), c in rem.items() if ta == a]
            for b, c in slice_terms:
                quot[(a - dd, b)] = c
                for (da, db), dc in div_terms:
                    e = (a - dd + da, b + db)
                    v = o.sub(rem.get(e, 0), o.exp[o.log[c] + o.log[dc]])
                    if v:
                        rem[e] = v
                    else:
                        rem.pop(e, None)
            assert not any(ta == a for ta, _ in rem), "leading slice did not clear"
        return BivarPoly(self.field, quot), BivarPoly(self.field, rem)

    def __repr__(self) -> str:
        return f"BivarPoly({to_text(self)})"


def t_minus_theta_frob(field: FieldSpec, n: int) -> BivarPoly:
    """The n-fold twist (t - theta)^((n)) = t - theta^(p^n)."""
    neg1 = ops(field).neg[1]
    return BivarPoly(field, {(1, 0): 1, (0, field.p**n): neg1})


def to_text(f: BivarPoly) -> str:
    if not f.terms:
        return "0"
    parts = []
    for (a, b) in sorted(f.terms, reverse=True):
        c = f.terms[(a, b)]
        ct = element_text(f.field, c)
        if "+" in ct:
            ct = f"({ct})"
        factors = []
        if a:
            factors.append("t" if a == 1 else f"t^{a}")
        if b:
            factors.append("theta" if b == 1 else f"theta^{b}")
        if not factors:
            parts.append(ct)
        elif ct == "1":
            parts.append("*".join(factors))
        else:
            parts.append("*".join([ct] + factors))
    return " + ".join(parts)


def parse_poly(field: FieldSpec, text: str) -> BivarPoly:
    """Parse 'c*t^a*theta^b + ...' (integer coefficients, no parentheses)."""
    s = text.replace(" ", "").replace("-", "+-")
    if not s or s == "+-":
        raise ValueError(f"cannot parse polynomial {text!r}")
    result = BivarPoly.zero(field)
    for chunk in s.split("+"):
        if not chunk:
            continue
        coeff = 1
        if chunk.startswith("-"):
            coeff = -1
            chunk = chunk[1:]
        dt = dth = 0
        for factor in chunk.split("*"):
            if not factor:
                raise ValueError(f"cannot parse polynomial {text!r}")
            name, caret, exp = factor.partition("^")
            if caret and not exp.isdecimal():
                raise ValueError(f"factor {factor!r}: exponents are non-negative integers")
            e = int(exp) if caret else 1
            if name == "t":
                dt += e
            elif name == "theta":
                dth += e
            elif name.isdigit():
                coeff *= int(name) ** e
            else:
                raise ValueError(f"unknown factor {factor!r} in {text!r}")
        enc = ops(field).from_int(coeff)
        result = result + BivarPoly(field, {(dt, dth): enc})
    return result


def dense_theta_mul(field: FieldSpec, a: list[int], b: list[int]) -> list[int]:
    """Product of dense theta-coefficient lists (encodings), by ffield.dense_mul."""
    return dense_mul(field, a, b)
