"""Small report records returned by the verification operations.

Exponents are reported on the |theta|-scale (|f| = |theta|^e, so e = -v_z/(q-1));
z-precision floors are reported directly in z-digits.

Each record's `verdict` is the one rule that turns it into the status a
report prints: "pass", "incomparable" (nothing was disproved, but nothing
was certified either) or "fail".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .laurent import Comparison
from .tate import ZeroCheck


@dataclass
class ResidualReport:
    passed: bool
    worst_exponent: Fraction | None  # Gauss-norm exponent of the residual, None if clean
    floor_z: int  # z-digit precision at which zero was verified
    location: tuple | None = None  # (row, col, t-degree) / (t-degree,) of the worst entry
    note: str = ""

    @classmethod
    def from_zero_check(
        cls, chk: ZeroCheck, q: int, prefix: tuple | None = (), note: str = ""
    ) -> "ResidualReport":
        """The verdict of one residual's zero check at q.  A failure is located
        at prefix + (worst t-degree,); prefix None reports no location."""
        if chk.ok:
            return cls(True, None, chk.floor_z, None, note)
        loc = None if prefix is None else (*prefix, chk.worst_tdeg)
        return cls(False, Fraction(-chk.worst_zval, q - 1), chk.floor_z, loc, note)

    @classmethod
    def from_checks(cls, checks: list[list[ZeroCheck]], q: int) -> "ResidualReport":
        """The verdict of a matrix residual's entry checks: the first worst
        entry in row-major order, at the least floor of all entries, located
        at (row, col, worst t-degree)."""
        floor = min(chk.floor_z for row in checks for chk in row)
        bad = [(c.worst_zval, i, j) for i, r in enumerate(checks) for j, c in enumerate(r) if not c.ok]
        _, i, j = min(bad, default=(None, 0, 0))
        return cls.from_zero_check(checks[i][j]._replace(floor_z=floor), q, prefix=(i, j))

    def verdict(self, target: int) -> str:
        """A zero certified below `target` z-digits is "incomparable"."""
        return "fail" if not self.passed else "incomparable" if self.floor_z < target else "pass"


@dataclass
class IdentityReport:
    status: str  # "equal" | "unequal" | "incomparable"
    precision: int | None  # joint z-precision of the comparison
    exponent: int | None = None  # first differing z-exponent when unequal
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "equal"

    def verdict(self) -> str:
        return {"equal": "pass", "unequal": "fail"}.get(self.status, "incomparable")

    @classmethod
    def from_comparison(cls, cmp: Comparison, target: int, note: str = "") -> "IdentityReport":
        """The verdict of a comparison certified to `target` z-digits: an
        "equal" whose joint precision falls below target is "incomparable"."""
        if cmp.status == "unequal":
            return cls("unequal", None, cmp.exponent, note)
        status = "equal" if cmp.exponent >= target else "incomparable"
        return cls(status, cmp.exponent, None, note)


@dataclass
class CheckReport:
    passed: bool
    checked: int = 0
    failures: list = field(default_factory=list)
    note: str = ""
    certified: bool = True  # False for a sampled check with too few samples or draws

    def verdict(self) -> str:
        return "fail" if not self.passed else "pass" if self.certified else "incomparable"
