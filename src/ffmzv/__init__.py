"""Exact arithmetic for positive-characteristic zeta values and their
Frobenius-difference matrix systems.

Layers, bottom up: finite fields (`ffield`), truncated Laurent series in the
ramified uniformizer (`laurent`), exact (t, theta)-polynomials (`poly`),
truncated Tate series with certified tails (`tate`), the Carlitz tower and
period series (`carlitz`), zeta values / generating-series polynomials /
polylogarithms (`special`), matrix systems and block-group shells
(`motive`), and the CLI plus verification suite (`cli`, `suite`).
"""

from .carlitz import (
    CarlitzContext,
    carlitz_d,
    carlitz_factorial,
    omega_functional_residual,
    omega_series,
    pi_omega_cross_check,
    pi_tilde,
)
from .errors import (
    BudgetError,
    CertificateError,
    ConventionError,
    FfmzvError,
    PrecisionError,
    ShapeParseError,
)
from .ffield import FieldSpec, field
from .laurent import LaurentSeries, compare_to_precision, from_rational
from .poly import BivarPoly, parse_poly
from .special import (
    CmplSpec,
    Index,
    anderson_thakur_polynomials,
    cmpl_series,
    cmpl_value,
    convergence_report,
    monic_power_sum,
    mzv,
    parse_index,
    period_identity_report,
    subclosure,
)
from .motive import (
    BlockShape,
    FiniteFieldDomain,
    MotiveMatrix,
    RationalFunctionDomain,
    closure_report,
    commutator_report,
    derived_matrix,
    direct_sum,
    frobenius_residual,
    phi_matrix,
    psi_matrix,
)
from .tate import TateElement, eval_at_theta, invert_linear_factor

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
