"""Carlitz tower: D_i oracle, factorials, the period product, pi-tilde."""

import pytest
from helpers import certificate_ok, coeff

from ffmzv import tate
from ffmzv.carlitz import (
    CarlitzContext,
    carlitz_d,
    carlitz_d_bruteforce,
    carlitz_factorial,
    omega_functional_residual,
    omega_series,
    omega_for_eval,
    pi_omega_cross_check,
    pi_tilde,
)
from ffmzv.errors import BudgetError
from ffmzv.ffield import field, ops
from ffmzv.laurent import compare_to_precision, monomial, one, theta_pow, zero as ls_zero
from ffmzv.poly import BivarPoly
from ffmzv.tate import TateElement, eval_at_theta

CONFIGS = [(2, 1), (3, 1), (2, 2)]


def test_d_small_values():
    ctx = CarlitzContext(3, 1)
    assert carlitz_d(ctx, 0) == BivarPoly.one(ctx.field)
    assert carlitz_d(ctx, 1).terms == {(0, 3): 1, (0, 1): 2}  # theta^3 - theta
    neg1 = ops(ctx.field).neg[1]
    d2_expect = BivarPoly(ctx.field, {(0, 9): 1, (0, 1): neg1}) * carlitz_d(ctx, 1).twist(1)
    assert carlitz_d(ctx, 2) == d2_expect


@pytest.mark.parametrize("p,l", CONFIGS)
def test_d_recursion_equals_enumeration_to_budget(p, l):
    ctx = CarlitzContext(p, l, enum_budget=10**4)
    i = 0
    while ctx.q ** (i + 1) <= 10**4:
        i += 1
    for k in range(i + 1):
        assert carlitz_d(ctx, k) == carlitz_d_bruteforce(ctx, k)


def test_context_field_and_q_derive_from_p_and_l():
    ctx = CarlitzContext(2, 2)
    assert ctx.field is field(2, 2) and ctx.q == 4
    with pytest.raises(TypeError):
        CarlitzContext(2, 1, field=field(2, 2))
    with pytest.raises(TypeError):
        CarlitzContext(2, 1, q=4)


def test_bruteforce_budget():
    ctx = CarlitzContext(3, 1, enum_budget=10)
    with pytest.raises(BudgetError):
        carlitz_d_bruteforce(ctx, 3)


@pytest.mark.parametrize("p,l", CONFIGS)
def test_factorial_digit_formula(p, l):
    ctx = CarlitzContext(p, l)
    q = ctx.q
    assert carlitz_factorial(ctx, 0) == BivarPoly.one(ctx.field)
    for s in range(q):
        assert carlitz_factorial(ctx, s) == BivarPoly.one(ctx.field)
    assert carlitz_factorial(ctx, q) == carlitz_d(ctx, 1)
    # independent digit routine: top-down digits via repeated subtraction
    for n in (q + 2, 3 * q + 1, q * q + q):
        expect = BivarPoly.one(ctx.field)
        rest = n
        i = 0
        while q**i <= rest:
            i += 1
        while rest:
            i -= 1
            digit = rest // q**i
            rest -= digit * q**i
            expect = expect * carlitz_d(ctx, i) ** digit
        assert carlitz_factorial(ctx, n) == expect


@pytest.mark.parametrize("p,l", CONFIGS)
def test_omega_constant_coefficient(p, l):
    ctx = CarlitzContext(p, l, prec=40, tdeg=6)
    om = omega_series(ctx)
    c0 = om.coeffs[0]
    assert c0.val == ctx.q and c0.coeffs[0] == 1
    assert certificate_ok(om)


def test_omega_linear_coefficient_from_expansion():
    # with exactly F factors, the t-coefficient is -z^q * sum theta^{-q^i}:
    # z^q times the factors 1 - t/theta^{q^i}, i = 1..F, as omega_series builds it
    ctx = CarlitzContext(3, 1, prec=60)
    F, fld, work = 3, ctx.field, 60 + 3 + 2
    om = tate.from_laurent(monomial(fld, 3, 1, work))
    for i in range(1, F + 1):
        om = (om * TateElement(fld, [one(fld, work), -theta_pow(fld, -(3**i), work)], None, True)).truncate_tdeg(3)
    neg1 = ops(ctx.field).neg[1]
    expect = ls_zero(ctx.field, 60)
    for i in range(1, F + 1):
        expect = expect + theta_pow(ctx.field, 3**i, 80).inv()
    expect = (monomial(ctx.field, 3, neg1, 80) * expect).truncate(om.coeffs[1].prec)
    assert compare_to_precision(om.coeffs[1], expect).status == "equal"


@pytest.mark.parametrize("p,l", CONFIGS)
@pytest.mark.parametrize("prec", [40, 64])
def test_omega_functional_equation(p, l, prec):
    ctx = CarlitzContext(p, l, prec=prec, tdeg=12)
    rep = omega_functional_residual(ctx, omega_series(ctx))
    assert rep.passed


@pytest.mark.parametrize("p,l", CONFIGS + [(3, 2), (2, 3)])
def test_omega_drop_factor_control_fails(p, l):
    # at q = 9, prec 64 and at q = 8, prec 48 the control fails only at
    # t-degree 1, at z^81 and z^64: a twist capped only 2 digits past the
    # (q-1)q loss does not reach that far
    prec = 64 if (p, l) == (3, 2) else 48
    ctx = CarlitzContext(p, l, prec=prec, tdeg=10)
    rep = omega_functional_residual(ctx, omega_series(ctx, drop_factor=1))
    assert not rep.passed
    assert rep.worst_exponent is not None


def test_omega_zero_sanity_precheck():
    ctx = CarlitzContext(2, 1, prec=30)
    rep = omega_functional_residual(ctx, tate.zero(ctx.field, 30, 4))
    assert not rep.passed and "precheck" in rep.note


@pytest.mark.parametrize("p,l", CONFIGS)
def test_pi_tilde_norm(p, l):
    from fractions import Fraction

    ctx = CarlitzContext(p, l)
    q = ctx.q
    pt = pi_tilde(ctx, 40)
    assert not pt.is_zero() and Fraction(-pt.val, q - 1) == Fraction(q, q - 1)


def test_pi_tilde_first_terms_q3():
    # -z^{-3} (1 + theta^{-2} + ...) = -z^{-3} - z + ...
    ctx = CarlitzContext(3, 1)
    pt = pi_tilde(ctx, 12)
    assert pt.val == -3 and pt.coeffs[0] == 2
    assert coeff(pt, 1) == 2 and coeff(pt, -2) == 0 and coeff(pt, 0) == 0


@pytest.mark.parametrize("p,l", CONFIGS)
def test_two_path_period_cross_check(p, l):
    rep = pi_omega_cross_check(CarlitzContext(p, l), 50)
    assert rep.status == "equal" and rep.precision >= 50


def test_eval_sized_omega():
    ctx = CarlitzContext(2, 1)
    ev = eval_at_theta(omega_for_eval(ctx, 50))
    assert ev.prec >= 50
    assert ev.val == ctx.q
