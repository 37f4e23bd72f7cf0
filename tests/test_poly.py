"""Exact polynomial layer: division in t, packed products, twists, parsing."""

import random
import re

import pytest

from ffmzv import ffield
from ffmzv.errors import ConventionError
from ffmzv.ffield import field
from ffmzv.laurent import compare_to_precision
from ffmzv.poly import BivarPoly, dense_theta_mul, parse_poly, t_minus_theta_frob, to_text
from test_ffield import KERNEL_FIELDS, schoolbook_product

F3 = field(3, 1)
F4 = field(2, 2)


def _rand_poly(rng, fld, terms=5, dmax=4):
    return BivarPoly(
        fld,
        {
            (rng.randrange(dmax), rng.randrange(dmax)): rng.randrange(1, fld.order)
            for _ in range(terms)
        },
    )


def test_divmod_roundtrip():
    rng = random.Random(42)
    for _ in range(50):
        f = _rand_poly(rng, F3)
        g = _rand_poly(rng, F3, terms=3, dmax=3) + BivarPoly(F3, {(4, 0): 1})  # monic in t
        q, r = (f * g).divmod_t(g)
        assert r.is_zero()
        assert q == f
        q2, r2 = (f * g + BivarPoly.one(F3)).divmod_t(g)
        assert (q2 * g + r2) == f * g + BivarPoly.one(F3)


def test_divmod_requires_monic():
    g = BivarPoly(F3, {(2, 1): 1})  # lead coefficient theta, not scalar
    with pytest.raises(ConventionError, match="monic"):
        BivarPoly.one(F3).divmod_t(g)


@pytest.mark.parametrize("p,m", KERNEL_FIELDS)
def test_packed_dense_mul_matches_schoolbook(p, m):
    fld = field(p, m)
    rng = random.Random(p * 10 + m)
    # lengths on both sides of the packed and Karatsuba crossovers
    lengths = sorted({0, 1, 2, 3, 9, 10, 11, 24, ffield._PACKED_MIN, ffield._KARATSUBA_MIN})
    for la in lengths:
        for lb in lengths:
            a = [rng.randrange(fld.order) for _ in range(la)]
            b = [rng.randrange(fld.order) for _ in range(lb)]
            assert dense_theta_mul(fld, a, b) == schoolbook_product(fld, a, b)
            assert dense_theta_mul(fld, [0] * la, b) == [0] * (la + lb - 1 if la and lb else 0)


def test_twist_homomorphism_and_eval():
    rng = random.Random(9)
    for _ in range(30):
        f = _rand_poly(rng, F4)
        g = _rand_poly(rng, F4)
        assert (f * g).twist(1) == f.twist(1) * g.twist(1)
        lhs = f.eval_theta_twisted(2, 40)
        rhs = f.twist(2).eval_theta(40)
        assert compare_to_precision(lhs, rhs).status == "equal"


def test_t_minus_theta_frob():
    lin = t_minus_theta_frob(F3, 1)
    assert lin.terms == {(1, 0): 1, (0, 3): 2}
    at_theta = lin.eval_theta(30)
    assert at_theta.val == -6  # theta - theta^3 has valuation -(q-1)q


def test_parse_poly_roundtrip():
    for text in ["1", "t", "theta^2", "t*theta + 2", "theta^3 + 2*t^2*theta + 1", "-t + 1"]:
        f = parse_poly(F3, text)
        again = parse_poly(F3, to_text(f))
        assert f == again
    with pytest.raises(ValueError):
        parse_poly(F3, "x + 1")


def test_parse_poly_exponents_are_non_negative_integers():
    # "t^-1" used to read as the two terms "t^" and "-1", that is t + 2
    for text, factor in (("t^-1", "'t^'"), ("theta^-2", "'theta^'"), ("t^", "'t^'")):
        with pytest.raises(ValueError, match=re.escape(f"factor {factor}")):
            parse_poly(F3, text)
    assert parse_poly(F3, "t^0") == BivarPoly.one(F3)
    assert parse_poly(F3, "theta^12") == BivarPoly(F3, {(0, 12): 1})
    assert parse_poly(F3, "2*t*theta^3 - 1") == BivarPoly(F3, {(1, 3): 2, (0, 0): 2})
