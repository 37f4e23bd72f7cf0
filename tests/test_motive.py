"""Matrix systems, derived systems, and the block-group shells."""

import itertools
import json
import random
import re
import time

import pytest
from helpers import cache_stats, certificate_ok, counting, mutation_reports, rf_coeffs, tate_pow
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ffmzv import motive, tate
from ffmzv.carlitz import CarlitzContext, omega_power, omega_series
from ffmzv.errors import BudgetError, ConventionError, ShapeParseError
from ffmzv.ffield import field
from ffmzv.motive import (
    BlockShape,
    FiniteFieldDomain,
    MotiveMatrix,
    MAX_POWER_DEGREE,
    MAX_SAMPLE_DEGREE,
    RationalFunctionDomain,
    carlitz_system,
    closure_report,
    commutator_report,
    component_collapse_report,
    derived_matrix,
    direct_sum,
    example_system,
    frobenius_residual,
    mutation_kill_report,
    perturb_entry,
    phi_matrix,
    psi_matrix,
    _mat_inv_lower,
    _mat_mul,
)
from ffmzv.poly import BivarPoly, t_minus_theta_frob
from ffmzv.reports import ResidualReport
from ffmzv.special import CmplSpec, Index, _cmpl_series, at_arguments, cmpl_series, subclosure


def test_phi_shape_depth_one_zero_argument():
    ctx = CarlitzContext(3, 1)
    s = Index((2,))
    phi = phi_matrix(ctx, (BivarPoly.zero(ctx.field),), s)
    lin = t_minus_theta_frob(ctx.field, 1)
    assert phi.entries[0][0] == lin**2
    assert phi.entries[1][1] == BivarPoly.one(ctx.field)
    assert phi.entries[1][0].is_zero() and phi.entries[0][1].is_zero()


def test_phi_determinant_nonzero_at_theta():
    ctx = CarlitzContext(2, 1)
    s = Index((1, 2))
    phi = phi_matrix(ctx, at_arguments(ctx, s), s)
    det = BivarPoly.one(ctx.field)
    for k in range(phi.size):
        det = det * phi.entries[k][k]
    assert not det.eval_theta(40).is_zero()


def test_psi_shape_depth_one_zero_argument():
    ctx = CarlitzContext(3, 1, prec=30, tdeg=6)
    s = Index((2,))
    psi = psi_matrix(ctx, (BivarPoly.zero(ctx.field),), s)
    assert tate.zero_check(psi.entries[1][0]).ok
    assert tate.zero_check(psi.entries[0][1]).ok
    # diagonal: Omega^2 and 1
    from ffmzv.carlitz import omega_series

    om2 = tate_pow(omega_series(ctx), 2)
    assert tate.zero_check(psi.entries[0][0] + -om2).ok
    assert tate.zero_check(psi.entries[1][1] + -tate.one(ctx.field, 20)).ok


@pytest.mark.parametrize("p,l", [(2, 1), (3, 1)])
@pytest.mark.parametrize("entries", [(1,), (2,), (1, 1), (2, 1), (1, 2)])
def test_frobenius_residual_passes(p, l, entries):
    ctx = CarlitzContext(p, l, prec=48, tdeg=8)
    s = Index(entries)
    u = at_arguments(ctx, s)
    rep = frobenius_residual(phi_matrix(ctx, u, s), psi_matrix(ctx, u, s))
    assert rep.passed, rep


def test_residual_zeroed_entry_fails_with_location():
    ctx = CarlitzContext(2, 1, prec=40, tdeg=8)
    s = Index((1,))
    u = at_arguments(ctx, s)
    phi, psi = phi_matrix(ctx, u, s), psi_matrix(ctx, u, s)
    rows = [list(r) for r in psi.entries]
    rows[0][0] = tate.zero(ctx.field, 44, 8)
    broken = MotiveMatrix(psi.level, tuple(map(tuple, rows)))
    rep = frobenius_residual(phi, broken)
    assert not rep.passed
    assert rep.location is not None and rep.worst_exponent is not None


@pytest.mark.parametrize("p,l", [(2, 1), (3, 1)])
def test_mutation_kill_small(p, l):
    ctx = CarlitzContext(p, l, prec=48, tdeg=6)
    s = Index((2,))
    u = at_arguments(ctx, s)
    rep = mutation_kill_report(ctx, phi_matrix(ctx, u, s), psi_matrix(ctx, u, s))
    assert rep.passed and rep.checked == 4


def test_perturbed_bottom_right_is_killed():
    # adding a twist-fixed constant there would be invisible; theta is not
    ctx = CarlitzContext(2, 1, prec=40, tdeg=6)
    s = Index((1,))
    u = at_arguments(ctx, s)
    phi, psi = phi_matrix(ctx, u, s), psi_matrix(ctx, u, s)
    assert not frobenius_residual(phi, perturb_entry(psi, 1, 1)).passed


def _mutation_systems(p, l):
    ctx = CarlitzContext(p, l, prec=40, tdeg=6)
    # s = q + 1 gives an argument of positive theta-degree; where every
    # argument is 1, a missed off-diagonal entry would not change the report
    big = ctx.q + 1
    for entries in [(big,), (1, big), (1, 2, 1), (1, 1, big)]:
        s = Index(entries)
        u = at_arguments(ctx, s)
        phi, psi = phi_matrix(ctx, u, s), psi_matrix(ctx, u, s)
        yield phi, psi
        yield derived_matrix(phi, 2), psi


def _assert_incremental_equals_full(phi, psi):
    res = motive._residual_setup(phi, psi)
    checks, reports = mutation_reports(phi, psi, res)
    assert ResidualReport.from_checks(checks, res.q) == frobenius_residual(phi, psi)
    assert sorted(reports) == [(i, j) for i in range(psi.size) for j in range(psi.size)]
    for (i, j), got in reports.items():
        assert got == frobenius_residual(phi, perturb_entry(psi, i, j)), (i, j)


@pytest.mark.parametrize("p,l", [(2, 1), (3, 1), (2, 2)])
def test_incremental_mutation_residual_equals_full(p, l):
    for phi, psi in _mutation_systems(p, l):
        _assert_incremental_equals_full(phi, psi)


def test_incremental_mutation_residual_equals_full_example_system():
    ctx = CarlitzContext(2, 1, prec=40, tdeg=6)
    _assert_incremental_equals_full(*example_system(ctx, 1, 3))


def test_mutations_keep_the_residual_set_up():
    # theta is exact, of t-degree 0 and known to the precision of Psi[0][0],
    # so no mutation moves the cap or the t-degree the residual is checked to
    systems = [sys_ for p, l in [(2, 1), (3, 1), (2, 2)] for sys_ in _mutation_systems(p, l)]
    phi8, psi8 = example_system(CarlitzContext(2, 1, prec=40, tdeg=6), 1, 2)
    assert psi8.size == 8
    for phi, psi in systems + [(phi8, psi8)]:
        res = motive._residual_setup(phi, psi)
        for i in range(psi.size):
            for j in range(psi.size):
                mutated = motive._residual_setup(phi, perturb_entry(psi, i, j))
                assert (mutated.cap, mutated.tdeg) == (res.cap, res.tdeg), (i, j)


def test_mutation_kill_recomputes_one_residual_in_full(monkeypatch):
    ctx = CarlitzContext(3, 1, prec=40, tdeg=6)
    s = Index((1, 2))
    u = at_arguments(ctx, s)
    phi, psi = phi_matrix(ctx, u, s), psi_matrix(ctx, u, s)
    calls = []
    full = motive.frobenius_residual
    monkeypatch.setattr(motive, "frobenius_residual", lambda *a: calls.append(a) or full(*a))
    assert mutation_kill_report(ctx, phi, psi).passed
    assert len(calls) == 1  # the spot check


@st.composite
def _zero_checks(draw):
    if draw(st.sampled_from([True, True, True, False])):
        return tate.ZeroCheck(True, None, None, draw(st.integers(10, 40)))
    return tate.ZeroCheck(False, draw(st.integers(0, 6)), draw(st.integers(-5, 30)), draw(st.integers(10, 40)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutation_survivors_are_the_mutated_residuals_that_pass(data):
    # synthetic base and moved checks, a few of them failing: the kill
    # decides each mutation without its report, and must agree with it
    ctx = CarlitzContext(3, 1, prec=40, tdeg=6)
    s = Index((1, 2))
    u = at_arguments(ctx, s)
    phi, psi = phi_matrix(ctx, u, s), psi_matrix(ctx, u, s)
    r, q = psi.size, ctx.q
    checks = [[data.draw(_zero_checks()) for _ in range(r)] for _ in range(r)]
    moved = {}
    for i in range(r):
        for j in range(r):
            rows = data.draw(st.sets(st.integers(0, r - 1)))
            moved[i, j] = {a: data.draw(_zero_checks()) for a in sorted(rows)}
    reports = {(i, j): motive._mutated_report(checks, j, mv, q) for (i, j), mv in moved.items()}
    spot = (r - 2, 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(motive, "_mutation_moves", lambda *args: (checks, moved))
        mp.setattr(motive, "frobenius_residual", lambda *args: reports[spot])
        base, kill = motive.residual_and_kill(phi, psi)
    assert base == ResidualReport.from_checks(checks, q)
    assert kill.failures == [ij for ij, rep in reports.items() if rep.passed]
    assert kill.passed == (not kill.failures) and kill.checked == r * r


def _spot_check_system():
    # s = q + 1 gives an argument of positive theta-degree, so that the entry
    # below a mutated one changes the report
    ctx = CarlitzContext(2, 1, prec=40, tdeg=6)
    s = Index((1, ctx.q + 1))
    u = at_arguments(ctx, s)
    return ctx, phi_matrix(ctx, u, s), psi_matrix(ctx, u, s)


def _assert_only_the_spot_check_sees(ctx, phi, psi):
    # every mutation of the mutant still fails, so only the spot check can
    # see it
    _, reports = mutation_reports(phi, psi, motive._residual_setup(phi, psi))
    assert not any(rep.passed for rep in reports.values())
    r = psi.size
    with pytest.raises(ConventionError, match=rf"mutation \({r - 2}, 0\)"):
        mutation_kill_report(ctx, phi, psi)


def test_mutation_spot_check_catches_a_missed_mutation(monkeypatch):
    ctx = CarlitzContext(2, 1, prec=40, tdeg=6)
    s = Index((1, 2))
    u = at_arguments(ctx, s)
    phi, psi = phi_matrix(ctx, u, s), psi_matrix(ctx, u, s)
    # a mutant that moves no entry: every mutated report is the unmutated one
    monkeypatch.setattr(motive, "_mutation_checks", lambda values, corr: {})
    with pytest.raises(ConventionError):
        mutation_kill_report(ctx, phi, psi)


def test_mutation_spot_check_covers_the_entry_below(monkeypatch):
    # a mutant that updates only the mutated entry, never the entries that
    # Phi's subdiagonal feeds; Phi is lower triangular, so the mutated row is
    # the least row a correction names
    ctx, phi, psi = _spot_check_system()

    def own_entry_only(values, corr):
        i = min(corr)
        return {i: tate.zero_check(values[i] + corr[i])}

    monkeypatch.setattr(motive, "_mutation_checks", own_entry_only)
    _assert_only_the_spot_check_sees(ctx, phi, psi)


_CORRECTIONS = motive._corrections


def _theta_only(res, th, thn, i):
    # the correction on the mutated row alone, and without Phi[i][i] * th^(n)
    return {i: -th}


def _mutated_row_only(res, th, thn, i):
    # the mutated row's correction; the subdiagonal's Phi[a][i] * th^(n) on
    # the rows below is dropped
    return {i: _CORRECTIONS(res, th, thn, i)[i]}


@pytest.mark.parametrize("mutant", [_mutated_row_only, _theta_only])
def test_mutation_spot_check_catches_a_dropped_correction(monkeypatch, mutant):
    ctx, phi, psi = _spot_check_system()
    monkeypatch.setattr(motive, "_corrections", mutant)
    _assert_only_the_spot_check_sees(ctx, phi, psi)


def test_cached_omega_and_window_series_equal_fresh_builds():
    ctx = counting(CarlitzContext(3, 1, prec=40, tdeg=8))
    s = Index((1, 2, 1))
    u = at_arguments(ctx, s)
    om = omega_series(ctx)
    windows = [CmplSpec(Index(s.entries[a:b]), u[a:b]) for a in range(3) for b in range(a + 1, 4)]
    sers = [cmpl_series(ctx, w, ctx.tdeg, ctx.prec) for w in windows]
    # a request's work reuses (and must not alter) the cached objects
    psi = psi_matrix(ctx, u, s)
    assert mutation_kill_report(ctx, phi_matrix(ctx, u, s), psi).passed
    assert component_collapse_report(ctx, s, 4, 1).passed
    hits = cache_stats(ctx).hits
    assert omega_series(ctx) is om
    assert all(cmpl_series(ctx, w, ctx.tdeg, ctx.prec) is ser for w, ser in zip(windows, sers))
    assert cache_stats(ctx).hits == hits + 1 + len(windows)
    # on a fresh context, the product is built afresh
    fresh_om = omega_series(CarlitzContext(3, 1, prec=40, tdeg=8))
    assert fresh_om is not om and tate.to_text(fresh_om) == tate.to_text(om)
    for w, ser in zip(windows, sers):
        assert tate.to_text(_cmpl_series(ctx, w, ctx.tdeg, ctx.prec)) == tate.to_text(ser)


def _series_data(x):
    return x.tail, [(c.val, c.coeffs, c.prec) for c in x.coeffs]


@pytest.mark.parametrize("p,l", [(2, 1), (3, 1), (2, 2)])
def test_omega_power_equals_square_and_multiply(p, l):
    # the motive-residual sizes (prec, tdeg)
    for prec, tdeg in [(40, 8), (56, 11), (72, 14)]:
        ctx = CarlitzContext(p, l)
        om = omega_series(ctx, tdeg=tdeg, prec=prec)
        for e in range(2, 8):
            assert _series_data(omega_power(ctx, e, tdeg, prec)) == _series_data(tate_pow(om, e))


def test_collapse_report_is_unchanged_and_reuses_psi_omega_powers(monkeypatch):
    s = Index((1, 2, 1))

    def collapse_reports():
        ctx = CarlitzContext(3, 1, prec=40, tdeg=8)
        return [component_collapse_report(ctx, s, i, j) for i in range(1, 5) for j in range(1, i)]

    reports = collapse_reports()
    # the reports built with square-and-multiply powers, as before omega_power
    om = omega_series(CarlitzContext(3, 1, prec=40, tdeg=8))
    one = tate.one(field(3, 1), 40 + 3 + 2)
    monkeypatch.setattr(motive, "omega_power", lambda ctx, e, tdeg, prec: tate_pow(om, e) if e else one)
    assert collapse_reports() == reports
    monkeypatch.undo()
    # the request's collapse call finds every Omega power that psi_matrix built
    ctx = counting(CarlitzContext(3, 1, prec=40, tdeg=8))
    psi_matrix(ctx, at_arguments(ctx, s), s)
    omega_keys = {k for k in ctx._cache if k[0] == "omega"}
    assert ("omega", 8, 40, sum(s.entries)) in omega_keys
    misses = cache_stats(ctx).misses
    assert component_collapse_report(ctx, s, s.dep + 1, 1).passed
    assert cache_stats(ctx).misses == misses
    assert {k for k in ctx._cache if k[0] == "omega"} == omega_keys


def test_direct_sum_blocks_and_residual_distribution():
    ctx = CarlitzContext(2, 1, prec=40, tdeg=6)
    phi1, psi1 = carlitz_system(ctx)
    s = Index((1,))
    u = at_arguments(ctx, s)
    phi2, psi2 = phi_matrix(ctx, u, s), psi_matrix(ctx, u, s)
    phi = direct_sum(phi1, phi2)
    psi = direct_sum(psi1, psi2)
    assert phi.size == 3 and psi.size == 3
    assert phi.entries[0][1].is_zero() and phi.entries[2][0].is_zero()
    assert frobenius_residual(phi, psi).passed
    # a failing block makes the sum fail, both ways
    bad2 = perturb_entry(psi2, 0, 0)
    assert not frobenius_residual(phi, direct_sum(psi1, bad2)).passed
    assert not frobenius_residual(direct_sum(phi2, phi1), direct_sum(bad2, psi1)).passed


def test_direct_sum_requires_matching():
    ctx = CarlitzContext(2, 1, prec=30, tdeg=4)
    phi1, psi1 = carlitz_system(ctx)
    with pytest.raises(ValueError):
        direct_sum(phi1, psi1)


def test_direct_sum_of_trivial_blocks_is_identity_pattern():
    ctx = CarlitzContext(2, 1)
    one = BivarPoly.one(ctx.field)
    triv = MotiveMatrix(1, ((one,),))
    two = direct_sum(triv, triv)
    assert two.size == 2
    assert two.entries[0][0] == one and two.entries[1][1] == one
    assert two.entries[0][1].is_zero() and two.entries[1][0].is_zero()


def test_builder_error_clauses():
    ctx = CarlitzContext(2, 1, prec=24, tdeg=4)
    s = Index((1, 2))
    with pytest.raises(ValueError, match="length"):
        phi_matrix(ctx, (BivarPoly.one(ctx.field),), s)
    divergent = (BivarPoly(ctx.field, {(0, 3): 1}), BivarPoly.one(ctx.field))
    with pytest.raises(ValueError, match="convergence"):
        psi_matrix(ctx, divergent, s)
    phi1, psi1 = carlitz_system(ctx)
    s1 = Index((1,))
    psi_big = psi_matrix(ctx, at_arguments(ctx, s1), s1)
    with pytest.raises(ValueError, match="size"):
        frobenius_residual(phi1, psi_big)
    with pytest.raises(ValueError, match="exact side"):
        derived_matrix(psi1, 2)
    ctx3 = CarlitzContext(3, 1, prec=24, tdeg=4)
    psi3 = carlitz_system(ctx3)[1]
    with pytest.raises(ValueError):
        direct_sum(psi1, psi3)


def test_derived_matrix_structure():
    ctx = CarlitzContext(2, 1, prec=40, tdeg=6)
    phi, _ = carlitz_system(ctx)
    assert derived_matrix(phi, 1).entries == phi.entries
    d2 = derived_matrix(phi, 2)
    lin1 = t_minus_theta_frob(ctx.field, 1)
    lin2 = t_minus_theta_frob(ctx.field, 2)
    assert d2.entries[0][0] == lin1 * lin2  # (t - theta^p)(t - theta^{p^2})
    assert d2.level == 2


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("s", [2, 3])
def test_derived_same_trivialization(p, s):
    ctx = CarlitzContext(p, 1, prec=48, tdeg=6)
    phi, psi = carlitz_system(ctx)
    rep = frobenius_residual(derived_matrix(phi, s), psi)
    assert rep.passed


def test_psi_entries_carry_valid_certificates():
    ctx = CarlitzContext(3, 1, prec=40, tdeg=6)
    s = Index((1, 2))
    psi = psi_matrix(ctx, at_arguments(ctx, s), s)
    for row in psi.entries:
        for e in row:
            assert e.exact or (e.tail is not None and certificate_ok(e))


def test_example_system_8x8_and_serialization():
    ctx = CarlitzContext(2, 1, prec=40, tdeg=6)
    phi, psi = example_system(ctx, 1, 2)
    assert phi.size == 8 and psi.size == 8
    assert frobenius_residual(phi, psi).passed
    blob = json.dumps(psi.to_json(), sort_keys=True)
    assert json.loads(blob)["size"] == 8


@pytest.mark.parametrize("p,l", [(2, 1), (3, 1)])
def test_component_collapse(p, l):
    ctx = CarlitzContext(p, l, prec=40, tdeg=10)
    for entries in [(2,), (1, 2), (2, 1)]:
        s = Index(entries)
        for i in range(1, s.dep + 2):
            for j in range(1, i):
                rep = component_collapse_report(ctx, s, i, j)
                assert rep.passed, (p, l, entries, i, j, rep)
            with pytest.raises(ValueError, match="need 1 <= j < i"):
                component_collapse_report(ctx, s, i, i)


# -- block shells ----------------------------------------------------------------


F81 = FiniteFieldDomain(field(3, 4))
I_12 = subclosure([Index((1, 2))])


def test_block_identity_and_gamma3_shape():
    dom = F81
    I = subclosure([Index((1, 2))])  # (1), (2), (1,2)
    ident = BlockShape(dom, I, dom.one(), {ix: dom.zero() for ix in I})
    m = ident.realize()
    n = ident.size
    assert n == 1 + 2 + 2 + 3
    for i in range(n):
        for j in range(n):
            assert m[i][j] == (1 if i == j else 0)
    # generic scalar a with all windows zero: diagonal powers per column
    rng = random.Random(5)
    a = dom.sample_nonzero(rng)
    g = BlockShape(dom, I, a, {ix: dom.zero() for ix in I}).realize()
    # last block (for (1,2)) has diagonal a^3, a^2, 1
    assert g[5][5] == dom.pow(a, 3) and g[6][6] == dom.pow(a, 2) and g[7][7] == 1
    # x-sharing: set x_{(1)} only; it must appear in both the (1)-block and
    # the (1,2)-block subdiagonal, scaled by the column powers
    x = dom.sample_nonzero(rng)
    xm = {ix: dom.zero() for ix in I}
    xm[Index((1,))] = x
    h = BlockShape(dom, I, a, xm).realize()
    assert h[2][1] == dom.mul(dom.pow(a, 1), x)
    assert h[6][5] == dom.mul(dom.pow(a, 3), x)


def test_block_v_shape():
    dom = F81
    xm = {ix: dom.zero() for ix in I_12}
    xm[Index((1, 2))] = 7
    v = BlockShape(dom, I_12, dom.one(), xm).realize()
    n = len(v)
    for i in range(n):
        for j in range(n):
            expect = 1 if i == j else (7 if (i, j) == (7, 5) else 0)
            assert v[i][j] == expect


def test_block_parse_realize_roundtrip_1000():
    dom = F81
    rng = random.Random(2718)
    for _ in range(1000):
        shape = BlockShape(dom, I_12, *motive._random_params(dom, I_12, rng))
        back = BlockShape.parse(dom, I_12, shape.realize())
        assert back.a == shape.a and back.xmap == shape.xmap


def test_block_parse_rejects_tampering():
    dom = F81
    rng = random.Random(1)
    m = BlockShape(dom, I_12, *motive._random_params(dom, I_12, rng)).realize()
    m[3][1] = dom.add(m[3][1], dom.one())  # off-pattern entry
    with pytest.raises(ShapeParseError):
        BlockShape.parse(dom, I_12, m)


def test_block_build_validation():
    dom = F81
    with pytest.raises(ValueError, match="window-closed"):
        BlockShape(dom, (Index((1, 2)),), dom.one(), {Index((1, 2)): 0})
    with pytest.raises(ValueError, match="invertible"):
        BlockShape(dom, I_12, dom.zero(), {ix: dom.zero() for ix in I_12})
    # an xmap must give every window of the index set, and nothing else
    full = {ix: dom.one() for ix in I_12}
    with pytest.raises(ValueError, match=re.escape("missing ['(2)'], extra []")):
        BlockShape(dom, I_12, dom.one(), {ix: x for ix, x in full.items() if ix != Index((2,))})
    with pytest.raises(ValueError, match=re.escape("missing [], extra ['(3)']")):
        BlockShape(dom, I_12, dom.one(), {**full, Index((3,)): dom.zero()})


def test_block_closure_100_samples():
    rep = closure_report(F81, I_12, 100, 12345)
    assert rep.passed and rep.checked == 100
    assert "exceed" in rep.note and "DO NOT" not in rep.note


def test_block_commutator_laws():
    rep = commutator_report(F81, I_12, 100, 999)
    assert rep.passed and rep.checked == 100


def test_block_commutator_b_one_is_trivial():
    dom = F81
    zeros = {ix: dom.zero() for ix in I_12}
    r = BlockShape(dom, I_12, dom.one(), {**zeros, Index((1, 2)): 5}).realize()
    q = BlockShape(dom, I_12, dom.one(), zeros).realize()  # b = 1
    comm = _mat_mul(dom, _mat_mul(dom, _mat_mul(dom, r, q), _mat_inv_lower(dom, r)), _mat_inv_lower(dom, q))
    parsed = BlockShape.parse(dom, I_12, comm)
    assert _is_v_element(parsed) and dom.is_zero(parsed.xmap[Index((1, 2))])


def test_block_conjugation_alpha_power():
    # Q^{-1} R Q with unit-v R and scalar alpha: coordinate becomes v*alpha^{m+n}
    dom = F81
    rng = random.Random(8)
    alpha = dom.sample_nonzero(rng)
    zeros = {ix: dom.zero() for ix in I_12}
    r = BlockShape(dom, I_12, dom.one(), {**zeros, Index((1, 2)): 1}).realize()
    q = BlockShape(dom, I_12, alpha, zeros).realize()
    conj = _mat_mul(dom, _mat_mul(dom, _mat_inv_lower(dom, q), r), q)
    parsed = BlockShape.parse(dom, I_12, conj)
    assert _is_v_element(parsed)
    assert parsed.xmap[Index((1, 2))] == dom.pow(alpha, 3)  # wt((1,2)) = 3


def test_block_rational_function_mode():
    dom = RationalFunctionDomain(3)
    assert closure_report(dom, I_12, 12, 4).passed
    assert commutator_report(dom, I_12, 6, 4).passed


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _pdivmod(a, b, p):
    """Quotient and remainder of coefficient lists (lowest first) over F_p."""
    a, b = _trim(a), _trim(b)
    inv = pow(b[-1], p - 2, p)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        k = len(a) - len(b)
        quot[k] = c
        for i, x in enumerate(b):
            a[i + k] = (a[i + k] - c * x) % p
        a = _trim(a)
    return quot, a


def _lowest_terms(p, num, den):
    """num/den as (numerator, monic denominator) with a gcd of 1 (oracle)."""
    g, r = _trim(num), _trim(den)
    while r:
        g, r = r, _pdivmod(g, r, p)[1]
    n, d = _pdivmod(num, g, p)[0], _pdivmod(den, g, p)[0]
    inv = pow(d[-1], p - 2, p)
    return tuple(c * inv % p for c in n), tuple(c * inv % p for c in d)


@pytest.mark.parametrize("p,draws", [(2, 6000), (3, 60000)])
def test_rational_draws_count_the_distinct_reduced_values(p, draws):
    nonzero = [c for c in itertools.product(range(p), repeat=MAX_SAMPLE_DEGREE + 1) if any(c)]
    values = {_lowest_terms(p, n, d) for n in nonzero for d in nonzero}
    dom = RationalFunctionDomain(p)
    assert len(values) == dom.draws == p ** (2 * MAX_SAMPLE_DEGREE + 1) - 1
    # the sampler reaches every one of them
    rng = random.Random(0)
    drawn = {dom.sample_nonzero(rng) for _ in range(draws)}
    assert {_lowest_terms(p, rf_coeffs(dom, n), rf_coeffs(dom, d)) for n, d in drawn} == values


# -- sparse kernels against the dense loops they replaced ----------------------


def _mat_mul_dense(dom, a, b):
    n = len(a)
    out = [[dom.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if dom.is_zero(a[i][k]):
                continue
            for j in range(n):
                if not dom.is_zero(b[k][j]):
                    out[i][j] = dom.add(out[i][j], dom.mul(a[i][k], b[k][j]))
    return out


def _mat_inv_lower_dense(dom, a):
    # forward substitution; a lower triangular with invertible diagonal
    n = len(a)
    out = [[dom.zero() for _ in range(n)] for _ in range(n)]
    for j in range(n):
        out[j][j] = dom.inv(a[j][j])
        for i in range(j + 1, n):
            acc = dom.zero()
            for k in range(j, i):
                acc = dom.add(acc, dom.mul(a[i][k], out[k][j]))
            out[i][j] = dom.neg(dom.mul(dom.inv(a[i][i]), acc))
    return out


KERNEL_DOMAINS = {
    "F3^4": F81,
    "F2^8": FiniteFieldDomain(field(2, 8)),
    "F2(t)": RationalFunctionDomain(2),
    "F3(t)": RationalFunctionDomain(3),
}
# window-closed index sets whose shapes have at most 10 rows
SMALL_SETS = [subclosure([Index(e) for e in ix]) for ix in (
    [(1,)], [(2,)], [(1, 1)], [(2, 1)], [(1, 2)], [(3,), (1, 2)], [(1, 1, 1)]
)]


def _lower(dom, n, rng):
    density = rng.random()
    return [
        [
            dom.sample_nonzero(rng) if i == j
            else dom.sample_nonzero(rng) if j < i and rng.random() < density
            else dom.zero()
            for j in range(n)
        ]
        for i in range(n)
    ]


def _assert_entrywise_eq(dom, got, want):
    assert len(got) == len(want)
    for i, (grow, wrow) in enumerate(zip(got, want)):
        assert len(grow) == len(wrow)
        for j, (x, y) in enumerate(zip(grow, wrow)):
            assert dom.eq(x, y), (i, j, x, y)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(sorted(KERNEL_DOMAINS)),
    st.sampled_from(("shape", "lower", "dense")),
    st.integers(1, 10),
    st.integers(0, 2**32 - 1),
)
def test_sparse_kernels_equal_dense_oracles(dom_key, kind, n, seed):
    dom, rng = KERNEL_DOMAINS[dom_key], random.Random(seed)
    if kind == "shape":
        iset = rng.choice(SMALL_SETS)
        a = BlockShape(dom, iset, *motive._random_params(dom, iset, rng)).realize()
        b = BlockShape(dom, iset, *motive._random_params(dom, iset, rng)).realize()
    elif kind == "lower":
        a, b = _lower(dom, n, rng), _lower(dom, n, rng)
    else:
        a, b = ([[dom.sample(rng) for _ in range(n)] for _ in range(n)] for _ in range(2))
    _assert_entrywise_eq(dom, _mat_mul(dom, a, b), _mat_mul_dense(dom, a, b))
    if kind != "dense":
        _assert_entrywise_eq(dom, _mat_inv_lower(dom, a), _mat_inv_lower_dense(dom, a))


@pytest.mark.parametrize("dom", [F81, RationalFunctionDomain(3)], ids=["F3^4", "F3(t)"])
@pytest.mark.parametrize("ixs", [[(1, 2)], [(3,), (1, 2)], [(2, 2, 1)]], ids=["12", "3;12", "221"])
def test_parse_checks_every_entry_the_shape_fixes(dom, ixs):
    iset = subclosure([Index(e) for e in ixs])
    m = BlockShape(dom, iset, *motive._random_params(dom, iset, random.Random(11))).realize()
    n = len(m)
    blocks, off = [(0, 1)], 1  # (first row, end) of each diagonal block
    for ix in iset:
        blocks.append((off, off + ix.dep + 1))
        off += ix.dep + 1
    in_block = {(i, j) for lo, hi in blocks for i in range(lo, hi) for j in range(lo, i)}
    # every off-block position below the diagonal, every one on or above it but (0, 0)
    fixed = [(i, j) for i in range(n) for j in range(n) if (i, j) not in in_block and (i, j) != (0, 0)]
    for i, j in fixed:
        bad = [list(row) for row in m]
        bad[i][j] = dom.add(bad[i][j], dom.one())
        with pytest.raises(ShapeParseError, match=rf"entry \({i}, {j}\)"):
            BlockShape.parse(dom, iset, bad)
    assert BlockShape.parse(dom, iset, m).size == n


def test_depth_three_rational_function_shapes_verify_quickly():
    # dense loops added an unreduced (0, den) per zero term: one closure plus
    # one commutator sample of F_2(t) {(3,1,2)} took about 12 s
    start = time.perf_counter()
    for p, ix in ((2, (3, 1, 2)), (3, (2, 2, 1))):
        dom, iset = RationalFunctionDomain(p), subclosure([Index(ix)])
        for rep in (closure_report(dom, iset, 10, 3), commutator_report(dom, iset, 10, 4)):
            assert rep.passed and rep.checked == 10, rep.failures
    assert time.perf_counter() - start < 20


def test_rational_function_powers_refuse_a_degree_bound_over_the_cap():
    dom = RationalFunctionDomain(3)
    frac = lambda num, den: (dom.encode(num), dom.encode(den))
    a = frac((1, 2), (2, 0, 1))  # degree 2
    assert dom.eq(dom.pow(a, MAX_POWER_DEGREE // 2), dom.pow(dom.inv(a), -(MAX_POWER_DEGREE // 2)))
    for e in (MAX_POWER_DEGREE // 2 + 1, -(MAX_POWER_DEGREE // 2 + 1)):
        with pytest.raises(BudgetError, match="MAX_POWER_DEGREE"):
            dom.pow(a, e)
    assert dom.pow(dom.one(), 10**6) == dom.one()  # degree 0: nothing to refuse
    # trailing zero coefficients add no degree: (2 + 0t + 0t^2)^100 is 2^100 = 1
    assert dom.pow(frac((2, 0, 0), (1,)), 100) == dom.one()
    with pytest.raises(BudgetError, match="degree bound 130"):
        dom.pow(frac((1, 2, 0), (2, 0, 1, 0)), MAX_POWER_DEGREE // 2 + 1)
    # junk index text of weight 79700 used to run for minutes in realize
    start = time.perf_counter()
    iset = subclosure([Index((79700,))])
    for report in (closure_report, commutator_report):
        with pytest.raises(BudgetError):
            report(dom, iset, 1, 0)
    assert time.perf_counter() - start < 1


# -- block by block against the whole-matrix realize and parse they replaced ----


def _layout_oracle(index_set):
    """(size, (row, col, exponent, window) of every entry below (0, 0), and
    the first column of each row's block); window None on the diagonal."""
    entries, starts, off = [], [0], 1
    for idx in index_set:
        d = idx.dep
        sw = [sum(idx.entries[k:]) for k in range(d + 1)]
        for c in range(d + 1):
            entries.append((off + c, off + c, sw[c], None))
            entries += [(off + r, off + c, sw[c], idx.window(c + 1, r)) for r in range(c + 1, d + 1)]
        starts += [off] * (d + 1)
        off += d + 1
    return off, entries, starts


def _realize_oracle(shape):
    dom = shape.domain
    n, entries, _ = _layout_oracle(shape.index_set)
    pw = {e: dom.pow(shape.a, e) for e in {e for _, _, e, _ in entries}}
    m = [[dom.zero()] * n for _ in range(n)]
    m[0][0] = shape.a
    for r, c, e, w in entries:
        m[r][c] = pw[e] if w is None else dom.mul(pw[e], shape.xmap[w])
    return m


def _parse_oracle(domain, index_set, matrix):
    """Extract a and the windows, then compare all n^2 entries with the
    realized shape."""
    n, entries, starts = _layout_oracle(index_set)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ShapeParseError(f"expected a {n}x{n} matrix")
    a = matrix[0][0]
    if domain.is_zero(a):
        raise ShapeParseError("scalar parameter is zero")
    ainv = {e: domain.inv(domain.pow(a, e)) for e in {e for _, _, e, _ in entries}}
    xmap = {}
    for r, c, e, w in entries:
        if w is None:
            continue
        x = domain.mul(matrix[r][c], ainv[e])
        if w in xmap:
            if not domain.eq(xmap[w], x):
                raise ShapeParseError(f"window {w} extracted twice with different values")
        else:
            xmap[w] = x
    shape = BlockShape(domain, index_set, a, xmap)
    eq, is_zero = domain.eq, domain.is_zero
    for i, (lo, erow, mrow) in enumerate(zip(starts, _realize_oracle(shape), matrix)):
        if not (
            all(map(is_zero, mrow[:lo]))
            and all(map(eq, erow[lo : i + 1], mrow[lo : i + 1]))
            and all(map(is_zero, mrow[i + 1 :]))
        ):
            j = next(j for j in range(n) if not eq(erow[j], mrow[j]))
            raise ShapeParseError(f"entry ({i}, {j}) off the parameterized shape")
    return shape


def _read_blocks(domain, index_set, lay, blocks):
    """The shape `motive._read` finds in the diagonal blocks alone."""
    a, xs = motive._read(domain, lay, blocks, False)
    return BlockShape(domain, index_set, a, dict(zip(lay.windows, xs)))


def _outcome(parse, *args):
    """(a, xmap) of a parse, or the text of its ShapeParseError."""
    try:
        shape = parse(*args)
    except ShapeParseError as exc:
        return str(exc)
    return shape.a, shape.xmap


_index_sets = st.lists(
    st.lists(st.integers(1, 3), min_size=1, max_size=3).map(lambda e: Index(tuple(e))), min_size=1, max_size=2
).map(subclosure)
_POSITION_KINDS = ("in-block", "off-block", "diagonal", "above-diagonal")


@pytest.mark.parametrize("dom_key", sorted(KERNEL_DOMAINS))
@settings(max_examples=50, deadline=None)
@given(_index_sets, st.lists(st.sampled_from(_POSITION_KINDS), max_size=3), st.integers(0, 2**32 - 1))
@example(subclosure([Index((1, 1, 2))]), [], 1)
@example(subclosure([Index((2, 2, 1))]), ["in-block", "off-block"], 2)
def test_blocks_realize_and_parse_equal_the_whole_matrix_oracles(dom_key, iset, kinds, seed):
    dom, rng = KERNEL_DOMAINS[dom_key], random.Random(seed)
    lay = motive._shape_layout(iset)
    n = lay.size
    shape, other = (BlockShape(dom, iset, *motive._random_params(dom, iset, rng)) for _ in range(2))
    m = shape.realize()
    assert m == _realize_oracle(shape)
    assert [[row[lo:hi] for row in m[lo:hi]] for lo, hi in lay.spans] == shape.blocks()

    block_of = [k for k, (lo, hi) in enumerate(lay.spans) for _ in range(lo, hi)]
    positions = {kind: [] for kind in _POSITION_KINDS}
    for i in range(n):
        for j in range(n):
            kind = ("diagonal" if i == j else "above-diagonal" if j > i else
                    "in-block" if block_of[i] == block_of[j] else "off-block")
            positions[kind].append((i, j))
            if kind == "off-block" and j > i:
                positions["above-diagonal"].append((i, j))
    bad = [list(row) for row in m]
    for kind in kinds:
        if positions[kind]:
            i, j = rng.choice(positions[kind])
            bad[i][j] = dom.add(bad[i][j], dom.one())
    assert _outcome(BlockShape.parse, dom, iset, bad) == _outcome(_parse_oracle, dom, iset, bad)
    # the blocks alone: the oracle sees them with zeros outside
    blocks = [[row[lo:hi] for row in bad[lo:hi]] for lo, hi in lay.spans]
    inside = [[x if block_of[i] == block_of[j] else dom.zero() for j, x in enumerate(row)] for i, row in enumerate(bad)]
    read_blocks = _outcome(_read_blocks, dom, iset, lay, blocks)
    assert read_blocks == _outcome(_parse_oracle, dom, iset, inside)

    # the kernels on each block give the whole-matrix kernels' blocks, and
    # zeros outside them
    for whole, per_block in (
        (_mat_mul(dom, m, other.realize()), [_mat_mul(dom, x, y) for x, y in zip(shape.blocks(), other.blocks())]),
        (_mat_inv_lower(dom, m), [_mat_inv_lower(dom, x) for x in shape.blocks()]),
    ):
        for (lo, hi), block in zip(lay.spans, per_block):
            for i in range(lo, hi):
                _assert_entrywise_eq(dom, [whole[i][lo:hi]], [block[i - lo]])
                assert all(dom.is_zero(x) for x in whole[i][:lo] + whole[i][hi:])


@pytest.mark.parametrize("report", [closure_report, commutator_report])
@pytest.mark.parametrize("where", ["off-block", "in-block"])
def test_spot_check_catches_a_wrong_whole_matrix_product(monkeypatch, report, where):
    n = motive._shape_layout(I_12).size
    i, j = (n - 1, 0) if where == "off-block" else (n - 1, n - 3)  # (7, 5): window (1,2)
    real = motive._mat_mul

    def wrong(dom, a, b):
        out = real(dom, a, b)
        if len(out) == n:  # the whole matrices only, not their blocks
            out[i][j] = dom.add(out[i][j], dom.one())
        return out

    assert report(F81, I_12, 5, 1).passed
    monkeypatch.setattr(motive, "_mat_mul", wrong)
    rep = report(F81, I_12, 5, 1)
    assert not rep.passed
    assert [f[0] for f in rep.failures] == [0] and "spot check" in rep.failures[0][-1], rep.failures


# -- lanes against the per-trial reports they replaced --------------------------
#
# The oracle is the per-trial loop the reports ran before their trials became
# the lanes of one law evaluation: each trial draws its shapes, runs the law
# on its own blocks and parses every result, and trial 0 also runs the law on
# the whole matrices.  Realize and parse are the whole-matrix oracles above;
# the kernels are the scalar `_mat_mul` and `_mat_inv_lower`.  One change to
# that loop is kept: a commutator result off the shape is recorded as
# (trial, why), as the closure loop always did, instead of raising.

LANE_DOMAINS = {
    "F3^4": F81,
    "F2^8": FiniteFieldDomain(field(2, 8)),
    "F5^3": FiniteFieldDomain(field(5, 3)),
    "F2(t)": RationalFunctionDomain(2),
    "F3(t)": RationalFunctionDomain(3),
}


def _blocks_oracle(shape):
    m = _realize_oracle(shape)
    return [[row[lo:hi] for row in m[lo:hi]] for lo, hi in motive._shape_layout(shape.index_set).spans]


def _from_blocks_oracle(domain, index_set, blocks):
    """The whole-matrix parse oracle on the blocks with zeros around them."""
    spans = motive._shape_layout(index_set).spans
    n = spans[-1][1]
    m = [[domain.zero()] * n for _ in range(n)]
    for (lo, hi), block in zip(spans, blocks):
        for i, row in enumerate(block):
            m[lo + i][lo:hi] = row
    return _parse_oracle(domain, index_set, m)


def _parsed_oracle(domain, index_set, law, shapes, trial, failures, *where):
    got = [_from_blocks_oracle(domain, index_set, m) for m in law(domain, *map(_blocks_oracle, shapes))]
    if trial == 0:
        try:
            whole = law(domain, *([_realize_oracle(s)] for s in shapes))
            want = [_parse_oracle(domain, index_set, m[0]) for m in whole]
            eq = domain.eq
            same = all(eq(g.a, w.a) and all(eq(x, w.xmap[k]) for k, x in g.xmap.items()) for g, w in zip(got, want))
            why = None if same else "spot check: the whole matrix parses to another shape"
        except ShapeParseError as exc:
            why = f"spot check: the whole matrix does not parse: {exc}"
        if why:
            failures.append((trial, *where, why))
    return got


def _closure_oracle(domain, index_set, samples, seed):
    rng = random.Random(seed)
    failures = []
    for trial in range(samples):
        s1 = BlockShape(domain, index_set, *motive._random_params(domain, index_set, rng))
        s2 = BlockShape(domain, index_set, *motive._random_params(domain, index_set, rng))
        try:
            prod, invp = _parsed_oracle(domain, index_set, motive._closure_law, (s1, s2), trial, failures)
            if not domain.eq(prod.a, domain.mul(s1.a, s2.a)):
                failures.append((trial, "product scalar is not a1*a2"))
            if not domain.eq(domain.mul(invp.a, s1.a), domain.one()):
                failures.append((trial, "inverse scalar is not a^-1"))
        except ShapeParseError as exc:
            failures.append((trial, str(exc)))
    return motive._sampled_report(failures, samples, 2 * max(ix.wt for ix in index_set) + 1, domain.draws)


def _is_v_element(shape):
    """Identity scalar, all windows zero except possibly the last index."""
    dom, last = shape.domain, shape.index_set[-1]
    return dom.eq(shape.a, dom.one()) and all(dom.is_zero(x) for w, x in shape.xmap.items() if w != last)


def _commutator_oracle(domain, index_set, samples, seed):
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
        try:
            parses = _parsed_oracle(
                domain, index_set, motive._commutator_law, (r_shape, *q_shapes), trial, failures, "whole-matrix"
            )
        except ShapeParseError as exc:
            failures.append((trial, str(exc)))
            continue
        expect_conj = domain.mul(v, domain.pow(b, wt))
        expect_comm = domain.mul(v, domain.add(domain.one(), domain.neg(domain.pow(b, -wt))))
        for tag, conj, comm in zip(("plain", "random-x"), parses[::2], parses[1::2]):
            if not (_is_v_element(conj) and domain.eq(conj.xmap[last], expect_conj)):
                failures.append((trial, tag, "conjugation coordinate is not v*b^wt"))
            if not (_is_v_element(comm) and domain.eq(comm.xmap[last], expect_comm)):
                failures.append((trial, tag, "commutator coordinate is not v*(1-b^-wt)"))
    return motive._sampled_report(failures, samples, 2 * wt + 1, domain.draws)


REPORT_ORACLES = {"closure": (closure_report, _closure_oracle), "commutator": (commutator_report, _commutator_oracle)}
# an entry each fault breaks in every product it sees, block or whole matrix
# (off-block: whole matrices only, the spot check's)
_FAULTS = ("none", "in-block", "off-block", "above-diagonal", "scalar")


def _faulty_mat_mul(monkeypatch, fault, n):
    real = motive._mat_mul

    def wrong(dom, a, b):
        out = real(dom, a, b)
        m = len(out)
        if fault == "in-block" and m >= 2:
            out[m - 1][m - 2] = dom.add(out[m - 1][m - 2], dom.one())
        elif fault == "off-block" and m == n:
            out[n - 1][0] = dom.add(out[n - 1][0], dom.one())
        elif fault == "above-diagonal" and m >= 2:
            out[0][m - 1] = dom.add(out[0][m - 1], dom.one())
        elif fault == "scalar" and m in (1, n):
            out[0][0] = dom.zero()
        return out

    monkeypatch.setattr(motive, "_mat_mul", wrong)


_depth3_sets = st.lists(
    st.lists(st.integers(1, 3), min_size=1, max_size=3).map(lambda e: Index(tuple(e))), min_size=1, max_size=2
).map(subclosure)


@pytest.mark.parametrize("dom_key", sorted(LANE_DOMAINS))
@settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow]
)
@given(
    _depth3_sets,
    st.sampled_from(sorted(REPORT_ORACLES)),
    st.integers(1, 2 * motive.SAMPLE_LANES + 1),
    st.sampled_from(_FAULTS),
    st.integers(0, 2**32 - 1),
)
@example(subclosure([Index((1, 2))]), "commutator", 2 * motive.SAMPLE_LANES + 1, "none", 0)
@example(subclosure([Index((1, 1, 2))]), "closure", motive.SAMPLE_LANES + 1, "in-block", 1)
def test_lane_reports_equal_the_per_trial_oracle(monkeypatch, dom_key, iset, kind, samples, fault, seed):
    dom = LANE_DOMAINS[dom_key]
    report, oracle = REPORT_ORACLES[kind]
    with monkeypatch.context() as mp:
        _faulty_mat_mul(mp, fault, motive._shape_layout(iset).size)
        assert report(dom, iset, samples, seed) == oracle(dom, iset, samples, seed)


def _lane_and_trial_entries(dom, iset, law, draws):
    """Every entry of every law result, per lane of one lane evaluation and
    per trial of the scalar kernels."""
    lay = motive._shape_layout(iset)
    ring = dom.lanes(len(draws))
    flat = [v for m in motive._lane_law(ring, lay, law, draws) for block in m for row in block for v in row]
    lanes = [[v[lane] for v in flat] for lane in range(len(draws))]
    trials = [
        [v for m in law(dom, *(_blocks_oracle(BlockShape(dom, iset, a, x)) for a, x in draw))
         for block in m for row in block for v in row]
        for draw in draws
    ]
    return lanes, trials


@pytest.mark.parametrize("dom_key", sorted(LANE_DOMAINS))
@settings(max_examples=15, deadline=None)
@given(_depth3_sets, st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_lane_law_entries_equal_the_per_trial_kernels(dom_key, iset, width, seed):
    # == on the entries: over F_p(t) the same unreduced fractions, and the
    # one zero (0, 1) wherever a sum cancels; shapes are random, all-zero or
    # zero but for the last window, as the commutator law's are
    dom, rng = LANE_DOMAINS[dom_key], random.Random(seed)

    def params():
        a, xmap = motive._random_params(dom, iset, rng)
        kind = rng.randrange(3)
        if kind:
            xmap = {ix: x if kind == 2 and ix == iset[-1] else dom.zero() for ix, x in xmap.items()}
        return a, xmap

    for law, arity in ((motive._closure_law, 2), (motive._commutator_law, 3)):
        draws = [tuple(params() for _ in range(arity)) for _ in range(width)]
        lanes, trials = _lane_and_trial_entries(dom, iset, law, draws)
        assert lanes == trials


def test_lanes_keep_the_zero_a_cancelled_inverse_entry_leaves():
    # in X_(1,1) with a = 1, entry (2, 0) of the inverse is -(x_(1,1) - x_(1)^2):
    # with x_(1) = t/(1+t) and x_(1,1) = t^2/(1+t^2) over F_2 the sum cancels
    # to the one zero (0, 1) in the lane and in the trial alike; the other
    # lane does not cancel
    dom = RationalFunctionDomain(2)
    iset = subclosure([Index((1, 1))])
    x, x2 = (dom.encode((0, 1)), dom.encode((1, 1))), (dom.encode((0, 0, 1)), dom.encode((1, 0, 1)))
    cancel = (dom.one(), {Index((1,)): x, Index((1, 1)): x2})
    other = (dom.one(), {Index((1,)): x, Index((1, 1)): x})
    lanes, trials = _lane_and_trial_entries(dom, iset, motive._closure_law, [(cancel, other), (other, cancel)])
    assert lanes == trials
    # the entry follows the product's blocks (1 + 4 + 9 entries) and the
    # inverse's scalar, X_(1) and the first two rows of X_(1,1) (1 + 4 + 6)
    at = 14 + 11
    assert lanes[0][at] == trials[0][at] == (0, 1)
    assert not dom.is_zero(trials[1][at])


@pytest.mark.parametrize("report", [closure_report, commutator_report])
def test_a_result_off_the_shape_is_recorded_per_trial(monkeypatch, report):
    real = motive._mat_mul

    def wrong(dom, a, b):
        out = real(dom, a, b)
        if len(out) == 3:  # the (1,2)-block, rows 5..7 of the whole matrix
            out[0][2] = dom.add(out[0][2], dom.one())
        return out

    monkeypatch.setattr(motive, "_mat_mul", wrong)
    rep = report(F81, I_12, 3, 1)
    assert rep.failures == [(k, "entry (5, 7) off the parameterized shape") for k in range(3)]


@pytest.mark.parametrize("report", [closure_report, commutator_report])
def test_matrix_products_do_not_grow_with_the_samples_of_one_chunk(monkeypatch, report):
    # the law runs once over all lanes, so 5 and 30 samples (one chunk each)
    # make the same products, the whole-matrix spot check included
    real, calls = motive._mat_mul, []

    def counted(dom, a, b):
        calls.append(len(a))
        return real(dom, a, b)

    monkeypatch.setattr(motive, "_mat_mul", counted)
    counts = []
    for samples in (5, 30):
        calls.clear()
        assert report(F81, I_12, samples, 2).passed
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_an_error_is_the_one_the_first_failing_trial_raises(monkeypatch):
    # trial 1 fails where its shapes are built and trial 0 only where its
    # results are read: run alone one after the other, trial 0 raises first
    rng = random.Random(3)
    draws = [(motive._random_params(F81, I_12, rng), motive._random_params(F81, I_12, rng)) for _ in range(3)]
    scalars = [[a for a, _ in draw] for draw in draws]
    bad_input, bad_result = scalars[1][0], F81.inv(scalars[0][0])  # S1 of trial 1, S1^-1 of trial 0
    assert bad_input not in scalars[0] and bad_result not in [F81.inv(a) for a, _ in scalars[1:]]
    real_blocks, real_read = motive._blocks, motive._read

    def blocks(ring, lay, a, xs):
        if bad_input in a:
            raise BudgetError("trial 1 builds")
        return real_blocks(ring, lay, a, xs)

    def read(ring, lay, rows, whole):
        a = rows[0][0][0]
        if bad_result in (a if isinstance(a, list) else [a]):
            raise BudgetError("trial 0 reads")
        return real_read(ring, lay, rows, whole)

    monkeypatch.setattr(motive, "_blocks", blocks)
    monkeypatch.setattr(motive, "_read", read)
    with pytest.raises(BudgetError, match="trial 0 reads"):
        closure_report(F81, I_12, 3, 3)
