"""Acceptance criteria, one test per criterion, each at its stated tolerance.

The CLI suite is run once (subprocess, frozen argv) and its parsed report
backs the per-criterion assertions; its stdout must equal the stored seed-0
report `fixtures/suite_seed0.json` byte for byte.  Criteria with runtime
limits re-run the relevant library path under a timer.  Run with
`pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.
"""

import json
import pathlib
import subprocess
import sys
import time

import pytest

SUITE_ARGV = [sys.executable, "-m", "ffmzv.cli", "suite", "--format", "json"]


@pytest.fixture(scope="module")
def suite():
    run = subprocess.run(SUITE_ARGV, capture_output=True, timeout=900)
    assert run.returncode in (0, 1), run.stderr.decode()
    return {"stdout": run.stdout, "returncode": run.returncode, "report": json.loads(run.stdout)}


def _check(suite, name):
    return next(c for c in suite["report"]["checks"] if c["name"] == name)


def _line(n, ok, detail):
    print(f"ACCEPTANCE {n:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_carlitz_tower_oracle(suite):
    from ffmzv.carlitz import CarlitzContext, carlitz_d, carlitz_d_bruteforce

    c = _check(suite, "carlitz-tower-oracle")
    t0 = time.perf_counter()
    for p, l in [(2, 1), (3, 1), (2, 2)]:
        ctx = CarlitzContext(p, l)
        for i in range(4):
            assert carlitz_d(ctx, i) == carlitz_d_bruteforce(ctx, i)
    dt = time.perf_counter() - t0
    _line(1, c["status"] == "pass" and dt < 1.0, f"{c['detail']} (runtime {dt:.2f}s < 1s)")


def test_criterion_2_omega_functional_equation(suite):
    c = _check(suite, "omega-functional-equation")
    _line(2, c["status"] == "pass", c["detail"])


def test_criterion_3_pi_two_path(suite):
    c = _check(suite, "pi-tilde-two-path")
    _line(3, c["status"] == "pass", c["detail"])


def test_criterion_4_mzv_bruteforce(suite):
    from ffmzv.carlitz import CarlitzContext
    from ffmzv.special import Index, mzv, mzv_bruteforce

    c = _check(suite, "mzv-bruteforce-equivalence")
    t0 = time.perf_counter()
    for p in (2, 3):
        ctx = CarlitzContext(p, 1)
        for entries in [(1,), (2,), (1, 1), (2, 1), (1, 1, 1)]:
            s = Index(entries)
            a = mzv(ctx, s, 24, max_degree=3)
            b = mzv_bruteforce(ctx, s, 3, 24)
            joint = min(a.prec, b.prec)
            at, bt = a.truncate(joint), b.truncate(joint)
            assert (at.val, at.coeffs) == (bt.val, bt.coeffs)
    dt = time.perf_counter() - t0
    _line(4, c["status"] == "pass" and dt < 10.0, f"{c['detail']} (runtime {dt:.2f}s < 10s)")


def test_criterion_5_period_identity(suite):
    c = _check(suite, "period-identity-scan")
    _line(5, c["status"] == "pass", c["detail"])


def test_criterion_6_rigid_analytic_trivialization(suite):
    c = _check(suite, "rigid-analytic-trivialization")
    _line(6, c["status"] == "pass", c["detail"])


def test_criterion_7_derived_motives(suite):
    c = _check(suite, "derived-same-trivialization")
    _line(7, c["status"] == "pass", c["detail"])


def test_criterion_8_block_group_shell(suite):
    c1 = _check(suite, "group-closure")
    c2 = _check(suite, "group-commutator")
    ok = c1["status"] == "pass" and c2["status"] == "pass"
    _line(8, ok, f"{c1['detail']} | {c2['detail']}")


def test_criterion_9_component_telescoping(suite):
    c = _check(suite, "psi-tilde-telescoping")
    _line(9, c["status"] == "pass", c["detail"])


def test_criterion_10_determinism(suite):
    stored = (pathlib.Path(__file__).parent / "fixtures" / "suite_seed0.json").read_bytes()
    same = suite["stdout"] == stored
    _line(10, same and suite["returncode"] == 0, f"byte-identical to the stored seed-0 report: {same}")


def test_all_suite_checks_green(suite):
    failing = [c["name"] for c in suite["report"]["checks"] if c["status"] != "pass"]
    assert not failing, f"failing suite checks: {failing}"
