"""Argv fuzz over cli.main: every argv ends in a report, a usage error naming
the option, or a typed engine error.

Ranges (each option is passed as `--name=value`, so a value may start with
a dash):

* `--p`: 2, 3, 5, 7; the primes 4099, 7919, 999999937 and 100000000000031,
  above the 4096 field-table cap; 3317044064679887385961981, where the
  primality test stops being exact; any non-prime in [-10, 10^6]; malformed
  text.
* `--l`: 1, 2, 3, 13, 99 and [-3, 0]; malformed text.  With the primes above,
  a valid level gives q = p^l <= 343 or a field above the cap.
* `--index`: depth 1-3 with entries in [-1, 40]; edge and malformed text.
* `--smax`: [-2, 40]; malformed text.
* `--u`: 1-3 ';'-separated sums of terms c*t^a*theta^b with c in [0, 12] and
  a, b in [0, 6]; edge and malformed text.
* `--indices`: 1-2 indices of depth 1-2 with entries in [1, 3]; edge and
  malformed text.  `--gf`: fields of order <= 343, above the cap, malformed;
  `--samples` in [1, 10].
* Random text is at most 6 characters over the digits and the option syntax,
  so junk digit text reaches index weights and `--smax` up to 999999: the
  Anderson-Thakur polynomials and F_p(t) powers refuse those up front with a
  `BudgetError` (`at_slot_estimate` against the enumeration budget, and
  `MAX_POWER_DEGREE`).

`--prec` and `--tdeg` keep their defaults (40 and 12).
`verify-rat` and `verify-derived` are left out.  Both refuse an exact side
whose z-span exceeds `MAX_RESIDUAL_SPAN` with a `BudgetError` (q = 343 at
index (8,8,8)), and `verify-derived` refuses a derived product whose dense
size bound exceeds `MAX_DERIVED_SIZE` before forming it; but no estimate
bounds the time either takes below those caps.
"""

import builtins
import contextlib
import io
import json
import re
import time

from hypothesis import HealthCheck, example, given, settings, strategies as st

from ffmzv import errors
from ffmzv.cli import main
from ffmzv.ffield import _is_prime

MAX_EXAMPLES = 300

TYPED = {
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.FfmzvError)
}
BUILTIN = {
    name for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}

JUNK = st.one_of(
    st.sampled_from(["", " ", "-", "x", "1.5", "1e3", "0x10", "nan", "٣", "²", "1_0"]),
    st.text(alphabet="0123456789,;-+^*xt ", max_size=6),
)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


P = st.one_of(
    st.sampled_from(["2", "3", "5", "7", "4099", "7919", "999999937", "100000000000031",
                     "3317044064679887385961981"]),
    st.integers(-10, 10**6).filter(lambda n: not _is_prime(n)).map(str),
    JUNK,
)
L = st.one_of(st.sampled_from(["1", "2", "3", "13", "99"]), _ints(-3, 0), JUNK)
INDEX = st.one_of(
    st.lists(st.integers(-1, 40), min_size=1, max_size=3).map(lambda e: ",".join(map(str, e))),
    st.sampled_from(["1,,2", ",1", "1;2", "1 ,2", "0", "+1", "(1)"]),
    JUNK,
)
SMAX = st.one_of(_ints(-2, 40), JUNK)
TERM = st.builds(
    "{}t^{}*theta^{}".format,
    st.sampled_from(["", "-", "0*", "2*", "3*", "12*"]),
    st.integers(0, 6),
    st.integers(0, 6),
)
POLY = st.lists(TERM, min_size=1, max_size=3).map("+".join)
U = st.one_of(
    st.lists(POLY, min_size=1, max_size=3).map(";".join),
    st.sampled_from(["0", "1", "theta", "t", "t^", "t^-1", "theta^x", "2^3", "*t", "t+", ";"]),
    JUNK,
)
INDICES = st.one_of(
    st.lists(
        st.lists(st.integers(1, 3), min_size=1, max_size=2).map(lambda e: ",".join(map(str, e))),
        min_size=1,
        max_size=2,
    ).map(";".join),
    st.sampled_from([";", ";;", "1;;2", "0", "1,0"]),
    JUNK,
)
GF = st.one_of(
    st.sampled_from(["2,1", "2,8", "3,5", "5,3", "7,3", "13,2", "2,13", "3,8", "4099,1",
                     "999999937,1", "4,1", "3,0", "3,-1"]),
    JUNK,
)
SAMPLES = _ints(1, 10)

# each command with the fuzzed options it reads
COMMANDS = {
    "mzv": {"p": P, "l": L, "index": INDEX},
    "atpoly": {"p": P, "l": L, "smax": SMAX},
    "omega": {"p": P, "l": L},
    "pitilde": {"p": P, "l": L},
    "cmpl": {"p": P, "l": L, "index": INDEX, "u": U},
    "verify-period": {"p": P, "l": L, "index": INDEX},
    "group-closure": {"indices": INDICES, "gf": GF, "samples": SAMPLES},
    "group-commutator": {"indices": INDICES, "gf": GF, "samples": SAMPLES},
}


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [cmd]
    for name, values in COMMANDS[cmd].items():
        # --index and --indices are required; the rest may keep their default
        if name in ("index", "indices") or draw(st.booleans()):
            argv.append(f"--{name}={draw(values)}")
    if cmd.startswith("group") and draw(st.booleans()):
        argv.append("--rational")
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=MAX_EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
# junk digit text reaching huge weights: F_p(t) powers to 79700, AT polynomials
# to 973517, and a period identity whose AT budget check must come before its
# factorial Gamma_12132
@example(["group-closure", "--indices=079700", "--samples=1", "--rational"])
@example(["cmpl", "--index=973518"])
@example(["verify-period", "--index=12132"])
# AT arguments of t-degree far above --tdeg (H_32)
@example(["cmpl", "--index=6,33,33"])
def test_every_argv_ends_in_a_report_a_usage_error_or_a_typed_error(argv):
    code, out, err = _run(argv)
    named = [w for w in re.findall(r"\w+", err) if w in BUILTIN]
    assert not named, (argv, err)
    if code == 2:
        options = {a.split("=")[0] for a in argv[1:]}
        assert out == "" and any(opt in err for opt in options), (argv, err)
        return
    assert code in (0, 1), (argv, code, err)
    if out:
        report = json.loads(out)
        assert report["command"] == argv[0] and err == "", (argv, err)
    else:
        assert code == 1 and re.fullmatch(r"error: (\w+): .*\n", err, re.S), (argv, err)
        assert re.match(r"error: (\w+)", err).group(1) in TYPED, (argv, err)


def test_polylog_numerators_are_cut_at_the_series_t_degree():
    # H_32's t-degree is far above --tdeg: only numerator products cut at
    # --tdeg finish in time
    start = time.perf_counter()
    code, out, err = _run(["cmpl", "--index", "6,33,33"])
    assert time.perf_counter() - start < 2
    assert code == 0 and json.loads(out)["command"] == "cmpl", err


def test_a_fourteen_digit_prime_answers_at_once():
    # trial division took about a second for this --p; the table cap answers first
    start = time.perf_counter()
    code, out, err = _run(["mzv", "--p", "100000000000031", "--index", "1"])
    assert time.perf_counter() - start < 0.1
    assert code == 1 and out == "" and err.startswith("error: FieldSizeError: "), err
    code, out, err = _run(["mzv", "--p", "3317044064679887385961981", "--index", "1"])
    assert code == 2 and "--p" in err and "3317044064679887385961981" in err, err
