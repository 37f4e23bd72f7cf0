#!/usr/bin/env python3
"""ffmzv benchmark: one closed-loop client driving the library directly.

    python3 perfbench/run.py --workload zeta-period --seed 1 --seconds 20 --trace 0

One single-threaded client sends the next request only after the previous one
returned.  The stream is generated from --seed (see workloads.py) and every
verdict is checked.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; earlier lines carry the host
record (a fixed pure-Python calibration rate, Python version, nproc, seed) and
per-kind request counts.  Records and spans are also written to
perfbench/out/.

--trace 0 reports the end-to-end metrics from an untraced run of whole rounds
lasting at least --seconds, 100 requests and 3 rounds; each request slot of a
round counts with the slowest of its repeats (see end_to_end).  --trace 1
serves a fixed prefix of the stream twice from fresh set-ups, untraced and
then traced, and reports per-layer metrics of the traced pass plus the
tracing overhead.

The program is imported from src/ of the checkout this file lives in.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MODULES = ("errors", "ffield", "laurent", "poly", "tate", "carlitz", "special", "motive")
# set-ups per run: as many as fit in a tenth of the serving time, within these
SETUP_REPS = (3, 9)
MIN_REQUESTS = 100
MIN_ROUNDS = 3  # so that every slot is measured at least three times

# (metric, source, span or counter); sources: calls / self / count
PER_LAYER = [
    ("ffield.table_build_s", "self", "ffield.table_build"),
    ("ffield.tables_built", "calls", "ffield.table_build"),
    ("laurent.inv_calls", "calls", "laurent.inv"),
    ("laurent.inv_self_s", "self", "laurent.inv"),
    ("laurent.inv_coeff_ops", "count", "laurent.inv_coeff_ops"),
    ("laurent.mul_calls", "calls", "laurent.mul"),
    ("laurent.mul_self_s", "self", "laurent.mul"),
    ("laurent.mul_coeff_ops", "count", "laurent.mul_coeff_ops"),
    ("laurent.add_calls", "calls", "laurent.add"),
    ("laurent.add_self_s", "self", "laurent.add"),
    ("poly.dense_mul_calls", "calls", "poly.dense_mul"),
    ("poly.dense_mul_self_s", "self", "poly.dense_mul"),
    ("poly.mul_calls", "calls", "poly.mul"),
    ("poly.mul_self_s", "self", "poly.mul"),
    ("poly.eval_theta_self_s", "self", "poly.eval_theta"),
    ("tate.mul_calls", "calls", "tate.mul"),
    ("tate.mul_self_s", "self", "tate.mul"),
    ("tate.twist_self_s", "self", "tate.twist"),
    ("tate.invert_linear_factor_self_s", "self", "tate.invert_linear_factor"),
    ("carlitz.omega_series_calls", "calls", "carlitz.omega_series"),
    ("carlitz.omega_series_self_s", "self", "carlitz.omega_series"),
    ("carlitz.factorial_self_s", "self", "carlitz.factorial"),
    ("carlitz.pi_tilde_self_s", "self", "carlitz.pi_tilde"),
    ("special.monic_power_sum_calls", "calls", "special.monic_power_sum"),
    ("special.monic_power_sum_self_s", "self", "special.monic_power_sum"),
    ("special.monic_polys_enumerated", "count", "special.monic_polys_enumerated"),
    ("special.mzv_self_s", "self", "special.mzv"),
    ("special.cmpl_value_self_s", "self", "special.cmpl_value"),
    ("special.cmpl_series_calls", "calls", "special.cmpl_series"),
    ("special.cmpl_series_self_s", "self", "special.cmpl_series"),
    ("special.at_polys_self_s", "self", "special.at_polys"),
    ("motive.psi_matrix_self_s", "self", "motive.psi_matrix"),
    ("motive.frobenius_residual_calls", "calls", "motive.frobenius_residual"),
    ("motive.frobenius_residual_self_s", "self", "motive.frobenius_residual"),
    ("motive.mutation_kill_self_s", "self", "motive.mutation_kill"),
    ("motive.derived_matrix_self_s", "self", "motive.derived_matrix"),
    ("motive.component_collapse_self_s", "self", "motive.component_collapse"),
    ("motive.shell_parse_calls", "calls", "motive.shell_parse"),
    ("motive.shell_parse_self_s", "self", "motive.shell_parse"),
    ("motive.shell_realize_self_s", "self", "motive.shell_realize"),
    ("motive.closure_report_self_s", "self", "motive.closure_report"),
    ("motive.commutator_report_self_s", "self", "motive.commutator_report"),
]
UNITS = {"self": "s", "calls": "count"}
# computed in the wrappers from operand sizes, not measured
COUNT_UNITS = {"laurent.inv_coeff_ops": "ops-computed", "laurent.mul_coeff_ops": "ops-computed",
               "special.monic_polys_enumerated": "polys-computed"}


def calibrate() -> float:
    """A fixed pure-Python loop of integer arithmetic, small-list allocation and
    dict updates, in million iterations per second (median of 5 slices)."""
    rates = []
    for _ in range(5):
        n = 200_000
        seen: dict[int, int] = {}
        t0 = time.perf_counter()
        acc = 0
        for i in range(n):
            pair = [i, acc]
            acc = (acc * 31 + pair[0]) & 0xFFFF
            seen[acc & 0x3FF] = i
        rates.append(n / (time.perf_counter() - t0) / 1e6)
    return statistics.median(rates)


def load_package() -> dict:
    """Import a fresh copy of the package from this checkout's src/."""
    for name in [n for n in sys.modules if n == "ffmzv" or n.startswith("ffmzv.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ffmzv")
    if Path(pkg.__file__).resolve().parent != (SRC / "ffmzv").resolve():
        raise ImportError(f"ffmzv imported from {pkg.__file__}, not from {SRC}")
    return {name: importlib.import_module(f"ffmzv.{name}") for name in MODULES}


def set_up(workload, tracer: Tracer | None = None):
    """Import, build tables and long-lived state; returns (mods, state, seconds)."""
    gc.collect()
    t0 = time.perf_counter()
    mods = load_package()
    if tracer is None:
        state = workload.setup(mods)
    else:
        tracer.install(mods)
        with tracer.root("setup", -1):
            state = workload.setup(mods)
    return mods, state, time.perf_counter() - t0


def set_up_aside(workload) -> float:
    """Time one more fresh set-up, then put the serving copy of the package
    back in sys.modules: its functions import sibling modules lazily, and
    those imports must keep finding the copy they belong to."""
    serving = {n: m for n, m in sys.modules.items() if n == "ffmzv" or n.startswith("ffmzv.")}
    _, _, dt = set_up(workload)
    for name in [n for n in sys.modules if n == "ffmzv" or n.startswith("ffmzv.")]:
        del sys.modules[name]
    sys.modules.update(serving)
    gc.collect()  # free the copy here, not inside a later request
    return dt


def serve(workload, mods, state, seed: int, seconds: float | None, rounds: int | None,
          tracer: Tracer | None = None, between_requests=None) -> dict:
    """Closed loop over whole rounds: until `seconds`, MIN_REQUESTS and
    MIN_ROUNDS are all reached, or for exactly `rounds` rounds.
    `between_requests(served_s)` runs after every request, off the serving clock."""
    latencies: list[float] = []
    by_slot: dict[tuple, list[float]] = {}
    round_rates: list[float] = []
    kinds: dict[str, list[int]] = {}
    errors: list[str] = []
    t_start = time.perf_counter()
    paused = 0.0
    for done, batch in enumerate(workload.rounds(seed), start=1):
        t_round = time.perf_counter()
        paused_before = paused
        verified = 0
        seen: dict[tuple, int] = {}
        for req in batch:
            rid = len(latencies)
            why = "wrong verdict"
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    ok = workload.run(mods, state, req)
                else:
                    with tracer.root("request", rid):
                        ok = workload.run(mods, state, req)
            except Exception as exc:  # a raising request is a failed request
                ok = False
                why = f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            repeat = seen[req.key] = seen.get(req.key, -1) + 1
            by_slot.setdefault((req.key, repeat), []).append(latencies[-1])
            tally = kinds.setdefault(req.kind, [0, 0])
            tally[0] += 1
            if ok:
                verified += 1
            else:
                tally[1] += 1
                errors.append(f"request {rid} {req.kind} {req.args}: {why}")
            if between_requests is not None:
                t_pause = time.perf_counter()
                between_requests(t_pause - t_start - paused)
                paused += time.perf_counter() - t_pause
        round_rates.append(verified / (time.perf_counter() - t_round - (paused - paused_before)))
        if rounds is not None:
            if done >= rounds:
                break
        elif (time.perf_counter() - t_start - paused >= seconds and len(latencies) >= MIN_REQUESTS
              and done >= MIN_ROUNDS):
            break
    return {
        "wall_s": time.perf_counter() - t_start - paused,
        "latencies": latencies,
        "by_slot": by_slot,
        "round_rates": round_rates,
        "failed": sum(f for _, f in kinds.values()),
        "kinds": {k: {"attempted": a, "failed": f} for k, (a, f) in sorted(kinds.items())},
        "errors": errors[:20],
    }


def golden_gate() -> tuple[bool, str]:
    """Recompute the stored canonical values (golden.json) and compare."""
    load_package()
    suite = importlib.import_module("ffmzv.suite")
    try:
        status, detail = suite.check_golden(suite.RunConfig())
    except Exception as exc:  # an unreadable or uncomputable golden set fails the gate
        return False, f"{type(exc).__name__}: {exc}"
    return status == "pass", detail


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seed: int, seconds: float) -> tuple[int, int, dict]:
    mods, state, first = set_up(workload)
    setup_times = [first]
    reps = min(SETUP_REPS[1], max(SETUP_REPS[0], int(seconds / 10 / first)))

    def spaced_set_ups(served_s: float) -> None:
        # the other set-ups are spread over the run, so that they meet the
        # host in the states the requests meet it in
        if len(setup_times) < reps and served_s >= seconds * len(setup_times) / reps:
            setup_times.append(set_up_aside(workload))

    run = serve(workload, mods, state, seed, seconds, None, between_requests=spaced_set_ups)
    while len(setup_times) < reps:
        setup_times.append(set_up_aside(workload))
    n = len(run["latencies"])
    verified = (n - run["failed"]) / n
    # Every slot of a round recurs once per round at the same cost.  This host
    # runs in a usual speed and in bursts up to 60% faster that last a few
    # seconds; how much of a run falls in bursts changes from run to run, and
    # a mean or a median over the run follows it.  The slowest repeat of each
    # slot (and the slowest set-up) reads the usual speed in every run.
    typical = sorted(max(v) for v in run["by_slot"].values())
    metrics = {
        "throughput_rps": metric(len(typical) * verified / sum(typical), "1/s"),
        "latency_p50_ms": metric(statistics.median(typical) * 1e3, "ms"),
        "latency_p90_ms": metric(statistics.quantiles(typical, n=10, method="inclusive")[8] * 1e3, "ms"),
        "verified_ratio": metric(verified, "ratio"),
        "setup_s": metric(max(setup_times), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {"samples": n, "slots": len(typical), "rounds": len(run["round_rates"]),
              "whole_run_throughput_rps": (n - run["failed"]) / run["wall_s"],
              "round_rates": run["round_rates"],
              "slot_latencies_s": [v for v in run["by_slot"].values()],
              "setup_runs_s": setup_times, "wall_s": run["wall_s"],
              "kinds": run["kinds"], "errors": run["errors"]}
    return n, run["failed"], {"metrics": metrics, "detail": detail}


def per_layer(workload, seed: int, spans_path: Path) -> tuple[int, int, dict]:
    rounds = workload.trace_rounds
    mods, state, _ = set_up(workload)
    plain = serve(workload, mods, state, seed, None, rounds)
    mods = state = None
    tracer = Tracer()
    mods, state, _ = set_up(workload, tracer)
    run = serve(workload, mods, state, seed, None, rounds, tracer)
    calls, selfs = tracer.self_times()
    source = {"calls": calls, "self": selfs, "count": tracer.counts}
    metrics = {}
    for name, kind, key in PER_LAYER:
        metrics[name] = metric(source[kind][key], UNITS.get(kind) or COUNT_UNITS[key])
    ps_calls = tracer.power_sum_calls
    metrics["special.power_sum_reuse_ratio"] = metric(
        tracer.power_sum_repeats / ps_calls if ps_calls else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = metric(run["wall_s"] / plain["wall_s"], "ratio")
    metrics["trace.spans"] = metric(len(tracer.name_id), "count")
    tracer.write(spans_path)
    n = len(run["latencies"])
    detail = {
        "samples": n,
        "rounds": rounds,
        "untraced_throughput_rps": len(plain["latencies"]) / plain["wall_s"],
        "traced_throughput_rps": n / run["wall_s"],
        "untraced_failed": plain["failed"],
        "kinds": run["kinds"],
        "errors": plain["errors"] + run["errors"],
        "self_s_by_span": {k: v for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])},
    }
    attempted = len(plain["latencies"]) + n
    return attempted, plain["failed"] + run["failed"], {"metrics": metrics, "detail": detail}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (SRC / "ffmzv" / "__init__.py").is_file():
        print(f"error: no ffmzv package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    host = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "calibration_mops": calibrate(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    print(json.dumps({"host": host}), flush=True)

    try:
        golden_ok, golden_detail = golden_gate()
    except ImportError as exc:
        print(f"error: cannot import ffmzv: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        attempted, failed, record = per_layer(workload, args.seed, OUT / f"{tag}-spans.csv.gz")
    else:
        attempted, failed, record = end_to_end(workload, args.seed, args.seconds)
    host["calibration_mops_end"] = calibrate()

    failed += 0 if golden_ok else 1
    summary = {"golden": {"passed": golden_ok, "detail": golden_detail}, **record["detail"]}
    shown = ("golden", "samples", "slots", "rounds", "kinds", "errors")
    print(json.dumps({"host": host, "summary": {k: summary[k] for k in shown if k in summary}}), flush=True)
    (OUT / f"{tag}.json").write_text(
        json.dumps({"host": host, "summary": summary, "metrics": record["metrics"]}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
