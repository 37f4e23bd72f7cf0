#!/usr/bin/env python3
"""Scan the factorial*zeta = polylog-value identity over an index range.

Prints one row per (p, l, index) with the verified precision and timing.
Useful for probing how far past the acceptance window (wt <= 6, dep <= 3,
prec 30) the identity remains cheap to certify.

    python scripts/period_scan.py --max-wt 8 --max-dep 3 --prec 40
"""

import argparse
import time

from ffmzv.carlitz import CarlitzContext
from ffmzv.special import period_identity_report
from ffmzv.suite import _wt_indices


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--configs", default="2,1;3,1;2,2", help="semicolon-separated p,l pairs")
    ap.add_argument("--max-wt", type=int, default=6)
    ap.add_argument("--max-dep", type=int, default=3)
    ap.add_argument("--prec", type=int, default=30)
    args = ap.parse_args()

    failures = 0
    for pair in args.configs.split(";"):
        p, l = (int(x) for x in pair.split(","))
        ctx = CarlitzContext(p, l)
        for s in _wt_indices(args.max_wt, args.max_dep):
            t0 = time.perf_counter()
            rep = period_identity_report(ctx, s, args.prec)
            dt = time.perf_counter() - t0
            print(f"p={p} l={l} s={str(s):12s} {rep.verdict():12s} prec={rep.precision} ({dt * 1000:.0f} ms)")
            failures += 0 if rep.passed else 1
    print(f"failures: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
