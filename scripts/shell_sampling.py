#!/usr/bin/env python3
"""Sample the block-shape closure and commutator laws across fields.

The identities are polynomial in the parameters, so exact agreement on more
samples than the degree bound certifies them over each sampled field that
has more nonzero values than the bound (Schwartz-Zippel); other runs print
"incomparable".  This sweeps sample fields and index sets beyond the
acceptance configuration, over F_p(t) too with --rational; each row ends
with the seconds its run took.  The exit code is 0 only if every run
passes, as in the CLI and scripts/period_scan.py.

    python scripts/shell_sampling.py --indices "1,2;2,2,1" --samples 200
"""

import argparse
import time

from ffmzv.ffield import field
from ffmzv.motive import FiniteFieldDomain, RationalFunctionDomain, closure_report, commutator_report
from ffmzv.special import parse_index_set, subclosure


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--indices", default="1,2", help="semicolon-separated seed indices")
    ap.add_argument("--fields", default="3,4;2,4;5,2", help="semicolon-separated p,N pairs")
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rational", action="store_true", help="also run both laws over F_p(t)")
    args = ap.parse_args()

    idx = subclosure(parse_index_set(args.indices))
    print("index set:", "; ".join(str(i) for i in idx))
    verdicts = []
    for pair in args.fields.split(";"):
        p, n = (int(x) for x in pair.split(","))
        runs = [(f"F_({p}^{n})", FiniteFieldDomain(field(p, n)), args.samples)]
        if args.rational:
            runs.append((f"F_{p}(t) ", RationalFunctionDomain(p), max(10, args.samples // 10)))
        for label, dom, samples in runs:
            for tag, fn in (("closure", closure_report), ("commutator", commutator_report)):
                start = time.perf_counter()
                rep = fn(dom, idx, samples, args.seed)
                verdicts.append(rep.verdict())
                print(f"{label} {tag:10s} {verdicts[-1]}  {rep.note}  {time.perf_counter() - start:.2f} s")
    return 0 if all(v == "pass" for v in verdicts) else 1


if __name__ == "__main__":
    raise SystemExit(main())
