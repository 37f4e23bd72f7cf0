#!/usr/bin/env python3
"""Sample the block-shape closure and commutator laws across fields.

The identities are polynomial in the parameters, so exact agreement on more
samples than the degree bound certifies them over each sampled field that
has more nonzero values than the bound (Schwartz-Zippel); other runs print
"incomparable".  This sweeps sample fields and index sets beyond the
acceptance configuration.

    python scripts/shell_sampling.py --indices "1,2;2,2,1" --samples 200
"""

import argparse

from ffmzv.ffield import field
from ffmzv.motive import FiniteFieldDomain, RationalFunctionDomain, closure_report, commutator_report
from ffmzv.special import parse_index_set, subclosure


def _status(rep) -> str:
    """FAIL on a witness; ok only where the samples certify the law."""
    return "FAIL" if not rep.passed else "ok" if rep.certified else "incomparable"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--indices", default="1,2", help="semicolon-separated seed indices")
    ap.add_argument("--fields", default="3,4;2,4;5,2", help="semicolon-separated p,N pairs")
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rational", action="store_true", help="also sample over F_p(t)")
    args = ap.parse_args()

    idx = subclosure(parse_index_set(args.indices))
    print("index set:", "; ".join(str(i) for i in idx))
    failures = 0
    for pair in args.fields.split(";"):
        p, n = (int(x) for x in pair.split(","))
        dom = FiniteFieldDomain(field(p, n))
        for tag, fn in (("closure", closure_report), ("commutator", commutator_report)):
            rep = fn(dom, idx, args.samples, args.seed)
            print(f"F_({p}^{n}) {tag:10s} {_status(rep)}  {rep.note}")
            failures += 0 if rep.passed else 1
        if args.rational:
            dom_r = RationalFunctionDomain(p)
            rep = closure_report(dom_r, idx, max(10, args.samples // 10), args.seed)
            print(f"F_{p}(t)  closure    {_status(rep)}  {rep.note}")
            failures += 0 if rep.passed else 1
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
