#!/usr/bin/env python3
"""Time the FieldOps build, trace its memory and size its lists, field by field.

For each finite field of the block-shell benchmark, F_(3^4), F_(2^8),
F_(5^3) and F_(3^6), and for F_(2^12), the largest field under the table
cap, prints one row: the seconds that `ffield.FieldOps(spec)` took (the
modulus search, done once per (p, m) by `field`, is not counted), the peak
in KB that `tracemalloc` saw during a second build of the same field, and
the length of each list the FieldOps holds.  Every list is O(n): sums and
products both read the exp/log lists, sums through the Zech list.  No
options:

    python scripts/field_tables.py
"""

import time
import tracemalloc

from ffmzv.ffield import FieldOps, field

FIELDS = ((3, 4), (2, 8), (5, 3), (3, 6), (2, 12))


def main() -> int:
    header = None
    for p, m in FIELDS:
        spec = field(p, m)
        start = time.perf_counter()
        ops = FieldOps(spec)
        seconds = time.perf_counter() - start
        del ops  # the traced build starts from the same memory
        tracemalloc.start()
        ops = FieldOps(spec)
        peak_kb = tracemalloc.get_traced_memory()[1] / 1024
        tracemalloc.stop()
        lists = {name: len(getattr(ops, name)) for name in FieldOps.__slots__ if isinstance(getattr(ops, name), list)}
        if header is None:
            header = list(lists)
            print(f"{'field':10s} {'build_s':>8s} {'peak_kb':>8s} " + " ".join(f"{name:>9s}" for name in header))
        print(f"{f'F_({p}^{m})':10s} {seconds:8.3f} {peak_kb:8.0f} " + " ".join(f"{lists[name]:9d}" for name in header))
        del ops  # one field's lists at a time
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
