"""Span tracing around the ffmzv layers, installed from outside the package.

`Tracer.install(mods)` wraps the public functions and methods listed in
`TARGETS` on one freshly imported copy of the package.  Module functions are
rebound in every ffmzv module that imported them (for example
`motive.omega_series`, which motive imports from carlitz) and methods are
replaced on their class, so no source under `src/` changes.

Spans (name, start, end, parent, request) are kept in flat arrays in memory
and written out once, when the run ends.  A span's self time is its duration
minus the time its child spans cover; spans nest strictly because the
benchmark is one thread.  Three operation counts are computed in the
wrappers from operand lengths, so they repeat exactly for one request
stream however fast the host runs.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from contextlib import contextmanager

# (module, attribute path, span name)
TARGETS = [
    ("ffield", "FieldOps.__init__", "ffield.table_build"),
    ("laurent", "LaurentSeries.inv", "laurent.inv"),
    ("laurent", "LaurentSeries.__mul__", "laurent.mul"),
    ("laurent", "LaurentSeries.__add__", "laurent.add"),
    ("poly", "dense_theta_mul", "poly.dense_mul"),
    ("poly", "BivarPoly.__mul__", "poly.mul"),
    # eval_theta delegates to eval_theta_twisted, which cmpl_value also calls
    ("poly", "BivarPoly.eval_theta_twisted", "poly.eval_theta"),
    ("tate", "TateElement.__mul__", "tate.mul"),
    ("tate", "twist", "tate.twist"),
    ("tate", "invert_linear_factor", "tate.invert_linear_factor"),
    ("carlitz", "omega_series", "carlitz.omega_series"),
    ("carlitz", "carlitz_factorial", "carlitz.factorial"),
    ("carlitz", "pi_tilde", "carlitz.pi_tilde"),
    ("special", "monic_power_sum", "special.monic_power_sum"),
    ("special", "mzv", "special.mzv"),
    ("special", "cmpl_value", "special.cmpl_value"),
    ("special", "cmpl_series", "special.cmpl_series"),
    ("special", "anderson_thakur_polynomials", "special.at_polys"),
    ("motive", "psi_matrix", "motive.psi_matrix"),
    ("motive", "frobenius_residual", "motive.frobenius_residual"),
    ("motive", "mutation_kill_report", "motive.mutation_kill"),
    ("motive", "derived_matrix", "motive.derived_matrix"),
    ("motive", "component_collapse_report", "motive.component_collapse"),
    ("motive", "BlockShape.parse", "motive.shell_parse"),
    ("motive", "BlockShape.realize", "motive.shell_realize"),
    ("motive", "closure_report", "motive.closure_report"),
    ("motive", "commutator_report", "motive.commutator_report"),
]

ROOT_SPANS = ("setup", "request")


def inv_coeff_ops(f) -> int:
    """Multiply-accumulate steps of LaurentSeries.inv on f (its inner loop count)."""
    rel = f.prec - f.val
    m = len(f.coeffs) - 1
    n = rel - 1  # the loop runs k = 1 .. rel-1 with min(k, m) steps each
    if n <= 0 or m <= 0:
        return 0
    if n <= m:
        return n * (n + 1) // 2
    return m * (m + 1) // 2 + (n - m) * m


def mul_coeff_ops(a, b) -> int:
    """Coefficient products of LaurentSeries.__mul__ on (a, b), zero skips included."""
    la, lb = len(a.coeffs), len(b.coeffs)
    if not la or not lb:
        return 0
    val = a.val + b.val
    prec = min(a.val + b.prec, b.val + a.prec)
    n = min(prec - val, la + lb - 1)
    if n <= 0:
        return 0
    rows = min(la, n)
    # rows i < full take lb products, the rest take n - i
    full = max(0, min(rows, n - lb + 1))
    return full * lb + (rows - full) * n - (rows - 1 + full) * (rows - full) // 2


class Tracer:
    """Spans and computed counts of one traced pass over one package copy."""

    def __init__(self):
        self.names: list[str] = list(ROOT_SPANS)
        self.name_id = array("H")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_request = -1
        self.counts = {"laurent.inv_coeff_ops": 0, "laurent.mul_coeff_ops": 0,
                       "special.monic_polys_enumerated": 0}
        self.power_sum_calls = 0
        self.power_sum_repeats = 0
        self._power_sum_keys: set = set()
        # keeps every context seen alive, so that id() is never reused
        self._contexts: dict[int, object] = {}

    # -- recording ------------------------------------------------------------

    def _open(self, nid: int) -> int:
        sid = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.request.append(self.current_request)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    @contextmanager
    def root(self, name: str, request_id: int):
        """A root span ('setup' or 'request'); layer spans opened inside carry its id."""
        self.current_request = request_id
        sid = self._open(self.names.index(name))
        self.start[sid] = time.perf_counter()
        try:
            yield
        finally:
            self.end[sid] = time.perf_counter()
            self.stack.pop()
            self.current_request = -1

    def _wrap(self, name: str, fn, before=None):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, request, start, end, stack = (
            self.name_id, self.parent, self.request, self.start, self.end, self.stack)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            # _open inlined: this runs for every span
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            request.append(tracer.current_request)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()

        return functools.wraps(fn)(wrapper)

    # -- counters computed from operands ------------------------------------------

    def _count_inv(self, args, kwargs):
        self.counts["laurent.inv_coeff_ops"] += inv_coeff_ops(args[0])

    def _count_mul(self, args, kwargs):
        self.counts["laurent.mul_coeff_ops"] += mul_coeff_ops(args[0], args[1])

    def _count_power_sum(self, args, kwargs):
        bound = dict(zip(("ctx", "d", "s", "prec"), args), **kwargs)
        ctx = bound["ctx"]
        prec = bound.get("prec")
        key = (id(ctx), bound["d"], bound["s"], ctx.prec if prec is None else prec)
        self._contexts[id(ctx)] = ctx
        self.power_sum_calls += 1
        if key in self._power_sum_keys:
            self.power_sum_repeats += 1
        else:
            self._power_sum_keys.add(key)
            self.counts["special.monic_polys_enumerated"] += ctx.q ** bound["d"]

    # -- installation -------------------------------------------------------------

    def install(self, mods: dict) -> None:
        """Wrap every target on the package copy whose modules are in `mods`
        (the copy currently in sys.modules)."""
        hooks = {"laurent.inv": self._count_inv, "laurent.mul": self._count_mul,
                 "special.monic_power_sum": self._count_power_sum}
        for mod_name, path, span in TARGETS:
            mod = mods[mod_name]
            before = hooks.get(span)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(span, raw.__func__, before)))
                else:
                    setattr(cls, attr, self._wrap(span, raw, before))
            else:
                original = getattr(mod, path)
                wrapped = self._wrap(span, original, before)
                package = [m for n, m in sys.modules.items() if n == "ffmzv" or n.startswith("ffmzv.")]
                for other in package:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapped)

    # -- reduction ----------------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """(calls per span name, self seconds per span name)."""
        n = len(self.name_id)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = dict.fromkeys(self.names, 0)
        selfs = dict.fromkeys(self.names, 0.0)
        names = self.names
        for i in range(n):
            name = names[self.name_id[i]]
            calls[name] += 1
            selfs[name] += end[i] - start[i] - child[i]
        return calls, selfs

    def write(self, path) -> None:
        """All spans as gzip'd CSV: id,name,parent,request,start_s,end_s."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,name,parent,request,start_s,end_s\n")
            for i in range(len(self.name_id)):
                out.write(f"{i},{names[self.name_id[i]]},{self.parent[i]},"
                          f"{self.request[i]},{self.start[i]:.9f},{self.end[i]:.9f}\n")
