"""The benchmark's three request streams.

Each workload turns a seed into an endless stream of rounds.  Every round has
the same fixed catalogue of request shapes (configuration, index, precision,
size); the seed draws the details that do not change a round's cost (which
indices serve as controls, sample values, perturbed positions, ...) and,
where requests share no state, shuffles the order.  So every round does the
same work and a run's figures do not hinge on lucky draws, which keeps runs
of different seeds comparable.
Requests are plain tuples: they never hold package objects, because every
set-up imports a fresh copy of the package.

`setup(mods)` builds what a long-running server would hold (field tables and
long-lived contexts); `run(mods, state, req)` executes one request and returns
True exactly when its verdict is the expected one.
"""

from __future__ import annotations

import random
from typing import NamedTuple


def compositions(max_wt: int, max_dep: int) -> list[tuple[int, ...]]:
    """All indices of weight <= max_wt and depth <= max_dep, in a fixed order.

    Kept here rather than taken from the package so that the benchmark's
    inputs do not change when the program does.
    """
    out = []

    def rec(prefix, rest):
        if prefix:
            out.append(prefix)
        if len(prefix) == max_dep:
            return
        for s in range(1, rest + 1):
            rec(prefix + (s,), rest - s)

    rec((), max_wt)
    return sorted(out, key=lambda e: (sum(e), len(e), e))


def residual_ok(rep, floor: int) -> bool:
    return rep.passed and rep.floor_z >= floor


class Request(NamedTuple):
    kind: str
    args: tuple
    # the request's slot in a round: the same key recurs once in every round
    # with the same cost, so its latencies over the rounds can be compared
    key: tuple


# -- zeta-period ----------------------------------------------------------------


class ZetaPeriod:
    """Monic-sum limit vs polylogarithm value, on long-lived shared contexts.

    A round is one cache epoch: every index of weight <= 7 and depth <= 3 at
    every configuration, with precisions spread over the configuration's
    range, against one context per (p, l).  The contexts live for the round
    and are rebuilt when the next one starts, so each round pays the same
    power sums and shares the same ones through the context cache.  The order
    is fixed, so which request pays for a power sum that several share does
    not depend on the seed; the seed picks the controls and pi precisions
    once, and every round of a run repeats them.
    """

    name = "zeta-period"
    # (p, l, lowest and highest target z-precision)
    CONFIGS = ((2, 1, 30, 50), (3, 1, 40, 80), (2, 2, 40, 130), (5, 1, 60, 160))
    INDICES = compositions(7, 3)
    # at depth 3 and q >= 4 many values vanish to the requested precision, so
    # a perturbation there cannot show; controls use depth <= 2
    SHALLOW = [k for k, idx in enumerate(INDICES) if len(idx) <= 2]
    CONTROLS_PER_CONFIG = 7  # 28 controls in a round of 288 requests
    PI_AT = (21, 42)  # catalogue positions followed by a pi check, per configuration
    trace_rounds = 1

    @staticmethod
    def precision(lo: int, hi: int, k: int) -> int:
        """Precision of the k-th catalogue index: a fixed spread over [lo, hi]."""
        return lo + (7 * k) % (hi - lo + 1)

    def setup(self, mods):
        return {"round": 0, "ctxs": self._contexts(mods)}

    def _contexts(self, mods):
        ctxs = {}
        for p, l, _, _ in self.CONFIGS:
            ctx = mods["carlitz"].CarlitzContext(p, l)
            mods["ffield"].ops(ctx.field)
            ctxs[(p, l)] = ctx
        return ctxs

    def rounds(self, seed: int):
        rng = random.Random(seed)
        controls = {c: set(rng.sample(self.SHALLOW, self.CONTROLS_PER_CONFIG)) for c in self.CONFIGS}
        pi_prec = {(c, k): rng.randint(c[2], c[3]) for c in self.CONFIGS for k in self.PI_AT}
        r = 0
        while True:
            reqs = []
            for k, idx in enumerate(self.INDICES):
                for c in self.CONFIGS:
                    p, l, lo, hi = c
                    prec = self.precision(lo, hi, k)
                    reqs.append(Request("period", (r, p, l, idx, prec), (len(reqs),)))
                    if k in controls[c]:
                        reqs.append(Request("control", (r, p, l, idx, prec), (len(reqs),)))
                    if k in self.PI_AT:
                        reqs.append(Request("pi", (r, p, l, None, pi_prec[(c, k)]), (len(reqs),)))
            yield reqs
            r += 1

    def run(self, mods, state, req: Request) -> bool:
        special = mods["special"]
        r, p, l, idx, prec = req.args
        if r != state["round"]:
            state["round"], state["ctxs"] = r, self._contexts(mods)
        ctx = state["ctxs"][(p, l)]
        if req.kind == "pi":
            rep = mods["carlitz"].pi_omega_cross_check(ctx, prec)
            return rep.status == "equal" and rep.precision >= prec
        s = special.Index(idx)
        if req.kind == "period":
            rep = special.period_identity_report(ctx, s, prec)
            return rep.status == "equal" and rep.precision >= prec
        # perturbed first argument: adding theta^k, k the largest degree the
        # convergence bound deg < s_1 q/(q-1) allows, must break the identity
        u = special.at_arguments(ctx, s)
        k = -(-idx[0] * ctx.q // (ctx.q - 1)) - 1
        bad = u[0] + mods["poly"].BivarPoly(ctx.field, {(0, k): 1})
        rep = special.period_identity_report(ctx, s, prec, u=(bad,) + u[1:])
        return rep.status == "unequal"


# -- motive-residual --------------------------------------------------------------


class MotiveResidual:
    """Matrix systems built and verified from a fresh context per request."""

    name = "motive-residual"
    CONFIGS = ((2, 1), (3, 1), (2, 2))
    # (z-precision, t-degree) levels; every round runs each of them
    SIZES = ((40, 8), (56, 11), (72, 14))
    # one index per depth and a fixed derived level per size: requests share
    # nothing, so the seed only orders the round and every round costs the same
    INDICES = ((3,), (1, 2), (1, 2, 1))
    DERIVE = (2, 3, 2)
    trace_rounds = 2

    def setup(self, mods):
        for p, l in self.CONFIGS:
            mods["ffield"].ops(mods["ffield"].field(p, l))
        return None

    def rounds(self, seed: int):
        rng = random.Random(seed)
        while True:
            reqs = []
            for p, l in self.CONFIGS:
                for idx in self.INDICES:
                    for level, (prec, tdeg) in enumerate(self.SIZES):
                        # the middle size also checks Omega's functional equation
                        kind = "system+omega" if level == 1 else "system"
                        args = (p, l, idx, prec, tdeg, self.DERIVE[level])
                        reqs.append(Request(kind, args, args))
            rng.shuffle(reqs)
            yield reqs

    def run(self, mods, _state, req: Request) -> bool:
        carlitz, special, motive = mods["carlitz"], mods["special"], mods["motive"]
        p, l, idx, prec, tdeg, derive = req.args
        ctx = carlitz.CarlitzContext(p, l, prec=prec, tdeg=tdeg)
        s = special.Index(idx)
        u = special.at_arguments(ctx, s)
        phi = motive.phi_matrix(ctx, u, s)
        psi = motive.psi_matrix(ctx, u, s)
        if not residual_ok(motive.frobenius_residual(phi, psi), prec):
            return False
        # every single-entry mutation is a negative control: none may survive
        kill = motive.mutation_kill_report(ctx, phi, psi)
        if not kill.passed or kill.checked != psi.size * psi.size:
            return False
        if not residual_ok(motive.frobenius_residual(motive.derived_matrix(phi, derive), psi), prec):
            return False
        # the full component (dep + 1, 1) telescopes through every window
        if not residual_ok(motive.component_collapse_report(ctx, s, s.dep + 1, 1), prec):
            return False
        if req.kind == "system+omega":
            if not residual_ok(carlitz.omega_functional_residual(ctx, carlitz.omega_series(ctx)), prec):
                return False
            dropped = carlitz.omega_series(ctx, drop_factor=1)
            if carlitz.omega_functional_residual(ctx, dropped).passed:
                return False
        return True


# -- block-shell -----------------------------------------------------------------


class BlockShell:
    """Block-group shell closure, commutator laws and parse controls."""

    name = "block-shell"
    FIELDS = ((3, 4), (2, 8), (5, 3), (3, 6))
    RATIONAL_P = (2, 3, 5)
    FF_INDEX_SETS = (((1, 2),), ((2, 1),), ((1, 1, 2),), ((3,), (1, 2)), ((2, 2, 1),))
    # over F_p(t) fractions are never reduced, so entries of larger shapes grow quickly
    RATIONAL_INDEX_SET = ((1, 2),)
    # samples per request: enough that a request outlasts the host's short
    # stalls, which would otherwise decide its slowest repeat
    FF_SAMPLES = 30
    RATIONAL_SAMPLES = 24
    CONTROL_SAMPLES = 20  # perturbed matrices per parse control
    CONTROLS_PER_DOMAIN = 2
    trace_rounds = 2

    def setup(self, mods):
        motive, ffield = mods["motive"], mods["ffield"]
        doms = {f"F{p}^{m}": motive.FiniteFieldDomain(ffield.field(p, m)) for p, m in self.FIELDS}
        for p in self.RATIONAL_P:
            doms[f"F{p}(t)"] = motive.RationalFunctionDomain(p)
        return doms

    def rounds(self, seed: int):
        rng = random.Random(seed)
        while True:
            reqs = []
            for p, m in self.FIELDS:
                dom = f"F{p}^{m}"
                for iset in self.FF_INDEX_SETS:
                    for kind in ("closure", "commutator"):
                        reqs.append(self._request(rng, kind, dom, iset, self.FF_SAMPLES))
                for j in range(self.CONTROLS_PER_DOMAIN):
                    iset = self.FF_INDEX_SETS[j * 2]
                    reqs.append(self._request(rng, "parse-control", dom, iset, self.CONTROL_SAMPLES))
            for p in self.RATIONAL_P:
                dom, iset = f"F{p}(t)", self.RATIONAL_INDEX_SET
                for kind in ("closure", "commutator"):
                    reqs.append(self._request(rng, kind, dom, iset, self.RATIONAL_SAMPLES))
                for _ in range(self.CONTROLS_PER_DOMAIN):
                    reqs.append(self._request(rng, "parse-control", dom, iset, self.CONTROL_SAMPLES))
            rng.shuffle(reqs)
            yield reqs

    @staticmethod
    def _request(rng, kind, dom, iset, samples) -> Request:
        # the samples' seed is fresh in every round; the key counts repeats
        # of one shape within a round (controls on F_p(t) share a shape)
        return Request(kind, (dom, iset, samples, rng.randrange(1 << 30)), (kind, dom, iset))

    def run(self, mods, doms, req: Request) -> bool:
        motive, special = mods["motive"], mods["special"]
        dom_key, iset, samples, seed = req.args
        dom = doms[dom_key]
        index_set = special.subclosure([special.Index(e) for e in iset])
        if req.kind == "closure":
            rep = motive.closure_report(dom, index_set, samples, seed)
            return rep.passed and rep.checked == samples
        if req.kind == "commutator":
            rep = motive.commutator_report(dom, index_set, samples, seed)
            return rep.passed and rep.checked == samples
        # realized shapes with 1 added on or above the diagonal (never at the
        # scalar slot (0, 0)): those entries are fixed by the shape, so parse
        # must refuse every such matrix
        rng = random.Random(seed)
        for _ in range(samples):
            shape = motive.BlockShape(dom, index_set, dom.sample_nonzero(rng),
                                      {ix: dom.sample(rng) for ix in index_set})
            mat = [list(row) for row in shape.realize()]
            n = len(mat)
            i = rng.randrange(n)
            j = rng.randrange(max(i, 1), n)
            mat[i][j] = dom.add(mat[i][j], dom.one())
            try:
                motive.BlockShape.parse(dom, index_set, mat)
            except mods["errors"].ShapeParseError:
                continue
            return False
        return True


WORKLOADS = {w.name: w for w in (ZetaPeriod(), MotiveResidual(), BlockShell())}
