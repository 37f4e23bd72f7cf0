"""Assertion oracles and probes that only the tests use.

`certificate_ok`, `t_var`, `theta`, `coeff` and `tate_pow` are small
constructors, checks and operations on the package's series types, and
`rf_coeffs` reads an F_p(t) domain's packed polynomial back as coefficients.
`counting` replaces a context's cache with a dict that counts its lookups
and stores, so that tests can assert how often `CarlitzContext.cached` and
`cached_to` found what they were asked for.
"""

from typing import NamedTuple

from ffmzv.carlitz import CarlitzContext
from ffmzv.errors import PrecisionError
from ffmzv import tate
from ffmzv.ffield import FieldSpec, power
from ffmzv.laurent import LaurentSeries, theta_pow, zero as ls_zero
from ffmzv.tate import TateElement


def certificate_ok(f: TateElement) -> bool:
    """Stored coefficients are consistent with the tail certificate."""
    if f.exact or f.tail is None:
        return True
    sigma, tau = f.tail
    for k in range(f.tdeg + 1):
        bound = min(sigma * k + tau, f.coeffs[k].prec)
        if f._coeff_val_bound(k) < bound:
            return False
    return True


def t_var(field: FieldSpec, prec: int) -> TateElement:
    """The exact Tate element t."""
    return TateElement(field, [ls_zero(field, prec), LaurentSeries(field, 0, [1], prec)], None, True)


def theta(field: FieldSpec, prec: int) -> LaurentSeries:
    return theta_pow(field, 1, prec)


def coeff(f: LaurentSeries, k: int) -> int:
    """The coefficient of z^k; PrecisionError at or beyond f's precision."""
    if k < f.val:
        return 0
    if k >= f.val + len(f.coeffs):
        if k >= f.prec:
            raise PrecisionError(f"coefficient of z^{k} beyond O(z^{f.prec})")
        return 0
    return f.coeffs[k - f.val]


def tate_pow(f: TateElement, e: int) -> TateElement:
    """f^e (e >= 0) by square-and-multiply from the exact 1 known to the
    precision of f's t^0 coefficient."""
    return power(f, e, tate.one(f.field, f.coeffs[0].prec))


def rf_coeffs(dom, x: int) -> tuple:
    """The coefficients, lowest degree first, of a polynomial that the F_p(t)
    domain dom packs into the int x; (0,) for zero.  The slot width is read
    off the packed t, which is 2^B."""
    bits = dom.encode((0, 1)).bit_length() - 1
    out = []
    while x:
        out.append(x & ((1 << bits) - 1))
        x >>= bits
    return tuple(out) or (0,)


class CacheStats(NamedTuple):
    hits: int
    misses: int
    size: int


class CountingCache(dict):
    """A context cache that counts lookups (`[key]` and `get`) and stores.

    Each call of `cached` or `cached_to` looks its key up once and stores
    only when it builds, so a miss is a store and a hit is a lookup without
    one (a request served by truncation is a hit).
    """

    lookups = stores = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __setitem__(self, key, value):
        self.stores += 1
        super().__setitem__(key, value)


def counting(ctx: CarlitzContext) -> CarlitzContext:
    """ctx, its cache replaced by a CountingCache with the same entries."""
    ctx._cache = CountingCache(ctx._cache)
    return ctx


def cache_stats(ctx: CarlitzContext) -> CacheStats:
    """(hits, misses, size) of a context set up by `counting`."""
    cache = ctx._cache
    return CacheStats(cache.lookups - cache.stores, cache.stores, len(cache))
