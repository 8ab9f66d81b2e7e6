"""Per-index derived records for consecutive prime pairs.

A GapWindow packages every integer a checker needs for one index n:
p = p_n, q = p_{n+1}, the gap d, the integral parts N = floor(sqrt(p)) and
Nq = floor(sqrt(q)), the square offsets h = p - N^2 and hq = q - Nq^2, the
single integer s = floor(sqrt(p*q)) that decides all the floor identities of
the sqrt(p)*Delta family, the division q = k*d + r (n >= 2) and the helper
tN = floor(N*sqrt(p)).  Its RootExpr views (`root_views`) are built once,
on first use, and shared by every checker that reads the window.
"""

from __future__ import annotations

import csv
from functools import cached_property
from itertools import islice, pairwise
from math import isqrt

from .exact import RootExpr
from .primes import PrimeStore, CoverageError


class SquareLawViolation(AssertionError):
    """floor(sqrt(q)) exceeded floor(sqrt(p)) + 1: a square-free window gap.

    This would be a counterexample to the Legendre-type expectation the
    window model relies on; it is raised loudly rather than absorbed.
    """


class GapWindow:
    __slots__ = ("n", "p", "q", "d", "N", "Nq", "h", "hq", "s", "k", "r", "tN", "views")

    def __init__(self, n, p, q, N=None):
        self.n = n
        self.p = p
        self.q = q
        self.d = q - p
        self.N = isqrt(p) if N is None else N
        self.Nq = isqrt(q)
        if self.Nq > self.N + 1:
            raise SquareLawViolation(f"n={n}: floor sqrt jumped {self.N} -> {self.Nq}")
        self.h = p - self.N * self.N
        self.hq = q - self.Nq * self.Nq
        self.s = isqrt(p * q)
        if n >= 2:
            self.k, self.r = divmod(q, self.d)
        else:
            self.k = self.r = None
        self.tN = isqrt(self.N * self.N * p)
        self.views = None   # RootViews, filled by root_views

    @property
    def straddle(self) -> bool:
        """A perfect square lies between p and q."""
        return self.Nq == self.N + 1

    @property
    def same_part(self) -> bool:
        return self.Nq == self.N

    def snapshot(self) -> dict:
        return {"n": self.n, "p": self.p, "q": self.q, "d": self.d}

    def __repr__(self):
        return (f"GapWindow(n={self.n}, p={self.p}, q={self.q}, d={self.d}, "
                f"N={self.N}, h={self.h}, hq={self.hq}, s={self.s})")


class RootViews:
    """Named RootExpr views over one window; built lazily, all normalized.

    It keeps the window's integers rather than the window, so the window's
    `views` slot makes no reference cycle.
    """

    def __init__(self, w: GapWindow):
        self._p, self._q, self._N, self._Nq = w.p, w.q, w.N, w.Nq

    @cached_property
    def sqrt_p(self) -> RootExpr:
        return RootExpr.sqrt(self._p)

    @cached_property
    def sqrt_q(self) -> RootExpr:
        return RootExpr.sqrt(self._q)

    @cached_property
    def delta(self) -> RootExpr:
        return self.sqrt_q - self.sqrt_p

    @cached_property
    def D(self) -> RootExpr:
        return self.sqrt_q + self.sqrt_p

    @cached_property
    def mu(self) -> RootExpr:
        return self.sqrt_p - self._N

    @cached_property
    def mu_q(self) -> RootExpr:
        return self.sqrt_q - self._Nq

    @cached_property
    def sqrtq_delta(self) -> RootExpr:
        # sqrt(q)*Delta = q - sqrt(pq)
        return RootExpr.sqrt(self._p * self._q, -1) + self._q

    @cached_property
    def sqrtp_delta(self) -> RootExpr:
        # sqrt(p)*Delta = sqrt(pq) - p
        return RootExpr.sqrt(self._p * self._q) - self._p

    @cached_property
    def mu_sqrtp(self) -> RootExpr:
        # mu*sqrt(p) = p - N*sqrt(p)
        return RootExpr.sqrt(self._p, -self._N) + self._p

    @cached_property
    def mu_q_sqrtq(self) -> RootExpr:
        return RootExpr.sqrt(self._q, -self._Nq) + self._q

    @cached_property
    def ratio_frac(self) -> RootExpr:
        # Delta/sqrt(p) = (sqrt(pq) - p)/p, rational-coefficient form
        return self.sqrtp_delta / self._p


def root_views(w: GapWindow) -> RootViews:
    """The window's RootViews, built on first use; RootExprs are immutable,
    so every checker of the window shares them."""
    v = w.views
    if v is None:
        v = w.views = RootViews(w)
    return v


def windows(store: PrimeStore, n_lo: int, n_hi: int):
    """Yield GapWindow for n in [n_lo, n_hi], strictly increasing n."""
    if n_lo < 1 or n_hi < n_lo:
        raise ValueError("need 1 <= n_lo <= n_hi")
    if n_hi + 1 > store.prime_count:
        raise CoverageError(
            f"p_{n_hi + 1} not covered by store limit {store.limit}")
    start_p = store.nth_prime(n_lo)
    n = n_lo
    prev = None
    prev_N = None
    for p in store.iter_primes(start_p):
        if prev is None:
            prev = p
            prev_N = isqrt(p)
            continue
        w = GapWindow(n, prev, p, N=prev_N)
        yield w
        n += 1
        if n > n_hi:
            return
        prev = p
        prev_N = w.Nq


CSV_COLUMNS = ["n", "p", "q", "d", "N", "h", "hq", "s", "k", "r", "j"]


def dump_windows_csv(store: PrimeStore, n_lo: int, n_hi: int, fh) -> None:
    """Write the window stream as CSV (exact integers; k,r blank at n = 1)
    with the twin-pair prefix count j_n = #{i < n : d_i = 2}."""
    writer = csv.writer(fh)
    writer.writerow(CSV_COLUMNS)
    j = None
    for w in windows(store, n_lo, n_hi):
        if j is None:   # counted once windows() has accepted the range
            j = sum(q - p == 2 for p, q in pairwise(islice(store.iter_primes(), n_lo)))
        writer.writerow([w.n, w.p, w.q, w.d, w.N, w.h, w.hq, w.s,
                         "" if w.k is None else w.k,
                         "" if w.r is None else w.r, j])
        j += w.d == 2
