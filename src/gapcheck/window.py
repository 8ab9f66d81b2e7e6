"""Per-index derived records for consecutive prime pairs.

A GapWindow packages every integer a checker needs for one index n:
p = p_n, q = p_{n+1}, the gap d, the integral parts N = floor(sqrt(p)) and
Nq = floor(sqrt(q)), the square offsets h = p - N^2 and hq = q - Nq^2, the
single integer s = floor(sqrt(p*q)) that decides all the floor identities of
the sqrt(p)*Delta family, the division q = k*d + r (n >= 2) and the helper
tN = floor(N*sqrt(p)).

Its RootViews (`root_views`) hold the window's RootExprs and the integers
derived from them.  Each is built once, on first use, and shared by every
checker that reads the window; whatever two checkers read lives there, so
no checker rebuilds it.  The list is in the RootViews docstring.  Only
checkers build views: a stream that never asks for them (the ledger, the
CSV dump) pays nothing for them.
"""

from __future__ import annotations

import csv
from fractions import Fraction
from math import isqrt

from .exact import RootExpr, _sign_1rad, floor_root
from .primes import PrimeStore, CoverageError


HALF = Fraction(1, 2)


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


class _view:
    """A RootViews attribute computed on its first read and stored on the
    instance, so later reads are plain attribute lookups.  Python 3.11's
    functools.cached_property does the same under a lock taken on every
    first read, which measurably slowed whole-catalog runs."""

    def __init__(self, fn):
        self._fn = fn
        self._name = fn.__name__

    def __get__(self, views, owner=None):
        if views is None:
            return self
        value = views.__dict__[self._name] = self._fn(views)
        return value


class RootViews:
    """Named views over one window, each built on first use and then shared
    by every checker of the window.

    The rule: a quantity that two or more checkers read lives here, so it is
    computed once per window.  The RootExprs are normalized and immutable;
    the integers are exact.  Besides the radicals (sqrt_p, sqrt_q, sqrt_pq,
    Delta, D, mu, mu', N sqrt(p), Nq sqrt(q)) they are:
      delta_sq             Delta^2                       (thm-35, twin-91, eq-61)
      two_sqrtp_delta      2 sqrt(p) Delta               (cor-36, eq-61, twin-91)
      frac_sqrtq_delta,    {sqrt(q) Delta}, {sqrt(p) Delta}
      frac_sqrtp_delta                                   (thm-35, cor-36)
      sqrtp_delta_half,    sqrt(pq) - (p + 1/2) and its floor
      floor_sqrtp_delta_half                             (floor-32, frac-33)
      mu_sq, mu_q_sq,      mu^2, mu'^2, mu' + mu         (h-def, n2p1-family,
      mu_sum                 ids-511, ids-512, dpar-57, ids-514)
      floor_/frac_h_over_mu, floor_/frac_hq_over_mu_q
                           h/mu and h'/mu' split         (thm-43, ids-510)
      N_sqrtp, Nq_sqrtq    N sqrt(p), Nq sqrt(q)         (ids-511, ids-513, cor-56)
      tNq                  floor(Nq sqrt(q))             (mono-55, cor-56,
                                                          ids-511, ids-513)
      floor_D              floor(sqrt(p) + sqrt(q))      (dpar-58, dpar-59,
                             ids-515, ids-516, first-after-square,
                             survey-last-before-square)
    floor_D is one exact integer sign and tNq one isqrt.

    It keeps the window's integers rather than the window, so the window's
    `views` slot makes no reference cycle.
    """

    def __init__(self, w: GapWindow):
        self._p, self._q, self._N, self._Nq = w.p, w.q, w.N, w.Nq
        self._h, self._hq = w.h, w.hq

    @_view
    def sqrt_p(self) -> RootExpr:
        return RootExpr.sqrt(self._p)

    @_view
    def sqrt_q(self) -> RootExpr:
        return RootExpr.sqrt(self._q)

    @_view
    def sqrt_pq(self) -> RootExpr:
        return RootExpr.sqrt(self._p * self._q)

    @_view
    def N_sqrtp(self) -> RootExpr:
        return RootExpr.sqrt(self._p, self._N)

    @_view
    def Nq_sqrtq(self) -> RootExpr:
        return RootExpr.sqrt(self._q, self._Nq)

    @_view
    def delta(self) -> RootExpr:
        return self.sqrt_q - self.sqrt_p

    @_view
    def delta_sq(self) -> RootExpr:
        return self.delta * self.delta

    @_view
    def D(self) -> RootExpr:
        return self.sqrt_q + self.sqrt_p

    @_view
    def mu(self) -> RootExpr:
        return self.sqrt_p - self._N

    @_view
    def mu_q(self) -> RootExpr:
        return self.sqrt_q - self._Nq

    @_view
    def mu_sq(self) -> RootExpr:
        return self.mu * self.mu

    @_view
    def mu_q_sq(self) -> RootExpr:
        return self.mu_q * self.mu_q

    @_view
    def mu_sum(self) -> RootExpr:
        return self.mu_q + self.mu

    @_view
    def sqrtq_delta(self) -> RootExpr:
        # sqrt(q)*Delta = q - sqrt(pq)
        return self._q - self.sqrt_pq

    @_view
    def sqrtp_delta(self) -> RootExpr:
        # sqrt(p)*Delta = sqrt(pq) - p
        return self.sqrt_pq - self._p

    @_view
    def two_sqrtp_delta(self) -> RootExpr:
        return self.sqrtp_delta.scale(2)

    @_view
    def frac_sqrtq_delta(self) -> RootExpr:
        return _frac(self.sqrtq_delta)

    @_view
    def frac_sqrtp_delta(self) -> RootExpr:
        return _frac(self.sqrtp_delta)

    @_view
    def sqrtp_delta_half(self) -> RootExpr:
        # sqrt(p)*Delta - 1/2 = sqrt(pq) - (p + 1/2)
        return self.sqrtp_delta - HALF

    @_view
    def floor_sqrtp_delta_half(self) -> int:
        return floor_root(self.sqrtp_delta_half)

    @_view
    def h_over_mu(self) -> RootExpr:
        return self.mu.inverse().scale(self._h)

    @_view
    def floor_h_over_mu(self) -> int:
        return floor_root(self.h_over_mu)

    @_view
    def frac_h_over_mu(self) -> RootExpr:
        return self.h_over_mu - self.floor_h_over_mu

    @_view
    def hq_over_mu_q(self) -> RootExpr:
        return self.mu_q.inverse().scale(self._hq)

    @_view
    def floor_hq_over_mu_q(self) -> int:
        return floor_root(self.hq_over_mu_q)

    @_view
    def frac_hq_over_mu_q(self) -> RootExpr:
        return self.hq_over_mu_q - self.floor_hq_over_mu_q

    @_view
    def mu_sqrtp(self) -> RootExpr:
        # mu*sqrt(p) = p - N*sqrt(p)
        return self._p - self.N_sqrtp

    @_view
    def mu_q_sqrtq(self) -> RootExpr:
        return self._q - self.Nq_sqrtq

    @_view
    def ratio_frac(self) -> RootExpr:
        # Delta/sqrt(p) = (sqrt(pq) - p)/p, rational-coefficient form
        return self.sqrtp_delta / self._p

    @_view
    def tNq(self) -> int:
        return isqrt(self._Nq * self._Nq * self._q)

    @_view
    def floor_D(self) -> int:
        # D lies in (base, base + 2) and is irrational, so one sign decides:
        # sqrt(p) + sqrt(q) > base + 1  <=>  p + q + 2 sqrt(pq) > (base + 1)^2
        base = self._N + self._Nq
        above = _sign_1rad(self._p + self._q - (base + 1) ** 2, 2, self._p * self._q)
        return base + 1 if above > 0 else base


def _frac(e: RootExpr) -> RootExpr:
    return e - floor_root(e)


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
            j = sum(1 for _ in store.iter_twin_lows(w.p))
        writer.writerow([w.n, w.p, w.q, w.d, w.N, w.h, w.hq, w.s,
                         "" if w.k is None else w.k,
                         "" if w.r is None else w.r, j])
        j += w.d == 2
