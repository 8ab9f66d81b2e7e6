"""Per-index derived records for consecutive prime pairs.

A GapWindow holds the integers of one index n: p = p_n, q = p_{n+1}, the
gap d, N = floor(sqrt(p)), Nq = floor(sqrt(q)), h = p - N^2 and hq = q - Nq^2,
and whether a perfect square lies between p and q (straddle) or not
(same_part).
Every other value of the window is a view, built on its first read and then
shared by every checker of the window; the list is in the GapWindow docstring.

Six window comparisons recur through the catalog, the square tables and
the accumulation scans, and each is decided here, in one function:
floor(sqrt(p) + sqrt(q)) (`floor_sqrt_sum`), the order of two gaps
c1 Delta_1 against c2 Delta_2 (`delta_order`), the order of two
fractional parts mu = {sqrt(p)} (`mu_order`), mu against a rational
(`mu_vs_rational`), and {sqrt(q) Delta} and {mu sqrt(p)} against a rational
(`sqrtq_delta_frac_cmp`, `mu_sqrtp_frac_cmp`).  Each takes one exact integer
sign; a rational threshold is passed as two ints num and den with den > 0.
Many brackets of mu over one denominator (`mu_in_brackets`) take one isqrt
between them.
"""

from __future__ import annotations

from math import isqrt

from .exact import RootExpr, _sign_1rad, _sign_2rad, floor_root, frac_root
from .primes import PrimeStore, CoverageError


def floor_sqrt_sum(p: int, q: int, N: int, Nq: int) -> int:
    """floor(sqrt(p) + sqrt(q)) for non-square p and q with N = isqrt(p) and
    Nq = isqrt(q).  The sum lies in (N + Nq, N + Nq + 2) and is irrational,
    so one sign decides:
    sqrt(p) + sqrt(q) > N + Nq + 1  <=>  p + q + 2 sqrt(pq) > (N + Nq + 1)^2."""
    base = N + Nq
    above = _sign_1rad(p + q - (base + 1) ** 2, 2, p * q)
    return base + 1 if above > 0 else base


def delta_order(p1: int, q1: int, p2: int, q2: int, c1: int = 1, c2: int = 1) -> int:
    """Exact sign of c1 Delta(p1, q1) - c2 Delta(p2, q2) for c1, c2 > 0,
    where Delta(p, q) = sqrt(q) - sqrt(p)."""
    # L = c1 sqrt(q1) + c2 sqrt(p2) and R = c2 sqrt(q2) + c1 sqrt(p1) are
    # positive, so L - R has the sign of L^2 - R^2
    a, b, k = c1 * c1, c2 * c2, 2 * c1 * c2
    return _sign_2rad(a * (q1 - p1) + b * (p2 - q2), k, q1 * p2, -k, q2 * p1)


def mu_order(p1: int, N1: int, p2: int, N2: int) -> int:
    """Exact sign of mu(p1) - mu(p2), where mu(p) = sqrt(p) - isqrt(p) and
    N1, N2 are isqrt(p1), isqrt(p2)."""
    return _sign_2rad(N2 - N1, 1, p1, -1, p2)


def mu_vs_rational(p: int, N: int, num: int, den: int) -> int:
    """Exact sign of mu(p) - num/den for den > 0, where N = isqrt(p): the
    sign of den sqrt(p) - (den N + num)."""
    return _sign_1rad(-(den * N + num), den, p)


def sqrtq_delta_frac_cmp(w: GapWindow, num: int, den: int) -> int:
    """Exact sign of {sqrt(q)*Delta} - num/den using {sqrt(q)Delta} = s+1-sqrt(pq)."""
    return _sign_1rad(den * (w.s + 1) - num, -den, w.p * w.q)


def mu_sqrtp_frac_cmp(w: GapWindow, num: int, den: int) -> int:
    """Exact sign of {mu_n sqrt(p_n)} - num/den; the frac equals tN + 1 - N*sqrt(p)."""
    return _sign_1rad(den * (w.tN + 1) - num, -den * w.N, w.p)


def mu_in_brackets(p: int, N: int, den: int, brackets) -> list[bool]:
    """For each (lo, hi) of brackets, whether lo/den < mu(p) < hi/den, for
    non-square p, N = isqrt(p) and den > 0.  den mu is irrational, so it
    lies strictly inside (r, r + 1) for r = isqrt(den^2 p) - den N, and
    lo < den mu  <=>  lo <= r,  den mu < hi  <=>  r < hi."""
    r = isqrt(den * den * p) - den * N
    return [lo <= r < hi for lo, hi in brackets]


class SquareLawViolation(AssertionError):
    """floor(sqrt(q)) exceeded floor(sqrt(p)) + 1: a square-free window gap.

    This would be a counterexample to the Legendre-type expectation the
    window model relies on; it is raised loudly rather than absorbed.
    """


class _view:
    """A GapWindow attribute computed on its first read and stored in the
    window's __dict__, so later reads are plain attribute lookups.  Python
    3.11's functools.cached_property does the same under a lock taken on
    every first read, which measurably slowed whole-catalog runs."""

    def __init__(self, fn):
        self._fn = fn
        self._name = fn.__name__

    def __get__(self, w, owner=None):
        if w is None:
            return self
        value = w.__dict__[self._name] = self._fn(w)
        return value


class GapWindow:
    """One window (p, q) = (p_n, p_{n+1}) and every value derived from it.

    The stream fills only the slots: n, p, q, d, N, Nq, h, hq and the two
    flags straddle (Nq = N + 1: a perfect square lies between p and q) and
    same_part (Nq = N), set once in __init__ because most of the catalog's
    domains read one of them on every window.  Every other value is a view:
    computed on its first read, at most once, and kept on the window, so
    every checker of the window shares it and a stream that reads none (the
    ledger) pays nothing.  Whatever two readers need is a view.  The RootExprs are
    immutable and the integers exact; each RootExpr is built from sqrt(pq),
    sqrt(p) or sqrt(q) and ints, so it has one radicand.  The views are:
      s, tN                floor(sqrt(pq)), floor(N sqrt(p))  (the floor
                             identities of sqrt(p) Delta and mu sqrt(p))
      t2N                  floor(2N sqrt(p))             (par-51, par-53,
                                                          n2p1-family)
      sqrt_pq, sqrtq_delta, sqrtp_delta
                           sqrt(pq), sqrt(q) Delta, sqrt(p) Delta
      delta_sq             Delta^2 = p + q - 2 sqrt(pq)  (thm-35, twin-91)
      two_sqrtp_delta      2 sqrt(p) Delta               (frac-33, cor-36,
                             twin-91, floor_sqrtp_delta_half)
      frac_sqrtp_delta     {sqrt(p) Delta}               (thm-35, cor-36)
      floor_sqrtp_delta_half
                           floor(sqrt(p) Delta - 1/2)    (floor-32, frac-33)
      N_sqrtp, Nq_sqrtq    N sqrt(p), Nq sqrt(q)         (ids-511, ids-513)
      tNq                  floor(Nq sqrt(q))             (mono-55, cor-56,
                                                          ids-511, ids-513)
      floor_D              floor(sqrt(p) + sqrt(q))      (dpar-59, ids-516,
                             first-after-square, survey-last-before-square)
      delta_vs_half        sign of Delta - 1/2           (same-71, delta-gt-half,
                             survey-quarter, survey-dsq-p)
    floor_D is one exact integer sign (`floor_sqrt_sum`, which the square
    tables share), delta_vs_half another and s, tN, t2N and tNq one isqrt
    each.
    """

    __slots__ = ("n", "p", "q", "d", "N", "Nq", "h", "hq", "straddle", "same_part",
                 "__dict__")

    def __init__(self, n, p, q):
        self.n = n
        self.p = p
        self.q = q
        self.d = q - p
        self.N = isqrt(p)
        self.Nq = isqrt(q)
        if self.Nq > self.N + 1:
            raise SquareLawViolation(f"n={n}: floor sqrt jumped {self.N} -> {self.Nq}")
        self.h = p - self.N * self.N
        self.hq = q - self.Nq * self.Nq
        # Nq is N or N + 1, so a perfect square lies between p and q iff Nq != N
        self.straddle = self.Nq != self.N
        self.same_part = not self.straddle

    def snapshot(self) -> dict:
        return {"n": self.n, "p": self.p, "q": self.q, "d": self.d}

    def __repr__(self):
        return (f"GapWindow(n={self.n}, p={self.p}, q={self.q}, d={self.d}, "
                f"N={self.N}, h={self.h}, hq={self.hq}, s={self.s})")

    @_view
    def s(self) -> int:
        return isqrt(self.p * self.q)

    @_view
    def tN(self) -> int:
        return isqrt(self.N * self.N * self.p)

    @_view
    def t2N(self) -> int:
        return isqrt(4 * self.N * self.N * self.p)

    @_view
    def sqrt_pq(self) -> RootExpr:
        return RootExpr.sqrt(self.p * self.q)

    @_view
    def N_sqrtp(self) -> RootExpr:
        return RootExpr.sqrt(self.p, self.N)

    @_view
    def Nq_sqrtq(self) -> RootExpr:
        return RootExpr.sqrt(self.q, self.Nq)

    @_view
    def delta_sq(self) -> RootExpr:
        # Delta^2 = p + q - 2 sqrt(pq)
        return (self.p + self.q) - self.sqrt_pq.scale(2)

    @_view
    def sqrtq_delta(self) -> RootExpr:
        # sqrt(q)*Delta = q - sqrt(pq)
        return self.q - self.sqrt_pq

    @_view
    def sqrtp_delta(self) -> RootExpr:
        # sqrt(p)*Delta = sqrt(pq) - p
        return self.sqrt_pq - self.p

    @_view
    def two_sqrtp_delta(self) -> RootExpr:
        return self.sqrtp_delta.scale(2)

    @_view
    def frac_sqrtp_delta(self) -> RootExpr:
        return frac_root(self.sqrtp_delta)[1]

    @_view
    def floor_sqrtp_delta_half(self) -> int:
        # floor(sqrt(p)*Delta - 1/2) = floor(y / 2) = floor(floor(y) / 2)
        # for y = 2 sqrt(p)*Delta - 1
        return floor_root(self.two_sqrtp_delta - 1) // 2

    @_view
    def tNq(self) -> int:
        return isqrt(self.Nq * self.Nq * self.q)

    @_view
    def floor_D(self) -> int:
        return floor_sqrt_sum(self.p, self.q, self.N, self.Nq)

    @_view
    def delta_vs_half(self) -> int:
        # Delta > 0, so Delta - 1/2 has the sign of 4 Delta^2 - 1
        # = 4(p + q) - 1 - 8 sqrt(pq)
        return _sign_1rad(4 * (self.p + self.q) - 1, -8, self.p * self.q)


def windows(store: PrimeStore, n_lo: int, n_hi: int):
    """The GapWindows for n in [n_lo, n_hi], strictly increasing n, each
    built from n, p_n and p_{n+1} alone: N and Nq have one path, the
    window's own isqrt.  The range and the store's coverage are checked by
    the call itself, before any window is asked for."""
    if n_lo < 1 or n_hi < n_lo:
        raise ValueError("need 1 <= n_lo <= n_hi")
    if n_hi + 1 > store.prime_count:
        raise CoverageError(
            f"p_{n_hi + 1} not covered by store limit {store.limit}")
    return _stream(store, n_lo, n_hi)


def _stream(store: PrimeStore, n_lo: int, n_hi: int):
    """One window per consecutive prime pair from p_{n_lo} on; only the
    prime passes from one window to the next."""
    n = n_lo
    prev = None
    for p in store.iter_primes(store.nth_prime(n_lo)):
        if prev is not None:
            yield GapWindow(n, prev, p)
            n += 1
            if n > n_hi:
                return
        prev = p


def dump_windows_csv(store: PrimeStore, n_lo: int, n_hi: int, fh) -> None:
    """Write the window stream as CSV (exact integers; k,r blank at n = 1)
    with the twin-pair prefix count j_n = #{i < n : d_i = 2}, one write per
    CRLF-ended line.  A bad range or an undersized store raises before the
    header is written."""
    stream = windows(store, n_lo, n_hi)
    j = sum(1 for _ in store.iter_twin_lows(store.nth_prime(n_lo)))
    fh.write("n,p,q,d,N,h,hq,s,k,r,j\r\n")
    for w in stream:
        k, r = ("", "") if w.n == 1 else divmod(w.q, w.d)
        fh.write(f"{w.n},{w.p},{w.q},{w.d},{w.N},{w.h},{w.hq},{w.s},{k},{r},{j}\r\n")
        j += w.d == 2
