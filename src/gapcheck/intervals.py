"""Prime-counting claims over geometric windows.

Covers counts between consecutive squares (with the two half-windows), the
squared-prime refinement, counts between consecutive k-th powers with their
explicit subinterval schemes, and the power-of-two ladder with the composite-
coprime identity.

Subinterval binning never rounds: a prime m lands in subinterval j of the
window (x^k, (x+1)^k) cut into W-weighted steps iff
    j*W < (m - x^k)*S <= (j+1)*W
in integers, where S is the number of subintervals and W = (x+1)^k - x^k
(boundary hits assigned to the lower subinterval).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from math import isqrt

from .primes import CoverageError, PrimeStore
from .window import floor_sqrt_sum


class SquareWindowReport:
    """Primes between N^2 and (N+1)^2 and the claims evaluated on them."""

    N: int
    prime_count: int
    primes: list[int]
    h_values: list[int]
    oppermann_lo: bool           # pi(N^2 - N) < pi(N^2)
    oppermann_hi: bool           # pi(N^2) < pi(N^2 + N)
    legendre: bool               # count >= 1
    two_primes: bool             # count >= 2
    cumulative: bool             # pi(N^2) >= 2(N-1)
    first_prime_floor_D_even: bool
    half_claims_ok: bool         # triggered two-primes-per-half claims

    def __init__(self, N: int, prime_count: int, primes: list[int] | None = None,
                 h_values: list[int] | None = None, oppermann_lo: bool = True,
                 oppermann_hi: bool = True, legendre: bool = True,
                 two_primes: bool = True, cumulative: bool = True,
                 first_prime_floor_D_even: bool = True, half_claims_ok: bool = True):
        self.N = N
        self.prime_count = prime_count
        self.primes = [] if primes is None else primes
        self.h_values = [] if h_values is None else h_values
        self.oppermann_lo = oppermann_lo
        self.oppermann_hi = oppermann_hi
        self.legendre = legendre
        self.two_primes = two_primes
        self.cumulative = cumulative
        self.first_prime_floor_D_even = first_prime_floor_D_even
        self.half_claims_ok = half_claims_ok


def square_reports(store: PrimeStore, n_lo: int, n_hi: int,
                   keep_primes: bool = True):
    """The SquareWindowReports for N in [n_lo, n_hi], one at a time.

    Evaluates: at least one prime (and at least two) per window, both
    Oppermann half-window strict increases, the cumulative pi(N^2) >= 2(N-1)
    bound, evenness of floor(D) at the window's first prime, and the
    conditional two-primes-per-half claims on even N.

    The store is read in ascending order, as its segment cache expects: pi
    is queried only at the start, and every later count comes from the
    window's own primes.  pi(N^2 + N) = pi(N^2) + #{p <= N^2 + N};
    pi((N+1)^2) = pi(N^2) + count, as (N+1)^2 is not prime; and the next
    window's pi((N+1)^2 - (N+1)) is this window's pi(N^2 + N).

    The range and the store's coverage are checked by the call itself,
    before any report is asked for.
    """
    if n_lo < 1 or n_hi < n_lo:
        raise ValueError("need 1 <= n_lo <= n_hi")
    if (n_hi + 1) ** 2 > store.limit:
        raise CoverageError(f"(N+1)^2 beyond store limit {store.limit}")
    return _square_stream(store, n_lo, n_hi, keep_primes)


def _square_stream(store: PrimeStore, n_lo: int, n_hi: int, keep_primes: bool):
    pi_hi, pi_next = store.pi(n_lo * n_lo - n_lo), store.pi(n_lo * n_lo)
    for N in range(n_lo, n_hi + 1):
        N2 = N * N
        primes = list(store.iter_primes(N2 + 1, (N + 1) ** 2 - 1))
        pi_lo, pi_sq = pi_hi, pi_next
        pi_hi = pi_sq + bisect_right(primes, N2 + N)
        pi_next = pi_sq + len(primes)
        rep = SquareWindowReport(N=N, prime_count=len(primes))
        if keep_primes:
            rep.primes = primes
        rep.h_values = [p - N2 for p in primes]
        rep.legendre = len(primes) >= 1
        rep.two_primes = len(primes) >= 2
        if N >= 2:
            rep.oppermann_lo = pi_lo < pi_sq
            rep.oppermann_hi = pi_sq < pi_hi
        rep.cumulative = pi_sq >= 2 * (N - 1)
        if primes and N >= 2:
            p = primes[0]
            q = primes[1] if len(primes) > 1 else store.next_prime(p)
            rep.first_prime_floor_D_even = floor_sqrt_sum(p, q, N, isqrt(q)) % 2 == 0
        if N >= 4 and N % 2 == 0:
            ok = True
            # N^2 + 1 and N^2 + 2N - 1 are the window's first and last odd
            # numbers (N^2 + 2N = N(N + 2) is not prime), so each is prime
            # exactly when it is the window's first or last prime
            if primes and primes[0] == N2 + 1:
                ok = ok and pi_hi - pi_sq >= 2
            if N > 4 and primes and primes[-1] == N2 + 2 * N - 1:
                # primes[0] is the first prime after the square
                if primes[0] < N2 + 2 * N - 1:
                    # pi(N^2 + 2N) = pi((N+1)^2): the square itself is not prime
                    ok = ok and pi_next - pi_hi >= 2
            rep.half_claims_ok = ok
        yield rep


def write_square_csv(reports, fh) -> None:
    """One CRLF-ended line per report, written as it comes; the Oppermann
    flags as 1 or 0, min_h and max_h blank for a window without primes."""
    fh.write("N,count,oppermann_lo,oppermann_hi,min_h,max_h\r\n")
    for rep in reports:
        h = rep.h_values
        lo, hi = (min(h), max(h)) if h else ("", "")
        fh.write(f"{rep.N},{rep.prime_count},{rep.oppermann_lo:d},"
                 f"{rep.oppermann_hi:d},{lo},{hi}\r\n")


@dataclass
class BrocardRow:
    n: int
    p: int
    q: int
    count: int          # pi(q^2) - pi(p^2)
    threshold: int      # 2 d_n
    ok: bool


def brocard_reports(store: PrimeStore, n_lo: int, n_hi: int) -> list[BrocardRow]:
    """pi(p_{n+1}^2) - pi(p_n^2) against the refined threshold 2 d_n."""
    if n_lo < 1 or n_hi < n_lo:
        raise ValueError("need 1 <= n_lo <= n_hi")
    if not store.covers_index(n_hi + 1):
        raise CoverageError("store does not cover the requested index range")
    primes = list(islice(store.iter_primes(store.nth_prime(n_lo)), n_hi + 2 - n_lo))
    if primes[-1] ** 2 > store.limit:
        raise CoverageError("p_{n_hi+1}^2 beyond store limit")
    pis = [store.pi(p * p) for p in primes]
    rows = []
    for n, p, q, lo, hi in zip(range(n_lo, n_hi + 1), primes, primes[1:], pis, pis[1:]):
        rows.append(BrocardRow(n=n, p=p, q=q, count=hi - lo,
                               threshold=2 * (q - p), ok=hi - lo >= 2 * (q - p)))
    return rows


# -- consecutive k-th powers -----------------------------------------------------


class PowerGapReport:
    k: int
    n: int
    lower_counts: list[int]
    total: int
    expected_min: int          # pi(2^k)
    per_interval_ok: bool
    subintervals_claimed: bool  # the subinterval scheme is asserted at this n
    total_ok: bool
    cumulative_ok: bool        # pi(n^k) >= pi(2^k) (n-1)
    budget_hit: bool

    def __init__(self, k: int, n: int, lower_counts: list[int], total: int,
                 expected_min: int, per_interval_ok: bool, subintervals_claimed: bool,
                 total_ok: bool, cumulative_ok: bool, budget_hit: bool = False):
        self.k = k
        self.n = n
        self.lower_counts = lower_counts
        self.total = total
        self.expected_min = expected_min
        self.per_interval_ok = per_interval_ok
        self.subintervals_claimed = subintervals_claimed
        self.total_ok = total_ok
        self.cumulative_ok = cumulative_ok
        self.budget_hit = budget_hit

    def as_dict(self) -> dict:
        return {"k": self.k, "n": self.n, "lower_counts": self.lower_counts,
                "total": self.total, "expected_min": self.expected_min,
                "per_interval_ok": self.per_interval_ok,
                "subintervals_claimed": self.subintervals_claimed,
                "total_ok": self.total_ok, "cumulative_ok": self.cumulative_ok,
                "budget_hit": self.budget_hit}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))


def _scheme_n_min(k: int) -> int:
    """First n at which the subinterval scheme itself is asserted: k <= 3
    from n = 1; k >= 4 from n = 2 (n = 1 is covered by the total count)."""
    return 1 if k <= 3 else 2


def _subinterval_breaks(k: int, x: int, pi2k: int) -> list[int]:
    """Floors of the interior breakpoints of the window (x^k, (x+1)^k), per
    the explicit schemes: k = 3 uses multipliers (1, 2, 4) of x(x+1)/2; k = 4
    uses (1/2, 1, 2, 3, 4) in units x^3; other k use pi(2^k) equal steps."""
    lo = x ** k
    if k == 3:
        return [lo + m * x * (x + 1) // 2 for m in (1, 2, 4)]
    if k == 4:
        x3 = x ** 3
        return [lo + x3 // 2] + [lo + m * x3 for m in (1, 2, 3, 4)]
    width = (x + 1) ** k - lo
    return [lo + (j * width) // pi2k for j in range(1, pi2k)]


def power_reports(store: PrimeStore, k: int, n_lo: int, n_hi: int,
                  budget: int = 10 ** 8):
    """Yield a PowerGapReport per n with (n+1)^k within budget and coverage."""
    if n_lo < 1 or n_hi < n_lo:
        raise ValueError("need 1 <= n_lo <= n_hi")
    if k < 2:
        raise ValueError("k >= 2 required")
    pi2k = store.pi(2 ** k) if 2 ** k <= store.limit else None
    if pi2k is None:
        raise CoverageError("store must cover 2^k")
    limit = min(budget, store.limit)

    for n in range(n_lo, n_hi + 1):
        lo, hi = n ** k, (n + 1) ** k
        if hi > limit:
            if n > n_lo:
                yield PowerGapReport(k=k, n=n, lower_counts=[], total=0,
                                     expected_min=pi2k, per_interval_ok=False,
                                     subintervals_claimed=False,
                                     total_ok=False, cumulative_ok=False,
                                     budget_hit=True)
            return
        # count primes <= b with boundary primes going to the lower side:
        # pi(floor(b)) counts an exact integer boundary downward already
        cuts = [store.pi(x) for x in (lo, *_subinterval_breaks(k, n, pi2k), hi - 1)]
        counts = [cuts[i + 1] - cuts[i] for i in range(len(cuts) - 1)]
        total = cuts[-1] - cuts[0]
        yield PowerGapReport(
            k=k, n=n, lower_counts=counts, total=total, expected_min=pi2k,
            per_interval_ok=all(c >= 1 for c in counts),
            subintervals_claimed=n >= _scheme_n_min(k),
            total_ok=total >= pi2k,
            cumulative_ok=(n < 2 or cuts[0] >= pi2k * (n - 1)),
        )


@dataclass
class Pow2Row:
    k: int
    pi_2k: int
    increment_ok: bool       # pi(2^{k+1}) >= 2 + pi(2^k), checked at k-1 -> k
    lower_bound_ok: bool     # pi(2^k) >= 2(k-1)
    phi_c: int               # composite-or-one m < 2^k coprime to 2^k
    identity_ok: bool        # pi(2^k) = 2^{k-1} + 1 - phi_c(2^k), by construction


def pow2_ladder(store: PrimeStore, k_max: int = 26) -> list[Pow2Row]:
    """The pi(2^k) table for 2 <= k <= k_max with the ladder and identity checks.

    phi_c counts m < 2^k coprime to 2^k (odd m) that are not prime; the unit
    m = 1 is counted, which is the convention that makes the displayed
    identity exact at every k (e.g. phi_c(16) = |{1, 9, 15}| = 3).  phi_c is
    computed from pi(2^k) by that identity, so identity_ok holds by
    construction: it restates the convention and checks nothing.
    """
    if 2 ** k_max > store.limit:
        raise CoverageError(f"2^{k_max} beyond store limit")
    rows = []
    prev = None
    for k in range(2, k_max + 1):
        pi_2k = store.pi(2 ** k)
        odd_count = 2 ** (k - 1)
        phi_c = odd_count - (pi_2k - 1)
        rows.append(Pow2Row(
            k=k, pi_2k=pi_2k,
            increment_ok=(prev is None or pi_2k >= 2 + prev),
            lower_bound_ok=pi_2k >= 2 * (k - 1),
            phi_c=phi_c,
            identity_ok=pi_2k == 2 ** (k - 1) + 1 - phi_c,
        ))
        prev = pi_2k
    return rows
