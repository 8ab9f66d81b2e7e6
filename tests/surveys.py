"""Survey helpers that only the tests call.

They answer questions the source text raises (prime-power windows, the
even-base square windows, h-value coverage and decomposition, truncated mu
digits, disjoint accumulation families, the j_n questions) from the
package's public pieces; neither the catalog nor the CLI uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from gapcheck.accum import RationalTarget
from gapcheck.intervals import SquareWindowReport, square_reports
from gapcheck.primes import PrimeStore, is_prime_u64
from gapcheck.twin import alpha_ledger


# -- prime-count windows ---------------------------------------------------------


def prime_power_windows(store: PrimeStore, k: int, budget: int = 10 ** 8):
    """Check pi(p_{n+1}^k) - pi(p_n^k) >= pi(2^k) d_n while q^k fits the budget."""
    pi2k = store.pi(2 ** k)
    limit = min(budget, store.limit)
    primes = []
    for p in store.iter_primes():
        if p ** k > limit:
            break
        primes.append(p)
    pis = [store.pi(p ** k) for p in primes]
    rows = []
    for p, q, lo, hi in zip(primes, primes[1:], pis, pis[1:]):
        rows.append((p, q, hi - lo, pi2k * (q - p), hi - lo >= pi2k * (q - p)))
    return rows


def even_base_report(store: PrimeStore, half_root: int) -> SquareWindowReport:
    """The square window whose base is the even square (2*half_root)^2.

    The source text indexes its prime-offset question by the half root
    (its N = 6 window is [144, 169]); this accessor keeps that view while
    square_reports stays on the standard one-window-per-root convention.
    """
    root = 2 * half_root
    return next(iter(square_reports(store, root, root)))


def h_value_coverage(store: PrimeStore, n_hi: int) -> dict:
    """Which values m >= 1 occur as h = p - floor(sqrt(p))^2 for N <= n_hi."""
    seen = set()
    for rep in square_reports(store, 1, n_hi, keep_primes=False):
        seen.update(rep.h_values)
    missing = [m for m in range(1, 2 * n_hi) if m not in seen]
    return {"max_checked": 2 * n_hi - 1, "first_missing": missing[0] if missing else None,
            "missing_count": len(missing)}


def even_square_decomposition(store: PrimeStore, N: int) -> bool:
    """Is 2N = (h_i - r) + (h_j + r) solvable with both summands prime and
    N^2 + h_i, N^2 + h_j prime?  (Equivalently: h_i + h_j = 2N over window
    offsets with a prime pair u <= h_i, 2N - u >= h_j.)"""
    N2 = N * N
    hs = [p - N2 for p in store.iter_primes(N2 + 1, (N + 1) ** 2 - 1)]
    hset = set(hs)
    for hi_ in hs:
        hj = 2 * N - hi_
        if hj in hset:
            for u in range(2, hi_ + 1):
                if is_prime_u64(u) and is_prime_u64(2 * N - u):
                    return True
    return False


# -- accumulation scans ----------------------------------------------------------


def mu_truncated(p: int, digits: int = 5) -> str:
    """{sqrt(p)} truncated (not rounded) to the given digits."""
    M = isqrt(p)
    t = isqrt(p * 10 ** (2 * digits)) - M * 10 ** digits
    return f"0.{t:0{digits}d}"


def disjointness(r: RationalTarget, s: RationalTarget, limit: int):
    """Value sets of N^2 + 2rN + 1 and M^2 + 2sM + 1 over admissible N, M
    up to the limit: (disjoint?, first collision or None)."""
    if r == s:
        raise ValueError("targets must differ")

    def values(t: RationalTarget):
        step = t.b // gcd(t.b, 2 * t.a) if t.a else 1
        out = {}
        for N in range(step, limit + 1, step):
            out[N * N + (2 * t.a * N) // t.b + 1] = N
        return out

    va, vb = values(r), values(s)
    common = sorted(set(va) & set(vb))
    if common:
        m = common[0]
        return False, (m, va[m], vb[m])
    return True, None


# -- twin ledger questions ------------------------------------------------------


@dataclass
class QuestionReport:
    n_hi: int
    q92_first_violation: int | None
    dusart_first_violation: int | None
    abstract_first_violation: int | None
    rows_checked: int


def jn_questions(store: PrimeStore, n_hi: int) -> QuestionReport:
    """First violation (or None) for each of the three open questions."""
    if n_hi < 6:
        raise ValueError("n_hi >= 6 required")
    q92 = dusart = abstract = None
    rows = 0
    for row in alpha_ledger(store, n_hi):
        rows += 1
        if q92 is None and row.q92_holds is False:
            q92 = row.n
        if dusart is None and row.dusart_holds is False and row.n >= 6:
            dusart = row.n
        if abstract is None and row.abstract_holds is False:
            abstract = row.n
    return QuestionReport(n_hi=n_hi, q92_first_violation=q92,
                          dusart_first_violation=dusart,
                          abstract_first_violation=abstract, rows_checked=rows)
