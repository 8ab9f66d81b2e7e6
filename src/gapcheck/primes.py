"""Prime generation, counting and primality testing over 64-bit ranges.

The central object is :class:`PrimeStore`, a segmented odd-only sieve with a
prime-count checkpoint at every segment boundary.  Segments are re-sieved on
demand and kept in a small LRU cache, so a store covering 10^8 costs a few
hundred MB-seconds to build but only O(segment) memory to hold.
"""

from __future__ import annotations

from collections import OrderedDict
from math import isqrt


class CoverageError(ValueError):
    """Query outside the range covered by a PrimeStore."""


class CapacityError(ValueError):
    """Requested sieve limit exceeds LIMIT_CAP."""


SEGMENT_ENTRIES = 1 << 20  # odd numbers per segment
CACHE_SEGMENTS = 8         # sieved segments kept in the LRU cache
LIMIT_CAP = 1 << 34


def _small_sieve(limit: int) -> list[int]:
    """All primes <= limit by a plain sieve (used for base primes)."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            start = p * p
            flags[start :: p] = b"\x00" * ((limit - start) // p + 1)
    return [i for i, f in enumerate(flags) if f]


class PrimeStore:
    """Immutable queryable store of primes in [2, limit].

    Invariants: pi is monotone non-decreasing, pi(1) = 0, pi(2) = 1; every
    number reported prime is prime and no prime in range is missed.
    """

    def __init__(self, limit: int):
        if limit < 2:
            raise ValueError("limit must be >= 2")
        if limit > LIMIT_CAP:
            raise CapacityError(f"limit {limit} exceeds budget {LIMIT_CAP}")
        self.limit = limit
        self._base = _small_sieve(isqrt(limit))
        # segment k holds odd numbers in [3 + 2*k*E, 3 + 2*(k+1)*E)
        E = SEGMENT_ENTRIES
        self._nseg = ((limit - 3) // 2 + E) // E if limit >= 3 else 0
        self._cache: OrderedDict[int, bytearray] = OrderedDict()
        # checkpoint[k] = pi(first odd of segment k - 1); checkpoint[nseg] = pi(limit-ish)
        self._checkpoints = [1] * (self._nseg + 1)  # counts include the prime 2
        cnt = 1 if limit >= 2 else 0
        for k in range(self._nseg):
            cnt += self._segment(k).count(1)
            self._checkpoints[k + 1] = cnt
        self.prime_count = cnt

    # -- segment machinery -------------------------------------------------

    def _segment_bounds(self, k: int) -> tuple[int, int]:
        lo = 3 + 2 * k * SEGMENT_ENTRIES
        hi = min(lo + 2 * SEGMENT_ENTRIES, self.limit + 1)
        return lo, hi

    def _segment(self, k: int) -> bytearray:
        seg = self._cache.get(k)
        if seg is not None:
            self._cache.move_to_end(k)
            return seg
        lo, hi = self._segment_bounds(k)
        n_entries = (hi - lo + 1) // 2
        seg = bytearray([1]) * n_entries
        for p in self._base:
            if p == 2:
                continue
            if p * p >= hi:
                break
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            if start >= hi:
                continue
            i = (start - lo) // 2
            seg[i::p] = b"\x00" * ((n_entries - i + p - 1) // p)
        if lo <= 1:
            seg[(1 - lo) // 2] = 0
        self._cache[k] = seg
        if len(self._cache) > CACHE_SEGMENTS:
            self._cache.popitem(last=False)
        return seg

    # -- queries ------------------------------------------------------------

    def is_prime(self, x: int) -> bool:
        if x > self.limit or x < 0:
            raise CoverageError(f"{x} outside [0, {self.limit}]")
        if x < 3:
            return x == 2
        if x % 2 == 0:
            return False
        k = (x - 3) // (2 * SEGMENT_ENTRIES)
        lo, _ = self._segment_bounds(k)
        return bool(self._segment(k)[(x - lo) // 2])

    def pi(self, x: int) -> int:
        """Exact count of primes <= x."""
        if x > self.limit or x < 0:
            raise CoverageError(f"pi({x}) outside [0, {self.limit}]")
        if x < 2:
            return 0
        if x < 3:
            return 1
        k = (x - 3) // (2 * SEGMENT_ENTRIES)
        lo, _ = self._segment_bounds(k)
        seg = self._segment(k)
        return self._checkpoints[k] + seg[: (x - lo) // 2 + 1].count(1)

    def nth_prime(self, n: int) -> int:
        """The n-th prime, 1-based (p_1 = 2)."""
        if n < 1:
            raise ValueError("prime index is 1-based")
        if n > self.prime_count:
            raise CoverageError(f"p_{n} beyond store limit {self.limit}")
        if n == 1:
            return 2
        # binary search on checkpoints, then scan one segment
        lo_k, hi_k = 0, self._nseg
        while lo_k < hi_k:
            mid = (lo_k + hi_k) // 2
            if self._checkpoints[mid + 1] >= n:
                hi_k = mid
            else:
                lo_k = mid + 1
        k = lo_k
        seg = self._segment(k)
        lo, _ = self._segment_bounds(k)
        remaining = n - self._checkpoints[k]
        pos = -1
        for _ in range(remaining):
            pos = seg.find(1, pos + 1)
        return lo + 2 * pos

    def iter_primes(self, start: int = 2, stop: int | None = None):
        """Yield primes p with start <= p <= stop (stop defaults to limit)."""
        if stop is None:
            stop = self.limit
        if stop > self.limit:
            raise CoverageError(f"stop {stop} beyond limit {self.limit}")
        if start <= 2 <= stop:
            yield 2
        lo_k = max(0, (max(start, 3) - 3) // (2 * SEGMENT_ENTRIES))
        for k in range(lo_k, self._nseg):
            lo, hi = self._segment_bounds(k)
            if lo > stop:
                return
            seg = self._segment(k)
            pos = seg.find(1)
            while pos >= 0:
                p = lo + 2 * pos
                if p > stop:
                    return
                if p >= start:
                    yield p
                pos = seg.find(1, pos + 1)

    def next_prime(self, x: int) -> int:
        """Smallest prime > x within coverage."""
        if x < 2:
            return 2
        k = max(0, (x - 1 - 3) // (2 * SEGMENT_ENTRIES)) if x >= 3 else 0
        for kk in range(k, self._nseg):
            lo, _ = self._segment_bounds(kk)
            seg = self._segment(kk)
            begin = max(0, (x + 1 - lo + 1) // 2) if x + 1 > lo else 0
            pos = seg.find(1, begin)
            while pos >= 0:
                p = lo + 2 * pos
                if p > x:
                    return p
                pos = seg.find(1, pos + 1)
        raise CoverageError(f"no prime above {x} within limit {self.limit}")

    def bulk_pi(self, xs: list[int]) -> list[int]:
        """pi at many points in one streaming pass (points need not be sorted)."""
        order = sorted(range(len(xs)), key=lambda i: xs[i])
        out = [0] * len(xs)
        for i in order:
            if xs[i] > self.limit or xs[i] < 0:
                raise CoverageError(f"pi({xs[i]}) outside coverage")
        it = iter(order)
        try:
            cur = next(it)
        except StopIteration:
            return out
        count = 0
        last_emitted = -1
        # stream primes once; emit counts as thresholds pass
        done = False
        for p in self.iter_primes():
            while xs[cur] < p:
                out[cur] = count
                try:
                    cur = next(it)
                except StopIteration:
                    done = True
                    break
            if done:
                break
            count += 1
        if not done:
            while True:
                out[cur] = count
                try:
                    cur = next(it)
                except StopIteration:
                    break
        return out


def build_store(limit: int) -> PrimeStore:
    """Build a PrimeStore answering is_prime / pi / nth_prime for values <= limit."""
    return PrimeStore(limit)


# -- 64-bit deterministic primality ------------------------------------------

# Deterministic Miller-Rabin witness set for all n < 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_u64(x: int) -> bool:
    """Deterministic primality for 0 <= x < 2^64."""
    if x < 0 or x >= 1 << 64:
        raise ValueError("is_prime_u64 expects a 64-bit unsigned value")
    if x < 2:
        return False
    for p in _SMALL:
        if x == p:
            return True
        if x % p == 0:
            return False
    d = x - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        y = pow(a, d, x)
        if y == 1 or y == x - 1:
            continue
        for _ in range(r - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True
