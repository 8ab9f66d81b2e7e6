"""Prime generation, counting and primality testing over 64-bit ranges.

The central object is :class:`PrimeStore`, a segmented odd-only sieve with a
prime-count checkpoint at the start of every block of BLOCK_ENTRIES odd
numbers, so pi(x) and p_n each read one checkpoint and scan inside one
block.  Segments are re-sieved on demand and at most CACHE_SEGMENTS of them
are kept, so a store covering 10^8 costs a few hundred MB-seconds to build
but only O(segment) memory to hold.

The cache is tuned for ascending sweeps, which is how the tables and the
twin scan read the store.  On a miss at segment k >= 2 with a full cache,
if the most recently used segment is k - 1, that one is evicted: a sweep
does not read it again, while the older segments are the ones the next
sweep reads first.  Otherwise the least recently used segment goes, so a
segment that point queries keep reading during a sweep stays cached.
Segment 0 is never evicted by the sweep rule: it holds every number below
2*SEGMENT_ENTRIES + 3, which point queries such as the square tables'
offsets h <= 2N keep reading.  Plain LRU evicts exactly the segment a sweep
needs next once a store has more segments than the cache (Johnson and
Shasha, "2Q", VLDB 1994).  A caller that steps back to a lower segment
after a sweep has moved on pays a re-sieve, so the tables read the store in
ascending order.

Each segment starts as a copy of one precomputed wheel pattern with the
multiples of 3, 5, 7, 11 and 13 already cleared (wheel pre-sieving; Bays
and Hudson, BIT 17, 1977), so only base primes from 17 up are struck one by
one.

Walks over the sieve search its bytes: iter_primes finds each set entry,
and iter_twin_lows finds each twin pair (p, p + 2) as two adjacent set
entries, b"\x01\x01", plus one test per segment edge, so a caller that
wants only twins pays one Python step per twin, not per prime.

is_prime_u64 decides primality of any 0 <= x < 2^64 without the store: one
gcd with the product of the primes up to 37 screens out small factors, then
Miller-Rabin runs on the first k prime bases, with k picked from x by the
table of psi_k, the least strong pseudoprime to the first k prime bases
(OEIS A014233; Jaeschke, Math. Comp. 61, 1993; Sorenson and Webster, Math.
Comp. 86, 2017).  Below 3.2e9 that is at most four bases; only x >= psi_9
~ 3.8e18 pays all twelve.

quadratic_prime_flags decides every value of f(x) = x^2 + u x + v over a
range of x at once, the core step of the quadratic sieve (Pomerance, "The
quadratic sieve factoring algorithm", EUROCRYPT '84, LNCS 209): for each
prime ell up to sqrt(f(hi)) it strikes the x at the two roots of f mod ell,
which come from a square root of the discriminant by Tonelli-Shanks
(Shanks, "Five number-theoretic algorithms", 1973).  Each root is checked
before it strikes, so a wrong root raises instead of dropping a prime.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict
from math import gcd, isqrt


class CoverageError(ValueError):
    """Query outside the range covered by a PrimeStore."""


class CapacityError(ValueError):
    """Requested sieve limit exceeds LIMIT_CAP."""


SEGMENT_ENTRIES = 1 << 20  # odd numbers per segment
BLOCK_ENTRIES = 1 << 14    # odd numbers per prime-count checkpoint
CACHE_SEGMENTS = 8         # sieved segments kept (see the eviction rule above)
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


# The wheel: entry j of the odd-only sieve is 3 + 2j, so the multiples of an
# odd p recur every p entries and those of 3*5*7*11*13 = 15015 every 15015.
# _WHEEL holds two periods with those multiples cleared, so any rotation of
# one period is one slice of it.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL_PERIOD = 15015


def _wheel_pattern() -> bytes:
    w = bytearray([1]) * _WHEEL_PERIOD
    for p in _WHEEL_PRIMES:
        i = (p - 3) // 2   # the entry of p itself
        w[i::p] = b"\x00" * ((_WHEEL_PERIOD - i + p - 1) // p)
    return bytes(w) * 2


_WHEEL = _wheel_pattern()
# entries 0..5 of segment 0 are 3, 5, 7, 9, 11, 13: the wheel primes come back
_WHEEL_HEAD = b"\x01\x01\x01\x00\x01\x01"


def _wheel_segment(first: int, n_entries: int) -> bytearray:
    """n_entries bytes of the wheel pattern from global entry `first` on.

    One period is copied, then the filled prefix is doubled in place, so the
    bytearray is allocated once at exactly its final size."""
    seg = bytearray(n_entries)
    r = first % _WHEEL_PERIOD
    filled = min(n_entries, _WHEEL_PERIOD)
    with memoryview(seg) as mv:
        mv[:filled] = _WHEEL[r:r + filled]
        while filled < n_entries:
            c = min(filled, n_entries - filled)
            mv[filled:filled + c] = mv[:c]
            filled += c
    return seg


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
        # base primes past the wheel, the ones each segment strikes itself
        self._base = [p for p in _small_sieve(isqrt(limit)) if p > _WHEEL_PRIMES[-1]]
        self._cache: OrderedDict[int, bytearray] = OrderedDict()
        # entry i is the odd number 3 + 2i; segment k holds entries
        # [k*E, (k+1)*E); checkpoint[b] = primes (2 included) below block b
        E = SEGMENT_ENTRIES
        cnt = 1
        self._checkpoints = [cnt]
        for k in range(((limit - 3) // 2 + E) // E):
            seg = self._segment(k)
            for b in range(0, len(seg), BLOCK_ENTRIES):
                cnt += seg.count(1, b, b + BLOCK_ENTRIES)
                self._checkpoints.append(cnt)
        self.prime_count = cnt

    # -- segment machinery -------------------------------------------------

    def _segment(self, k: int) -> bytearray:
        cache = self._cache
        seg = cache.get(k)
        if seg is not None:
            cache.move_to_end(k)
            return seg
        lo = 3 + 2 * k * SEGMENT_ENTRIES
        hi = min(lo + 2 * SEGMENT_ENTRIES, self.limit + 1)
        n_entries = (hi - lo + 1) // 2
        seg = _wheel_segment(k * SEGMENT_ENTRIES, n_entries)
        if k == 0:
            n = min(n_entries, len(_WHEEL_HEAD))
            seg[:n] = _WHEEL_HEAD[:n]
        for p in self._base:
            if p * p >= hi:
                break
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            if start >= hi:
                continue
            i = (start - lo) // 2
            seg[i::p] = b"\x00" * ((n_entries - i + p - 1) // p)
        if len(cache) >= CACHE_SEGMENTS:
            if k > 1 and next(reversed(cache)) == k - 1:
                cache.popitem()   # the sweep's previous segment
            else:                 # the least recent one but segment 0
                del cache[next((j for j in cache if j), 0)]
        cache[k] = seg
        return seg

    def _locate(self, x: int) -> tuple[int, int]:
        """Segment and offset of the largest odd <= x (a real entry once x >= 3)."""
        if x > self.limit or x < 0:
            raise CoverageError(f"{x} outside [0, {self.limit}]")
        return divmod((x - 3) // 2, SEGMENT_ENTRIES)

    # -- queries ------------------------------------------------------------

    def is_prime(self, x: int) -> bool:
        k, off = self._locate(x)
        if x < 3 or x % 2 == 0:
            return x == 2
        return bool(self._segment(k)[off])

    def pi(self, x: int) -> int:
        """Exact count of primes <= x."""
        k, off = self._locate(x)
        if x < 3:
            return int(x == 2)
        start = off - off % BLOCK_ENTRIES
        return (self._checkpoints[(k * SEGMENT_ENTRIES + start) // BLOCK_ENTRIES]
                + self._segment(k).count(1, start, off + 1))

    def nth_prime(self, n: int) -> int:
        """The n-th prime, 1-based (p_1 = 2)."""
        if n < 1:
            raise ValueError("prime index is 1-based")
        if n > self.prime_count:
            raise CoverageError(f"p_{n} beyond store limit {self.limit}")
        if n == 1:
            return 2
        b = bisect_left(self._checkpoints, n) - 1
        k, off = self._locate(3 + 2 * b * BLOCK_ENTRIES)
        seg = self._segment(k)
        pos = off - 1
        for _ in range(n - self._checkpoints[b]):
            pos = seg.find(1, pos + 1)
        return 3 + 2 * (k * SEGMENT_ENTRIES + pos)

    def iter_primes(self, start: int = 2, stop: int | None = None):
        """Yield primes p with start <= p <= stop (stop defaults to limit)."""
        if stop is None:
            stop = self.limit
        if stop > self.limit:
            raise CoverageError(f"stop {stop} beyond limit {self.limit}")
        if start <= 2 <= stop:
            yield 2
        # entries of the first odd >= start and the last odd <= stop
        i, last = (max(start, 3) - 2) // 2, (stop - 3) // 2
        while i <= last:
            k, off = divmod(i, SEGMENT_ENTRIES)
            base = 3 + 2 * k * SEGMENT_ENTRIES
            end = last - k * SEGMENT_ENTRIES + 1
            seg = self._segment(k)
            pos = seg.find(1, off, end)
            while pos >= 0:
                yield base + 2 * pos
                pos = seg.find(1, pos + 1, end)
            i = (k + 1) * SEGMENT_ENTRIES

    def iter_twin_lows(self, stop: int | None = None):
        """Yield p with p and p + 2 both prime and p + 2 <= stop (stop
        defaults to limit): each is a b"\\x01\\x01" in the sieve bytes."""
        if stop is None:
            stop = self.limit
        if stop > self.limit:
            raise CoverageError(f"stop {stop} beyond limit {self.limit}")
        E = SEGMENT_ENTRIES
        last = (stop - 3) // 2   # entry of the last odd <= stop
        edge = 0                 # last entry of the previous segment
        for k in range(last // E + 1):
            base = 3 + 2 * k * E
            end = min(E, last - k * E + 1)
            seg = self._segment(k)
            if edge and seg[0]:  # a pair straddling the segment edge
                yield base - 2
            pos = seg.find(b"\x01\x01", 0, end)
            while pos >= 0:
                yield base + 2 * pos
                pos = seg.find(b"\x01\x01", pos + 1, end)
            edge = seg[-1]

    def next_prime(self, x: int) -> int:
        """Smallest prime > x within coverage."""
        for p in self.iter_primes(x + 1):
            return p
        raise CoverageError(f"no prime above {x} within limit {self.limit}")


def build_store(limit: int) -> PrimeStore:
    """Build a PrimeStore answering is_prime / pi / nth_prime for values <= limit."""
    return PrimeStore(limit)


# -- 64-bit deterministic primality ------------------------------------------

# The first twelve primes; together they are a deterministic Miller-Rabin
# witness set for every x < 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PRODUCT = 7420738134810  # the product of _MR_BASES
# psi_k, the least strong pseudoprime to the first k prime bases (OEIS
# A014233), for k = 1..11: x < psi_k is decided by _MR_BASES[:k].  psi_7 =
# psi_8 and psi_9 = psi_10 = psi_11; psi_12 > 2^64.
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051)


def is_prime_u64(x: int) -> bool:
    """Deterministic primality for 0 <= x < 2^64, at a cost sized to x.

    x below 38 is looked up among _MR_BASES; otherwise one gcd with their
    product rejects every x with a factor up to 37, and strong-probable-prime
    tests run on the first k prime bases, k = 1 + #{psi_i <= x}:

        x < 2047                      base 2
        x < 1373653                   2, 3
        x < 25326001                  2, 3, 5
        x < 3215031751                2 .. 7
        x < 2152302898747             2 .. 11
        x < 3474749660383             2 .. 13
        x < 341550071728321           2 .. 17
        x < 3825123056546413051       2 .. 23
        x < 2^64                      2 .. 37

    Sources: Jaeschke, "On strong pseudoprimes to several bases", Math.
    Comp. 61 (1993); Sorenson and Webster, "Strong pseudoprimes to twelve
    prime bases", Math. Comp. 86 (2017); OEIS A014233.
    """
    if x < 0 or x >= 1 << 64:
        raise ValueError("is_prime_u64 expects a 64-bit unsigned value")
    if x < 38:
        return x in _MR_BASES
    if gcd(x, _MR_PRODUCT) != 1:
        return False
    x1 = x - 1
    r = (x1 & -x1).bit_length() - 1
    d = x1 >> r
    for a in _MR_BASES[:bisect_right(_PSI, x) + 1]:
        y = pow(a, d, x)
        if y == 1 or y == x1:
            continue
        for _ in range(r - 1):
            y = y * y % x
            if y == x1:
                break
        else:
            return False
    return True


# -- quadratic sieve over a polynomial's values -------------------------------

def _sqrt_mod(a: int, ell: int) -> int | None:
    """A square root of a modulo the odd prime ell, or None when a is not a
    square mod ell.  ell = 3 (mod 4) takes one pow, r = a^((ell+1)/4),
    whose square is a times Euler's criterion, so r^2 = -a marks a
    non-residue; otherwise Euler's criterion screens a, then Tonelli-Shanks
    (Shanks, "Five number-theoretic algorithms", 1973) finds r.  Every root
    is checked, r^2 = a (mod ell), and a failed check raises ArithmeticError.
    """
    a %= ell
    if a == 0:
        return 0
    if ell & 3 == 3:
        r = pow(a, (ell + 1) >> 2, ell)
        if r * r % ell == ell - a:
            return None
    else:
        half = (ell - 1) >> 1
        if pow(a, half, ell) != 1:
            return None
        # ell - 1 = q 2^s, q odd; z is a non-residue
        s = ((ell - 1) & (1 - ell)).bit_length() - 1
        q = (ell - 1) >> s
        z = 2
        while pow(z, half, ell) != ell - 1:
            z += 1
        m, c, t, r = s, pow(z, q, ell), pow(a, q, ell), pow(a, (q + 1) >> 1, ell)
        while t != 1:
            i, t2 = 1, t * t % ell
            while t2 != 1:
                i += 1
                t2 = t2 * t2 % ell
            b = pow(c, 1 << (m - i - 1), ell)
            m, c = i, b * b % ell
            t, r = t * c % ell, r * b % ell
    if r * r % ell != a:
        raise ArithmeticError(f"{r} is not a square root of {a} mod {ell}")
    return r


def quadratic_prime_flags(u: int, v: int, lo: int, hi: int) -> bytearray:
    """Primality flags of f(x) = x^2 + u x + v for lo <= x <= hi: entry
    x - lo is 1 exactly when f(x) is prime.  f must increase on [lo, hi]
    (2 lo + u + 1 > 0 when hi > lo); an empty range gives an empty result.

    Every value is at most f(hi), so a composite one has a prime factor at
    most L = isqrt(f(hi)).  For each prime ell <= L the x with ell | f(x)
    are struck: x = 0 and x = 1 are tried for ell = 2, and for odd ell the
    roots (-u +- r)/2 of f mod ell, with r a square root of D = u^2 - 4v
    mod ell (one double root when ell | D).  A value above L that no ell
    struck has no prime factor up to its square root, so it is prime; a
    struck value above L has a proper factor, so it is composite.  f
    increases, so the x with f(x) <= L are a prefix of the range, and only
    those few are decided directly: by is_prime_u64, a value below 2 being
    not prime.  The sieving primes come from _small_sieve(L) on each call,
    so the cost is pi(L) root finds plus one strike per root and period.
    """
    n = hi - lo + 1
    if n <= 0:
        return bytearray()
    if n > 1 and 2 * lo + u + 1 <= 0:
        raise ValueError(f"x^2 + {u}x + {v} does not increase on [{lo}, {hi}]")
    top = hi * hi + u * hi + v
    if top < 2:
        return bytearray(n)
    flags = bytearray([1]) * n
    D = u * u - 4 * v

    def strike(x0: int, ell: int) -> None:
        i = (x0 - lo) % ell
        if i < n:
            flags[i::ell] = bytes((n - 1 - i) // ell + 1)

    L = isqrt(top)
    for ell in _small_sieve(L):
        if ell == 2:
            if v % 2 == 0:
                strike(0, 2)
            if (1 + u + v) % 2 == 0:
                strike(1, 2)
            continue
        r = _sqrt_mod(D, ell)
        if r is None:
            continue
        inv2 = (ell + 1) >> 1
        strike((r - u) * inv2, ell)
        if r:
            strike((-r - u) * inv2, ell)
    x = lo
    while x <= hi:
        val = x * x + u * x + v
        if val > L:
            break
        flags[x - lo] = val >= 2 and is_prime_u64(val)
        x += 1
    return flags
