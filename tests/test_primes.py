import random
from bisect import bisect_right
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcheck import primes
from gapcheck.intervals import square_reports
from gapcheck.primes import (_MR_BASES, _PSI, BLOCK_ENTRIES, LIMIT_CAP, SEGMENT_ENTRIES,
                             CapacityError, CoverageError, _sqrt_mod, build_store,
                             is_prime_u64, quadratic_prime_flags)
from oracles import (is_prime_all_bases, meissel_pi, mr_quadratic_flags, odd_only_sieve,
                     strong_probable_prime, trial_division_is_prime, trial_division_primes)


def test_first_primes(small_store):
    assert [small_store.nth_prime(i) for i in range(1, 5)] == [2, 3, 5, 7]


def test_pi_table_values(small_store):
    assert small_store.pi(1) == 0
    assert small_store.pi(2) == 1
    assert small_store.pi(16) == 6
    assert small_store.pi(32) == 11
    assert small_store.pi(243) - small_store.pi(32) == 42


def test_pi_against_trial_division(small_store):
    primes = set(trial_division_primes(2000))
    count = 0
    for x in range(2001):
        if x in primes:
            count += 1
        assert small_store.pi(x) == count


def test_is_prime_against_trial_division(small_store):
    for x in range(2, 3000):
        assert small_store.is_prime(x) == trial_division_is_prime(x)


def test_nth_prime_pi_roundtrip(small_store):
    for p in small_store.iter_primes(2, 10000):
        n = small_store.pi(p)
        assert small_store.nth_prime(n) == p
    for n in range(1, 500):
        assert small_store.pi(small_store.nth_prime(n)) == n


def test_named_prime_indices(small_store):
    assert small_store.nth_prime(16) == 53
    assert small_store.nth_prime(24) == 89
    assert small_store.nth_prime(26) == 101
    assert small_store.nth_prime(28) == 107


def test_pi_monotone_and_checkpoint_consistency(mid_store):
    # independent Meissel-style oracle at scattered points
    for x in [10 ** 4, 123456, 10 ** 6, 2999999]:
        assert mid_store.pi(x) == meissel_pi(x)


def test_segmented_vs_plain_sieve_windows(mid_store):
    rng = random.Random(7)
    for _ in range(5):
        lo = rng.randrange(2, 10 ** 6)
        hi = lo + rng.randrange(10, 10 ** 4)
        got = list(mid_store.iter_primes(lo, hi))
        assert got == [x for x in range(lo, hi + 1) if trial_division_is_prime(x)]


def test_next_prime(small_store):
    assert small_store.next_prime(1) == 2
    assert small_store.next_prime(2) == 3
    assert small_store.next_prime(89) == 97
    assert small_store.next_prime(7917) == 7919


def _next_prime_oracle(x, limit):
    return next((y for y in range(x + 1, limit + 1) if trial_division_is_prime(y)), None)


@pytest.mark.parametrize("limit", [
    4 * SEGMENT_ENTRIES + 5,  # three segments, the last holding two entries
    4 * SEGMENT_ENTRIES + 3,  # the last segment holds one entry
    2, 3, 4,
])
def test_queries_across_block_and_segment_edges(limit):
    store = build_store(limit)
    # the odd numbers opening every segment after the first and a seeded
    # sample of blocks, plus the store's edges
    n_entries = max(0, (limit - 3) // 2 + 1)
    block_starts = range(BLOCK_ENTRIES, n_entries, BLOCK_ENTRIES)
    firsts = [*range(SEGMENT_ENTRIES, n_entries, SEGMENT_ENTRIES),
              *random.Random(limit).sample(block_starts, min(12, len(block_starts)))]
    edges = sorted({3 + 2 * i for i in firsts} | {2, limit})
    for edge in edges:
        for x in range(max(edge - 2, 0), min(edge + 2, limit) + 1):
            assert store.pi(x) == meissel_pi(x)
            assert store.is_prime(x) == trial_division_is_prime(x)
            nxt = _next_prime_oracle(x, limit)
            if nxt is None:
                with pytest.raises(CoverageError):
                    store.next_prime(x)
            else:
                assert store.next_prime(x) == nxt
        a, b = edge - 100, min(edge + 100, limit)
        got = list(store.iter_primes(a, b))
        assert got == [y for y in range(a, b + 1) if trial_division_is_prime(y)]
        for p in got:
            assert store.nth_prime(store.pi(p)) == p
    assert store.prime_count == meissel_pi(limit)
    assert store.nth_prime(store.prime_count) == max(
        y for y in range(limit - 200, limit + 1) if trial_division_is_prime(y))
    with pytest.raises(CoverageError):
        store.nth_prime(store.prime_count + 1)


def _twin_lows_reference(store, stop, start=2):
    primes = list(store.iter_primes(start, stop))
    return [p for p, q in zip(primes, primes[1:]) if q - p == 2]


def test_twin_lows_against_reference(mid_store):
    """The byte-pattern scan against consecutive-prime pairs of iter_primes."""
    stores = [build_store(limit) for limit in range(2, 14)] + [mid_store]
    for store in stores:
        limit = store.limit
        for stop in (None, limit, limit - 1, limit - 2):
            want = _twin_lows_reference(store, limit if stop is None else stop)
            assert list(store.iter_twin_lows(stop)) == want, (limit, stop)
        with pytest.raises(CoverageError):
            list(store.iter_twin_lows(limit + 1))
    # the 3-5-7 overlap yields both 3 and 5
    assert list(mid_store.iter_twin_lows(7)) == [3, 5]
    assert list(mid_store.iter_twin_lows(6)) == [3]
    # the first pair that straddles a segment edge: 2*50*E + 1 is the last
    # entry of segment 49 and its partner the first entry of segment 50
    p = 2 * 50 * SEGMENT_ENTRIES + 1
    assert (p - 3) // 2 == 50 * SEGMENT_ENTRIES - 1
    store = build_store(p + 2)
    assert store.is_prime(p) and store.is_prime(p + 2)
    lows = list(store.iter_twin_lows())
    assert lows[-1] == p
    assert len(lows) == len(set(lows)) and lows == sorted(lows)
    assert [x for x in lows if x >= p - 20000] == _twin_lows_reference(store, p + 2, p - 20000)
    assert list(store.iter_twin_lows(p + 1))[-1] < p


@pytest.mark.parametrize("limits", [
    range(2, 41),  # the restored wheel primes 3..13 and the p^2 >= hi cutoff
    [15015 * j + d for j in (1, 2, 4) for d in range(-2, 3)],  # wheel period edges
    [4 * SEGMENT_ENTRIES + 3, 4 * SEGMENT_ENTRIES + 5],
])
def test_wheel_segments_equal_plain_sieve(limits):
    """Every segment, wheel pattern plus base primes from 17, is byte-equal
    to the same slice of one plain odd-only sieve."""
    E = SEGMENT_ENTRIES
    rotated = False  # a segment compared that starts mid-period of the wheel
    for limit in limits:
        store = build_store(limit)
        segs = [store._segment(k) for k in range(((limit - 3) // 2 + E) // E)]
        plain = odd_only_sieve(limit)
        assert sum(map(len, segs)) == len(plain), limit
        for k, seg in enumerate(segs):
            assert seg == plain[k * E:(k + 1) * E], (limit, k)
            rotated |= k * E % 15015 != 0
    assert rotated == (max(limits) > 2 * E)


@pytest.fixture
def tight_cache(monkeypatch):
    """A 10E store (five segments) under CACHE_SEGMENTS = 3, with the list of
    the segments sieved after its build, in order."""
    E = SEGMENT_ENTRIES
    monkeypatch.setattr(primes, "CACHE_SEGMENTS", 3)
    sieved = []
    wheel_segment = primes._wheel_segment
    monkeypatch.setattr(primes, "_wheel_segment",
                        lambda first, n: sieved.append(first // E) or wheel_segment(first, n))
    store = build_store(10 * E)
    nseg = len(sieved)
    assert sieved == list(range(nseg)) and nseg > 3
    sieved.clear()
    plain = odd_only_sieve(store.limit)
    return store, nseg, sieved, plain


def test_ascending_sweeps_resieve_past_the_cache_only(tight_cache):
    """With more segments than the cache holds, a second ascending sweep
    re-sieves at most nseg - CACHE_SEGMENTS + 1 segments (plain LRU would
    re-sieve all nseg)."""
    store, nseg, sieved, plain = tight_cache
    E = SEGMENT_ENTRIES
    want = [2] + [3 + 2 * i for i, f in enumerate(plain) if f]
    want_twins = [3 + 2 * i for i in range(len(plain) - 1) if plain[i] and plain[i + 1]]
    points = [3 + 2 * (k * E + off) for k in range(nseg) for off in (0, E // 3, E - 1)
              if k * E + off < len(plain)] + [store.limit]

    bound = nseg - 3 + 1
    before = len(sieved)
    assert list(store.iter_primes()) == want
    assert len(sieved) - before <= bound
    before = len(sieved)
    assert list(store.iter_twin_lows()) == want_twins
    assert len(sieved) - before <= bound
    before = len(sieved)
    assert [store.pi(x) for x in points] == [bisect_right(want, x) for x in points]
    assert len(sieved) - before <= bound


def test_point_queries_keep_segment_zero_cached(tight_cache):
    """is_prime on segment 0 never re-sieves it: not after a miss elsewhere
    while segment 0 is the least recently used, and not before a sweep and
    after each segment the sweep opens, from segment 2 on, where plain LRU
    keeps it too, or from segment 0, where it is the sweep's previous
    segment when the sweep misses on segment 1."""
    store, nseg, sieved, plain = tight_cache
    E = SEGMENT_ENTRIES
    want = [2] + [3 + 2 * i for i, f in enumerate(plain) if f]
    small = range(2, 200)
    small_primes = [x in want[:50] for x in small]
    # the build read segment 0 first, so it is the least recent one now
    assert store.pi(3 + 4 * E) == bisect_right(want, 3 + 4 * E)
    assert [store.is_prime(x) for x in small] == small_primes
    assert sieved == [2]
    for first in (2, 0):   # the sweep from 2 evicts segment 1
        before = len(sieved)
        assert [store.is_prime(x) for x in small] == small_primes
        got, opened = [], []
        for p in store.iter_primes(3 + 2 * first * E):
            got.append(p)
            k = (p - 3) // 2 // E
            if k not in opened:
                opened.append(k)
                assert [store.is_prime(x) for x in small] == small_primes
        assert got == [p for p in want if p >= 3 + 2 * first * E]
        assert opened == list(range(first, nseg))
        assert 0 not in sieved[before:]
    assert 1 in sieved[before:]   # the sweep from 0 did miss on segment 1


def test_square_reports_never_step_back(tight_cache):
    """Square windows that cross every segment edge on a full cache sieve no
    segment twice: every count after the first window comes from the
    windows' own primes, so no query returns to a segment the sweep left."""
    store, nseg, sieved, plain = tight_cache
    want = [2] + [3 + 2 * i for i, f in enumerate(plain) if f]
    n_lo, n_hi = 1440, isqrt(store.limit) - 1   # (1441)^2 lies in segment 0
    reps = list(square_reports(store, n_lo, n_hi))
    assert len(sieved) == len(set(sieved)) and sieved == sorted(sieved)
    assert (n_lo * n_lo - 3) // 2 // SEGMENT_ENTRIES == 0
    assert ((n_hi + 1) ** 2 - 3) // 2 // SEGMENT_ENTRIES == nseg - 1

    def pi(x):
        return bisect_right(want, x)
    for rep in reps:
        N2 = rep.N * rep.N
        assert rep.primes == want[pi(N2):pi((rep.N + 1) ** 2)]
        assert rep.prime_h_values == [h for h in rep.h_values if pi(h) > pi(h - 1)]
        assert rep.oppermann_lo == (pi(N2 - rep.N) < pi(N2))
        assert rep.oppermann_hi == (pi(N2) < pi(N2 + rep.N))
        assert rep.cumulative == (pi(N2) >= 2 * (rep.N - 1))


def test_coverage_and_capacity_errors(small_store):
    with pytest.raises(CoverageError):
        small_store.pi(10 ** 6)
    with pytest.raises(CoverageError):
        small_store.nth_prime(10 ** 6)
    with pytest.raises(CapacityError):
        build_store(LIMIT_CAP + 1)


def test_is_prime_u64_small_values():
    assert not is_prime_u64(0) and not is_prime_u64(1)
    assert is_prime_u64(2) and is_prime_u64(3)
    assert not is_prime_u64(4)
    assert is_prime_u64(374953)


def test_is_prime_u64_against_sieve(small_store):
    rng = random.Random(11)
    for _ in range(5000):
        x = rng.randrange(0, 10 ** 5)
        assert is_prime_u64(x) == small_store.is_prime(x)


def test_is_prime_u64_large_known():
    # Mersenne prime 2^61 - 1 and neighbours
    assert is_prime_u64(2 ** 61 - 1)
    assert not is_prime_u64(2 ** 61 + 1)  # 3 * 715827883 * ...
    assert not is_prime_u64((2 ** 31 - 1) ** 2)
    with pytest.raises(ValueError):
        is_prime_u64(1 << 64)


def test_is_prime_u64_tier_edges():
    # psi_k (OEIS A014233) is composite but passes the first k bases, so a
    # table shifted down by one would call it prime; it passes base k + 1
    # too exactly when psi_{k+1} = psi_k (psi_12 > 2^64)
    for k, psi in enumerate(_PSI, start=1):
        assert not is_prime_u64(psi), k
        assert strong_probable_prime(psi, _MR_BASES[:k]), k
        assert strong_probable_prime(psi, _MR_BASES[:k + 1]) == (_PSI[k:k + 1] == (psi,)), k


def test_is_prime_u64_against_all_bases():
    rng = random.Random(29)
    values = list(range(10 ** 5)) + [2 ** 64 - 59, 2 ** 64 - 1]
    tiers = sorted(set((0,) + _PSI + (1 << 64,)))
    for lo, hi in zip(tiers, tiers[1:]):
        values += [rng.randrange(lo, hi) for _ in range(2000)]
    for psi in _PSI:
        values += range(psi - 199, psi + 200, 2)
    for x in values:
        assert is_prime_u64(x) == is_prime_all_bases(x), x
    assert is_prime_u64(2 ** 64 - 59) and not is_prime_u64(2 ** 64 - 1)


def test_sqrt_mod_against_brute_force():
    for ell in trial_division_primes(2000)[1:]:
        roots = {}
        for x in range(ell):
            roots.setdefault(x * x % ell, set()).add(x)
        for a in range(ell):
            r = _sqrt_mod(a, ell)
            if a in roots:
                assert r in roots[a], (a, ell)
            else:
                assert r is None, (a, ell)
    # negative D and D divisible by ell, as the accumulation families give
    assert _sqrt_mod(-3, 7) in (2, 5) and _sqrt_mod(5, 7) is None
    assert _sqrt_mod(-4 * 3, 3) == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(-60, 60), st.integers(-3000, 3000), st.integers(0, 1500),
       st.integers(-1, 3000))
def test_quadratic_flags_against_one_test_per_value(u, v, offset, length):
    """On any range where x^2 + ux + v increases, hi <= 3000, the sieve's
    flags equal one is_prime_u64 call per value."""
    lo = (-u - 1) // 2 + 1 + offset     # the least lo with 2 lo + u + 1 > 0
    hi = min(3000, lo + length)
    assert quadratic_prime_flags(u, v, lo, hi) == mr_quadratic_flags(u, v, lo, hi)


def test_quadratic_flags_edges():
    assert quadratic_prime_flags(0, 1, 5, 4) == bytearray()
    assert quadratic_prime_flags(0, 1, 1, 1) == bytearray([1])      # 2
    assert quadratic_prime_flags(2, -1, 1, 1) == bytearray([1])     # 2
    assert quadratic_prime_flags(0, -10, 0, 3) == bytearray(4)      # all below 2
    # values that are sieving primes themselves: 2, 5, 10, 17, 26, 37, ...
    assert quadratic_prime_flags(0, 1, 1, 40) == mr_quadratic_flags(0, 1, 1, 40)
    with pytest.raises(ValueError, match="increase"):
        quadratic_prime_flags(0, 1, -3, 5)
    with pytest.raises(ValueError, match="increase"):
        quadratic_prime_flags(-5, 7, 2, 10)
