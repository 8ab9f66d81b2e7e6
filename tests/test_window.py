import io
import random
from math import isqrt

import pytest

from gapcheck.exact import Cmp, RootExpr, cmp_root, floor_root
from gapcheck.primes import CoverageError, PrimeStore
from gapcheck.window import GapWindow, _view, dump_windows_csv, windows
from oracles import (brute_twin_count_below_index, excel_csv_lines,
                     trial_division_primes, twin_pairs)


def test_window_n4(small_store):
    w = next(windows(small_store, 4, 4))
    assert (w.p, w.q, w.d, w.N, w.Nq, w.h, w.hq, w.s) == (7, 11, 4, 2, 3, 3, 2, 8)


def test_window_n6(small_store):
    w = next(windows(small_store, 6, 6))
    assert (w.p, w.q, w.d, w.h) == (13, 17, 4, 4)


def test_window_n1(small_store):
    w = next(windows(small_store, 1, 1))
    assert (w.p, w.q, w.d, w.N, w.h) == (2, 3, 1, 1, 1)


def test_twin_pairs_enumeration(small_store):
    assert twin_pairs(small_store, 1, 10) == [2, 3, 5, 7, 10]


def test_first_same_floor_consecutive_twins(small_store):
    twins = twin_pairs(small_store, 1, 100)
    first = None
    for m1, m2 in zip(twins, twins[1:]):
        p1 = small_store.nth_prime(m1)
        p2 = small_store.nth_prime(m2)
        if isqrt(p1) == isqrt(p2):
            first = (m1, m2)
            break
    assert first == (26, 28)


def test_window_views_n4(small_store):
    w = next(windows(small_store, 4, 4))
    assert floor_root(w.sqrtq_delta) == w.d // 2 == 2
    assert w.sqrtq_delta + w.sqrtp_delta == w.d
    # mu = sqrt(7) - 2 around 0.6458
    mu = RootExpr.sqrt(w.p) - w.N
    assert cmp_root(mu.scale(10 ** 4), 6457) is Cmp.GREATER
    assert cmp_root(mu.scale(10 ** 4), 6458) is Cmp.LESS


def test_views_lazy_and_computed_once(small_store):
    """The stream computes no view: every window's __dict__ is empty until a
    view is read, s and tN included.  A view is computed on its first read
    and then kept, so a RootExpr view read twice is the same object."""
    views = [k for k, v in vars(GapWindow).items() if isinstance(v, _view)]
    assert {"s", "tN", "sqrt_pq", "floor_D", "delta_vs_half"} <= set(views)
    for w in windows(small_store, 1, 2000):
        assert w.__dict__ == {}, w.n
        first = w.two_sqrtp_delta
        assert w.two_sqrtp_delta is first
        assert set(w.__dict__) == {"sqrt_pq", "sqrtp_delta", "two_sqrtp_delta"}
    w = next(windows(small_store, 4, 4))
    for name in views:
        assert getattr(w, name) is getattr(w, name), name
    assert set(w.__dict__) == set(views)


def test_sandwich_3_1(small_store):
    for w in windows(small_store, 1, 300):
        assert cmp_root(w.sqrtp_delta.scale(2), w.d) is Cmp.LESS
        assert cmp_root(w.sqrtq_delta.scale(2), w.d) is Cmp.GREATER


def test_h_split_identity(small_store):
    for w in windows(small_store, 1, 500):
        if w.same_part:
            assert w.d == w.hq - w.h
        else:
            assert w.d == 2 * w.N + 1 + w.hq - w.h


def test_q_reconstruction_sampled(mid_store):
    rng = random.Random(5)
    ns = sorted(rng.sample(range(1, 100000), 40))
    ws = {w.n: w for w in windows(mid_store, 1, max(ns))}
    for n in ns:
        w = ws[n]
        assert mid_store.next_prime(w.p) == w.p + w.d


def _csv_rows(store, n_lo, n_hi):
    buf = io.StringIO()
    dump_windows_csv(store, n_lo, n_hi, buf)
    return buf.getvalue().splitlines()[1:]


def test_csv_j_from_any_start(mid_store):
    """The CSV dump counts j_n itself: from any start its rows equal the
    matching rows of the dump from n = 1, and j_n = #{i < n : d_i = 2}."""
    rng = random.Random(13)
    starts = [2, 3, 4, 5, 6, 7, 10, 11] + rng.sample(range(12, 5001), 20)
    full = _csv_rows(mid_store, 1, 5010)
    primes = trial_division_primes(50000)   # p_5011 = 48751
    for n_lo in starts:
        rows = _csv_rows(mid_store, n_lo, n_lo + 9)
        assert rows == full[n_lo - 1:n_lo + 9], n_lo
        for n, row in enumerate(rows, n_lo):
            assert int(row.split(",")[-1]) == brute_twin_count_below_index(primes, n)


def test_windows_start_without_prefix_walk(mid_store, monkeypatch):
    """A stream from n_lo opens at p_{n_lo}: no prime below it is walked."""
    starts = []
    iter_primes = PrimeStore.iter_primes

    def recording(self, start=2, stop=None):
        starts.append(start)
        return iter_primes(self, start, stop)

    monkeypatch.setattr(PrimeStore, "iter_primes", recording)
    assert [w.n for w in windows(mid_store, 5000, 5010)] == list(range(5000, 5011))
    assert starts and min(starts) >= mid_store.nth_prime(5000)


def test_coverage_error(small_store):
    with pytest.raises(CoverageError):
        list(windows(small_store, 1, small_store.prime_count + 5))


def test_csv_dump(small_store):
    buf = io.StringIO()
    dump_windows_csv(small_store, 1, 4, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,p,q,d,N,h,hq,s,k,r,j"
    assert lines[1] == "1,2,3,1,1,1,2,2,,,0"
    assert lines[4] == "4,7,11,4,2,3,2,8,2,3,2"


def test_csv_dump_matches_csv_writer(small_store):
    """dump_windows_csv's lines are csv.writer's, k and r blank at n = 1 and
    s, a view the stream leaves uncomputed, equal to isqrt(pq)."""
    rows, j = [], 0
    for w in windows(small_store, 1, 2000):
        k, r = divmod(w.q, w.d) if w.n >= 2 else ("", "")
        rows.append([w.n, w.p, w.q, w.d, w.N, w.h, w.hq, isqrt(w.p * w.q), k, r, j])
        j += w.d == 2
    buf = io.StringIO()
    dump_windows_csv(small_store, 1, 2000, buf)
    assert buf.getvalue().splitlines(keepends=True) == excel_csv_lines(
        [["n", "p", "q", "d", "N", "h", "hq", "s", "k", "r", "j"]] + rows)


def test_nq_within_one(mid_store):
    for w in windows(mid_store, 1, 20000):
        assert w.Nq in (w.N, w.N + 1)
        assert w.s * w.s <= w.p * w.q < (w.s + 1) ** 2


def test_section3_integer_forms_match_general_floor_path(mid_store):
    """The s-based integer floors and the FixedApprox general path agree on
    a sampled set of windows (the dual-route check for the floor family)."""
    import random
    from oracles import build_root, floor_root_general
    rng = random.Random(9)
    ns = sorted(rng.sample(range(2, 50000), 200))
    ws = {w.n: w for w in windows(mid_store, 1, max(ns))}
    for n in ns:
        w = ws[n]
        pq = w.p * w.q
        # floor(2 sqrt(q) Delta) = d, floor(sqrt(p) Delta) = s - p
        e1 = build_root(2 * w.q, {pq: -2})
        e2 = build_root(-w.p, {pq: 1})
        assert floor_root_general(e1) == w.d == 2 * (w.q - w.s - 1)
        assert floor_root_general(e2) == w.s - w.p == w.d // 2 - 1
