import io

import pytest

from gapcheck.intervals import (SquareWindowReport, brocard_reports, pow2_ladder,
                                power_reports, square_reports, write_square_csv)
from gapcheck.primes import CoverageError, build_store
from oracles import excel_csv_lines, meissel_pi, trial_division_is_prime
from surveys import (even_base_report, even_square_decomposition, h_value_coverage,
                     prime_power_windows)


def test_even_base_window_12(mid_store):
    rep = even_base_report(mid_store, 6)   # window [144, 169]
    assert rep.primes == [149, 151, 157, 163, 167]
    assert rep.h_values == [5, 7, 13, 19, 23]
    assert [h for h in rep.h_values if trial_division_is_prime(h)] == [5, 7, 13, 19, 23]


def test_even_base_window_80(mid_store):
    rep = even_base_report(mid_store, 40)  # window [6400, 6561]
    assert rep.prime_count == 13
    assert [h for h in rep.h_values if trial_division_is_prime(h)] == [73, 151]
    assert len([h for h in rep.h_values if h not in (73, 151)]) == 11


def test_even_base_window_30_all_prime_offsets(mid_store):
    rep = even_base_report(mid_store, 15)  # the other all-prime batch
    assert rep.prime_count == 8
    assert all(trial_division_is_prime(h) for h in rep.h_values)


def test_square_claims_sweep(mid_store):
    for rep in square_reports(mid_store, 2, 300, keep_primes=False):
        assert rep.legendre and rep.two_primes
        assert rep.oppermann_lo and rep.oppermann_hi
        assert rep.cumulative
        assert rep.first_prime_floor_D_even
        assert rep.half_claims_ok


def test_square_window_h_parity(mid_store):
    for rep in square_reports(mid_store, 2, 100):
        for h in rep.h_values:
            assert 1 <= h <= 2 * rep.N
            assert h % 2 != rep.N % 2


def test_oppermann_smallest(mid_store):
    rep = next(square_reports(mid_store, 2, 2))
    # pi(2) = 1 < pi(4) = 2 < pi(6) = 3
    assert rep.oppermann_lo and rep.oppermann_hi


def test_square_counts_against_trial_division(mid_store):
    for rep in square_reports(mid_store, 2, 30):
        want = [x for x in range(rep.N ** 2 + 1, (rep.N + 1) ** 2)
                if trial_division_is_prime(x)]
        assert rep.primes == want


def test_square_csv(mid_store):
    buf = io.StringIO()
    write_square_csv(square_reports(mid_store, 2, 5, keep_primes=False), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "N,count,oppermann_lo,oppermann_hi,min_h,max_h"
    assert lines[1].startswith("2,2,1,1,")


def test_square_csv_matches_csv_writer(mid_store):
    """write_square_csv's lines are csv.writer's, min_h and max_h blank for
    a report without h values."""
    reports = list(square_reports(mid_store, 1, 300, keep_primes=False))
    reports.append(SquareWindowReport(N=301, prime_count=0, oppermann_hi=False))
    buf = io.StringIO()
    write_square_csv(reports, buf)
    want = excel_csv_lines(
        [["N", "count", "oppermann_lo", "oppermann_hi", "min_h", "max_h"]]
        + [[r.N, r.prime_count, int(r.oppermann_lo), int(r.oppermann_hi),
            min(r.h_values) if r.h_values else "",
            max(r.h_values) if r.h_values else ""] for r in reports])
    assert buf.getvalue().splitlines(keepends=True) == want
    assert want[-1] == "301,0,1,0,,\r\n"


def test_brocard_first_rows(mid_store):
    rows = brocard_reports(mid_store, 1, 50)
    assert rows[0].count == 2 and rows[0].threshold == 2      # pi(9)-pi(4)
    assert rows[1].count == 5 and rows[1].threshold == 4      # pi(25)-pi(9)
    assert all(r.ok for r in rows)


def test_power_k3_small_windows(mid_store):
    reps = list(power_reports(mid_store, 3, 1, 30, budget=mid_store.limit))
    by_n = {r.n: r for r in reps}
    # pi(27) - pi(8) = 5 >= 4
    assert by_n[2].total == 5 and by_n[2].total_ok
    assert all(r.per_interval_ok and r.total_ok and r.cumulative_ok
               for r in reps if not r.budget_hit)


def test_power_k4_k5_paper_values(mid_store):
    r4 = next(power_reports(mid_store, 4, 1, 1, budget=mid_store.limit))
    assert r4.total == 6 and r4.expected_min == 6
    assert not r4.subintervals_claimed  # scheme asserted from n = 2 at k >= 4
    r5 = list(power_reports(mid_store, 5, 1, 2, budget=mid_store.limit))
    assert r5[0].total == 11
    assert r5[1].total == 42


def test_power_budget_flag(mid_store):
    reps = list(power_reports(mid_store, 5, 1, 50, budget=10 ** 6))
    assert reps[-1].budget_hit


def test_power_counts_sum(mid_store):
    for rep in power_reports(mid_store, 3, 2, 20, budget=mid_store.limit):
        assert sum(rep.lower_counts) == rep.total


def test_power_counts_against_trial_division(mid_store):
    rep = next(power_reports(mid_store, 3, 3, 3, budget=mid_store.limit))
    # interval (27, 64) cut at 27 + {1,2,4} * 6
    cuts = [27, 33, 39, 51, 63]
    want = [len([x for x in range(cuts[i] + 1, cuts[i + 1] + 1)
                 if trial_division_is_prime(x)]) for i in range(4)]
    assert rep.lower_counts == want


def test_prime_power_windows(mid_store):
    rows = prime_power_windows(mid_store, 3, budget=mid_store.limit)
    assert rows and all(ok for *_, ok in rows)


def test_pow2_ladder(mid_store):
    rows = pow2_ladder(mid_store, 21)
    by_k = {r.k: r for r in rows}
    assert by_k[2].pi_2k == 2 and by_k[3].pi_2k == 4
    assert by_k[4].pi_2k == 6 and by_k[4].phi_c == 3
    assert by_k[5].pi_2k == 11 and by_k[5].phi_c == 6
    assert all(r.increment_ok and r.lower_bound_ok and r.identity_ok
               for r in rows)


def test_pow2_phi_c_against_meissel(mid_store):
    for row in pow2_ladder(mid_store, 21):
        assert row.phi_c == 2 ** (row.k - 1) + 1 - meissel_pi(2 ** row.k), row.k


def test_pow2_coverage_error(small_store):
    with pytest.raises(CoverageError):
        pow2_ladder(small_store, 30)


def test_pow2_ladder_on_a_1000_store():
    """The 2^20 ladder of `powers` needs a store past 2^20; on a 1000 store
    it raises before it counts any row.  `powers` sieves to at least 2^20,
    so the command never reaches this."""
    with pytest.raises(CoverageError, match=r"2\^20 beyond store limit"):
        pow2_ladder(build_store(1000), 20)


def test_even_square_decomposition(mid_store):
    # batches exist at 6 and 15; 17, 19 and 46 deny the decomposition
    for N, expect in [(6, True), (15, True), (17, False), (19, False),
                      (46, False)]:
        assert even_square_decomposition(mid_store, N) == expect, N


def test_h_value_coverage(mid_store):
    cov = h_value_coverage(mid_store, 60)
    assert cov["first_missing"] is None or cov["first_missing"] > 1
