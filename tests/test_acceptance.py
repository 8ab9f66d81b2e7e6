"""Acceptance gate: the ten headline criteria, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Everything here is decided exactly at the stated ranges and tolerances; the
big sieve (1e8 scale) and the million-window sieve are session fixtures.
"""

import time
from fractions import Fraction
from math import isqrt

import pytest

from gapcheck.checkers import RunOpts, Verdict, run_many
from gapcheck.exact import Cmp, RootExpr, cmp_root, floor_root
from gapcheck.intervals import brocard_reports, pow2_ladder, power_reports, square_reports
from gapcheck.primes import build_store
from gapcheck.twin import alpha_ledger, same_floor_consecutive_twin_pairs
from gapcheck.window import windows
from oracles import (cleared_root, floor_root_general, meissel_pi, trial_division_is_prime,
                     twin_pairs)

N_MILLION = 10 ** 6


def _report(num: int, desc: str, ok: bool):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def store_16m():
    """Covers p_{n+2} for n = 1e6 (p_1000002 = 15485917)."""
    return build_store(16_000_000)


@pytest.fixture(scope="module")
def square_sweep(big_store):
    """Slim per-window rows for N = 2..1e4 (h-lists kept only where the
    acceptance values need them)."""
    out = []
    for rep in square_reports(big_store, 2, 10 ** 4, keep_primes=False):
        if rep.N > 100:
            rep.h_values = []
        out.append(rep)
    return out


def test_criterion_01_exception_sets(store_16m):
    opts = RunOpts()
    t0 = time.time()
    r1 = run_many(["conj-gap-sq"], store_16m, 1, N_MILLION, opts)[0]["conj-gap-sq"]
    t1 = time.time() - t0
    ok = (r1.verdict is Verdict.EXCEPTIONS_CONFIRMED
          and r1.violations == [4, 9, 30] and t1 < 60.0)
    t0 = time.time()
    r2 = run_many(["conj-gap-sq2"], store_16m, 1, N_MILLION, opts)[0]["conj-gap-sq2"]
    ok &= time.time() - t0 < 60.0
    ok &= r2.verdict is Verdict.EXCEPTIONS_CONFIRMED and r2.violations == [4]
    t0 = time.time()
    r3 = run_many(["survey-quarter"], store_16m, 1, N_MILLION, opts)[0]["survey-quarter"]
    ok &= time.time() - t0 < 60.0
    ok &= r3.survey == [2, 4, 6, 9, 11, 30]
    t0 = time.time()
    r4 = run_many(["delta-gt-half"], store_16m, 1, N_MILLION, opts)[0]["delta-gt-half"]
    ok &= time.time() - t0 < 60.0
    ok &= r4.survey == [2, 4, 6, 9, 11, 30]
    _report(1, "exception sets {4,9,30} / {4} / {2,4,6,9,11,30} at n <= 1e6, "
               f"single-checker runtime {t1:.1f}s < 60s", ok)


def test_criterion_02_sharp_andrica(store_16m):
    r = run_many(["andrica-sharp"], store_16m, 1, N_MILLION)[0]["andrica-sharp"]
    ok = r.verdict is Verdict.PASS and r.extra["max_at"] == 4
    ok &= r.extra["max_delta"] == "sqrt(11)-sqrt(7)"
    d4 = RootExpr.sqrt(11) - RootExpr.sqrt(7)
    # against 7/10: Delta_4 times 10 and sqrt(2)/2 times 10 = 5 sqrt(2) against 7
    ok &= cmp_root(d4.scale(10), 7) is Cmp.LESS
    ok &= cmp_root(RootExpr.sqrt(2).scale(5), 7) is Cmp.GREATER
    _report(2, "max Delta at n = 4, exactly sqrt(11)-sqrt(7) < 7/10 < sqrt(2)/2", ok)


def test_criterion_03_integer_reductions(store_16m):
    ok = True
    for w in windows(store_16m, 2, N_MILLION):
        s = isqrt(w.p * w.q)
        if not (w.d == 2 * (w.q - s - 1) == 2 * (s - w.p + 1)):
            ok = False
            break
    r = run_many(["thm-35"], store_16m, 2, N_MILLION)[0]["thm-35"]
    ok &= r.verdict is Verdict.PASS
    ok &= r.counts.fails == 0 and r.counts.undecided == 0
    _report(3, "d = 2(q-s-1) = 2(s-p+1) for all n in 2..1e6 and the kernel "
               "identity Delta^2 = 2{sqrt(q)Delta} with zero failures and "
               "zero Undecided", ok)


def test_criterion_04_square_windows(big_store, square_sweep):
    ok = big_store.pi(10 ** 8) == meissel_pi(10 ** 8)  # independent pi oracle
    by_N = {rep.N: rep for rep in square_sweep}
    r12 = by_N[12]
    ok &= r12.prime_count == 5 and r12.h_values == [5, 7, 13, 19, 23]
    r80 = by_N[80]
    ok &= r80.prime_count == 13
    ok &= [h for h in r80.h_values if trial_division_is_prime(h)] == [73, 151]
    ok &= all(rep.legendre and rep.two_primes and rep.oppermann_lo
              and rep.oppermann_hi for rep in square_sweep)
    rows = brocard_reports(big_store, 1, 1228)  # p_1229 = 10007 > 1e4
    ok &= rows[-1].q <= 10 ** 4 and all(row.ok for row in rows)
    _report(4, "square windows [144,169] and [6400,6561] reproduced; "
               "Legendre >= 1, two-prime bound, Oppermann strict to N = 1e4; "
               "squared-prime windows hold 2d_n below 1e8", ok)


def test_criterion_05_powers(big_store):
    ok = big_store.pi(2 ** 4) == 6
    ok &= big_store.pi(2 ** 5) == 11
    ok &= big_store.pi(3 ** 5) - big_store.pi(2 ** 5) == 42
    for k in range(2, 13):
        n_hi = int(round(10 ** (8 / k))) + 1
        while (n_hi + 1) ** k > 10 ** 8:
            n_hi -= 1
        for rep in power_reports(big_store, k, 1, n_hi, budget=10 ** 8):
            if rep.budget_hit:
                continue
            ok &= rep.total_ok and rep.cumulative_ok
            if rep.subintervals_claimed:
                ok &= rep.per_interval_ok
    ladder = pow2_ladder(big_store, 26)
    ok &= all(row.increment_ok and row.lower_bound_ok and row.identity_ok
              for row in ladder)
    _report(5, "pi(16)=6, pi(32)=11, pi(243)-pi(32)=42; power windows hold "
               "pi(2^k) with occupied subintervals for k in 2..12 below 1e8; "
               "pow2 ladder increments >= 2 up to k = 26", ok)


def test_criterion_06_section7_extremal(store_16m, square_sweep):
    r_even = run_many(["even-74"], store_16m, 2, N_MILLION)[0]["even-74"]
    ok = r_even.verdict is Verdict.EXCEPTIONS_CONFIRMED
    ok &= r_even.violations == [3, 8]
    r_odd = run_many(["odd-710"], store_16m, 2, N_MILLION)[0]["odd-710"]
    ok &= r_odd.verdict is Verdict.EXCEPTIONS_CONFIRMED
    ok &= r_odd.violations == [5, 16, 24]
    ok &= store_16m.nth_prime(16) == 53 and store_16m.nth_prime(24) == 89
    ok &= all(rep.first_prime_floor_D_even for rep in square_sweep)
    _report(6, "even-N shared-window d = floor(sqrt(p)) exactly at {3, 8}; "
               "odd-N d = N-1 exactly at {5, 16, 24} with p_16 = 53, p_24 = 89 "
               "(n <= 1e6); floor(D) even at every first-prime-after-square "
               "to N = 1e4", ok)


def test_criterion_07_twin_orderings(store_16m, big_store):
    r = run_many(["twin-95"], store_16m, 1, 10 ** 5)[0]["twin-95"]
    ok = r.verdict is Verdict.PASS
    twins = twin_pairs(store_16m, 1, 60)
    ok &= {26, 28, 41, 43, 57, 60} <= set(twins)
    for m1, m2, p1, p2 in [(26, 28, 101, 107), (41, 43, 179, 191),
                           (57, 60, 269, 281)]:
        ok &= store_16m.nth_prime(m1) == p1 and store_16m.nth_prime(m2) == p2
        ok &= isqrt(p1) == isqrt(p2) and 31 * p1 > 25 * p2
    pairs = list(same_floor_consecutive_twin_pairs(big_store, 10 ** 8))
    ok &= len(pairs) > 3 and all(31 * a > 25 * b for a, b, _ in pairs)
    _report(7, f"Delta ordering below every twin m <= 1e5; instances "
               f"(26,28),(41,43),(57,60) confirmed; 31p > 25p' for all "
               f"{len(pairs)} same-floor consecutive twin pairs below 1e8", ok)


def test_criterion_08_ledger(mid_store):
    rows = list(alpha_ledger(mid_store, 10 ** 5))
    ok = all(r.identity_ok for r in rows)
    ok &= all(r.residual_bound <= 1 << 24 for r in rows)  # 2^-40 at 64 bits
    ok &= all(r.q92_holds for r in rows if r.n >= 6)
    ok &= all(r.dusart_holds for r in rows if r.n >= 6)
    ok &= all(r.abstract_holds for r in rows if r.n >= 6)
    _report(8, "sqrt(2 p_{n+1}) identity within 2^-40 for n <= 1e5; "
               "all three open-question surveys clean on 6..1e5", ok)


def test_criterion_09_accumulation_tables():
    from test_accum import (TABLES, mu_within)  # frozen oracle values
    from gapcheck.accum import RationalTarget, accum_scan, special_scans
    from surveys import mu_truncated
    ok = True
    for (a, b), rows in TABLES.items():
        recs = accum_scan(RationalTarget(a, b), "+", N_max=1000)
        got = {(r.N, r.p) for r in recs}
        ok &= all(r.ok for r in recs)
        for N, p, printed in rows:
            ok &= (N, p) in got
            ok &= mu_truncated(p, len(printed) - 2) == printed or \
                mu_within(p, printed)
    h1 = special_scans("h_fixed", N_max=300)
    ps = {r.p for r in h1}
    for p, printed in [(5, "0.23606"), (257, "0.03121"),
                       (16901, "0.00384"), (50177, "0.00223")]:
        ok &= p in ps and mu_truncated(p) == printed
    ok &= all(r.ok for r in h1)
    _report(9, "all fifteen (N, p) table pairs exact with mu at the printed "
               "digits; h = 1 family reproduces mu(5), mu(257), mu(16901), "
               "mu(50177); deviations strictly decrease", ok)


def test_criterion_10_property_suites(mid_store):
    ids = ["eq-15-1", "eq-15-2", "eq-15-3", "eq-15-4",
           "eq-16-1", "eq-16-2", "eq-16-3",
           "eq-28-1", "eq-28-2", "eq-28-3", "twin-91"]
    reports, _ = run_many(ids, mid_store, 2, 10 ** 5)
    ok = all(reports[cid].verdict is Verdict.PASS for cid in ids)

    import random
    rng = random.Random(12345)
    primes = list(mid_store.iter_primes(2, 4 * 10 ** 5))
    agree = True
    for _ in range(10 ** 5):
        i = rng.randrange(len(primes) - 1)
        p, q = primes[i], primes[i + 1]
        a = Fraction(rng.randrange(-40, 40), rng.randrange(1, 5))
        b = Fraction(rng.randrange(-7, 7) or 1, rng.randrange(1, 4))
        e, _ = cleared_root(a, {p * q: b})   # the value times its denominator
        if floor_root(e) != floor_root_general(e):
            agree = False
            break
    ok &= agree

    resume_ids = ["conj-gap-sq", "twin-95", "fixedgap-mono", "delta-gt-half"]
    single, _ = run_many(resume_ids, mid_store, 1, 3000)
    part1, cp = run_many(resume_ids, mid_store, 1, 1357)
    resumed, _ = run_many(resume_ids, mid_store, 1358, 3000, resume=cp)
    ok &= all(resumed[c].to_json() == single[c].to_json() for c in resume_ids)
    again, _ = run_many(resume_ids, mid_store, 1, 3000)
    ok &= all(again[c].to_json() == single[c].to_json() for c in resume_ids)
    _report(10, "equivalence families pointwise on 2..1e5; fast vs general "
                "floor paths agree on 1e5 random window expressions; resume "
                "equivalence and determinism hold", ok)
