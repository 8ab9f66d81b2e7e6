import io
from decimal import Decimal, getcontext
from fractions import Fraction

from gapcheck.twin import (alpha_ledger, ln_interval, ln_ln_interval,
                           same_floor_consecutive_twin_pairs,
                           twin_prime_values, write_ledger_csv)
from oracles import brute_twin_count_below_index
from surveys import jn_questions

getcontext().prec = 60


def _contains(bracket, fb, true_decimal):
    lo, hi = bracket
    t = Fraction(str(true_decimal))
    return Fraction(lo, 1 << fb) <= t <= Fraction(hi, 1 << fb)


def test_ln_interval_against_decimal_oracle():
    for n in [2, 3, 6, 10, 97, 1000, 99991]:
        assert _contains(ln_interval(n, 1, 96), 96, Decimal(n).ln())
        lo, hi = ln_interval(n, 1, 96)
        assert hi - lo < 4096  # certified to ~2^-84 or better


def test_ln_ln_interval_against_decimal_oracle():
    for n in [3, 6, 10, 1000, 99991]:
        assert _contains(ln_ln_interval(n, 96), 96, Decimal(n).ln().ln())


def test_ln_rational_arguments():
    # ln(1/2) < 0
    lo, hi = ln_interval(1, 2, 96)
    assert hi < 0
    assert _contains((lo, hi), 96, Decimal("0.5").ln())


def test_j_convention(mid_store):
    rows = {r.n: r for r in alpha_ledger(mid_store, 30)}
    assert rows[1].j == 0
    assert rows[6].j == 3      # pairs (3,5), (5,7), (11,13)
    primes = list(mid_store.iter_primes(2, 200))
    for n in range(1, 30):
        assert rows[n].j == brute_twin_count_below_index(primes, n)


def test_identity_and_error_budget(mid_store):
    rows = list(alpha_ledger(mid_store, 3000))
    assert all(r.identity_ok for r in rows)
    # at 64 fractional bits the tracked bound stays below 2^-40
    assert all(r.residual_bound <= 1 << 24 for r in rows)


def test_sandwich_bounds(mid_store):
    rows = list(alpha_ledger(mid_store, 3000))
    assert all(r.sandwich_ok for r in rows)


def test_alpha4_positive(mid_store):
    # alpha_4 = sqrt(2)/2 - (sqrt(11) - sqrt(7)) > 0
    from gapcheck.exact import Cmp, RootExpr, cmp_root
    a4 = RootExpr.sqrt(2, Fraction(1, 2)) - (RootExpr.sqrt(11) - RootExpr.sqrt(7))
    assert cmp_root(a4) is Cmp.GREATER


def test_b_exceeds_a_at_1000(mid_store):
    row = [r for r in alpha_ledger(mid_store, 1000)][-1]
    assert row.b_gt_a


def test_questions_clean_to_2000(mid_store):
    qr = jn_questions(mid_store, 2000)
    assert qr.q92_first_violation is None
    assert qr.dusart_first_violation is None
    assert qr.abstract_first_violation is None
    assert qr.rows_checked == 2000


def test_question_examples(mid_store):
    rows = {r.n: r for r in alpha_ledger(mid_store, 10)}
    # p_6 = 13 < 2 * j_6^2 = 18
    assert rows[6].abstract_holds is True
    # n = 3 states 3(ln3 + lnln3 - 1) ~ 0.578 < 2 j_3^2 = 2
    assert rows[3].dusart_holds is True


def test_ledger_csv(mid_store):
    rows = list(alpha_ledger(mid_store, 5))
    buf = io.StringIO()
    write_ledger_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("n,j_n,A_n,B_n,identity_residual_bound")
    assert lines[1].split(",")[0] == "1"


def test_twin_values_and_same_floor_pairs(mid_store):
    assert list(twin_prime_values(mid_store, 100)) == [3, 5, 11, 17, 29, 41, 59, 71]
    pairs = list(same_floor_consecutive_twin_pairs(mid_store, 300))
    assert (101, 107, 10) in pairs
    assert (179, 191, 13) in pairs
    assert (269, 281, 16) in pairs
    assert all(31 * a > 25 * b for a, b, _ in pairs)


def test_j_against_independent_pair_enumeration(mid_store):
    """j from the window stream vs counting primality-tested pairs
    (m, m+2) directly, with no use of consecutive-gap structure."""
    n_hi = 10 ** 4
    p_hi = mid_store.nth_prime(n_hi)
    pair_count = 0
    counts = {}
    idx = 0
    for p in mid_store.iter_primes(2, p_hi):
        idx += 1
        # pairs with upper member <= p_n: check (p-2, p)
        if p >= 5 and mid_store.is_prime(p - 2):
            pair_count += 1
        counts[idx] = pair_count
    for r in alpha_ledger(mid_store, n_hi):
        assert r.j == counts[r.n], r.n
