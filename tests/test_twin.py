import hashlib
import io
from decimal import Decimal, getcontext
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapcheck.twin as twin
from gapcheck.twin import (LedgerError, alpha_ledger, ln_interval, ln_ln_interval,
                           same_floor_consecutive_twin_pairs, write_ledger_csv)
from gapcheck.primes import PrimeStore
from oracles import RefRoot, brute_twin_count_below_index, excel_csv_lines, is_prime_all_bases
from surveys import jn_questions

getcontext().prec = 60


def _contains(bracket, true_decimal):
    lo, hi = bracket
    t = Fraction(str(true_decimal))
    return Fraction(lo, 1 << twin.LN_BITS) <= t <= Fraction(hi, 1 << twin.LN_BITS)


def test_ln_interval_against_decimal_oracle():
    for n in [2, 3, 6, 10, 97, 1000, 99991]:
        assert _contains(ln_interval(n), Decimal(n).ln())
        lo, hi = ln_interval(n)
        assert hi - lo < 4096  # certified to ~2^-84 or better


def test_ln_ln_interval_against_decimal_oracle():
    for n in [3, 6, 10, 1000, 99991]:
        assert _contains(ln_ln_interval(n), Decimal(n).ln().ln())


def test_ln_rational_arguments():
    """The ledger takes ln only of values of at least 1; a smaller one is
    refused, not bracketed."""
    for num, den in ((1, 2), (0, 1), (-3, 1), (2, 3), (1, 0)):
        with pytest.raises(ValueError):
            ln_interval(num, den)
    assert ln_interval(1) == (0, 0)
    assert _contains(ln_interval(3, 2), Decimal("1.5").ln())


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


def test_alpha4_positive():
    # alpha_4 = sqrt(2)/2 - (sqrt(11) - sqrt(7)) > 0: three radicands, so the
    # oracle's sign; squared, sqrt(2)/2 + sqrt(7) > sqrt(11) is 2 sqrt(14) > 7
    from gapcheck.exact import Cmp, RootExpr, cmp_root
    a4 = RefRoot.sqrt(2, Fraction(1, 2)) - RefRoot.sqrt(11) + RefRoot.sqrt(7)
    assert a4.sign() == 1
    assert cmp_root(RootExpr.sqrt(14).scale(2), 7) is Cmp.GREATER


def test_b_exceeds_a_at_1000(mid_store):
    row = [r for r in alpha_ledger(mid_store, 1000)][-1]
    assert row.B[0] > row.A[1]   # B_1000 > A_1000, the intervals separated


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


def test_ledger_csv_digest(mid_store):
    """The ledger CSV over 1..3000, byte for byte as the brackets alone
    decide every Dusart row."""
    buf = io.StringIO()
    write_ledger_csv(alpha_ledger(mid_store, 3000), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
        "5798c8e66f674e75d3a8411e9249450733f78adb22048fecfb4511545153120e")


def test_ledger_csv_matches_csv_writer(mid_store):
    """write_ledger_csv's lines are csv.writer's over the fields the ledger
    reports, the questions blank where undefined (n < 5, n < 6)."""
    rows = list(alpha_ledger(mid_store, 3000))
    assert rows[3].q92_holds is None and rows[4].q92_holds is not None
    assert rows[4].abstract_holds is None and rows[5].abstract_holds is not None
    scale = 1 << twin.FRAC_BITS

    def dec(interval):
        return f"{(interval[0] + interval[1]) // 2 / scale:.{twin.CSV_DECIMALS}f}"

    def tri(v):
        return "" if v is None else int(v)

    buf = io.StringIO()
    write_ledger_csv(rows, buf)
    assert buf.getvalue().splitlines(keepends=True) == excel_csv_lines(
        [["n", "j_n", "A_n", "B_n", "identity_residual_bound",
          "q92_holds", "dusart_holds", "abstract_holds"]]
        + [[r.n, r.j, dec(r.A), dec(r.B), r.residual_bound, tri(r.q92_holds),
            tri(r.dusart_holds), tri(r.abstract_holds)] for r in rows])


def test_alpha_guard_refuses_a_negative_alpha(small_store, monkeypatch):
    """A stream whose first window is (2, 5) has Delta_1 = sqrt(5) - sqrt(2),
    about 0.822 > sqrt(2)/2, so alpha_1 < 0 and the ledger refuses row 1
    rather than bracket sqrt(2) alpha_1 by its two products."""
    iter_primes = PrimeStore.iter_primes

    def without_3(self, start=2, stop=None):
        return (p for p in iter_primes(self, start, stop) if p != 3)

    monkeypatch.setattr(PrimeStore, "iter_primes", without_3)
    with pytest.raises(LedgerError, match="n=1\\b"):
        next(alpha_ledger(small_store, 5))


def _counting_ln(calls):
    """twin.ln_interval, appending each call's arguments to calls."""
    ln = twin.ln_interval

    def counting(*args):
        calls.append(args)
        return ln(*args)
    return counting


def test_dusart_filter_leaves_few_rows_to_ln(mid_store, monkeypatch):
    """The integer filter decides every row of 1..8000 but 11, all with
    n <= 33, and each of those takes 4 ln_interval calls."""
    calls = []
    monkeypatch.setattr(twin, "ln_interval", _counting_ln(calls))
    rows = list(alpha_ledger(mid_store, 8000))
    assert all(r.dusart_holds for r in rows if r.n >= 6)
    assert len(calls) == 44


def _dusart_lhs(n):
    ln = Decimal(n).ln()
    return n * (ln + ln.ln() - 1)


@st.composite
def _n_and_j(draw):
    """n in 3..1e7 and j within a few units of the filter's boundary or of
    the true boundary sqrt(n (ln n + ln ln n - 1) / 2)."""
    n = draw(st.integers(min_value=3, max_value=10 ** 7))
    if draw(st.booleans()):
        j0 = isqrt(n * (14 * n.bit_length() - 20) // 20)
    else:
        j0 = int((_dusart_lhs(n) / 2).sqrt())
    return n, max(0, j0 + draw(st.integers(min_value=-3, max_value=3)))


@given(_n_and_j())
@settings(max_examples=300, deadline=None)
def test_dusart_filter_against_decimal(nj):
    """Whatever the integer filter accepts (no ln_interval call) is true at
    60 digits, and the brackets agree with Decimal on the rest."""
    n, j = nj
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(twin, "ln_interval", _counting_ln(calls))
        try:
            holds = twin._dusart_holds(n, j)
        except LedgerError:
            holds = None
    truth = _dusart_lhs(n) < 2 * j * j
    if not calls:
        assert holds is True and truth, (n, j)
    elif holds is not None:
        assert holds == truth, (n, j)


def test_twin_values_and_same_floor_pairs(mid_store):
    assert list(mid_store.iter_twin_lows(100)) == [3, 5, 11, 17, 29, 41, 59, 71]
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
        if p >= 5 and is_prime_all_bases(p - 2):
            pair_count += 1
        counts[idx] = pair_count
    for r in alpha_ledger(mid_store, n_hi):
        assert r.j == counts[r.n], r.n
