"""Twin-prime counting ledger and the related open-question surveys.

The ledger accumulates
    A_n = sum over i <= n, d_i != 2 of (1 - sqrt(2) a_i)
    B_n = sum over i <= n, d_i  = 2 of (1 + sqrt(2) a_i)
with a_i = sqrt(2)/2 - Delta_i, in fixed point with a certified error
interval, and validates the exact identity
    sqrt(2 p_{n+1}) = 2 + 2 j_{n+1} - (B_n - A_n)
against the tracked bound.  j_n counts indices i < n with d_i = 2, the
convention fixed by the identity itself and by p_n < 2 j_n^2 from n = 6 on
(j_6 = 3 via the pairs (3,5), (5,7), (11,13)).

Each row brackets sqrt(2) a_n by two products, the low ends together and
the high ends together, which is the outward-rounded product only while
the bracket of a_n is non-negative.  It is on every prime row: Delta_n <
sqrt(2)/2 holds by value for n <= 4 (the largest, Delta_4 = sqrt(11) -
sqrt(7), is about 0.671) and from n = 5 on is the exact prefix the
display-9.2 question checks.  A row whose certified lower end of a_n is
negative raises LedgerError, like the ledger's other certification guards,
rather than carrying a bracket that would no longer hold the true value.

Every decision is integer or interval arithmetic.  The explicit lower-bound
question n (ln n + ln ln n - 1) < 2 j_n^2 is first put to a certified
integer filter built from bitlen(n), which accepts every row past n = 33 up
to at least 10^5; only the rows it cannot accept pay for the natural log, a
certified dyadic interval from the atanh series with an explicit tail bound.

The same-floor consecutive twin pairs are read from the store's twin scan,
which finds each pair as two adjacent primes in the sieve bytes, so the
walk costs one step per twin pair, not per prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .primes import PrimeStore
from .window import windows


# -- certified interval natural log ---------------------------------------------

LN_BITS = 96         # fraction bits of every ln bracket


def _atanh_interval(unum: int, uden: int) -> tuple[int, int]:
    """Certified [lo, hi] ulps at LN_BITS for atanh(unum/uden), 0 <= u < 1/2."""
    one = 1 << LN_BITS
    ulo = unum * one // uden
    uhi = ulo + (0 if unum * one % uden == 0 else 1)
    u2lo = ulo * ulo >> LN_BITS
    u2hi = (uhi * uhi >> LN_BITS) + 1
    slo, shi = 0, 0
    plo, phi = ulo, uhi  # u^(2k+1) bracket
    k = 0
    while True:
        slo += plo // (2 * k + 1)
        shi += phi // (2 * k + 1) + 1
        plo = plo * u2lo >> LN_BITS
        phi = (phi * u2hi >> LN_BITS) + 1
        k += 1
        if phi // (2 * k + 1) == 0:
            # remaining tail < phi/(2k+1) * 1/(1 - u^2) < 2 ulps here
            shi += 2
            break
    return slo, shi


_LN2 = tuple(2 * x for x in _atanh_interval(1, 3))   # ln 2 = 2 atanh(1/3)


def ln_interval(num: int, den: int = 1) -> tuple[int, int]:
    """Certified [lo, hi] ulps at LN_BITS with ln(num/den) inside, for
    num/den >= 1: the ledger takes the ln of an integer n >= 3 and of a
    bracket end of ln n over 2^LN_BITS, both above 1, so the power of two
    split off, e, is never negative.  A smaller value raises ValueError."""
    if not 0 < den <= num:
        raise ValueError(f"ln_interval needs num/den >= 1, not {num}/{den}")
    e = num.bit_length() - den.bit_length()
    if num < den << e:
        e -= 1
    # m = num/scaled_den in [1, 2); u = (m-1)/(m+1)
    scaled_den = den << e
    unum, uden = num - scaled_den, num + scaled_den
    if unum == 0:
        mlo = mhi = 0
    else:
        alo, ahi = _atanh_interval(unum, uden)
        mlo, mhi = 2 * alo, 2 * ahi
    return mlo + e * _LN2[0], mhi + e * _LN2[1]


def ln_ln_interval(n: int) -> tuple[int, int]:
    """Certified bracket of ln(ln(n)) at LN_BITS for n >= 3."""
    lo, hi = ln_interval(n)
    llo = ln_interval(lo, 1 << LN_BITS)[0]
    lhi = ln_interval(hi, 1 << LN_BITS)[1]
    return llo, lhi


# -- the ledger -------------------------------------------------------------------

FRAC_BITS = 64       # fixed-point precision of the ledger accumulators
CSV_DECIMALS = 12    # decimals of A_n and B_n in the ledger CSV


@dataclass
class AlphaRow:
    n: int
    j: int                      # j_n = #{i < n : d_i = 2}
    A: tuple[int, int]          # interval in ulps at FRAC_BITS
    B: tuple[int, int]
    residual_bound: int         # ulps; certified |identity residual| bound
    identity_ok: bool
    sandwich_ok: bool           # 2n - 1 <= p_n and 2 p_n <= (n+1)^2
    q92_holds: bool | None      # q < 2 j_{n+1}^2 (defined n >= 5)
    dusart_holds: bool | None   # n (ln n + ln ln n - 1) < 2 j_n^2 (n >= 3)
    abstract_holds: bool | None  # p_n < 2 j_n^2 (n >= 6)


class LedgerError(ValueError):
    pass


def alpha_ledger(store: PrimeStore, n_hi: int):
    """Yield AlphaRow for n = 1 .. n_hi.

    The identity residual check is self-validating for the accumulator error
    tracking: the identity is algebraically exact, so the certified interval
    for sqrt(2 p_{n+1}) must always intersect the accumulator interval.
    """
    fb = FRAC_BITS
    one = 1 << fb
    r2lo = isqrt(2 << (2 * fb))
    r2hi = r2lo + 1                       # sqrt(2) bracket
    half_lo, half_hi = r2lo >> 1, (r2hi >> 1) + 1  # sqrt(2)/2
    A = (0, 0)
    B = (0, 0)
    sq_lo = isqrt(2 << (2 * fb))          # sqrt(p_1 = 2) bracket
    sq_hi = sq_lo + 1
    j = 0                                 # j_n = #{i < n : d_i = 2}
    for w in windows(store, 1, n_hi):
        # sqrt(q) bracket at fb bits
        sqq_lo = isqrt(w.q << (2 * fb))
        sqq_hi = sqq_lo + 1
        dlo, dhi = sqq_lo - sq_hi, sqq_hi - sq_lo          # Delta_n
        alo, ahi = half_lo - dhi, half_hi - dlo            # alpha_n
        if alo < 0:
            raise LedgerError(f"alpha_n = sqrt(2)/2 - Delta_n not certified "
                              f"non-negative at n={w.n}")
        # sqrt(2) alpha: with both brackets non-negative the outward product
        # takes the low ends together and the high ends together
        tlo, thi = r2lo * alo >> fb, (r2hi * ahi >> fb) + 1
        if w.d == 2:
            B = (B[0] + one + tlo, B[1] + one + thi)
        else:
            A = (A[0] + one - thi, A[1] + one - tlo)
        # identity: sqrt(2 q) = 2 + 2 j_{n+1} - (B - A)
        j_next = j + (1 if w.d == 2 else 0)
        lhs_lo = isqrt(2 * w.q << (2 * fb))
        lhs_hi = lhs_lo + 1
        rhs_lo = (2 + 2 * j_next) * one - (B[1] - A[0])
        rhs_hi = (2 + 2 * j_next) * one - (B[0] - A[1])
        identity_ok = lhs_lo <= rhs_hi and rhs_lo <= lhs_hi
        residual_bound = (lhs_hi - lhs_lo) + (rhs_hi - rhs_lo)
        sandwich_ok = 2 * w.n - 1 <= w.p and 2 * w.p <= (w.n + 1) ** 2
        q92 = _q92_holds(w, j_next) if w.n >= 5 else None
        dusart = _dusart_holds(w.n, j) if w.n >= 3 else None
        abstract = w.p < 2 * j * j if w.n >= 6 else None
        # positional, in field order: keywords cost a microsecond a row
        yield AlphaRow(w.n, j, A, B, residual_bound, identity_ok, sandwich_ok,
                       q92, dusart, abstract)
        sq_lo, sq_hi = sqq_lo, sqq_hi
        j = j_next


def _q92_holds(w, j_next: int) -> bool:
    """The display-9.2 chain: the exact prefix d/2 < sqrt(q) Delta <
    sqrt(2q)/2 must hold; the question mark is sqrt(2q)/2 < j_{n+1}."""
    if not 4 * w.p * w.q < (2 * w.q - w.d) ** 2:
        raise LedgerError(f"exact prefix d/2 < sqrt(q)Delta failed at n={w.n}")
    # sqrt(q)Delta < sqrt(2q)/2  <=>  Delta < sqrt(2)/2  <=>  2(p+q)-1 < 4 sqrt(pq)
    if not (2 * (w.p + w.q) - 1) ** 2 < 16 * w.p * w.q:
        raise LedgerError(f"exact prefix sqrt(q)Delta < sqrt(2q)/2 failed at n={w.n}")
    return w.q < 2 * j_next * j_next


def _dusart_holds(n: int, j: int) -> bool:
    """n (ln n + ln ln n - 1) < 2 j_n^2, decided first by an integer filter,
    then with certified brackets.

    The filter: with L = bitlen(n), ln n < L ln 2 < 0.7 L and ln ln n <=
    ln n - 1, so the left side is below n (14 L - 20) / 10.  Whatever it
    cannot accept, every False and every LedgerError included, goes to the
    atanh brackets.
    """
    if n * (14 * n.bit_length() - 20) < 20 * j * j:
        return True
    one = 1 << LN_BITS
    lo1, hi1 = ln_interval(n)
    lo2, hi2 = ln_ln_interval(n)
    lhs_hi = n * (hi1 + hi2 - one)
    rhs = 2 * j * j * one
    if lhs_hi < rhs:
        return True
    lhs_lo = n * (lo1 + lo2 - one)
    if lhs_lo >= rhs:
        return False
    raise LedgerError(f"ln precision insufficient at n={n}")


def write_ledger_csv(rows, fh) -> None:
    """CSV per the module interface: accumulators as CSV_DECIMALS decimals,
    residual bound in ulps at FRAC_BITS, the questions as 1, 0 or blank
    (undefined).  One write per line, each ended by CRLF; no field needs
    quoting."""
    fh.write("n,j_n,A_n,B_n,identity_residual_bound,"
             "q92_holds,dusart_holds,abstract_holds\r\n")
    scale = 1 << FRAC_BITS
    tri = {None: "", False: "0", True: "1"}
    for r in rows:
        A, B = r.A, r.B
        fh.write(f"{r.n},{r.j},{(A[0] + A[1]) // 2 / scale:.{CSV_DECIMALS}f},"
                 f"{(B[0] + B[1]) // 2 / scale:.{CSV_DECIMALS}f},"
                 f"{r.residual_bound},{tri[r.q92_holds]},{tri[r.dusart_holds]},"
                 f"{tri[r.abstract_holds]}\r\n")


def same_floor_consecutive_twin_pairs(store: PrimeStore, limit: int | None = None):
    """Consecutive twin pairs (p, p') with floor(sqrt(p)) = floor(sqrt(p')),
    yielded as (p, p', N); the 31 p > 25 p' bound is the caller's claim."""
    prev = prev_N = None
    for p in store.iter_twin_lows(limit):
        N = isqrt(p)
        if N == prev_N:
            yield prev, p, N
        prev, prev_N = p, N
