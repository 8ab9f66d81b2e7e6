"""Accumulation-point scans: primes from N^2 + (2a/b) N +- c drive {sqrt(p)}
toward the rational target a/b.

Admissible N are the residue class making (2a/b) N integral; each emitted
record carries the exact prime, the fractional part mu at certified
precision, the exact deviation |mu - a/b| as a decimal, and flags for the
side, envelope and monotone-approach claims.  Every flag is decided exactly
(mu is a one-radicand value); violations are reported in the record, never
raised, since the monotone claim is only argued for the +-1 families.
The side of a/b is decided once per record and feeds the side flag, the
deviation's rounding and the monotone comparison.  Each record takes one
isqrt(p), which its mu and deviation decimals share and which the next
record's monotone comparison reuses.

accum_scan's candidates are only every step-th N (step 3 to 11 for b = 3,
5, 7, 11), N = step m, and their values A m^2 + B m + C are screened in
bulk: one bytearray over m strikes each m whose value exceeds 37 and has a
factor among the primes up to 37 (the ones is_prime_u64's gcd screen
rejects), at the roots of the quadratic mod each such prime, and
is_prime_u64 decides every m left.  Deciding the candidates of the
benchmark's eight accum scans (both signs, N_max = 2e4) took 41 ms so,
against 56 ms with one is_prime_u64 call per candidate (in process,
medians of 9, Python 3.11, 2 cores).  A full sieve over the candidates,
by every prime up to the square root of the last value, pays a root find
for each of up to 2,262 primes at N_max = 2e4; an earlier measurement
put it at 61 ms where one call per candidate took 39 ms.

The endpoint families of special_scans test every N in a range, so they
are sieved: primes.quadratic_prime_flags strikes the roots of the family's
quadratic mod each prime up to the square root of its last value, and
calls is_prime_u64 only for the few values at or below that bound.

Primality is decided below 2^64 only.  Every scan checks its range once, up
front: the polynomials increase in N, so a scan whose value at its last N
reaches 2^64 raises ScanError before it tests any value (the CLI exits 3
with the message), never a partial result.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, isqrt

from .exact import _sign_1rad
from .primes import _MR_BASES, is_prime_u64, quadratic_prime_flags
from .window import mu_order, mu_vs_rational


class RationalTarget:
    """a/b in lowest terms with 0 <= a <= b, equal and hashed by value."""

    a: int
    b: int

    def __init__(self, a: int, b: int):
        if not (b >= 1 and 0 <= a <= b):
            raise ValueError("need 0 <= a <= b, b >= 1")
        if gcd(a, b) != 1:
            raise ValueError("a/b must be in lowest terms")
        self.a = a
        self.b = b

    def __eq__(self, other):
        if type(other) is not RationalTarget:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __str__(self):
        return f"{self.a}/{self.b}"


def parse_target(text: str) -> RationalTarget:
    if "/" in text:
        a, b = text.split("/", 1)
        return RationalTarget(int(a), int(b))
    return RationalTarget(int(text), 1)


class AccumRecord:
    N: int
    p: int
    mu_digits: str
    abs_err_digits: str
    side_ok: bool
    envelope_ok: bool
    monotone_ok: bool

    def __init__(self, N: int, p: int, mu_digits: str, abs_err_digits: str,
                 side_ok: bool = True, envelope_ok: bool = True, monotone_ok: bool = True):
        self.N = N
        self.p = p
        self.mu_digits = mu_digits
        self.abs_err_digits = abs_err_digits
        self.side_ok = side_ok
        self.envelope_ok = envelope_ok
        self.monotone_ok = monotone_ok

    @property
    def ok(self) -> bool:
        return self.side_ok and self.envelope_ok and self.monotone_ok


class ScanError(ValueError):
    pass


MU_DECIMALS = 5     # decimals of {sqrt(p)} in a record, rounded
ERR_DECIMALS = 6    # decimals of |{sqrt(p)} - a/b| in a record, truncated


def mu_decimal(p: int, M: int) -> str:
    """{sqrt(p)} rounded to MU_DECIMALS digits, via exact integer sqrt; M is
    isqrt(p)."""
    digits = MU_DECIMALS
    u = isqrt(4 * p * 10 ** (2 * digits))  # floor(2 sqrt(p) 10^digits)
    rounded = (u + 1) // 2 - M * 10 ** digits
    if rounded >= 10 ** digits:  # rounds up to 1.000...
        return f"1.{'0' * digits}"
    return f"0.{rounded:0{digits}d}"


def _err_decimal(p: int, M: int, a: int, b: int, side: int) -> str:
    """|{sqrt(p)} - a/b| truncated to ERR_DECIMALS digits, where M is
    isqrt(p) and side is the sign of {sqrt(p)} - a/b (from mu_vs_rational)."""
    scale = 10 ** ERR_DECIMALS
    big = isqrt(p * (scale * b) ** 2)       # floor(sqrt(p) b scale)
    off = (M * b + a) * scale
    if side > 0:
        val = (big - off) // b
    else:
        val = (off - big - 1) // b
    val = max(val, 0)
    return f"{val // scale}.{val % scale:0{ERR_DECIMALS}d}"


def _record(N: int, p: int, M: int, a: int, b: int, side: int, prev) -> AccumRecord:
    """The record for prime p, with M = isqrt(p), scanned toward a/b from
    the given side; the monotone flag compares it with prev, the previous
    record's (p, isqrt(p)), if any.  The scan takes the one isqrt."""
    s = mu_vs_rational(p, M, a, b)
    rec = AccumRecord(N, p, mu_decimal(p, M), _err_decimal(p, M, a, b, s), s == side)
    if prev is not None and rec.side_ok:
        # both mus lie on the given side of a/b, which cancels:
        # |mu(p) - a/b| - |mu(prev_p) - a/b| = side (mu(p) - mu(prev_p))
        rec.monotone_ok = side * mu_order(p, M, *prev) < 0
    return rec


def _check_range(what: str, N: int, val: int) -> None:
    """Refuse a scan whose value val at its last N leaves is_prime_u64's
    range; the polynomials increase in N, so val bounds every value tested."""
    if val >= 1 << 64:
        raise ScanError(f"{what} at N = {N} is {val} >= 2^64; primality is "
                        "decided only below 2^64, so lower the scan's N_max")


def _screen(A: int, B: int, C: int, m_hi: int) -> bytearray:
    """Flags over m = 0 .. m_hi of f(m) = A m^2 + B m + C, with A > 0 and
    B >= 0, so f increases from m = 1 on: entry m is 0 when m = 0 or when
    f(m) > 37 has a prime factor in _MR_BASES, the values is_prime_u64's
    gcd screen rejects, and 1 otherwise.  The roots of f mod each such
    prime ell are found by trying all ell residues; the m with f(m) <= 37
    are a prefix and stay 1, for is_prime_u64 to decide."""
    flags = bytearray([1]) * (m_hi + 1)
    flags[0] = 0
    m0 = 1
    while m0 <= m_hi and A * m0 * m0 + B * m0 + C <= 37:
        m0 += 1
    for ell in _MR_BASES:
        for t in range(ell):
            if (A * t * t + B * t + C) % ell == 0:
                i = m0 + (t - m0) % ell
                if i <= m_hi:
                    flags[i::ell] = bytes((m_hi - i) // ell + 1)
    return flags


def accum_scan(r: RationalTarget, sign: str, c: int = 1,
               N_max: int = 10 ** 4) -> list[AccumRecord]:
    """Scan N^2 + (2a/b) N +- c over admissible N; one record per prime hit.

    Exact per-record checks: the prime equals the polynomial value with
    floor(sqrt(p)) = N, mu sits on the claimed side of a/b, the +-1 envelope
    holds, and |mu - a/b| strictly decreases along the emitted sequence.
    An empty result is valid output.  A scan with N_max < 1, or whose value
    at the last admissible N reaches 2^64, raises ScanError before it starts.
    """
    if sign not in ("+", "-"):
        raise ScanError("sign must be '+' or '-'")
    sgn = 1 if sign == "+" else -1
    a, b = r.a, r.b
    if not (0 < a < b):
        raise ScanError("--r needs 0 < a/b < 1; for a/b = 0 use --family h_fixed, "
                        "for a/b = 1 use --family top_family")
    if c < 1:
        raise ScanError("c must be a positive integer")
    if N_max < 1:
        raise ScanError(f"--n-max must be at least 1, not {N_max}")
    step = b // gcd(b, 2 * a)
    N_last = N_max - N_max % step
    if N_last >= step:
        _check_range(f"N^2 + (2*{a}/{b})N {sign} {c}", N_last,
                     N_last * N_last + (2 * a * N_last) // b + sgn * c)
    # with N = step m the value is A m^2 + B m + C
    A, B, C = step * step, 2 * a * step // b, sgn * c
    m_hi = N_max // step
    records: list[AccumRecord] = []
    prev = None
    for m in compress(range(m_hi + 1), _screen(A, B, C, m_hi)):
        N = step * m
        if c != 1 and N % c == 0:
            continue  # the prime-q variant requires N not divisible by q
        val = N * N + B * m + C
        if val < 2 or not is_prime_u64(val):
            continue
        M = isqrt(val)
        if M != N:
            continue  # mu would measure against a different root
        p = val
        rec = _record(N, p, M, a, b, sgn, prev)
        if c == 1:
            # lower ends times 2bp, upper ends times 2bN
            if sign == "-":
                # a/b - a/(b sqrt(p)) - 1/(2 sqrt(p)) < mu < a/b - 1/(2N)
                lo_ok = _sign_1rad(-2 * p * (b * M + a), 2 * b * p + 2 * a + b, p) > 0
                hi_ok = _sign_1rad(b - 2 * N * (b * M + a), 2 * b * N, p) < 0
            else:
                # a/b - a/(b sqrt(p)) + 1/(2 sqrt(p)) < mu < a/b + 1/(2N)
                lo_ok = _sign_1rad(-2 * p * (b * M + a), 2 * b * p + 2 * a - b, p) > 0
                hi_ok = _sign_1rad(-b - 2 * N * (b * M + a), 2 * b * N, p) < 0
            rec.envelope_ok = lo_ok and hi_ok
        records.append(rec)
        prev = p, M
    return records


def special_scans(kind: str, N_max: int = 10 ** 4, h: int = 1) -> list[AccumRecord]:
    """The endpoint families: h_fixed(h) scans N^2 + h over N >= h/2 (mu
    decreasing toward 0 at h = 1, generally h/(2N)-small); near_half_minus /
    near_half_plus scan N^2 + N -+ 1 toward 1/2; top_family scans
    N^2 + 2N - 1 (mu toward 1).  h_fixed needs h >= 1, and a scan with
    N_max < 1 or whose value at N_max reaches 2^64 raises ScanError before
    it starts.

    Each family increases in N, so one quadratic_prime_flags call over
    lo_N..N_max decides every value; the scan walks the set flags.  The
    flags take one byte per N and the sieving primes one list entry per
    prime up to about N_max, both less than the records returned.
    """
    # kind -> (first N, u, v, side, a, b): N^2 + uN + v toward a/b from side
    families = {
        "h_fixed": (max(1, (h + 1) // 2), 0, h, +1, 0, 1),
        "near_half_minus": (2, 1, -1, -1, 1, 2),
        "near_half_plus": (1, 1, 1, +1, 1, 2),
        "top_family": (1, 2, -1, -1, 1, 1),
    }
    if kind not in families:
        raise ScanError(f"unknown special scan kind {kind!r}")
    if kind == "h_fixed" and h < 1:
        raise ScanError(f"--h must be at least 1 (N^2 + h has no mu toward 0 "
                        f"otherwise), not {h}")
    if N_max < 1:
        raise ScanError(f"--n-max must be at least 1, not {N_max}")
    lo_N, u, v, side, a, b = families[kind]
    if N_max >= lo_N:
        _check_range(kind, N_max, N_max * N_max + u * N_max + v)
    records: list[AccumRecord] = []
    prev = None
    for N in compress(range(lo_N, N_max + 1), quadratic_prime_flags(u, v, lo_N, N_max)):
        p = N * N + u * N + v
        M = isqrt(p)
        records.append(_record(N, p, M, a, b, side, prev))
        prev = p, M
    return records


def write_accum_csv(records, fh) -> None:
    """N, p, mu and |mu - a/b| per record, one write per CRLF-ended line;
    no field needs quoting."""
    fh.write("N,p,mu,abs_err\r\n")
    for rec in records:
        fh.write(f"{rec.N},{rec.p},{rec.mu_digits},{rec.abs_err_digits}\r\n")
