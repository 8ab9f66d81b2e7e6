"""Accumulation-point scans: primes from N^2 + (2a/b) N +- c drive {sqrt(p)}
toward the rational target a/b.

Admissible N are the residue class making (2a/b) N integral; each emitted
record carries the exact prime, the fractional part mu at certified
precision, the exact deviation |mu - a/b| as a decimal, and flags for the
side, envelope and monotone-approach claims.  Every flag is decided exactly
(mu is a one-radicand value); violations are reported in the record, never
raised, since the monotone claim is only argued for the +-1 families.
The side of a/b is decided once per record and feeds the side flag, the
deviation's rounding and the monotone comparison.

accum_scan tests each candidate N with is_prime_u64.  The endpoint
families of special_scans test every N in a range, so they are sieved
instead: primes.quadratic_prime_flags strikes the roots of the family's
quadratic mod each prime up to the square root of its last value, and
calls is_prime_u64 only for the few values at or below that bound.
accum_scan's candidates are only every step-th N (step 3 to 11 for b = 3,
5, 7, 11), while a sieve over them pays a root find for each of up to
2,262 primes at N_max = 2e4: deciding the candidates of the benchmark's
eight accum scans (both signs, N_max = 2e4) took 39 ms by Miller-Rabin
against 61 ms by such a sieve (in process, medians of 9, Python 3.11,
2 cores).

Primality is decided below 2^64 only.  Every scan checks its range once, up
front: the polynomials increase in N, so a scan whose value at its last N
reaches 2^64 raises ScanError before it tests any value (the CLI exits 3
with the message), never a partial result.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import compress
from math import gcd, isqrt

from .exact import _sign_1rad, _sign_2rad
from .primes import is_prime_u64, quadratic_prime_flags


@dataclass(frozen=True)
class RationalTarget:
    a: int
    b: int

    def __post_init__(self):
        if not (self.b >= 1 and 0 <= self.a <= self.b):
            raise ValueError("need 0 <= a <= b, b >= 1")
        if gcd(self.a, self.b) != 1:
            raise ValueError("a/b must be in lowest terms")

    def __str__(self):
        return f"{self.a}/{self.b}"


def parse_target(text: str) -> RationalTarget:
    if "/" in text:
        a, b = text.split("/", 1)
        return RationalTarget(int(a), int(b))
    return RationalTarget(int(text), 1)


@dataclass
class AccumRecord:
    N: int
    p: int
    mu_digits: str
    abs_err_digits: str
    side_ok: bool = True
    envelope_ok: bool = True
    monotone_ok: bool = True

    def row(self) -> list:
        return [self.N, self.p, self.mu_digits, self.abs_err_digits]

    @property
    def ok(self) -> bool:
        return self.side_ok and self.envelope_ok and self.monotone_ok


class ScanError(ValueError):
    pass


def mu_decimal(p: int, digits: int = 5) -> str:
    """{sqrt(p)} rounded to the given digits, via exact integer sqrt."""
    M = isqrt(p)
    u = isqrt(4 * p * 10 ** (2 * digits))  # floor(2 sqrt(p) 10^digits)
    rounded = (u + 1) // 2 - M * 10 ** digits
    if rounded >= 10 ** digits:  # rounds up to 1.000...
        return f"1.{'0' * digits}"
    return f"0.{rounded:0{digits}d}"


def _mu_side(p: int, a: int, b: int) -> int:
    """Exact sign of {sqrt(p)} - a/b, from b*sqrt(p) - (b*floor(sqrt(p)) + a)."""
    return _sign_1rad(-(b * isqrt(p) + a), b, p)


def _abs_err_cmp(p1: int, p2: int, side: int) -> int:
    """sign(|mu(p1) - r| - |mu(p2) - r|) when both mus sit on the same given
    side of r (side = -1: mu < r, +1: mu > r); r cancels."""
    m1, m2 = isqrt(p1), isqrt(p2)
    return _sign_2rad(side * (m2 - m1), side, p1, -side, p2)


def _err_decimal(p: int, a: int, b: int, side: int, digits: int = 6) -> str:
    """|{sqrt(p)} - a/b| truncated to the given digits, where side is the
    sign of {sqrt(p)} - a/b (from _mu_side)."""
    M = isqrt(p)
    scale = 10 ** digits
    big = isqrt(p * (scale * b) ** 2)       # floor(sqrt(p) b scale)
    off = (M * b + a) * scale
    if side > 0:
        val = (big - off) // b
    else:
        val = (off - big - 1) // b
    val = max(val, 0)
    return f"{val // scale}.{val % scale:0{digits}d}"


def _record(N: int, p: int, a: int, b: int, side: int, prev_p) -> AccumRecord:
    """The record for prime p scanned toward a/b from the given side; the
    monotone flag compares it with the previous record's prime, if any."""
    s = _mu_side(p, a, b)
    rec = AccumRecord(N=N, p=p, mu_digits=mu_decimal(p),
                      abs_err_digits=_err_decimal(p, a, b, s), side_ok=s == side)
    if prev_p is not None and rec.side_ok:
        rec.monotone_ok = _abs_err_cmp(p, prev_p, side) < 0
    return rec


def _check_range(what: str, N: int, val: int) -> None:
    """Refuse a scan whose value val at its last N leaves is_prime_u64's
    range; the polynomials increase in N, so val bounds every value tested."""
    if val >= 1 << 64:
        raise ScanError(f"{what} at N = {N} is {val} >= 2^64; primality is "
                        "decided only below 2^64, so lower the scan's N_max")


def accum_scan(r: RationalTarget, sign: str, c: int = 1,
               N_max: int = 10 ** 4) -> list[AccumRecord]:
    """Scan N^2 + (2a/b) N +- c over admissible N; one record per prime hit.

    Exact per-record checks: the prime equals the polynomial value with
    floor(sqrt(p)) = N, mu sits on the claimed side of a/b, the +-1 envelope
    holds, and |mu - a/b| strictly decreases along the emitted sequence.
    An empty result is valid output.  A scan whose value at the last
    admissible N reaches 2^64 raises ScanError before it starts.
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
    step = b // gcd(b, 2 * a)
    N_last = N_max - N_max % step
    if N_last >= step:
        _check_range(f"N^2 + (2*{a}/{b})N {sign} {c}", N_last,
                     N_last * N_last + (2 * a * N_last) // b + sgn * c)
    records: list[AccumRecord] = []
    prev_p = None
    for N in range(step, N_max + 1, step):
        if c != 1 and N % c == 0:
            continue  # the prime-q variant requires N not divisible by q
        val = N * N + (2 * a * N) // b + sgn * c
        if val < 2 or not is_prime_u64(val):
            continue
        if isqrt(val) != N:
            continue  # mu would measure against a different root
        p = val
        M = N
        rec = _record(N, p, a, b, sgn, prev_p)
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
        prev_p = p
    return records


def special_scans(kind: str, N_max: int = 10 ** 4, h: int = 1) -> list[AccumRecord]:
    """The endpoint families: h_fixed(h) scans N^2 + h over N >= h/2 (mu
    decreasing toward 0 at h = 1, generally h/(2N)-small); near_half_minus /
    near_half_plus scan N^2 + N -+ 1 toward 1/2; top_family scans
    N^2 + 2N - 1 (mu toward 1).  h_fixed needs h >= 1, and a scan whose
    value at N_max reaches 2^64 raises ScanError before it starts.

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
    lo_N, u, v, side, a, b = families[kind]
    if N_max >= lo_N:
        _check_range(kind, N_max, N_max * N_max + u * N_max + v)
    records: list[AccumRecord] = []
    prev_p = None
    for N in compress(range(lo_N, N_max + 1), quadratic_prime_flags(u, v, lo_N, N_max)):
        p = N * N + u * N + v
        records.append(_record(N, p, a, b, side, prev_p))
        prev_p = p
    return records


def write_accum_csv(records, fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(["N", "p", "mu", "abs_err"])
    for rec in records:
        writer.writerow(rec.row())
