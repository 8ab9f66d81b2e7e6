"""Independent oracles used to freeze expected values.

These stay deliberately primitive: trial division, a plain odd-only sieve,
digit-by-digit square roots, a Meissel-style prime count,
strong-probable-prime tests on given bases (and a 64-bit primality test
that runs all twelve bases up to 37 whatever the size of x), isqrt brackets
for radical signs over any number of radicands, brute-force pair
enumeration, a reference model of RootExpr over square-free radicands
(`RefRoot`, which divides, multiplies and inverts values as the
two-radicand integer kernel does not) and the Fraction partial sums of the
mu series.  None of them share code paths with the package, except
`mr_quadratic_flags`, which tests each value of a quadratic with
is_prime_u64 (the path the accumulation families took before they were
sieved), `mr_accum_hits`, which tests each admissible N of an accum scan
with is_prime_u64 (the path accum_scan took before it screened its
candidates), `exact_sign`, which
hands a RootExpr's slots to the kernel's sign procedure, `root_terms`,
which reads them, `build_root` and `cleared_root`, shorthands for building
RootExprs, and `twin_pairs`, a filter over the window stream.
`random_chain` draws integer windows that need not be prime, for the
tests that tell claims needing primes from identities of integers.
`reads` tells from a checker's compiled code whether it reads a window's
neighbour.
`excel_csv_lines` writes rows with the standard library's csv.writer, the
reference for the package's CSV writers.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

from gapcheck.exact import RootExpr, _sign_2rad
from gapcheck.primes import is_prime_u64
from gapcheck.window import windows

LADDER = (64, 128, 256)   # fixed-point precisions `floor_root_general` tries


def trial_division_primes(limit: int) -> list[int]:
    out = []
    for n in range(2, limit + 1):
        d = 2
        prime = True
        while d * d <= n:
            if n % d == 0:
                prime = False
                break
            d += 1
        if prime:
            out.append(n)
    return out


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def strong_probable_prime(x: int, bases) -> bool:
    """Is odd x > 2 a strong probable prime to every one of the given bases?"""
    d, r = x - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        y = pow(a, d, x)
        if y == 1 or y == x - 1:
            continue
        for _ in range(r - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


ALL_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_all_bases(x: int) -> bool:
    """Primality for 0 <= x < 2^64: trial division by the twelve primes up to
    37, then Miller-Rabin on all twelve of them, whatever the size of x."""
    if x < 2:
        return False
    for p in ALL_BASES:
        if x == p:
            return True
        if x % p == 0:
            return False
    return strong_probable_prime(x, ALL_BASES)


def mr_quadratic_flags(u: int, v: int, lo: int, hi: int) -> bytearray:
    """Primality flags of x^2 + u x + v for lo <= x <= hi, one is_prime_u64
    call per value (a value below 2 is not prime)."""
    return bytearray(1 if f >= 2 and is_prime_u64(f) else 0
                     for f in (x * x + u * x + v for x in range(lo, hi + 1)))


def mr_accum_hits(a: int, b: int, sgn: int, c: int, N_max: int) -> list[tuple[int, int]]:
    """(N, p) for each admissible N <= N_max (a multiple of the least step
    making 2aN/b integral, and for c != 1 not a multiple of c) whose value
    p = N^2 + 2aN/b + sgn c is prime with isqrt(p) = N: one is_prime_u64
    call per admissible N with p >= 2."""
    step = b // gcd(b, 2 * a)
    out = []
    for N in range(step, N_max + 1, step):
        if c != 1 and N % c == 0:
            continue
        p = N * N + 2 * a * N // b + sgn * c
        if p >= 2 and is_prime_u64(p) and isqrt(p) == N:
            out.append((N, p))
    return out


def excel_csv_lines(rows) -> list[str]:
    """The lines, ends kept, that csv.writer writes for rows: the excel
    dialect, fields joined by commas, each line ended by CRLF, quoted only
    where a field needs it."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().splitlines(keepends=True)


def odd_only_sieve(limit: int) -> bytearray:
    """Flags of the odd numbers 3, 5, ..., up to limit: byte i is 1 exactly
    when 3 + 2i is prime.  Plain Eratosthenes over one array, every odd p up
    to sqrt(limit) struck from p^2: no wheel, no segments."""
    n = max(0, (limit - 1) // 2)
    flags = bytearray([1]) * n
    for p in range(3, isqrt(limit) + 1, 2):
        if flags[(p - 3) // 2]:
            i = (p * p - 3) // 2
            flags[i::p] = bytes(len(range(i, n, p)))
    return flags


def pi_trial(x: int) -> int:
    return len(trial_division_primes(x))


def longhand_sqrt_digits(n: int, digits: int) -> str:
    """Decimal digits of sqrt(n) by the classical digit-by-digit method."""
    int_digits = []
    num = str(n)
    if len(num) % 2:
        num = "0" + num
    pairs = [num[i:i + 2] for i in range(0, len(num), 2)]
    remainder = 0
    root = 0
    for pair in pairs:
        remainder = remainder * 100 + int(pair)
        d = 9
        while (20 * root + d) * d > remainder:
            d -= 1
        remainder -= (20 * root + d) * d
        root = root * 10 + d
        int_digits.append(str(d))
    frac_digits = []
    for _ in range(digits):
        remainder *= 100
        d = 9
        while (20 * root + d) * d > remainder:
            d -= 1
        remainder -= (20 * root + d) * d
        root = root * 10 + d
        frac_digits.append(str(d))
    return "".join(int_digits).lstrip("0") + "." + "".join(frac_digits)


def meissel_pi(x: int) -> int:
    """Prime count by the Lucy-Hedgehog sieve over distinct floor values;
    independent of the package's segmented sieve."""
    if x < 2:
        return 0
    r = isqrt(x)
    vals = [x // i for i in range(1, r + 1)]
    vals += list(range(vals[-1] - 1, 0, -1))
    small = {}
    large = {}
    s = {v: v - 1 for v in vals}
    for p in range(2, r + 1):
        if s[p] == s[p - 1]:
            continue  # p not prime
        sp = s[p - 1]
        p2 = p * p
        for v in vals:
            if v < p2:
                break
            s[v] -= s[v // p] - sp
    return s[x]


def radical_sign(c: int, *bm: int) -> int:
    """Sign of c + b1*sqrt(m1) + ... + bk*sqrt(mk) for ints, every m >= 0,
    given as radical_sign(c, b1, m1, ..., bk, mk), from isqrt brackets of the
    value times 2^j at doubling j.

    The value is an algebraic integer of degree at most 2^k whose conjugates
    are at most H in size, so a nonzero value is at least H^-(2^k - 1) in
    size (its norm is a nonzero integer).  A bracket of width at most
    k 2^-j < H^-(2^k - 1) that still holds 0 therefore proves the value is 0.
    """
    pairs = list(zip(bm[0::2], bm[1::2]))
    k = max(2, len(pairs))
    H = abs(c) + sum(abs(b) * (isqrt(m) + 1) for b, m in pairs)
    j = 32
    while True:
        lo = hi = c << j
        for b, m in pairs:
            x = b * b * m << (2 * j)       # (b sqrt(m) 2^j)^2
            r = isqrt(x)
            r_up = r + (r * r != x)
            lo, hi = (lo + r, hi + r_up) if b >= 0 else (lo - r_up, hi - r)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if 1 << j > k * H ** (2 ** k - 1):
            return 0
        j *= 2


def brute_twin_count_below_index(primes: list[int], n: int) -> int:
    """#{i < n : p_{i+1} - p_i = 2} with 1-based prime indexing."""
    count = 0
    for i in range(1, n):
        if primes[i] - primes[i - 1] == 2:
            count += 1
    return count


def twin_pairs(store, n_lo: int, n_hi: int) -> list[int]:
    """Sorted indices m in [n_lo, n_hi] with d_m = 2."""
    return [w.n for w in windows(store, n_lo, n_hi) if w.d == 2]


def exact_sign(e) -> int:
    """Exact sign of a RootExpr through the kernel's sign procedure."""
    return _sign_2rad(e.num, e.b1, e.m1, e.b2, e.m2)


def root_terms(e) -> tuple:
    """The live slots of a RootExpr as ((m, b), ...), sorted by radicand."""
    return tuple(sorted((m, b) for m, b in ((e.m1, e.b1), (e.m2, e.b2)) if b))


@dataclass(frozen=True)
class FixedApprox:
    """mantissa * 2^-frac_bits with |true - represented| <= error_ulps ulps."""

    mantissa: int
    frac_bits: int
    error_ulps: int


def sqrt_fixed(m: int, frac_bits: int) -> FixedApprox:
    """Certified fixed-point sqrt: mantissa = isqrt(m * 4^frac_bits)."""
    if m < 0:
        raise ValueError("sqrt of negative integer")
    mant = isqrt(m << (2 * frac_bits))
    err = 0 if mant * mant == m << (2 * frac_bits) else 1
    return FixedApprox(mant, frac_bits, err)


def eval_fixed(e, frac_bits: int) -> FixedApprox:
    """Evaluate a RootExpr to a certified FixedApprox at the given precision.

    num contributes num 2^fb exactly; each b * sqrt(m) with sqrt(m) at
    x +- err ulps contributes x b with |b| err ulps.
    """
    mant, err = e.num << frac_bits, 0
    for m, b in root_terms(e):
        s = sqrt_fixed(m, frac_bits)
        mant += s.mantissa * b
        err += abs(b) * s.error_ulps
    return FixedApprox(mant, frac_bits, err)


def floor_root_general(e) -> int:
    """Floor of a RootExpr through the fixed-point ladder of `eval_fixed`,
    with no isqrt term floors and no kernel sign.  Cross-checks
    `exact.floor_root`.  Once the ladder is exhausted, `radical_sign`
    settles the floor next to the last bracket.
    """
    if not root_terms(e):
        return e.num
    for fb in LADDER:
        fa = eval_fixed(e, fb)
        lo, hi = fa.mantissa - fa.error_ulps, fa.mantissa + fa.error_ulps
        fl, fh = lo >> fb, hi >> fb
        if fl == fh:
            return fl
    f = lo >> fb
    while root_sign(e - f) < 0:
        f -= 1
    while root_sign(e - (f + 1)) >= 0:
        f += 1
    return f


def build_root(const: int, parts: dict) -> RootExpr:
    """const + sum coef*sqrt(m) over parts = {m: coef}, through the kernel's
    own constructors, which take ints only and keep each radicand as given:
    square factors, perfect squares and dependent radicands stay.  Like the
    kernel, it raises KernelError on a third radicand."""
    e = RootExpr.sqrt(1, 0) + const
    for m, coef in parts.items():
        e = e + RootExpr.sqrt(m, coef)
    return e


def cleared_root(const, parts: dict) -> tuple[RootExpr, int]:
    """(den x, den) for x = const + sum coef*sqrt(m) over parts = {m: coef},
    where const and the coefs are ints or Fractions and den > 0 is the lcm
    of their denominators: x with its denominators cleared, as a caller of
    the kernel clears them."""
    const = Fraction(const)
    coefs = {m: Fraction(c) for m, c in parts.items()}
    den = lcm(const.denominator, *(c.denominator for c in coefs.values()))
    return build_root(int(const * den), {m: int(c * den) for m, c in coefs.items()}), den


def root_sign(*values) -> int:
    """Exact sign of a sum of RootExprs, over however many radicands they
    hold together, by `radical_sign`."""
    args = [sum(e.num for e in values)]
    for e in values:
        for m, b in root_terms(e):
            args += [b, m]
    return radical_sign(*args)


def squarefree_split(m: int) -> tuple[int, int]:
    """m = outer^2 * core with core square-free, by trial division up to the
    cube root of what is left: the rest then has at most two prime factors,
    so it is square-free unless it is a perfect square."""
    outer, core, d = 1, 1, 2
    while d * d * d <= m:
        while m % (d * d) == 0:
            m //= d * d
            outer *= d
        if m % d == 0:
            m //= d
            core *= d
        d += 1
    r = isqrt(m)
    if m > 1 and r * r == m:
        return outer * r, core
    return outer, core * m


class RefRoot:
    """Reference model of RootExpr: (num + sum c*sqrt(m) over terms {m: c}) /
    den with int parts, every radicand square-free by trial division
    (`squarefree_split`), den > 0 and gcd(den, num, c...) = 1, so equal
    values have equal parts.  It is built from ints and Fractions (`const`
    and `coefs` read it back as Fractions), and ints and Fractions mix with
    it in +, -, * and /.  It keeps what the kernel does not: a denominator,
    the product of two values, the inverse of one over at most two
    radicands, and signs and floors over any number of radicands, by
    `radical_sign`."""

    __slots__ = ("num", "terms", "den")

    def __init__(self, const=0, coefs=None):
        const = Fraction(const)
        coefs = {m: Fraction(c) for m, c in (coefs or {}).items() if c}
        # over the lcm of reduced denominators the gcd is already 1
        den = lcm(const.denominator, *(c.denominator for c in coefs.values()))
        self.num = const.numerator * (den // const.denominator)
        self.terms = {m: c.numerator * (den // c.denominator) for m, c in coefs.items()}
        self.den = den

    @classmethod
    def sqrt(cls, m: int, coef=1) -> "RefRoot":
        outer, core = squarefree_split(m)
        if core == 1:
            return cls(Fraction(coef) * outer)
        return cls(0, {core: Fraction(coef) * outer})

    @property
    def const(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def coefs(self) -> dict:
        return {m: Fraction(c, self.den) for m, c in self.terms.items()}

    def _plus(self, other, sign: int) -> "RefRoot":
        """self + sign * other for sign = 1 or -1."""
        other = _ref(other)
        f, g = other.den, sign * self.den
        terms = {m: c * f for m, c in self.terms.items()}
        for m, c in other.terms.items():
            c = c * g + terms.get(m, 0)
            if c:
                terms[m] = c
            else:
                del terms[m]
        return _ref_parts(self.num * f + other.num * g, terms, f * self.den)

    def __add__(self, other) -> "RefRoot":
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "RefRoot":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "RefRoot":
        return _ref(other)._plus(self, -1)

    def __neg__(self) -> "RefRoot":
        return self.scale(-1)

    def scale(self, k) -> "RefRoot":
        if isinstance(k, int):
            a, d = k, 1
        else:
            k = Fraction(k)
            a, d = k.numerator, k.denominator
        if not a:
            return _ref_parts(0, {}, 1)
        return _ref_parts(self.num * a, {m: c * a for m, c in self.terms.items()}, self.den * d)

    def __mul__(self, other) -> "RefRoot":
        if not isinstance(other, RefRoot):
            return self.scale(other)
        a, b = self.num, other.num
        const = a * b
        acc = {m: c * b for m, c in self.terms.items()} if b else {}
        if a:
            for m, c in other.terms.items():
                acc[m] = acc.get(m, 0) + c * a
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                # sqrt(m1) sqrt(m2) = g sqrt((m1/g) (m2/g)) for g = gcd(m1, m2);
                # the keys are square-free, so the new radicand is too
                g = gcd(m1, m2)
                core, c = (m1 // g) * (m2 // g), c1 * c2 * g
                if core == 1:
                    const += c
                else:
                    acc[core] = acc.get(core, 0) + c
        return _ref_parts(const, {m: c for m, c in acc.items() if c}, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RefRoot":
        if isinstance(other, RefRoot):
            return self * other.inverse()
        return self.scale(1 / Fraction(other))

    def conjugate(self, m: int) -> "RefRoot":
        """The same value with the sign of sqrt(m) flipped."""
        return _ref_parts(self.num, {r: -c if r == m else c for r, c in self.terms.items()},
                          self.den)

    def inverse(self) -> "RefRoot":
        """1/x for x over at most two radicands, by conjugates: with m the
        largest radicand, x = A + c sqrt(m) and A free of sqrt(m), 1/x is
        (A - c sqrt(m)) / (A^2 - c^2 m), and A^2 - c^2 m has one radicand
        fewer."""
        if len(self.terms) > 2:
            raise ValueError("inverse of more than 2 radicands")
        if not self.terms:
            if not self.num:
                raise ZeroDivisionError("inverse of zero")
            return _ref_parts(self.den, {}, self.num)
        conj = self.conjugate(max(self.terms))
        return conj * (self * conj).inverse()

    def __eq__(self, other) -> bool:
        other = _ref(other)
        return (self.num, self.den, self.terms) == (other.num, other.den, other.terms)

    def sign(self) -> int:
        """Exact sign, by `radical_sign` on num and the terms, as den > 0."""
        args = [self.num]
        for m, c in sorted(self.terms.items()):
            args += [c, m]
        return radical_sign(*args)

    def floor(self) -> int:
        """Exact floor: an isqrt estimate, then signs."""
        f = self.num
        for m, c in self.terms.items():
            r = isqrt(c * c * m)
            f += r if c > 0 else -r
        f = f // self.den - 1
        while (self - f).sign() < 0:
            f -= 1
        while (self - (f + 1)).sign() >= 0:
            f += 1
        return f

    def frac(self) -> tuple[int, "RefRoot"]:
        """(floor, fractional part)."""
        f = self.floor()
        return f, self - f

    def to_root(self) -> RootExpr:
        """The kernel's RootExpr of this value, built from its parts as they
        are; a value with a denominator has none, so it raises ValueError."""
        if self.den != 1:
            raise ValueError(f"{self.const} + ... is not an integer value")
        return build_root(self.num, self.terms)

    def matches(self, e) -> bool:
        """The RootExpr e has this value: den e less this value times den,
        its terms merged here by radicand, has `radical_sign` 0."""
        acc = dict(self.terms)
        for m, b in root_terms(e):
            acc[m] = acc.get(m, 0) - b * self.den
        args = [self.num - e.num * self.den]
        for m, c in sorted(acc.items()):
            if c:
                args += [c, m]
        return radical_sign(*args) == 0


def _ref_parts(num: int, terms: dict, den: int) -> RefRoot:
    """RefRoot of (num + sum c*sqrt(m) over terms) / den for nonzero c and
    den != 0, divided through by gcd(den, num, c...) and signed so den > 0."""
    g = gcd(den, num, *terms.values())
    if den < 0:
        g = -g
    r = object.__new__(RefRoot)
    if g == 1:
        r.num, r.terms, r.den = num, terms, den
    else:
        r.num, r.den = num // g, den // g
        r.terms = {m: c // g for m, c in terms.items()}
    return r


def _ref(x) -> RefRoot:
    """x as a RefRoot: a RefRoot as it is, an int or a Fraction as a constant."""
    if isinstance(x, RefRoot):
        return x
    return _ref_parts(x, {}, 1) if isinstance(x, int) else RefRoot(x)


def mu_series_brackets_fraction(h: int, N: int):
    """Fraction (lo, hi) for K = 1..8: the order-K partial sum of
    N (sqrt(1 + x) - 1) at x = h/N^2, minus and plus its remainder bound
    N |binom(1/2, K+1)| x^(K+1)."""
    binom_half = [Fraction(1, 2)]
    for k in range(1, 9):
        binom_half.append(binom_half[-1] * Fraction(2 * k - 1, 2 * k + 2))
    x = Fraction(h, N * N)
    s = Fraction(0)
    for k in range(1, 9):
        s += (-1) ** (k + 1) * binom_half[k - 1] * x ** k
        bound = binom_half[k] * x ** (k + 1) * N
        yield s * N - bound, s * N + bound


# p ranges of the random integer windows: desk-sized, the sieved range and
# past every sieve the tests build
RANDOM_RANGES = ((5, 2000), (10 ** 4, 10 ** 7), (10 ** 11, 10 ** 12))


def random_chain(rng, lo: int, hi: int, length: int) -> list[int]:
    """length + 1 increasing non-square integers, the first in [lo, hi), each
    consecutive pair p < q a window with isqrt(q) <= isqrt(p) + 1.  Each step
    q - p is drawn up to 2, up to 32 or up to the last such q, a third of
    the steps each; primality is not asked."""
    chain = []
    while not chain:
        p = rng.randrange(lo, hi)
        if isqrt(p) ** 2 != p:
            chain.append(p)
    while len(chain) <= length:
        p = chain[-1]
        top = (isqrt(p) + 2) ** 2 - 1 - p
        q = p + rng.randint(1, min(rng.choice((2, 32, top)), top))
        if isqrt(q) ** 2 != q:
            chain.append(q)
    return chain


def reads(spec, name: str) -> bool:
    """spec's evaluate or domain reads the attribute name of its triple, as
    "prev" for tri.prev or "nxt" for tri.nxt: the name is among the
    attribute and global names of their compiled code."""
    return any(name in fn.__code__.co_names
               for fn in (spec.evaluate, spec.domain) if fn is not None)
