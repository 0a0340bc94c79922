"""Exact scalar arithmetic over Z_p and Q_p for odd p.

A scalar is stored as a pair (valuation, unit) where the unit is a residue
mod p^prec coprime to p.  All arithmetic is exact integer arithmetic on
these pairs; nothing is ever floated.  The working window is prec digits
(ctx.precision for freshly parsed values).  Additions that cancel eat into
the window.  A sum that cancels through a window of at least half of
ctx.precision is the exact zero: its valuation lies outside the decidable
range, which every decision treats as zero.  A full cancellation through a
shorter window raises PrecisionLoss.

Exact zero is the distinguished scalar with valuation +infinity.
"""

import math
import operator
import re
from itertools import accumulate, repeat

from .errors import (
    DenominatorZero,
    InvalidParameters,
    ParseError,
    PrecisionLoss,
    UnsupportedPrime,
    ZeroInput,
    ZeroInverse,
)

INF = math.inf


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981  # least strong pseudoprime to them all
# Largest precision window.  PrimeContext keeps p**k for every k up to the
# precision, about precision**2 * log2(p) / 2 bits: 5 MB at 1024 digits for
# p near PRIME_BOUND.
PRECISION_BOUND = 1024


def _is_prime(n):
    """Trial division by _SMALL_PRIMES, then Miller-Rabin on them as bases,
    deterministic below PRIME_BOUND (Sorenson and Webster, 2015; OEIS
    A014233).  InvalidParameters at or above PRIME_BOUND."""
    if n >= PRIME_BOUND:
        raise InvalidParameters(f"primes must be below {PRIME_BOUND}")
    for q in _SMALL_PRIMES:
        if q * q > n:
            return n > 1
        if n % q == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre_class(u, p):
    """Square class of the unit u mod p: 0 for residues, 1 for non-residues."""
    t = pow(u % p, (p - 1) // 2, p)
    if t == 1:
        return 0
    if t == p - 1:
        return 1
    raise ZeroInput("square class of a non-unit")


def sqrt_mod_p(a, p):
    """A square root of the residue a mod p (Tonelli-Shanks), or None."""
    a %= p
    if a == 0:
        return 0
    if legendre_class(a, p) != 0:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks for p = 1 mod 4
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre_class(z, p) == 0:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def sqrt_unit(u, p, prec):
    """Square root of a square-class-0 unit mod p^prec, by Hensel lifting."""
    r = sqrt_mod_p(u % p, p)
    if r is None:
        raise InvalidParameters("unit is not a square mod p")
    k = 1
    while k < prec:
        k = min(2 * k, prec)
        mod = p**k
        r = (r - (r * r - u) * pow(2 * r, -1, mod)) % mod
    return r % p**prec


class PrimeContext:
    """Fixes the odd prime p < PRIME_BOUND and the working precision window
    of 8 to PRECISION_BOUND digits.

    rho is the smallest positive non-residue mod p and delta is the square
    class of -1, i.e. delta = (p-1)/2 mod 2.
    """

    def __init__(self, p, precision=32):
        try:
            p, precision = operator.index(p), operator.index(precision)
        except TypeError:
            raise InvalidParameters(f"p and precision are integers: {p!r}, {precision!r}") from None
        if not _is_prime(p):
            raise InvalidParameters(f"{p} is not prime")
        if p == 2:
            raise UnsupportedPrime("p = 2 is not supported")
        if precision < 8:
            raise InvalidParameters("precision must be at least 8 digits")
        if precision > PRECISION_BOUND:
            raise InvalidParameters(f"precision must be at most {PRECISION_BOUND} digits")
        self.p = p
        self.precision = precision
        self.modulus = p**precision
        # p**k for 0 <= k <= precision: the moduli of every scalar operation.
        self.p_powers = tuple(accumulate(repeat(p, precision), operator.mul, initial=1))
        self._zero = PadicScalar(self, INF, None, precision)
        self.delta = ((p - 1) // 2) % 2
        r = 2
        while legendre_class(r, p) == 0:
            r += 1
        self.rho = r

    def __eq__(self, other):
        return (
            isinstance(other, PrimeContext)
            and self.p == other.p
            and self.precision == other.precision
        )

    def __hash__(self):
        return hash((self.p, self.precision))

    def __repr__(self):
        return f"PrimeContext(p={self.p}, precision={self.precision})"

    # -- constructors -----------------------------------------------------

    def zero(self):
        return self._zero

    def one(self):
        return PadicScalar(self, 0, 1, self.precision)

    def from_int(self, n):
        """The exact scalar n: from_rational(n, 1) without inverting a denominator."""
        if n == 0:
            return self._zero
        p = self.p
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return PadicScalar(self, v, n % self.modulus, self.precision)

    def from_rational(self, num, den):
        """The exact scalar num/den; valuation may be negative."""
        if den == 0:
            raise DenominatorZero("denominator is zero")
        if num == 0:
            return self.zero()
        p = self.p
        vn = 0
        while num % p == 0:
            num //= p
            vn += 1
        vd = 0
        while den % p == 0:
            den //= p
            vd += 1
        unit = num * pow(den, -1, self.modulus) % self.modulus
        return PadicScalar(self, vn - vd, unit, self.precision)

    def guard_decidable(self, val):
        """Classification decisions must stay well inside the window."""
        if val != INF and val >= self.precision / 2:
            raise PrecisionLoss(
                f"valuation {val} too close to precision window {self.precision}"
            )


_INT_RE = re.compile(r"^[+-]?\d+$")
_FRAC_RE = re.compile(r"^([+-]?\d+)\s*/\s*([+-]?\d+)$")
_UPOW_RE = re.compile(r"^([+-]?\d+)\s*\*\s*p\s*\^\s*(\d+)$")


def parse_scalar(text, ctx):
    """Parse a scalar literal: an integer, "num/den", or "u*p^s" with s >= 0."""
    text = text.strip()
    if _INT_RE.match(text):
        return ctx.from_int(int(text))
    m = _FRAC_RE.match(text)
    if m:
        return ctx.from_rational(int(m.group(1)), int(m.group(2)))
    m = _UPOW_RE.match(text)
    if m:
        u, s = int(m.group(1)), int(m.group(2))
        if u % ctx.p == 0:
            raise ParseError(f"unit part {u} is divisible by p = {ctx.p}")
        return ctx.from_int(u * ctx.p**s)
    raise ParseError(f"bad scalar literal {text!r}")


class PadicScalar:
    """One exact p-adic number: p^val * unit with unit known mod p^prec."""

    __slots__ = ("ctx", "val", "unit", "prec")

    def __init__(self, ctx, val, unit, prec):
        self.ctx = ctx
        self.val = val
        self.unit = unit
        self.prec = prec

    # -- predicates and views ---------------------------------------------

    def is_zero(self):
        return self.val == INF

    def is_unit(self):
        return self.val == 0

    def is_integral(self):
        return self.val == INF or self.val >= 0

    def valuation(self):
        """Exact valuation (INF for the exact zero)."""
        return self.val

    def unit_mod(self, k):
        """The unit part reduced mod p^k; needs k digits of the window."""
        if self.is_zero():
            raise ZeroInput("zero scalar has no unit part")
        if k > self.prec:
            raise PrecisionLoss(f"unit requested mod p^{k}, only {self.prec} digits held")
        return self.unit % self.ctx.p_powers[k]

    def square_class(self):
        """0 if the unit part is a square mod p, else 1."""
        if self.is_zero():
            raise ZeroInput("square class of zero")
        return legendre_class(self.unit, self.ctx.p)

    def residue_mod(self, k):
        """Canonical integer representative of the value mod p^k, in [0, p^k)."""
        if self.is_zero() or self.val >= k:
            return 0
        if self.val < 0:
            raise InvalidParameters("residue of a non-integral scalar")
        return self.unit_mod(k - self.val) * self.ctx.p**self.val

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        a, b = self, other
        if a.val == INF:
            return b
        if b.val == INF:
            return a
        if a.val > b.val:
            a, b = b, a
        ctx = a.ctx
        powers = ctx.p_powers
        d = b.val - a.val
        window = d + b.prec  # min(a.prec, d + b.prec, ctx.precision), without a call
        if a.prec < window:
            window = a.prec
        if ctx.precision < window:
            window = ctx.precision
        if d < window:
            w = (a.unit + b.unit * powers[d]) % powers[window]
        else:
            w = a.unit % powers[window]
        if w == 0:
            # Cancellation through at least half the window proves the sum
            # has valuation outside the decidable range, which every legal
            # decision treats exactly like zero; canonicalize it.  Shallower
            # full cancellations are genuinely unresolvable.
            if 2 * window >= ctx.precision:
                return ctx._zero
            raise PrecisionLoss("cancellation exhausted the precision window")
        p = ctx.p
        if w % p:
            return PadicScalar(ctx, a.val, w, window)
        t = 0
        while w % p == 0:
            w //= p
            t += 1
        # w < p^window / p^t, so it is already reduced mod p^(window - t)
        return PadicScalar(ctx, a.val + t, w, window - t)

    def __neg__(self):
        if self.val == INF:
            return self
        ctx, prec = self.ctx, self.prec
        return PadicScalar(ctx, self.val, (-self.unit) % ctx.p_powers[prec], prec)

    def __sub__(self, other):
        # self + (-other), building -other here: one call fewer than __neg__
        if other.val == INF:
            return self
        ctx, prec = other.ctx, other.prec
        return self + PadicScalar(ctx, other.val, (-other.unit) % ctx.p_powers[prec], prec)

    def __mul__(self, other):
        ctx = self.ctx
        if self.val == INF or other.val == INF:
            return ctx._zero
        prec = self.prec if self.prec < other.prec else other.prec
        mod = ctx.p_powers[prec]
        return PadicScalar(ctx, self.val + other.val, self.unit * other.unit % mod, prec)

    def inv(self):
        if self.val == INF:
            raise ZeroInverse("cannot invert zero")
        ctx, prec = self.ctx, self.prec
        return PadicScalar(ctx, -self.val, pow(self.unit, -1, ctx.p_powers[prec]), prec)

    def __truediv__(self, other):
        return self * other.inv()

    def shift(self, k):
        """Multiply by p^k exactly."""
        if self.is_zero():
            return self
        return PadicScalar(self.ctx, self.val + k, self.unit, self.prec)

    def sqrt(self):
        """Exact square root; needs even valuation and square unit class."""
        if self.is_zero():
            return self
        if self.val % 2 != 0 or self.square_class() != 0:
            raise InvalidParameters("scalar is not a square in Q_p")
        return PadicScalar(
            self.ctx, self.val // 2, sqrt_unit(self.unit, self.ctx.p, self.prec), self.prec
        )

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PadicScalar):
            return NotImplemented
        ctx = self.ctx
        if ctx is not other.ctx and ctx != other.ctx:
            return NotImplemented
        if self.val == INF or other.val == INF:
            return self.val == other.val
        if self.val != other.val:
            return False
        mod = ctx.p_powers[self.prec if self.prec < other.prec else other.prec]
        return self.unit % mod == other.unit % mod

    __hash__ = None

    def key(self):
        """Hashable canonical key; only sound for full-window scalars."""
        if self.is_zero():
            return (self.ctx.p, "zero")
        if self.prec < self.ctx.precision:
            raise PrecisionLoss("key of a precision-degraded scalar")
        return (self.ctx.p, self.val, self.unit)

    # -- printing ----------------------------------------------------------

    def _symmetric_unit(self):
        mod = self.ctx.p_powers[self.prec]
        return self.unit - mod if self.unit > mod // 2 else self.unit

    def to_literal(self):
        """Literal in the input grammar, the unit as its symmetric residue
        (_symmetric_unit); re-parses to an equal scalar."""
        v = self.val
        if v == INF:
            return "0"
        ctx, u = self.ctx, self.unit
        mod = ctx.p_powers[self.prec]
        if u > mod // 2:
            u -= mod
        if v >= 0:
            return f"{u}*p^{v}"
        return f"{u}/{ctx.p ** -v}"

    def __repr__(self):
        return f"<{self.to_literal()} (p={self.ctx.p})>"


def hilbert_additive(a, b):
    """Additive Hilbert symbol [a, b] in Z/2 for nonzero a, b over Q_p, p odd.

    For a = p^alpha u, b = p^beta v:
        [a, b] = alpha*beta*delta + alpha*chi(v) + beta*chi(u)  (mod 2)
    where chi is the square class and delta the class of -1.
    """
    if a.is_zero() or b.is_zero():
        raise ZeroInput("Hilbert symbol of zero")
    ctx = a.ctx
    alpha, beta = a.val, b.val
    return (alpha * beta * ctx.delta + alpha * b.square_class() + beta * a.square_class()) % 2
