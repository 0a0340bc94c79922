"""Scalar arithmetic: exactness against integer oracles, precision policy."""

import math
import random
import time

import pytest

from padiclie.errors import InvalidParameters, PrecisionLoss, UnsupportedPrime
from padiclie.padic_core import (
    INF,
    PRECISION_BOUND,
    PRIME_BOUND,
    PadicScalar,
    PrimeContext,
    _is_prime,
    hilbert_additive,
    legendre_class,
    parse_scalar,
)

from oracles import (
    inverse_mod,
    least_nonresidue,
    legendre_symbol,
    parent_add,
    parent_to_literal,
    trial_division_is_prime,
)


def test_context_validation():
    with pytest.raises(UnsupportedPrime):
        PrimeContext(2)
    with pytest.raises(InvalidParameters):
        PrimeContext(9)
    with pytest.raises(InvalidParameters):
        PrimeContext(5, precision=4)


def test_context_takes_integer_p_and_precision():
    """p and precision are read through operator.index: anything that is
    not an integer is refused with InvalidParameters, not a TypeError."""
    for args in ((3.0,), (7.5,), ("5",), (5, 16.0), (5, "16"), (None,)):
        with pytest.raises(InvalidParameters, match="integers"):
            PrimeContext(*args)
    assert PrimeContext(True + 4, precision=False + 16) == PrimeContext(5, 16)


def test_primality_matches_trial_division():
    assert all(_is_prime(n) == trial_division_is_prime(n) for n in range(-3, 10**5))


def test_primality_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the bases 2 .. 37
    assert not _is_prime(3215031751)
    assert not _is_prime(318665857834031151167461)
    assert _is_prime(10**14 + 31)


def test_huge_prime_context_is_fast_and_bounded():
    start = time.perf_counter()
    ctx = PrimeContext(2**61 - 1)
    assert time.perf_counter() - start < 1.0
    assert ctx.p == 2**61 - 1
    with pytest.raises(InvalidParameters, match="below"):
        PrimeContext(PRIME_BOUND + 2)


def test_precision_above_the_bound_is_refused():
    assert PrimeContext(3, PRECISION_BOUND).precision == PRECISION_BOUND
    with pytest.raises(InvalidParameters, match=f"at most {PRECISION_BOUND}"):
        PrimeContext(3, PRECISION_BOUND + 1)


def test_rho_and_delta():
    # smallest quadratic non-residues, pinned by the Euler-criterion oracle
    assert PrimeContext(3).rho == least_nonresidue(3) == 2
    assert PrimeContext(5).rho == least_nonresidue(5) == 2
    assert PrimeContext(7).rho == least_nonresidue(7) == 3
    assert PrimeContext(11).rho == least_nonresidue(11) == 2
    # delta = (p-1)/2 mod 2 detects p mod 4
    assert PrimeContext(5).delta == 0
    assert PrimeContext(7).delta == 1


def test_legendre_class_matches_oracle():
    for p in (3, 5, 7, 11, 13):
        for u in range(1, p):
            expected = 0 if legendre_symbol(u, p) == 1 else 1
            assert legendre_class(u, p) == expected


def test_inverse_of_two_frozen():
    """inv(2) at p = 3 is the unit (3^N + 1)/2, pinned via extended Euclid."""
    ctx = PrimeContext(3, precision=32)
    inv2 = ctx.from_int(2).inv()
    assert inv2.valuation() == 0
    expected = inverse_mod(2, 3**32)
    assert expected == (3**32 + 1) // 2
    assert inv2.unit_mod(32) == expected


def test_literal_round_trip():
    ctx = PrimeContext(5)
    for text in ("0", "7", "-3", "2/7", "4*p^3", "13*p^0"):
        x = parse_scalar(text, ctx)
        y = parse_scalar(x.to_literal(), ctx)
        assert x == y
    assert parse_scalar("0", ctx).is_zero()
    assert parse_scalar("25", ctx).valuation() == 2
    assert parse_scalar("1/5", ctx).valuation() == -1


def test_add_exact_cancellation_is_zero():
    ctx = PrimeContext(3)
    a = ctx.from_int(7)
    assert (a - a).is_zero()
    assert (a + (-a)).is_zero()
    z = ctx.zero()
    assert (z + z).is_zero()
    assert (a + z) == a


def test_add_partial_cancellation():
    ctx = PrimeContext(5)
    a = ctx.from_int(26)  # 1 + 5^2
    b = ctx.from_int(-1)
    c = a + b
    assert c.valuation() == 2
    assert c.unit_mod(1) == 1


def test_precision_loss_on_degraded_cancellation():
    """Cancelling scalars known to fewer than N/2 digits is indecisive."""
    ctx = PrimeContext(3, precision=32)
    a = PadicScalar(ctx, 0, 1, 10)
    b = PadicScalar(ctx, 0, 1, 10)
    with pytest.raises(PrecisionLoss):
        a - b
    # but at window >= N/2 the guard proves the value is zero
    c = PadicScalar(ctx, 0, 1, 16)
    d = PadicScalar(ctx, 0, 1, 16)
    assert (c - d).is_zero()


def _seeded_scalar(rng, ctx):
    """The exact zero, or p^v u with v in [-4, 6] and a window of 1 to
    ctx.precision digits: shrunk windows, as sums that cancelled leave them."""
    if rng.random() < 0.1:
        return ctx.zero()
    prec = rng.choice((ctx.precision, rng.randrange(1, ctx.precision + 1)))
    mod = ctx.p**prec
    unit = rng.randrange(1, mod)
    while unit % ctx.p == 0:
        unit = rng.randrange(1, mod)
    return PadicScalar(ctx, rng.randrange(-4, 7), unit, prec)


def _difference(f, x, y):
    try:
        z = f(x, y)
    except PrecisionLoss as error:
        return str(error)
    return z.val, z.unit, z.prec


def test_sub_equals_adding_the_negation():
    """x - y builds -y itself; it must give x + (-y) in val, unit and prec,
    and the same PrecisionLoss.  Half the pairs share their low digits, so
    the difference cancels, fully when the two are equal."""
    rng = random.Random(19)
    outcomes = set()
    for _ in range(4000):
        ctx = PrimeContext(rng.choice((3, 5, 7, 101)), rng.choice((8, 16, 32)))
        x = _seeded_scalar(rng, ctx)
        y = _seeded_scalar(rng, ctx)
        if rng.random() < 0.5 and not x.is_zero():
            if rng.random() < 0.5:
                y = PadicScalar(ctx, x.val, x.unit, rng.randrange(1, ctx.precision + 1))
            else:
                y = x + PadicScalar(ctx, x.val + rng.randrange(1, 9), 1, ctx.precision)
        sub = _difference(lambda a, b: a - b, x, y)
        assert sub == _difference(lambda a, b: a + (-b), x, y)
        outcomes.add("raised" if isinstance(sub, str) else "zero" if sub[0] == INF else "value")
    assert outcomes == {"raised", "zero", "value"}


def test_guard_decidable():
    ctx = PrimeContext(3, precision=32)
    ctx.guard_decidable(15)
    with pytest.raises(PrecisionLoss):
        ctx.guard_decidable(16)


def test_arithmetic_against_integers():
    rng = random.Random(0)
    for p in (3, 5, 7):
        ctx = PrimeContext(p)
        m = p**ctx.precision
        for _ in range(200):
            a = rng.randrange(-(p**6), p**6)
            b = rng.randrange(-(p**6), p**6)
            xa, xb = ctx.from_int(a), ctx.from_int(b)
            assert (xa + xb) == ctx.from_int(a + b)
            assert (xa - xb) == ctx.from_int(a - b)
            assert (xa * xb) == ctx.from_int(a * b)
            if b % p and b:
                q = xa / xb
                assert q * xb == xa
                assert (q.unit_mod(6) * (b % p**6) - a) % p**6 == 0 or a % p == 0


def test_division_and_shift():
    ctx = PrimeContext(7)
    x = ctx.from_int(2 * 7**3)
    assert x.valuation() == 3
    assert x.shift(-3) == ctx.from_int(2)
    assert (x / ctx.from_int(7)).valuation() == 2
    y = ctx.from_rational(3, 49)
    assert y.valuation() == -2
    assert (y * ctx.from_int(49)) == ctx.from_int(3)


def test_square_class_and_sqrt():
    rng = random.Random(1)
    for p in (3, 5, 7, 11):
        ctx = PrimeContext(p)
        minus_one = ctx.from_int(-1)
        assert minus_one.square_class() == ctx.delta
        for _ in range(50):
            u = rng.randrange(1, p**3)
            if u % p == 0:
                continue
            sq = ctx.from_int(u * u)
            assert sq.square_class() == 0
            r = sq.sqrt()
            assert r * r == sq
        nr = ctx.from_int(ctx.rho)
        assert nr.square_class() == 1
        with pytest.raises(InvalidParameters):
            nr.sqrt()


def test_hilbert_symbol_table():
    """Additive Hilbert symbol: [p,p] = delta, [p,rho] = 1, units pair to 0."""
    for p in (3, 5, 7, 11, 13):
        ctx = PrimeContext(p)
        sp = ctx.from_int(p)
        srho = ctx.from_int(ctx.rho)
        one = ctx.one()
        assert hilbert_additive(sp, sp) == ctx.delta
        assert hilbert_additive(sp, srho) == 1
        assert hilbert_additive(sp, one) == 0
        assert hilbert_additive(one, srho) == 0
        assert hilbert_additive(srho, srho) == 0
        # symmetry and bilinearity on a small grid
        vals = [one, srho, sp, sp * srho]
        for a in vals:
            for b in vals:
                assert hilbert_additive(a, b) == hilbert_additive(b, a)
        for a in vals:
            for b in vals:
                for c in vals:
                    lhs = hilbert_additive(a * b, c)
                    rhs = (hilbert_additive(a, c) + hilbert_additive(b, c)) % 2
                    assert lhs == rhs


def test_hilbert_diagonal_values():
    # [a,a] = [a,-1], so [-p,-p] = chi(-1) = delta and [-1,-1] = 0
    for p in (3, 5, 7, 11):
        ctx = PrimeContext(p)
        mp = ctx.from_int(-p)
        mone = ctx.from_int(-1)
        assert hilbert_additive(mp, mp) == ctx.delta
        assert hilbert_additive(mp, mone) == ctx.delta
        assert hilbert_additive(mone, mone) == 0


def test_key_requires_full_precision():
    ctx = PrimeContext(3)
    with pytest.raises(PrecisionLoss):
        PadicScalar(ctx, 0, 1, 5).key()
    assert ctx.from_int(10).key() is not None


def test_inf_is_zero_valuation_marker():
    ctx = PrimeContext(3)
    assert ctx.zero().valuation() == INF
    assert math.isinf(INF)


def test_from_int_equals_from_rational_over_one():
    """from_int builds its scalar without inverting a denominator, and
    equals from_rational(n, 1) field for field: 0, negatives, and multiples
    of p up to p^40, at windows narrower and wider than the valuation."""
    rng = random.Random(26)
    for p in (3, 5, 7, 101):
        for precision in (8, 32):
            ctx = PrimeContext(p, precision)
            values = [0, 1, -1, p, -p, p**40, -(p**40)]
            for _ in range(200):
                unit = rng.randrange(1, p**12)
                values.append(rng.choice((1, -1)) * unit * p ** rng.randrange(41))
            for n in values:
                x, y = ctx.from_int(n), ctx.from_rational(n, 1)
                assert (x.val, x.unit, x.prec) == (y.val, y.unit, y.prec), (p, precision, n)
                assert x.ctx is ctx


def _fields(x):
    return x.val, x.unit, x.prec


def test_to_literal_matches_its_frozen_formula():
    """to_literal in one pass against the formula it had (tests/oracles.py
    parent_to_literal): the exact zero, negative valuations, windows cut
    below the precision, and units at exactly mod // 2 and mod // 2 + 1,
    the last positive and the first negative symmetric residue."""
    rng = random.Random(31)
    for p in (3, 5, 7, 11, 101):
        ctx = PrimeContext(p, 8)
        scalars = [ctx.zero()]
        for prec in range(1, 9):
            mod = p**prec
            for unit in (1, mod // 2, mod // 2 + 1, mod - 1, rng.randrange(1, mod)):
                if unit % p:
                    scalars += [PadicScalar(ctx, val, unit, prec) for val in (-3, -1, 0, 2)]
        for x in scalars:
            assert x.to_literal() == parent_to_literal(x)
        half = PadicScalar(ctx, 0, p**8 // 2, 8)
        assert half.to_literal() == f"{p**8 // 2}*p^0"
        assert PadicScalar(ctx, -1, p**8 // 2 + 1, 8).to_literal() == f"{-(p**8 // 2)}/{p}"


def test_sums_match_the_frozen_sum():
    """PadicScalar.__add__ against the sum it was (tests/oracles.py
    parent_add): every field, or PrecisionLoss, on summands of every
    valuation gap and window; partners that agree with -a to some digits
    make sums that cancel, to a shorter window, to the exact zero or
    through the window."""
    rng = random.Random(32)
    seen = set()
    for _ in range(20000):
        p = rng.choice((3, 5, 7))
        ctx = PrimeContext(p, rng.choice((8, 16)))
        prec = rng.randrange(1, ctx.precision + 1)
        unit = rng.choice([u for u in range(1, 4 * p) if u % p])
        a = PadicScalar(ctx, rng.randrange(-2, 4), unit, prec)
        k = rng.randrange(0, prec + 1)
        partner = (-unit + rng.randrange(1, p) * p**k) % ctx.p_powers[prec]
        b = rng.choice([ctx.zero(), -a, a.shift(rng.randrange(3)),
                        PadicScalar(ctx, a.val, partner, rng.randrange(1, ctx.precision + 1))])
        if b.unit is not None and b.unit % p == 0:
            continue
        for x, y in ((a, b), (b, a)):
            try:
                want = _fields(parent_add(x, y))
            except PrecisionLoss as e:
                want = str(e)
            try:
                got = _fields(x + y)
            except PrecisionLoss as e:
                got = str(e)
            assert got == want
            seen.add("loss" if type(want) is str else "zero" if want[0] == INF
                     else "cut" if want[2] < min(x.prec, y.prec) else "sum")
    assert seen == {"loss", "zero", "cut", "sum"}
