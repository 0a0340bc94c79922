"""Canonical forms and eta: round trips, orbit invariance, dual routes."""

import itertools
import random

import pytest

from padiclie.classify import (
    CanonicalForm,
    QpType,
    canonical_form,
    eta,
    is_isomorphic,
    qp_type,
)
from padiclie.errors import (
    Degenerate,
    InvalidParameters,
    NotLie,
    NotSubalgebra,
    NotSymmetric,
    PadicLieError,
    PrecisionLoss,
)
from padiclie.lattice import Algebra, change_of_basis, induced_algebra
from padiclie.normal_forms import Mat, congruent_diagonalize, congruent_valuations, parse_matrix
from padiclie.padic_core import PadicScalar, PrimeContext
from padiclie.subalgebras import enumerate_sublattices

from oracles import (
    canonical_diagonal,
    canonical_of_diagonal,
    eta_of_diagonal,
    int_det,
    rational_congruent_diagonal,
    scanned_canonical_check,
    scanned_canonical_data,
    windowed_congruent_elimination,
)


def random_unimodular(rng, ctx, span=8):
    while True:
        M = Mat.from_ints(
            ctx, [[rng.randrange(-span, span + 1) for _ in range(3)] for _ in range(3)]
        )
        d = M.det()
        if not d.is_zero() and d.valuation() == 0:
            return M


def random_symmetric_algebra(rng, ctx, max_val=3, span=2):
    while True:
        rows = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                unit = rng.randrange(1, ctx.p)
                v = rng.randrange(0, max_val + 1)
                entry = unit * ctx.p**v if rng.random() < 0.85 else 0
                rows[i][j] = rows[j][i] = entry
        A = Mat.from_ints(ctx, rows)
        d = A.det()
        if not d.is_zero() and d.valuation() <= 2 * max_val:
            return Algebra(A)


def all_small_forms(p, smax):
    """Every canonical form with s-entries <= smax, no duplicates."""
    forms = []
    for s0 in range(smax + 1):
        for s1 in range(s0, smax + 1):
            for s2 in range(s1, smax + 1):
                if s0 < s1 < s2:
                    for e1 in (0, 1):
                        for e2 in (0, 1):
                            forms.append(CanonicalForm(1, (s0, s1, s2), (e1, e2), p))
                elif s0 == s1 < s2:
                    for e1 in (0, 1):
                        forms.append(CanonicalForm(2, (s0, s1, s2), (e1, None), p))
                elif s0 < s1 == s2:
                    for e2 in (0, 1):
                        forms.append(CanonicalForm(3, (s0, s1, s2), (None, e2), p))
                else:
                    forms.append(CanonicalForm(4, (s0, s1, s2), (None, None), p))
    return forms


def test_canonical_form_validation():
    CanonicalForm(2, (1, 1, 3), (0, None), 5)
    with pytest.raises(InvalidParameters):
        CanonicalForm(2, (1, 2, 3), (0, None), 5)
    with pytest.raises(InvalidParameters):
        CanonicalForm(4, (1, 1, 1), (0, None), 5)
    with pytest.raises(InvalidParameters):
        CanonicalForm(1, (0, 1, 2), (0, 2), 5)
    form = CanonicalForm(2, (1, 1, 3), (0, None), 5)
    assert CanonicalForm.from_parameters(2, (1, 3, 0), 5) == form
    for family, params in ((4, (1, 1)), (3, (0, 1)), (5, (0,)), (2, (1, 1, 0))):
        with pytest.raises(InvalidParameters):
            CanonicalForm.from_parameters(family, params, 5)


def test_canonical_form_context_must_match_the_prime():
    with pytest.raises(InvalidParameters):
        CanonicalForm(4, (0, 0, 0), (None, None), 3, PrimeContext(5))
    ctx = PrimeContext(3, 40)
    cf = CanonicalForm(4, (0, 0, 0), (None, None), 3, ctx)
    assert cf.matrix().ctx is ctx
    assert CanonicalForm(4, (0, 0, 0), (None, None), 3).ctx == PrimeContext(3)


def test_round_trip_all_families():
    """Every canonical matrix re-classifies to its own invariant data."""
    for p in (3, 5, 7):
        for cf in all_small_forms(p, 3):
            again = canonical_form(cf.algebra())
            assert again == cf


def test_representatives_pairwise_distinct():
    for p in (3, 5):
        forms = all_small_forms(p, 2)
        seen = set()
        for cf in forms:
            key = (cf.family, cf.s, cf.eps)
            assert key not in seen
            seen.add(key)
        # and no two distinct forms are isomorphic as algebras
        algs = [cf.algebra() for cf in forms]
        for i in range(len(forms)):
            for j in range(i + 1, len(forms)):
                assert not is_isomorphic(algs[i], algs[j])


def test_orbit_invariance_sampled():
    """The canonical form is constant on isomorphism orbits."""
    rng = random.Random(20)
    for p in (3, 5, 7):
        ctx = PrimeContext(p)
        for _ in range(40):
            alg = random_symmetric_algebra(rng, ctx)
            cf = canonical_form(alg)
            U = random_unimodular(rng, ctx)
            moved = Algebra(change_of_basis(alg, U))
            assert canonical_form(moved) == cf
            assert is_isomorphic(alg, moved)


def test_unit_scaling_preserves_form():
    rng = random.Random(21)
    ctx = PrimeContext(7)
    for _ in range(30):
        alg = random_symmetric_algebra(rng, ctx)
        u = rng.randrange(1, 7)
        scaled = Algebra(alg.matrix.scale(ctx.from_int(u)))
        assert canonical_form(scaled) == canonical_form(alg)


def test_classify_known_matrices():
    ctx5 = PrimeContext(5)
    # the standard quadratic form of sl2
    cf = canonical_form(Algebra(parse_matrix("1,0,0;0,0,2;0,2,0", ctx5)))
    assert (cf.family, cf.s) == (4, (0, 0, 0))
    # diag(1, -rho, p^2) at p = 5: rho = 2
    cf = canonical_form(Algebra(parse_matrix("1,0,0;0,-2,0;0,0,25", ctx5)))
    assert (cf.family, cf.s, cf.eps) == (2, (0, 0, 2), (1, None))
    # Sylow shape diag(1, p, -p)
    ctx3 = PrimeContext(3)
    cf = canonical_form(Algebra(parse_matrix("1,0,0;0,3,0;0,0,-3", ctx3)))
    assert (cf.family, cf.s, cf.eps) == (3, (0, 1, 1), (None, 0))


def test_eta_known_values():
    for p in (3, 5, 7, 11):
        ctx = PrimeContext(p)
        rho = ctx.rho
        # unit forms are split
        assert eta(parse_matrix("1,0,0;0,0,2;0,2,0", ctx)).eta == 0
        # diag(1, -rho, p) generates the division algebra
        A = Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, -rho, p)])
        assert eta(A).eta == 1
        assert qp_type(A) == QpType.SL1D
        # diag(1, p, -p) stays split
        B = Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, p, -p)])
        assert eta(B).eta == 0
        assert qp_type(B) == QpType.SL2
    ctx5 = PrimeContext(5)
    assert eta(parse_matrix("1,0,0;0,-2,0;0,0,25", ctx5)).eta == 0


def test_eta_breakdown_fields():
    ctx = PrimeContext(5)
    br = eta(Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, -2, 5)]))
    assert br.eta in (0, 1)
    assert br.disc_valuation_parity == 1
    assert br.eta == (ctx.delta * br.disc_valuation_parity + br.hilbert_sum) % 2


def test_eta_is_orbit_invariant():
    """Both eta routes agree and are constant along isomorphisms."""
    rng = random.Random(22)
    for p in (3, 5):
        ctx = PrimeContext(p)
        for _ in range(60):
            alg = random_symmetric_algebra(rng, ctx)
            val = eta(alg).eta
            U = random_unimodular(rng, ctx)
            assert eta(Algebra(change_of_basis(alg, U))).eta == val
            u = ctx.from_int(rng.randrange(1, p))
            assert eta(alg.matrix.scale(u)).eta == val


def test_eta_matches_family_parity_rule():
    """On canonical forms eta reduces to a parity in (s, eps, delta)."""
    for p in (3, 5, 7):
        for cf in all_small_forms(p, 2):
            val = eta(cf.matrix()).eta
            s0, s1, s2 = cf.s
            if cf.family == 4:
                assert val == 0
            elif cf.family == 2:
                assert val == (cf.eps[0] * (s0 + s2)) % 2
            elif cf.family == 3:
                assert val == (cf.eps[1] * (s0 + s1)) % 2


def test_form_eta_matches_both_routes_and_the_hilbert_oracle():
    """CanonicalForm.eta, read off the form's integers, equals eta of its
    matrix and a plain-integer Hilbert-symbol oracle; delta = 1 at
    p = 3, 7, 11 and delta = 0 at p = 5, 13."""
    for p in (3, 5, 7, 11, 13):
        for cf in all_small_forms(p, 6):
            oracle = eta_of_diagonal(canonical_diagonal(cf.family, cf.s, cf.eps, p), p)
            assert cf.eta() == eta(cf.matrix()).eta == oracle, cf


def test_classification_errors():
    ctx = PrimeContext(3)
    with pytest.raises(NotLie):
        canonical_form(Algebra(parse_matrix("1,1,0;0,1,0;0,0,1", ctx)))
    with pytest.raises(Degenerate):
        canonical_form(Algebra(parse_matrix("1,0,0;0,1,0;0,0,0", ctx)))
    with pytest.raises(NotSymmetric):
        eta(parse_matrix("1,1,0;0,1,0;0,0,1", ctx))
    a = Algebra(parse_matrix("1,0,0;0,1,0;0,0,1", PrimeContext(3)))
    b = Algebra(parse_matrix("1,0,0;0,1,0;0,0,1", PrimeContext(5)))
    with pytest.raises(InvalidParameters):
        is_isomorphic(a, b)


def test_canonical_form_matches_the_legendre_oracle():
    """canonical_form of V^T diag(d) V, with arbitrary units in d, its
    matrix and its eta against the integer oracles, on all nine (family,
    eps) classes; delta = 1 at p = 3, 7, 11 and delta = 0 at p = 5, 13."""
    rng = random.Random(23)
    for p in (3, 5, 7, 11, 13):
        seen = set()
        for precision in (16, 32):
            ctx = PrimeContext(p, precision)
            for ties in ((0, 0), (1, 0), (0, 1), (1, 1)):
                for _ in range(6):
                    s = [rng.randrange(3)]
                    for tied in ties:
                        s.append(s[-1] if tied else s[-1] + rng.randrange(1, 3))
                    units = [rng.choice((1, -1)) * rng.randrange(1, p * p) for _ in s]
                    d = [(u + (u % p == 0)) * p**v for u, v in zip(units, s)]
                    rng.shuffle(d)
                    V = random_unimodular(rng, ctx)
                    A = V.transpose() * Mat.diagonal(ctx, [ctx.from_int(x) for x in d]) * V
                    family, s_oracle, eps, rep = canonical_of_diagonal(d, p)
                    cf = canonical_form(Algebra(A))
                    assert (cf.family, cf.s, cf.eps) == (family, s_oracle, eps), (p, d)
                    assert cf.matrix() == Mat.diagonal(ctx, [ctx.from_int(x) for x in rep])
                    assert cf.eta() == eta_of_diagonal(d, p) == eta_of_diagonal(rep, p)
                    seen.add((family, eps))
        assert len(seen) == 9, (p, seen)


def test_canonical_form_matches_the_scan_of_families():
    """The family lookup and the eps bits of canonical_form against the
    scan of FAMILIES, for every ascending s in [0, 4]^3 and every chi in
    {0, 1}^3, on diag(u_i p^s_i), u_i = 1 or rho as chi_i says."""
    for p in (3, 5, 7):
        ctx = PrimeContext(p)
        for s in itertools.combinations_with_replacement(range(5), 3):
            for chi in itertools.product((0, 1), repeat=3):
                d = [ctx.rho**c * p**v for v, c in zip(s, chi)]
                A = Mat.diagonal(ctx, [ctx.from_int(x) for x in d])
                assert congruent_valuations(A) == (s, chi)
                family, eps = scanned_canonical_data(s, chi, ctx.delta)
                cf = canonical_form(Algebra(A))
                assert cf == CanonicalForm(family, s, eps, p)
                assert (cf.family, cf.s, cf.eps) == (family, s, eps)


def test_canonical_form_check_matches_the_scanned_check():
    """CanonicalForm accepts exactly what the slot-by-slot check of FAMILIES
    accepts, and raises its error type with its message otherwise."""
    ctx = PrimeContext(5)

    def outcome(build):
        try:
            build()
        except InvalidParameters as exc:
            return type(exc), str(exc)
        return None

    for family in range(6):
        for s in itertools.product(range(4), repeat=3):
            for eps in itertools.product((None, 0, 1, 2), repeat=2):
                want = outcome(lambda: scanned_canonical_check(family, s, eps))
                got = outcome(lambda: CanonicalForm(family, s, eps, 5, ctx))
                assert got == want, (family, s, eps)


def test_a_second_read_repeats_no_check_of_the_elimination(monkeypatch):
    """The read-off checks symmetry and guards every valuation, and the Mat
    keeps only a success: reading a Mat read before checks neither again.
    Failures are raised again on every call, with their messages; the
    cancelling input's lift names its valuation 14."""
    alg = Algebra(parse_matrix("2,1,0;1,5,3;0,3,9", PrimeContext(3, 32)))
    first = canonical_form(alg)
    calls = []
    for cls, name in ((Mat, "is_symmetric"), (PrimeContext, "guard_decidable")):
        original = getattr(cls, name)
        monkeypatch.setattr(
            cls, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args)
        )
    assert canonical_form(alg) == first and calls == []
    cancelling = (
        "6104007655641,2034669218547,8138676874209;2034669218547,678223072849,2712892291480;"
        "8138676874209,2712892291480,10851569165563"
    )
    failing = [
        (3, 32, "1,1,0;0,1,0;0,0,1", NotLie,
         "structure matrix of an unsolvable Lie lattice must be symmetric"),
        (3, 32, "1,0,0;0,1,0;0,0,0", Degenerate, "structure matrix is degenerate"),
        (3, 32, "1,0,0;0,3,0;0,0,1*p^20", PrecisionLoss,
         "valuation 20 too close to precision window 32"),
        (7, 10, cancelling, PrecisionLoss, "valuation 14 too close to precision window 10"),
    ]
    for p, precision, literal, error, message in failing:
        alg = Algebra(parse_matrix(literal, PrimeContext(p, precision)))
        for _ in range(2):
            with pytest.raises(error) as caught:
                canonical_form(alg)
            assert str(caught.value) == message


# ---------------------------------------------------------------------------
# The integer read-off against independent oracles
# ---------------------------------------------------------------------------


def _orbit_rows(rng, p, d):
    """V^T diag(d) V in integers, for a V with entries in [-2, 2] and det a
    unit mod p."""
    while True:
        V = [[rng.randrange(-2, 3) for _ in range(3)] for _ in range(3)]
        if int_det(V) % p:
            break
    return [[sum(V[k][i] * d[k] * V[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def _raised(f, *args):
    with pytest.raises(Exception) as caught:
        f(*args)
    return type(caught.value), str(caught.value)


def test_the_read_off_matches_the_rational_oracle():
    """canonical_form and eta of 3,000 seeded orbit representatives against
    an exact elimination over Fractions, at p in {3, 5, 7, 11} and precision
    in {8, 16, 32}: the same answer when every oracle s is below
    precision/2, else PrecisionLoss naming the least s at or above it, and
    Degenerate exactly when the integer det is 0.  Each representative
    keeps its entries below p^precision / 2, so its Mat holds it exactly."""
    rng = random.Random(24)
    outcomes = {"answered": 0, "refused": 0, "degenerate": 0}
    for p in (3, 5, 7, 11):
        for precision in (8, 16, 32):
            ctx = PrimeContext(p, precision)
            half = precision // 2
            drawn = 0
            while drawn < 250:
                s = [
                    rng.randrange(half) if rng.random() < 0.9 else rng.randrange(half, half + 4)
                    for _ in range(3)
                ]
                d = [rng.choice((1, -1)) * rng.randrange(1, p) * p**v for v in s]
                if rng.random() < 0.1:
                    d[rng.randrange(3)] = 0
                rows = _orbit_rows(rng, p, d)
                if max(abs(x) for row in rows for x in row) >= p**precision // 2:
                    continue
                drawn += 1
                alg = Algebra(Mat.from_ints(ctx, rows))
                fresh = Mat.from_ints(ctx, rows)  # eta reads its own, unshared
                if int_det(rows) == 0:
                    assert _raised(canonical_form, alg)[0] is Degenerate
                    assert _raised(eta, fresh)[0] is Degenerate
                    outcomes["degenerate"] += 1
                    continue
                diagonal = rational_congruent_diagonal(rows, p)
                family, s_oracle, eps, _ = canonical_of_diagonal(diagonal, p)
                late = [v for v in s_oracle if v >= precision / 2]
                if late:
                    message = f"valuation {late[0]} too close to precision window {precision}"
                    assert _raised(canonical_form, alg) == (PrecisionLoss, message)
                    assert _raised(eta, fresh) == (PrecisionLoss, message)
                    outcomes["refused"] += 1
                    continue
                cf = canonical_form(alg)
                assert (cf.family, cf.s, cf.eps) == (family, s_oracle, eps), (p, rows)
                assert eta(fresh).eta == cf.eta() == eta_of_diagonal(diagonal, p)
                outcomes["answered"] += 1
    assert sum(outcomes.values()) == 3000
    assert min(outcomes.values()) > 150, outcomes


def _windowed(A):
    """(s, chi) off the D of the windowed elimination with its own pivot
    search, frozen in tests/oracles.py."""
    D, _ = windowed_congruent_elimination(A)
    entries = D.diagonal_entries()
    return tuple(x.valuation() for x in entries), tuple(x.square_class() for x in entries)


def _outcome(f, A):
    try:
        return None, f(A)
    except PrecisionLoss:
        return PrecisionLoss, None


def test_the_read_off_matches_the_windowed_elimination():
    """congruent_valuations against the (s, chi) of the D of the windowed
    elimination with its own pivot search, on seeded matrices of three
    kinds at p in {3, 5, 7, 11} and precision in {8, 16, 32}: num/den
    input with valuations down to -3, and the structure matrices
    induced_algebra gives on index-p and index-p^2 sublattices, where
    every windowed answer is the read-off's; and orbit representatives
    whose entries carry 1 to precision digits, where no two answers differ
    (the read-off, which trusts no valuation at or above the least val +
    prec of an entry, may refuse more), and each answer of canonical_form
    holds for random integer completions of the missing digits, by the
    oracle over Fractions."""
    rng = random.Random(25)
    agreed = {"num/den": 0, "induced": 0, "short": 0}
    completed = 0
    for p in (3, 5, 7, 11):
        for precision in (8, 16, 32):
            ctx = PrimeContext(p, precision)
            half = precision // 2
            sublattices = [*enumerate_sublattices(ctx, 1), *enumerate_sublattices(ctx, 2)]
            for _ in range(40):
                d = [rng.choice((1, -1)) * rng.randrange(1, p) * p ** rng.randrange(half)
                     for _ in range(3)]
                k = rng.randrange(1, 4)
                literal = ";".join(
                    ",".join(f"{x}/{p**k}" for x in row) for row in _orbit_rows(rng, p, d)
                )
                A = parse_matrix(literal, ctx)
                error, answer = _outcome(_windowed, A)
                if error is None:
                    assert congruent_valuations(A) == answer
                    agreed["num/den"] += 1

                d = [rng.choice((1, -1)) * rng.randrange(1, p) * p ** rng.randrange(1, 5)
                     for _ in range(3)]
                alg = Algebra(Mat.from_ints(ctx, _orbit_rows(rng, p, d)))
                try:
                    A = induced_algebra(alg, rng.choice(sublattices)).matrix
                except NotSubalgebra:
                    pass
                else:
                    error, answer = _outcome(_windowed, A)
                    if error is None:
                        assert congruent_valuations(A) == answer
                        agreed["induced"] += 1

                d = [rng.choice((1, -1)) * rng.randrange(1, p) * p ** rng.randrange(half)
                     for _ in range(3)]
                rows = _orbit_rows(rng, p, d)
                digits = {
                    (i, j): rng.randrange(1, precision + 1) for i in range(3) for j in range(i, 3)
                }
                full = Mat.from_ints(ctx, rows)
                short = [[None] * 3 for _ in range(3)]
                for (i, j), n in digits.items():
                    x = full[i, j]
                    if not x.is_zero():
                        x = PadicScalar(ctx, x.val, x.unit % p**n, n)
                    short[i][j] = short[j][i] = x
                A = Mat(ctx, short)
                windowed = _outcome(_windowed, A)
                read = _outcome(congruent_valuations, A)
                if windowed[0] is None and read[0] is None:
                    assert read == windowed
                    agreed["short"] += 1
                if read[0] is None:
                    cf = canonical_form(Algebra(A))
                    e = eta(A).eta
                    for _ in range(2):
                        rows = [[0] * 3 for _ in range(3)]
                        for (i, j), n in digits.items():
                            x = full[i, j]
                            if not x.is_zero():
                                unit = x.unit % p**n + p**n * rng.randrange(-p**4, p**4)
                                rows[i][j] = rows[j][i] = unit * p**x.val
                        diagonal = rational_congruent_diagonal(rows, p)
                        assert canonical_of_diagonal(diagonal, p)[:3] == (cf.family, cf.s, cf.eps)
                        assert e == eta_of_diagonal(diagonal, p)
                        completed += 1
    assert min(agreed.values()) >= 100 and completed >= 300, (agreed, completed)


def _settled(f, A):
    """(None, f(A)), or ((type, message) of its error, None)."""
    try:
        return None, f(A)
    except PadicLieError as error:
        return (type(error), str(error)), None


def _fields(pair):
    """The (val, unit, prec) of every entry of D and V."""
    return tuple((x.val, x.unit, x.prec) for M in pair for row in M.data for x in row)


def test_the_replayed_pivot_plan_matches_the_windowed_pivot_search():
    """congruent_diagonalize, which replays the pivots the integer read-off
    chose, against the windowed elimination with its own pivot search,
    frozen in tests/oracles.py, on 1,200 seeded orbit representatives at p
    in {3, 5, 7, 11} and precision in {8, 16, 32}, some singular and some
    past the guard: half as num/den input with valuations down to -3, half
    with each entry cut to 1 to precision digits.  Wherever both answer,
    the same D and V field for field.  Wherever congruent_diagonalize
    raises, it raises the type and message congruent_valuations raises on
    the same Mat, or, where the read-off answers, the PrecisionLoss of a
    clearing step that cancelled through the window, where the frozen
    elimination raises PrecisionLoss too."""
    rng = random.Random(27)
    outcomes = {"agreed": 0, "read-off": 0, "window": 0}
    for p in (3, 5, 7, 11):
        for precision in (8, 16, 32):
            ctx = PrimeContext(p, precision)
            half = precision // 2
            for trial in range(100):
                d = [rng.choice((1, -1)) * rng.randrange(1, p) * p ** rng.randrange(half + 3)
                     for _ in range(3)]
                if rng.random() < 0.1:
                    d[rng.randrange(3)] = 0
                rows = _orbit_rows(rng, p, d)
                if trial % 2:
                    k = rng.randrange(4)
                    A = parse_matrix(
                        ";".join(",".join(f"{x}/{p**k}" for x in row) for row in rows), ctx)
                else:
                    full = Mat.from_ints(ctx, rows)
                    short = [[None] * 3 for _ in range(3)]
                    for i in range(3):
                        for j in range(i, 3):
                            x, n = full[i, j], rng.randrange(1, precision + 1)
                            if not x.is_zero():
                                x = PadicScalar(ctx, x.val, x.unit % p**n, n)
                            short[i][j] = short[j][i] = x
                    A = Mat(ctx, short)
                # the frozen elimination reads no memo of A's
                frozen_error, frozen = _settled(windowed_congruent_elimination, A)
                error, pair = _settled(congruent_diagonalize, A)
                if error is None:
                    if frozen_error is None:
                        assert _fields(pair) == _fields(frozen), (p, precision, A)
                        outcomes["agreed"] += 1
                    continue
                read_error, _ = _settled(congruent_valuations, A)
                if read_error is not None:
                    assert error == read_error, (p, precision, A)
                    outcomes["read-off"] += 1
                else:
                    assert error[0] is PrecisionLoss and frozen_error[0] is PrecisionLoss
                    outcomes["window"] += 1
    assert outcomes["agreed"] >= 200 and outcomes["read-off"] >= 200, outcomes
    assert outcomes["window"] > 0, outcomes


def test_a_singular_lift_is_degenerate_only_when_the_entries_hold_half_the_window():
    """A singular lift differs from A by what the window treats as zero
    only when every entry holds at least half the window; short entries
    leave the block undecided."""
    ctx = PrimeContext(5, 16)
    full = Mat.from_ints(ctx, [[1, 2, 0], [2, 4, 0], [0, 0, 5]])
    short = Mat(ctx, [
        [x if x.is_zero() else PadicScalar(ctx, x.val, x.unit % 5**3, 3) for x in row]
        for row in full.data
    ])
    assert _raised(congruent_valuations, full) == (Degenerate, "matrix is degenerate")
    assert _raised(congruent_valuations, short) == (
        PrecisionLoss, "a block cancelled to zero within the 3 digits of the entries"
    )
