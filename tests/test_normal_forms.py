"""Matrix layer: HNF vs a brute-force membership oracle, SNF witnesses,
congruent diagonalization, and the square-class adjustment move."""

import random

import pytest

from padiclie import normal_forms
from padiclie.catalog import group_report
from padiclie.classify import canonical_form, eta
from padiclie.errors import (
    Degenerate,
    InvalidParameters,
    NotSymmetric,
    PadicLieError,
    PathDisagreement,
    PrecisionLoss,
)
from padiclie.lattice import Algebra
from padiclie.normal_forms import (
    Mat,
    Span,
    _index_p_hermite,
    cassels_move,
    congruent_diagonalize,
    hnf_columns,
    kernel_basis,
    lattice_contains,
    parse_matrix,
    snf,
)
from padiclie.padic_core import INF, PrimeContext
from padiclie.selfsim import construct_simple_ve, sigma_bounds
from padiclie.subalgebras import enumerate_sublattices

from oracles import (
    int_contains,
    int_det,
    int_elementary_divisors,
    is_congruence_mod,
    is_unimodular,
    laplace_adjugate,
    laplace_det,
    lattice_eq,
    membership_mod,
    p_valuation,
    product_by_terms,
    solve_two_square_classes,
)


def random_int_matrix(rng, ctx, span=30, n=3):
    return Mat.from_ints(
        ctx, [[rng.randrange(-span, span + 1) for _ in range(n)] for _ in range(n)]
    )


def random_nonsingular(rng, ctx, span=30, max_det_val=4):
    while True:
        M = random_int_matrix(rng, ctx, span)
        d = M.det()
        if not d.is_zero() and d.valuation() <= max_det_val:
            return M


def random_unimodular(rng, ctx, span=8):
    while True:
        M = random_int_matrix(rng, ctx, span)
        d = M.det()
        if not d.is_zero() and d.valuation() == 0:
            return M


def int_cols(M):
    """Columns of an integral matrix as plain integer tuples (high residues)."""
    k = M.ctx.precision
    out = []
    for j in range(3):
        col = []
        for i in range(3):
            e = M[i, j]
            col.append(0 if e.is_zero() else e.residue_mod(k))
        out.append(tuple(col))
    return out


def test_basic_matrix_ops():
    ctx = PrimeContext(5)
    M = parse_matrix("1,2,0;0,1,0;3,0,1", ctx)
    I = Mat.identity(ctx, 3)
    assert M * I == M
    adj = M.adjugate()
    d = M.det()
    prod = M * adj
    for i in range(3):
        for j in range(3):
            assert prod[i, j] == (d if i == j else ctx.zero())
    X = Span(M).solve(I)
    assert M * X == I


def _literal_or_error(f):
    try:
        return f().to_literal()
    except PrecisionLoss as exc:
        return (type(exc), str(exc))


def test_closed_form_det_and_adjugate_match_laplace():
    # u v^T + p^k E is singular mod p^k: its minors cancel k digits, and the
    # deeper cancellations exhaust the window, so errors are compared too
    rng = random.Random(17)
    raised = 0
    for p in (3, 5, 7):
        for precision in (8, 32):
            ctx = PrimeContext(p, precision)
            for trial in range(150):
                if trial % 2:
                    rows = [[rng.randrange(-40, 41) for _ in range(3)] for _ in range(3)]
                else:
                    u = [rng.randrange(-9, 10) for _ in range(3)]
                    v = [rng.randrange(-9, 10) for _ in range(3)]
                    k = rng.randrange(1, precision)
                    rows = [
                        [u[i] * v[j] + p**k * rng.randrange(-9, 10) for j in range(3)]
                        for i in range(3)
                    ]
                M = Mat.from_ints(ctx, rows)
                det = _literal_or_error(M.det)
                assert det == _literal_or_error(lambda: laplace_det(M))
                adj = _literal_or_error(M.adjugate)
                assert adj == _literal_or_error(lambda: laplace_adjugate(M))
                raised += isinstance(det, tuple) + isinstance(adj, tuple)
    assert raised > 0  # the error path was exercised


def test_hnf_shape_and_idempotence():
    rng = random.Random(2)
    for p in (3, 5):
        ctx = PrimeContext(p)
        for _ in range(40):
            M = random_nonsingular(rng, ctx)
            H, rank = hnf_columns(M)
            assert rank == 3
            # upper triangular with pure p-power pivots
            for i in range(3):
                for j in range(i):
                    assert H[i, j].is_zero()
                piv = H[i, i]
                assert piv.unit_mod(1) == 1
                d = piv.valuation()
                for j in range(i + 1, 3):
                    e = H[i, j]
                    if not e.is_zero():
                        assert 0 <= e.valuation()
                        assert e.residue_mod(d) == (0 if e.is_zero() else e.residue_mod(d))
                        assert e == ctx.from_int(e.residue_mod(d))
            H2, _ = hnf_columns(H)
            assert H2 == H


def _scalars(M):
    return [(x.val, x.unit, x.prec) for row in M.data for x in row]


def test_index_p_hermite_equals_hnf_columns():
    """The read-off equals hnf_columns in every (val, unit, prec) on H U, U
    seeded unimodular: every Hermite H of index p at p = 3, 5, 7 (three U
    each), and at p = 101 the 102 with the p-pivot below row 0 plus a
    seeded 400 of the other 10,201 (one U each)."""
    rng = random.Random(16)
    for p in (3, 5, 7, 101):
        for precision in (8, 32):
            ctx = PrimeContext(p, precision)
            lattices = list(enumerate_sublattices(ctx, 1))
            conjugates = 3
            if p == 101:
                lattices = lattices[: p + 1] + rng.sample(lattices[p + 1 :], 400)
                conjugates = 1
            for H in lattices:
                assert _scalars(_index_p_hermite(Span(H))) == _scalars(H)
                for _ in range(conjugates):
                    M = H * random_unimodular(rng, ctx)
                    assert _scalars(_index_p_hermite(Span(M))) == _scalars(hnf_columns(M)[0])


@pytest.mark.parametrize("exponents", [(0, 0, 0), (0, 1, 1), (0, 0, 2), (1, 1, 1)])
def test_index_p_hermite_refuses_any_other_index(exponents):
    ctx = PrimeContext(5)
    M = Mat.p_power_diagonal(ctx, exponents) * random_unimodular(random.Random(7), ctx)
    with pytest.raises(PathDisagreement, match="needs a lattice of index p"):
        _index_p_hermite(Span(M))


def _product_or_error(f):
    try:
        out = f()
    except PrecisionLoss as exc:
        return (type(exc), str(exc))
    return _scalars(out) if isinstance(out, Mat) else [(x.val, x.unit, x.prec) for x in out]


def _mul_vec_by_terms(A, v):
    return product_by_terms(A, Mat(A.ctx, [[x] for x in v])).col(0)


def test_products_skipping_exact_zeros_match_every_term():
    """Mat.__mul__ and mul_vec against the sum over every term, on seeded
    matrices of zero, unit, p-power, degraded-window and 1/p entries; terms
    that cancel through a short window raise the same PrecisionLoss."""
    rng = random.Random(16)
    raised = 0
    for p in (3, 5):
        for precision in (8, 32):
            ctx = PrimeContext(p, precision)
            one = ctx.one()
            # 1 known to precision - 5 digits only: (1 + (p^5 - 1)) / p^5
            short = (one + ctx.from_int(p**5 - 1)).shift(-5)
            pool = [ctx.zero()] * 4 + [
                one, -one, ctx.from_int(ctx.rho), one.shift(1), ctx.from_int(-2 * p**2),
                ctx.from_rational(1, p), ctx.from_rational(3, p**2), short, -short,
            ]
            for _ in range(300):
                A, B = (Mat(ctx, [[rng.choice(pool) for _ in range(3)] for _ in range(3)])
                        for _ in range(2))
                v = B.col(0)
                assert _product_or_error(lambda: A * B) == _product_or_error(
                    lambda: product_by_terms(A, B))
                assert _product_or_error(lambda: A.mul_vec(v)) == _product_or_error(
                    lambda: _mul_vec_by_terms(A, v))
            zero = ctx.zero()
            A = Mat(ctx, [[short, zero, short], [zero, one, zero], [short, short, zero]])
            B = Mat(ctx, [[one, zero, zero], [one.shift(1), one, zero], [-one, zero, one]])
            v = B.col(0)
            want = _product_or_error(lambda: product_by_terms(A, B))
            want_vec = _product_or_error(lambda: _mul_vec_by_terms(A, v))
            assert _product_or_error(lambda: A * B) == want
            assert _product_or_error(lambda: A.mul_vec(v)) == want_vec
            if precision == 8:
                cancelled = (PrecisionLoss, "cancellation exhausted the precision window")
                assert want == want_vec == cancelled
                raised += 1
            for w in (v[:2], v + v[:1]):
                with pytest.raises(InvalidParameters, match="shape mismatch"):
                    A.mul_vec(w)
    assert raised == 2


def test_hnf_membership_against_oracle():
    """The HNF lattice equals the integer span: checked by meet-in-the-middle."""
    rng = random.Random(3)
    p = 3
    ctx = PrimeContext(p)
    for _ in range(25):
        M = random_nonsingular(rng, ctx, span=9, max_det_val=3)
        H, _ = hnf_columns(M)
        K = M.det().valuation() + 1
        cols = int_cols(M)
        hcols = int_cols(H)
        for _ in range(4):
            v = tuple(rng.randrange(-20, 21) for _ in range(3))
            in_M = membership_mod(v, cols, p, K)
            in_H = membership_mod(v, hcols, p, K)
            assert in_M == in_H
            # the library's route: H^{-1} v integral
            vm = Mat.from_ints(ctx, [[v[0]], [v[1]], [v[2]]])
            sol = Span(H).solve(vm)
            lib_in = all(sol[i, 0].is_integral() for i in range(3))
            assert lib_in == in_M


def test_lattice_eq_under_unimodular_change():
    rng = random.Random(4)
    ctx = PrimeContext(5)
    for _ in range(30):
        M = random_nonsingular(rng, ctx)
        V = random_unimodular(rng, ctx)
        assert is_unimodular(V)
        assert lattice_eq(M, M * V)
        assert lattice_contains(M, M.shift(1))
        assert not lattice_contains(M.shift(1), M)


def test_snf_witnesses_and_divisors():
    rng = random.Random(5)
    for p in (3, 7):
        ctx = PrimeContext(p)
        for _ in range(30):
            M = random_nonsingular(rng, ctx)
            divisors, P, Q = snf(M)
            assert list(divisors) == sorted(divisors)
            D = P * M * Q
            assert D.is_diagonal()
            for i, d in enumerate(divisors):
                assert D[i, i].valuation() == d
                assert D[i, i].unit_mod(1) == 1
            assert is_unimodular(P) and is_unimodular(Q)


def test_snf_divisor_containment():
    """p^(largest divisor) annihilates the quotient: p^d L ⊆ M."""
    rng = random.Random(6)
    ctx = PrimeContext(3)
    for _ in range(25):
        M = random_nonsingular(rng, ctx)
        divisors, _, _ = snf(M)
        d = max(divisors)
        assert lattice_contains(M, Mat.identity(ctx, 3).shift(d))
        if d > 0:
            assert not lattice_contains(M, Mat.identity(ctx, 3).shift(d - 1))


def test_kernel_basis_rectangular():
    ctx = PrimeContext(3)
    # map (x,y,z,w) -> (x - 3y, z) has a rank-2 kernel
    M = Mat(
        ctx,
        [
            [ctx.one(), ctx.from_int(-3), ctx.zero(), ctx.zero()],
            [ctx.zero(), ctx.zero(), ctx.one(), ctx.zero()],
        ],
    )
    K = kernel_basis(M)
    assert K.ncols == 2 and K.nrows == 4
    prod = M * K
    for i in range(2):
        for j in range(2):
            assert prod[i, j].is_zero()


def test_congruent_diagonalize_properties():
    rng = random.Random(7)
    for p in (3, 5, 7):
        ctx = PrimeContext(p)
        for _ in range(40):
            rows = [[0] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    rows[i][j] = rows[j][i] = rng.randrange(-p**2, p**2 + 1)
            A = Mat.from_ints(ctx, rows)
            if A.det().is_zero():
                continue
            D, V = congruent_diagonalize(A)
            assert D.is_diagonal()
            assert is_unimodular(V)
            assert V.transpose() * A * V == D
            vals = [D[i, i].valuation() for i in range(3)]
            assert vals == sorted(vals)


def test_hyperbolic_plane_diagonalizes():
    """x*y ~ x^2 - y^2: the split form gives square classes {0, chi(-1)}."""
    for p in (3, 5, 7, 11, 13):
        ctx = PrimeContext(p)
        A = Mat.from_ints(ctx, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        D, V = congruent_diagonalize(A)
        assert V.transpose() * A * V == D
        entries = [D[i, i] for i in range(3)]
        assert all(e.valuation() == 0 for e in entries)
        # congruence preserves the discriminant class, here det = -1
        prod = entries[0] * entries[1] * entries[2]
        assert prod.square_class() == ctx.from_int(-1).square_class()


def test_cassels_move_witness():
    """Moving a class u onto slot i: class(D2_ii) = class(D_ii) + class(u),
    realized by an exact congruence witness."""
    rng = random.Random(8)
    for p in (3, 5, 7):
        ctx = PrimeContext(p)
        for _ in range(25):
            m = rng.randrange(0, 3)
            u1 = rng.randrange(1, p)
            u2 = rng.randrange(1, p)
            D = Mat.diagonal(
                ctx,
                [
                    ctx.from_int(u1 * p**m),
                    ctx.from_int(u2 * p**m),
                    ctx.from_int(p ** (m + 1)),
                ],
            )
            u = ctx.from_int(rng.choice([1, ctx.rho]))
            # the binary unit form c x^2 + d y^2 represents every class mod p
            want = (ctx.from_int(u1).square_class() + u.square_class()) % 2
            tval = 1 if want == 0 else ctx.rho
            assert solve_two_square_classes(u1, u2, tval, p) is not None
            D2, V = cassels_move(D, 0, 1, u)
            assert V.transpose() * D * V == D2
            assert is_unimodular(V)
            assert D2.is_diagonal()
            got = D2[0, 0]
            assert got.valuation() == m
            assert got.square_class() == want
            # untouched slot and discriminant class are preserved
            assert D2[2, 2] == D[2, 2]
            before = D[0, 0] * D[1, 1]
            after = D2[0, 0] * D2[1, 1]
            assert before.square_class() == after.square_class()


def test_hnf_rejects_padding_rank_loss():
    ctx = PrimeContext(3)
    M = Mat.from_ints(ctx, [[1, 2, 3], [2, 4, 6], [0, 0, 0]])
    H, rank = hnf_columns(M)
    assert rank == 1


def _int_matmul(X, Y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*Y)] for row in X]


def int_unimodular(rng, p):
    while True:
        V = [[rng.randrange(-9, 10) for _ in range(3)] for _ in range(3)]
        if int_det(V) % p != 0:
            return V


def containment_case(rng, p):
    """M = V1 diag(p^a, p^b, p^c) V2 with V1, V2 invertible over Z_p, and
    N = M X + p^k E, so N lies in span M exactly when p^k E does."""
    exps = [rng.randrange(0, 8) for _ in range(3)]
    D = [[p**exps[i] if i == j else 0 for j in range(3)] for i in range(3)]
    M = _int_matmul(_int_matmul(int_unimodular(rng, p), D), int_unimodular(rng, p))
    X = [[rng.randrange(-20, 21) for _ in range(3)] for _ in range(3)]
    k = rng.randrange(0, 9)
    E = [[rng.randrange(-3, 4) for _ in range(3)] for _ in range(3)]
    N = [[x + p**k * e for x, e in zip(r1, r2)] for r1, r2 in zip(_int_matmul(M, X), E)]
    return M, N


def test_lattice_contains_against_integer_oracle():
    """Every answer matches exact integers; the refusals are PrecisionLoss,
    or Degenerate when det M has valuation >= precision/2 and so cancels to
    zero in the window."""
    rng = random.Random(21)
    answers = {True: 0, False: 0}
    for p in (3, 5):
        for precision in (8, 10, 12):
            ctx = PrimeContext(p, precision)
            for _ in range(200):
                M, N = containment_case(rng, p)
                try:
                    got = lattice_contains(Mat.from_ints(ctx, M), Mat.from_ints(ctx, N))
                except PrecisionLoss:
                    continue
                except Degenerate:
                    assert 2 * p_valuation(int_det(M), p) >= precision
                    continue
                assert got == int_contains(M, N, p), (p, precision, M, N)
                answers[got] += 1
    assert answers[True] > 50 and answers[False] > 50


@pytest.mark.parametrize(
    "p, precision, M, N",
    [
        (
            3, 8,
            "26244,-65610,-56862;-26240,26240,43737;13138,-19699,-24069",
            "2187,831060,-240570;-107142,-594799,247100;48198,358928,-96352",
        ),
        (
            5, 12,
            "29296875,39156254,-19578121;-117187500,-156187492,78093758;"
            "29296875,39062512,-19531238",
            "-87468786,-57562476,-235718726;353015553,233500048,938296923;"
            "-86718858,-58203053,-233984303",
        ),
    ],
)
def test_lattice_contains_refuses_where_the_bare_solve_is_wrong(p, precision, M, N):
    """The unguarded solve M^{-1} N reads integrality wrongly on these; the
    guard on the largest elementary divisor refuses them."""
    ctx = PrimeContext(p, precision)
    rows = lambda text: [[int(x) for x in row.split(",")] for row in text.split(";")]
    truth = int_contains(rows(M), rows(N), p)
    M, N = parse_matrix(M, ctx), parse_matrix(N, ctx)
    assert Span(M).solve(N).is_integral() != truth
    with pytest.raises(PrecisionLoss):
        lattice_contains(M, N)


def test_lattice_contains_runs_no_hermite_form(monkeypatch):
    calls = []
    orig = normal_forms.hnf_columns
    monkeypatch.setattr(normal_forms, "hnf_columns", lambda M: calls.append(M) or orig(M))
    ctx = PrimeContext(5)
    M = parse_matrix("5,1,0;0,1,0;0,0,25", ctx)
    assert lattice_contains(M, M.shift(1))
    assert not lattice_contains(M.shift(1), M)
    assert calls == []
    with pytest.raises(Degenerate):
        lattice_contains(Mat.from_ints(ctx, [[1, 2, 3], [2, 4, 6], [0, 0, 1]]), M)


def test_det_and_adjugate_take_2x2_and_3x3_only():
    ctx = PrimeContext(5)
    for n in (1, 4):
        M = Mat.identity(ctx, n)
        with pytest.raises(InvalidParameters):
            M.det()
        with pytest.raises(InvalidParameters):
            M.adjugate()


def _p_power_diagonal(rng, p, amax, signs=False):
    return [
        [(rng.choice((1, -1)) if signs else 1) * p ** rng.randrange(amax + 1) if i == j else 0
         for j in range(3)]
        for i in range(3)
    ]


def _congruent(V, D):
    """V^T D V in plain integers."""
    return _int_matmul(_int_matmul([list(col) for col in zip(*V)], D), V)


def test_snf_divisors_match_the_determinantal_divisors():
    """Half the cases are V1 diag(p^a, p^b, p^c) V2, heavy in powers of p."""
    rng = random.Random(29)
    for p in (3, 5, 7):
        ctx = PrimeContext(p, 64)
        for trial in range(60):
            if trial % 2:
                rows = [[rng.randrange(-60, 61) for _ in range(3)] for _ in range(3)]
                if not int_det(rows):
                    continue
            else:
                rows = _int_matmul(
                    _int_matmul(int_unimodular(rng, p), _p_power_diagonal(rng, p, 6)),
                    int_unimodular(rng, p),
                )
            divisors, _, _ = snf(Mat.from_ints(ctx, rows))
            assert divisors == int_elementary_divisors(rows, p)


def test_congruent_diagonalize_valuations_are_the_elementary_divisors():
    """For odd p, congruence by a unimodular V keeps the elementary
    divisors, so D's valuations, in the order returned, must be them."""
    rng = random.Random(31)
    for p in (3, 5, 7):
        ctx = PrimeContext(p, 64)
        for trial in range(60):
            if trial % 2:
                rows = [[0] * 3 for _ in range(3)]
                for i in range(3):
                    for j in range(i, 3):
                        rows[i][j] = rows[j][i] = rng.randrange(-60, 61)
                if not int_det(rows):
                    continue
            else:
                V = int_unimodular(rng, p)
                rows = _congruent(V, _p_power_diagonal(rng, p, 6, signs=True))
            D, _ = congruent_diagonalize(Mat.from_ints(ctx, rows))
            vals = tuple(D[i, i].valuation() for i in range(3))
            assert vals == int_elementary_divisors(rows, p)


# det has valuation 16, but at precision 10 the block left after the first
# pivot cancels to the exact zero, so no second pivot exists
CANCELLING = (
    7,
    10,
    "6104007655641,2034669218547,8138676874209;"
    "2034669218547,678223072849,2712892291480;"
    "8138676874209,2712892291480,10851569165563",
)


def test_a_block_that_cancels_to_zero_raises_precision_loss():
    p, precision, literal = CANCELLING
    A = parse_matrix(literal, PrimeContext(p, precision))
    with pytest.raises(PrecisionLoss):
        congruent_diagonalize(A)
    with pytest.raises(PrecisionLoss):
        canonical_form(Algebra(A))
    with pytest.raises(PrecisionLoss):
        eta(A)


def test_seeded_congruence_sweep_returns_or_raises_typed_errors():
    """V^T diag(+-p^a) V with a up to 20 at small precisions:
    every call returns or raises a PadicLieError, never an untyped error."""
    rng = random.Random(37)
    p, precision, literal = CANCELLING
    cases = [parse_matrix(literal, PrimeContext(p, precision))]
    while len(cases) < 1200:
        p, precision = rng.choice((3, 5, 7)), rng.choice((8, 10, 12, 16))
        V = int_unimodular(rng, p)
        rows = _congruent(V, _p_power_diagonal(rng, p, 20, signs=True))
        cases.append(Mat.from_ints(PrimeContext(p, precision), rows))
    refused = 0
    for A in cases:
        for f in (lambda: canonical_form(Algebra(A)), lambda: eta(A), lambda: snf(A),
                  lambda: hnf_columns(A)):
            try:
                f()
            except PadicLieError:
                refused += 1
    assert refused > 0


# ---------------------------------------------------------------------------
# The diagonalization is kept on its Mat
# ---------------------------------------------------------------------------


def _eliminations(monkeypatch):
    """The matrix of every run of the elimination behind congruent_diagonalize."""
    runs = []
    name = "_congruent_elimination"
    orig = getattr(normal_forms, name)
    monkeypatch.setattr(normal_forms, name, lambda A: runs.append(A) or orig(A))
    return runs


def _orbit_representative(ctx, diagonal):
    """V^T diag V for a fixed unimodular V: a non-diagonal matrix of the
    diagonal's isomorphism class."""
    V = Mat.from_ints(ctx, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    return V.transpose() * Mat.from_ints(ctx, diagonal) * V


def test_a_second_diagonalization_returns_the_identical_pair():
    ctx = PrimeContext(5)
    A = _orbit_representative(ctx, [[1, 0, 0], [0, 5, 0], [0, 0, -5]])
    first = congruent_diagonalize(A)
    second = congruent_diagonalize(A)
    assert second is first
    assert second[0] is first[0] and second[1] is first[1]


def test_one_request_runs_the_elimination_once(monkeypatch):
    """canonical_form, eta, sigma_bounds, group_report and
    construct_simple_ve on one decide-yes lattice share one elimination."""
    runs = _eliminations(monkeypatch)
    for p, diagonal in (
        (5, [[1, 0, 0], [0, 5, 0], [0, 0, -5]]),  # family 3, eps2 = 0
        (7, [[1, 0, 0], [0, -1, 0], [0, 0, 49]]),  # family 2, eps1 = 0
    ):
        alg = Algebra(_orbit_representative(PrimeContext(p), diagonal))
        del runs[:]
        cf = canonical_form(alg)
        e = eta(alg.matrix)
        report = sigma_bounds(cf)
        gr = group_report(alg)
        ve = construct_simple_ve(alg)
        assert report.index_p_self_similar and gr.index_p_self_similar
        assert e.eta == report.eta == 0
        assert ve.ambient is alg
        assert runs == [alg.matrix]


def test_failures_are_raised_again_on_every_call(monkeypatch):
    runs = _eliminations(monkeypatch)
    ctx = PrimeContext(5)
    p, precision, literal = CANCELLING
    cases = (
        (Mat.from_ints(ctx, [[1, 2, 0], [0, 5, 0], [0, 0, 1]]), NotSymmetric),
        (Mat.from_ints(ctx, [[1, 1, 0], [1, 1, 0], [0, 0, 5]]), Degenerate),
        (parse_matrix(literal, PrimeContext(p, precision)), PrecisionLoss),
    )
    for A, error in cases:
        del runs[:]
        messages = []
        for _ in range(2):
            with pytest.raises(error) as raised:
                congruent_diagonalize(A)
            messages.append(str(raised.value))
        assert len(runs) == 2
        assert messages[0] == messages[1]


def test_a_memo_hit_agrees_with_a_fresh_matrix(monkeypatch):
    """The kept pair equals a fresh elimination on an equal Mat, gives the
    same canonical form, and satisfies V^T A V = D in plain integers."""
    runs = _eliminations(monkeypatch)
    rng = random.Random(43)
    for p in (3, 5, 7):
        ctx = PrimeContext(p)
        checked = 0
        while checked < 6:
            rows = [[0] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    rows[i][j] = rows[j][i] = rng.randrange(-p**3, p**3 + 1)
            if not int_det(rows):
                continue
            checked += 1
            A = Mat.from_ints(ctx, rows)
            fresh = Mat.from_ints(ctx, rows)
            del runs[:]
            congruent_diagonalize(A)
            D, V = congruent_diagonalize(A)
            assert runs == [A]
            D2, V2 = congruent_diagonalize(fresh)
            assert runs == [A, fresh]
            assert (D, V) == (D2, V2)
            assert canonical_form(Algebra(A)) == canonical_form(Algebra(fresh))
            assert len(runs) == 2
            assert is_congruence_mod(A, D, V, p, 8)
