"""Bracket structures: Jacobi criterion, subalgebra indices, lower
central series, all pinned against direct expansions."""

import random

import pytest

from padiclie import lattice, normal_forms
from padiclie.errors import (
    Degenerate,
    InvalidParameters,
    NotSubalgebra,
    PathDisagreement,
    PrecisionLoss,
)
from padiclie.lattice import (
    Algebra,
    change_of_basis,
    index_exponent,
    induced_algebra,
    is_ideal,
    lcs_exponents,
    residually_nilpotent,
    saturating_scale,
)
from padiclie.normal_forms import Mat, hnf_columns, parse_matrix
from padiclie.padic_core import INF, PrimeContext

from oracles import (
    bracket_direct,
    index_and_commutator_index,
    int_contains,
    is_lie,
    is_subalgebra,
    is_unsolvable,
    jacobiator,
    jacobiator_direct,
    lattice_eq,
    span_membership,
)
from test_normal_forms import containment_case, int_unimodular


def random_int_matrix(rng, ctx, span=20):
    return Mat.from_ints(
        ctx, [[rng.randrange(-span, span + 1) for _ in range(3)] for _ in range(3)]
    )


def random_unimodular(rng, ctx, span=8):
    while True:
        M = random_int_matrix(rng, ctx, span)
        d = M.det()
        if not d.is_zero() and d.valuation() == 0:
            return M


def test_bracket_column_law():
    """[x1,x2], [x2,x0], [x0,x1] are the columns of the structure matrix."""
    ctx = PrimeContext(5)
    A = parse_matrix("1,2,3;4,5,6;7,8,10", ctx)
    alg = Algebra(A)
    e = [tuple(ctx.one() if i == j else ctx.zero() for j in range(3)) for i in range(3)]
    assert alg.bracket(e[1], e[2]) == A.col(0)
    assert alg.bracket(e[2], e[0]) == A.col(1)
    assert alg.bracket(e[0], e[1]) == A.col(2)
    # antisymmetry of the bracket itself
    lhs = alg.bracket(e[2], e[1])
    assert tuple(-x for x in lhs) == A.col(0)


def test_jacobiator_matches_direct_expansion():
    """A v agrees with literally summing the three nested brackets."""
    rng = random.Random(10)
    ctx = PrimeContext(3)
    for _ in range(120):
        rows = [[rng.randrange(-9, 10) for _ in range(3)] for _ in range(3)]
        alg = Algebra(Mat.from_ints(ctx, rows))
        direct = jacobiator_direct(rows)
        lib = jacobiator(alg)
        for t in range(3):
            frac = direct[t]
            assert frac.denominator == 1
            assert lib[t] == ctx.from_int(frac.numerator)


def test_symmetric_iff_lie_when_nondegenerate():
    rng = random.Random(11)
    ctx = PrimeContext(5)
    seen_sym = seen_asym = 0
    for trial in range(300):
        rows = [[rng.randrange(-9, 10) for _ in range(3)] for _ in range(3)]
        if trial % 2 == 0:
            for i in range(3):
                for j in range(i):
                    rows[i][j] = rows[j][i]
        A = Mat.from_ints(ctx, rows)
        if A.det().is_zero():
            continue
        alg = Algebra(A)
        if A.is_symmetric():
            assert is_lie(alg)
            seen_sym += 1
        else:
            assert not is_lie(alg)
            seen_asym += 1
    assert seen_sym > 0 and seen_asym > 5
    # a degenerate non-symmetric bracket may still satisfy Jacobi
    nil = Algebra(Mat.from_ints(ctx, [[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    assert is_lie(nil) and not is_unsolvable(nil)


def test_sl2_relations():
    """diag-free check: [x0,x1] = 2x1, [x2,x0] = 2x2, [x1,x2] = x0."""
    ctx = PrimeContext(7)
    alg = Algebra(parse_matrix("1,0,0;0,0,2;0,2,0", ctx))
    assert is_lie(alg) and is_unsolvable(alg)
    e = [tuple(ctx.one() if i == j else ctx.zero() for j in range(3)) for i in range(3)]
    two = ctx.from_int(2)
    assert alg.bracket(e[0], e[1]) == (ctx.zero(), two, ctx.zero())
    assert alg.bracket(e[2], e[0]) == (ctx.zero(), ctx.zero(), two)
    assert alg.bracket(e[1], e[2]) == (ctx.one(), ctx.zero(), ctx.zero())


def test_change_of_basis_scaled_diagonal_law():
    """Scaling basis vector i by p^{k_i} shifts a_i by -k_i + k_j + k_l."""
    rng = random.Random(12)
    for p in (3, 5):
        ctx = PrimeContext(p)
        for _ in range(30):
            s = sorted(rng.randrange(0, 4) for _ in range(3))
            units = [rng.randrange(1, p) for _ in range(3)]
            A = Mat.diagonal(
                ctx, [ctx.from_int(units[i] * p ** s[i]) for i in range(3)]
            )
            alg = Algebra(A)
            k = [rng.randrange(0, 3) for _ in range(3)]
            U = Mat.p_power_diagonal(ctx, k)
            B = change_of_basis(alg, U)
            assert B.is_diagonal()
            for i in range(3):
                j, l = [t for t in range(3) if t != i]
                assert B[i, i].valuation() == s[i] - k[i] + k[j] + k[l]


def test_change_of_basis_functorial():
    rng = random.Random(13)
    ctx = PrimeContext(3)
    for _ in range(25):
        A = random_int_matrix(rng, ctx, span=9)
        if A.det().is_zero():
            continue
        alg = Algebra(A)
        U = random_unimodular(rng, ctx)
        V = random_unimodular(rng, ctx)
        B1 = change_of_basis(Algebra(change_of_basis(alg, U)), V)
        B2 = change_of_basis(alg, U * V)
        assert B1 == B2


def test_index_quadrupling():
    """[L : M] = p^k forces [[L,L] : [M,M]] = p^{2k} for subalgebras."""
    rng = random.Random(14)
    checked = 0
    for p in (3, 5):
        ctx = PrimeContext(p)
        alg = Algebra(parse_matrix("1,0,0;0,0,2;0,2,0", ctx))
        while checked < 40:
            exps = [rng.randrange(0, 3) for _ in range(3)]
            U = Mat.p_power_diagonal(ctx, exps)
            if not is_subalgebra(alg, U):
                # perturb: p-power diagonals of sl2 are always subalgebras,
                # so this branch never fires for this algebra
                continue
            k, c = index_and_commutator_index(alg, U)
            assert k == sum(exps)
            assert c == 2 * k
            checked += 1


def test_index_quadrupling_cross_check_raises(monkeypatch):
    ctx = PrimeContext(3)
    alg = Algebra(parse_matrix("1,0,0;0,0,2;0,2,0", ctx))
    U = Mat.p_power_diagonal(ctx, (0, 1, 0))
    assert index_and_commutator_index(alg, U) == (1, 2)
    monkeypatch.setattr(lattice, "index_exponent", lambda U: 2)
    with pytest.raises(PathDisagreement):
        index_and_commutator_index(alg, U)


def test_induced_algebra_and_not_subalgebra():
    ctx = PrimeContext(3)
    alg = Algebra(Mat.diagonal(ctx, [ctx.one(), ctx.from_int(3), ctx.from_int(-3)]))
    # scaling x1 by p keeps the span closed: diag(p, 1, -p^2)
    U = Mat.p_power_diagonal(ctx, [0, 1, 0])
    sub = induced_algebra(alg, U)
    assert is_lie(sub)
    assert [sub.matrix[i, i].valuation() for i in range(3)] == [1, 0, 2]
    # but scaling a single vector of the unit form breaks closure
    dense = Algebra(Mat.diagonal(ctx, [ctx.one(), ctx.one(), ctx.one()]))
    V = Mat.p_power_diagonal(ctx, [1, 0, 0])
    assert not is_subalgebra(dense, V)
    with pytest.raises(NotSubalgebra):
        induced_algebra(dense, V)


def test_index_exponent_and_sublattice():
    ctx = PrimeContext(5)
    U = parse_matrix("5,1,0;0,1,0;0,0,25", ctx)
    assert index_exponent(U) == 3
    H, _ = hnf_columns(U)
    assert sum(x.valuation() for x in H.diagonal_entries()) == 3
    with pytest.raises(Degenerate):
        index_exponent(Mat.from_ints(ctx, [[1, 0, 0], [0, 1, 0], [1, 1, 0]]))


def hermite_sublattices(p, k):
    """Integer column Hermite forms of the sublattices of Z_p^3 of index p^k."""
    for a in range(k + 1):
        for b in range(k - a + 1):
            c = k - a - b
            for x in range(p**a):
                for y in range(p**a):
                    for z in range(p**b):
                        yield [[p**a, x, y], [0, p**b, z], [0, 0, p**c]]


def test_is_ideal_against_integer_membership():
    """Every sublattice of index <= p^3 at p = 3, on a diagonal and a
    non-diagonal structure matrix, against brackets and spans in integers."""
    p = 3
    ctx = PrimeContext(p)
    for A in ([[1, 0, 0], [0, 3, 0], [0, 0, -3]], [[2, 1, 0], [1, 3, 3], [0, 3, 9]]):
        alg = Algebra(Mat.from_ints(ctx, A))
        e = [[int(i == j) for j in range(3)] for i in range(3)]
        found = 0
        for k in range(4):
            for rows in hermite_sublattices(p, k):
                cols = [[rows[i][j] for i in range(3)] for j in range(3)]
                member = span_membership(cols, p, k)
                expect = all(member(bracket_direct(A, x, c)) for x in e for c in cols)
                assert is_ideal(alg.matrix, Mat.from_ints(ctx, rows)) == expect
                found += expect
        assert 0 < found < 1354


def test_is_ideal_against_integer_oracle():
    """Random J = V1 diag(p^a, p^b, p^c) V2, and J = p^a V (always an
    ideal), at precision 8, 10 and 12: every answer matches exact integer
    brackets and containment."""
    rng = random.Random(22)
    answers = {True: 0, False: 0}
    for p in (3, 5):
        structures = ([[1, 0, 0], [0, p, 0], [0, 0, -p]], [[2, 1, 0], [1, p, p], [0, p, p * p]])
        for precision in (8, 10, 12):
            ctx = PrimeContext(p, precision)
            for t in range(100):
                A = structures[t % 2]
                if t % 4 >= 2:
                    a = rng.randrange(0, 5)
                    J = [[p**a * x for x in row] for row in int_unimodular(rng, p)]
                else:
                    J, _ = containment_case(rng, p)
                cols = list(zip(*J))
                e = [[int(i == j) for j in range(3)] for i in range(3)]
                images = [bracket_direct(A, x, c) for x in e for c in cols]
                expect = int_contains(J, [list(r) for r in zip(*images)], p)
                try:
                    got = is_ideal(Mat.from_ints(ctx, A), Mat.from_ints(ctx, J))
                except (PrecisionLoss, Degenerate):
                    continue
                assert got == expect, (p, precision, A, J)
                answers[got] += 1
    assert answers[True] > 20 and answers[False] > 20


def test_is_ideal_takes_one_det_and_adjugate(monkeypatch):
    """One integer det and adjugate, of J's lift, and none in the window."""
    ctx = PrimeContext(5)
    alg = Algebra(Mat.from_ints(ctx, [[1, 0, 0], [0, 5, 0], [0, 0, -5]]))
    calls = {}
    for owner, name in ((Mat, "det"), (Mat, "adjugate"),
                        (normal_forms, "int_det"), (normal_forms, "int_adjugate")):
        orig = getattr(owner, name)
        calls[name] = []
        monkeypatch.setattr(
            owner, name, lambda *a, orig=orig, seen=calls[name]: seen.append(a) or orig(*a)
        )
    # pL is an ideal, so every one of the nine brackets is tested
    assert is_ideal(alg.matrix, Mat.identity(ctx, 3).shift(1))
    assert {name: len(seen) for name, seen in calls.items()} == {
        "det": 0, "adjugate": 0, "int_det": 1, "int_adjugate": 1}


def lcs_oracle(s, n):
    """gamma_n exponents by iterating k_t = s_t + min over the other two."""
    k = [0, 0, 0]
    for _ in range(n):
        nk = []
        for t in range(3):
            others = [k[j] for j in range(3) if j != t]
            m = min(others)
            nk.append(INF if (m == INF or s[t] == INF) else s[t] + m)
        k = nk
    return tuple(k)


def test_lcs_exponents_against_recurrence():
    rng = random.Random(15)
    for _ in range(60):
        s = tuple(sorted(rng.randrange(0, 4) for _ in range(3)))
        for n in range(1, 8):
            assert lcs_exponents(s, n) == lcs_oracle(s, n)


def test_lcs_frozen_values():
    # gamma_3 of the Sylow shape s = (0,1,1)
    assert lcs_exponents((0, 1, 1), 3) == (1, 2, 2)
    assert lcs_exponents((0, 1, 1), 1) == (0, 1, 1)
    assert lcs_exponents((0, 1, 1), 2) == (1, 1, 1)
    # a flat shape never descends in slot 0
    assert lcs_exponents((0, 0, 1), 4) == (0, 0, 1)


def test_lcs_exponents_refuse_an_s_without_three_entries():
    """An s without three entries, or an n that is not an integer (2.5
    answered (1.0, 1.0, 1.0)), is refused with InvalidParameters."""
    for s, n in (((0, 1), 3), ((0, 1, 1, 1), 3), ((), 3), (3, 3), ((0, 1, 1), 2.5),
                 ((0, 1, 1), "3")):
        with pytest.raises(InvalidParameters, match="three entries"):
            lcs_exponents(s, n)


def test_lcs_by_bracket_spans():
    """The closed formula equals the literal bracket-span computation."""
    rng = random.Random(16)
    ctx = PrimeContext(3)
    for _ in range(12):
        s = tuple(sorted(rng.randrange(0, 3) for _ in range(3)))
        units = [rng.randrange(1, 3) for _ in range(3)]
        A = Mat.diagonal(ctx, [ctx.from_int(units[i] * 3 ** s[i]) for i in range(3)])
        alg = Algebra(A)
        e = [
            tuple(ctx.one() if i == j else ctx.zero() for j in range(3))
            for i in range(3)
        ]
        gamma = Mat.identity(ctx, 3)
        for n in range(1, 5):
            gens = []
            for i in range(3):
                for j in range(3):
                    w = alg.bracket(e[i], gamma.col(j))
                    gens.append(list(w))
            stacked = Mat(ctx, [[g[r] for g in gens] for r in range(3)])
            gamma, _ = hnf_columns(stacked)
            expected = Mat.p_power_diagonal(ctx, lcs_exponents(s, n))
            assert lattice_eq(gamma, expected)


def test_residual_nilpotence_and_saturation():
    assert residually_nilpotent((1, 1, 1))
    assert residually_nilpotent((0, 1, 1))
    assert not residually_nilpotent((0, 0, 1))
    assert saturating_scale(0, INF) == 0
    assert saturating_scale(2, INF) == INF
    assert saturating_scale(3, 4) == 12
