"""Index-p symbols: enumeration completeness, closed forms, the NSS
condition, the shift law, and the key stabilized-sum identity."""

import random

import pytest

from padiclie import normal_forms, subalgebras
from padiclie.errors import (
    InvalidParameters,
    NotDiagonal,
    NotSubalgebra,
    PathDisagreement,
    PreconditionViolated,
)
from padiclie.lattice import Algebra, change_of_basis
from padiclie.normal_forms import Mat, hnf_columns, parse_matrix
from padiclie.padic_core import INF, PadicScalar, PrimeContext
from padiclie.subalgebras import (
    XiSymbol,
    all_symbols,
    b_xi,
    enumerate_index_p,
    enumerate_index_p2,
    enumerate_sublattices,
    nss_condition,
)

from oracles import (
    count_sublattices_exponent,
    hermite_sublattices,
    is_closed_direct,
    key_identity_check,
    sub_s_invariants,
)


def test_symbol_count_and_classes():
    for p in (3, 5, 7):
        syms = all_symbols(p)
        assert len(syms) == 1 + p + p * p
        # class sizes: Xi_0 collects the generic symbols
        by_class = {0: 0, 1: 0, 2: 0}
        for xi in syms:
            by_class[xi.class_index()] += 1
        assert by_class[2] == 1  # only (0, 0)
        assert by_class[1] == p  # (0,) and (0, f) with f != 0
        assert by_class[0] == 1 + (p - 1) + p * (p - 1)


def test_u_matrix_matches_the_nine_from_int_construction(monkeypatch):
    """Every (val, unit, prec) of u_matrix equals that of the matrix built
    from nine from_int calls, for every symbol at p = 3, 5 and 101, with
    one from_int per symbol entry."""
    for p in (3, 5, 101):
        ctx = PrimeContext(p)
        for xi in all_symbols(p):
            t = xi.entries
            rows = [[p, 0, 0], [0, 1, 0], [0, 0, 1]]
            if len(t) == 1:
                rows = [[1, 0, 0], [t[0], p, 0], [0, 0, 1]]
            elif len(t) == 2:
                rows = [[1, 0, 0], [0, 1, 0], [t[0], t[1], p]]
            old = Mat.from_ints(ctx, rows)
            calls = []
            from_int = ctx.from_int
            monkeypatch.setattr(ctx, "from_int", lambda n: calls.append(n) or from_int(n))
            new = xi.u_matrix(ctx)
            monkeypatch.undo()
            assert len(calls) == len(t)
            assert [(x.val, x.unit, x.prec) for row in new.data for x in row] == [
                (x.val, x.unit, x.prec) for row in old.data for x in row]


def test_symbols_are_distinct_index_p_sublattices():
    ctx = PrimeContext(3)
    mats = [xi.u_matrix(ctx) for xi in all_symbols(3)]
    keys = set()
    for U in mats:
        assert U.det().valuation() == 1
        H, _ = hnf_columns(U)
        keys.add(H.key())
    assert len(keys) == 13


def test_every_index_p_sublattice_is_some_symbol():
    rng = random.Random(30)
    ctx = PrimeContext(3)
    keys = {}
    for xi in all_symbols(3):
        H, _ = hnf_columns(xi.u_matrix(ctx))
        keys[H.key()] = xi
    hits = set()
    for _ in range(300):
        U = Mat.from_ints(
            ctx, [[rng.randrange(-9, 10) for _ in range(3)] for _ in range(3)]
        )
        d = U.det()
        if d.is_zero() or d.valuation() != 1:
            continue
        H, _ = hnf_columns(U)
        assert H.key() in keys
        hits.add(H.key())
    assert len(hits) > 6  # the sampler reaches many classes


def test_b_xi_matches_change_of_basis():
    rng = random.Random(31)
    for p in (3, 5):
        ctx = PrimeContext(p)
        for _ in range(20):
            diag = [
                ctx.from_int(rng.randrange(1, p) * p ** rng.randrange(0, 3))
                for _ in range(3)
            ]
            alg = Algebra(Mat.diagonal(ctx, diag))
            for xi in all_symbols(p):
                assert b_xi(alg.matrix, xi) == change_of_basis(alg, xi.u_matrix(ctx))
    with pytest.raises(NotDiagonal):
        b_xi(parse_matrix("1,1,0;1,1,0;0,0,1", PrimeContext(3)), XiSymbol(()))


def test_b_xi_frozen_example():
    """xi = (0) on diag(1, p, -p): the new matrix is diag(p, 1, -p^2)."""
    ctx = PrimeContext(3)
    A = Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, 3, -3)])
    B = b_xi(A, XiSymbol((0,)))
    assert B == Mat.diagonal(ctx, [ctx.from_int(t) for t in (3, 1, -9)])


def test_enumerate_index_p_counts():
    ctx = PrimeContext(3)
    alg = Algebra(Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, 3, -3)]))
    reports = enumerate_index_p(alg)
    assert len(reports) == 13
    closed = [r for r in reports if r.closed]
    # s = (0,1,1): class 1 and class 2 symbols close (s_1, s_2 >= 1),
    # class 0 needs s_0 >= 1 which fails here, except the quadratic
    # cross terms can still vanish for special symbols
    for r in closed:
        assert r.sub_s is not None
        assert all(v != INF for v in r.sub_s)
    assert any(r.xi.class_index() == 1 for r in closed)


def test_enumerate_index_p_cross_check_raises(monkeypatch):
    ctx = PrimeContext(3)
    alg = Algebra(Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, 3, -3)]))
    monkeypatch.setattr(subalgebras, "b_xi", lambda A, xi: Mat.identity(ctx, 3))
    with pytest.raises(PathDisagreement):
        enumerate_index_p(alg)


def test_nss_condition_on_decide_no_families():
    """Canonical decide-no forms satisfy NSS; eps = 0 equal-pair forms fail."""
    for p in (3, 5):
        ctx = PrimeContext(p)
        rho = ctx.rho
        # family 1 strictly increasing: NSS holds
        A = Mat.diagonal(ctx, [ctx.from_int(t) for t in (p, rho * p**2, rho * p**3)])
        ok, witness = nss_condition(A)
        assert ok and witness is None
        # family 2 with eps1 = 1: diag(1, -rho, p^2) is NSS
        A = Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, -rho, p**2)])
        ok, witness = nss_condition(A)
        assert ok
        # family 2 with eps1 = 0: diag(1, -1, p^2) breaks rule 1 at e = 1
        A = Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, -1, p**2)])
        ok, witness = nss_condition(A)
        assert not ok
        assert witness[0] == 1 and witness[1] == 1


def test_nss_witness_for_split_pair():
    """diag(1, -1, p): e^2 - 1 cancels at e = 1, killing rule 1."""
    for p in (5, 13):  # p = 1 mod 4
        ctx = PrimeContext(p)
        A = Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, -1, p)])
        ok, witness = nss_condition(A)
        assert not ok
        assert witness == (1, 1, None)


def test_nss_requires_sorted_diagonal():
    ctx = PrimeContext(3)
    A = Mat.diagonal(ctx, [ctx.from_int(t) for t in (3, 1, 3)])
    with pytest.raises(InvalidParameters):
        nss_condition(A)
    with pytest.raises(NotDiagonal):
        nss_condition(parse_matrix("1,1,0;1,1,0;0,0,1", ctx))


def test_shift_law():
    assert sub_s_invariants((1, 2, 3), 0) == (0, 3, 4)
    assert sub_s_invariants((1, 2, 3), 2) == (2, 2, 3)
    assert sub_s_invariants((1, 1, 1), 1) == (0, 2, 2)
    with pytest.raises(NotSubalgebra):
        sub_s_invariants((0, 1, 1), 0)
    with pytest.raises(NotSubalgebra):
        sub_s_invariants((1, 1, INF), 2)


def test_shift_law_matches_induced_structure():
    """On an NSS basis the shift law equals the measured s-invariants.

    Without NSS the rule can fail (a cancellation e^2 u0 + u1 = 0 mod p
    raises the middle divisor), so non-NSS samples are skipped; the law
    is only claimed under the condition.
    """
    rng = random.Random(32)
    checked = 0
    for p in (3, 5):
        ctx = PrimeContext(p)
        for _ in range(40):
            s = sorted(rng.randrange(1, 4) for _ in range(3))
            units = [rng.randrange(1, p) for _ in range(3)]
            alg = Algebra(
                Mat.diagonal(
                    ctx, [ctx.from_int(units[i] * p ** s[i]) for i in range(3)]
                )
            )
            ok, _ = nss_condition(alg.matrix)
            if not ok:
                continue
            for r in enumerate_index_p(alg):
                # with every s_i >= 1 all thirteen symbols close
                assert r.closed
                i = r.xi.class_index()
                expected = sub_s_invariants(tuple(s), i)
                assert tuple(r.sub_s) == expected
                checked += 1
    assert checked > 50


def test_key_identity_on_nss_lattice():
    """All thirteen symbols satisfy the stabilized-sum identity on an NSS
    decide-no lattice."""
    p = 3
    ctx = PrimeContext(p)
    rho = ctx.rho
    alg = Algebra(
        Mat.diagonal(ctx, [ctx.from_int(t) for t in (p, rho * p**2, rho * p**3)])
    )
    ok, _ = nss_condition(alg.matrix)
    assert ok
    for xi in all_symbols(p):
        assert key_identity_check(alg, xi)


def test_key_identity_preconditions():
    ctx = PrimeContext(5)
    # not NSS: diag(1, -1, 5)
    bad = Algebra(Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, -1, 5)]))
    with pytest.raises(PreconditionViolated):
        key_identity_check(bad, XiSymbol(()))
    # NSS but xi not a subalgebra: class 0 with s0 = 0
    alg = Algebra(Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, -2, 25)]))
    ok, _ = nss_condition(alg.matrix)
    assert ok
    with pytest.raises(PreconditionViolated):
        key_identity_check(alg, XiSymbol(()))


def test_index_p2_count_on_abelian():
    """With the zero bracket every sublattice is a subalgebra: the two-step
    composites must reach every index-p^2 sublattice exactly once."""
    p = 3
    ctx = PrimeContext(p)
    zero = Mat.diagonal(ctx, [ctx.zero()] * 3)
    alg = Algebra(zero)
    found = enumerate_index_p2(alg)
    expected = count_sublattices_exponent(p, 2)
    assert expected == 1 + p + 2 * p**2 + p**3 + p**4 == 130
    assert len(found) == expected
    # and the direct enumerator agrees
    direct = set()
    for M in enumerate_sublattices(ctx, 2):
        H, _ = hnf_columns(M)
        direct.add(H.key())
    assert len(direct) == expected
    assert set(found.keys()) == direct


def test_enumerate_sublattices_order():
    """Pivot exponents come first, the first varying slowest, then the
    above-pivot entries row by row: a search reports the first invariant
    ideal in this order."""
    p = 3
    ctx = PrimeContext(p)

    def as_ints(H):
        return tuple(tuple(x.residue_mod(ctx.precision) for x in row) for row in H.data)

    for k in range(4):
        assert [as_ints(H) for H in enumerate_sublattices(ctx, k)] == list(hermite_sublattices(p, k))
        dim2 = [((p**a, h), (0, p ** (k - a))) for a in range(k + 1) for h in range(p**a)]
        assert [as_ints(H) for H in enumerate_sublattices(ctx, k, 2)] == dim2


def test_index_p2_on_sylow_lattice():
    """On diag(1, p, -p) the subalgebra composites are a proper subset."""
    ctx = PrimeContext(3)
    alg = Algebra(Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, 3, -3)]))
    found = enumerate_index_p2(alg)
    assert 0 < len(found) < 130
    for H, B in found.values():
        assert B.is_integral()
        assert H.det().valuation() == 2


@pytest.mark.parametrize(
    "rows",
    [[[1, 0, 0], [0, 3, 0], [0, 0, -3]], [[3, 3, 0], [3, 0, 9], [0, 9, 9]]],
    ids=["diagonal", "non-diagonal"],
)
def test_index_p2_matches_integer_closure_oracle(rows):
    """Every index-p^2 sublattice at p = 3 is found iff the integer oracle
    says the brackets of its generators stay inside it."""
    p = 3
    ctx = PrimeContext(p)
    alg = Algebra(Mat.from_ints(ctx, rows))
    found = enumerate_index_p2(alg)
    as_ints = set()
    for key, (H, B) in found.items():
        assert key == H.key() and B.is_integral()
        as_ints.add(tuple(tuple(x.residue_mod(ctx.precision) for x in row) for row in H.data))
    expected = {H for H in hermite_sublattices(p, 2) if is_closed_direct(rows, H, p, 2)}
    assert 0 < len(expected) < count_sublattices_exponent(p, 2)
    assert as_ints == expected


def test_xi_symbol_takes_only_in_range_integer_entries():
    """A symbol stores a tuple of ints; an entry outside [0, p) is refused
    where p is known, by u_matrix, the entries a builder is handed and
    b_xi alike."""
    with pytest.raises(InvalidParameters):
        XiSymbol((1.5,))
    with pytest.raises(InvalidParameters):
        XiSymbol(5)
    listed = XiSymbol([1, 2])
    assert listed == XiSymbol((1, 2)) and hash(listed) == hash(XiSymbol((1, 2)))
    assert type(listed.entries) is tuple
    ctx = PrimeContext(3)
    A = Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, 3, -3)])
    for entries in ((5,), (3,), (-1,), (0, 3), (2, -1)):
        xi = XiSymbol(entries)
        for call in (lambda: xi.u_matrix(ctx),
                     lambda: subalgebras.IndexPMatrices(A).of_entries(xi.entries_below(ctx.p)),
                     lambda: b_xi(A, xi)):
            with pytest.raises(InvalidParameters, match=r"outside \[0, 3\)"):
                call()


def test_index_p_questions_refuse_anything_but_3x3():
    ctx = PrimeContext(3)
    for A in (Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, 3)]),
              parse_matrix("1,0;0,3;0,0", ctx),
              Mat.diagonal(ctx, [ctx.one()] * 4)):
        for call in (lambda: b_xi(A, XiSymbol((1,))), lambda: nss_condition(A),
                     lambda: subalgebras.IndexPMatrices(A)):
            with pytest.raises(InvalidParameters, match="3 x 3"):
                call()


def test_a_sweep_forms_each_product_once(monkeypatch):
    """On a dense matrix at p = 7 the sweep makes (p - 1) * 9 products
    (-t) A[k][c], shared by every symbol, and each symbol at most two more
    for B[m][m]: 54 + 86 = 140 (536 when each symbol formed its own).  On a
    diagonal matrix the b_xi cross-check still runs once per symbol."""
    ctx = PrimeContext(7)
    products = []
    mul = PadicScalar.__mul__
    monkeypatch.setattr(PadicScalar, "__mul__", lambda x, y: products.append(1) or mul(x, y))
    alg = Algebra(parse_matrix("-50,30,10;30,-60,-30;10,-30,-80", ctx))
    reports = enumerate_index_p(alg)
    assert (len(reports), len(products)) == (57, 140)
    checks = []
    closed_form = subalgebras.b_xi
    monkeypatch.setattr(subalgebras, "b_xi", lambda A, xi: checks.append(xi) or closed_form(A, xi))
    enumerate_index_p(Algebra(Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, 7, -7)])))
    assert checks == all_symbols(7)


def _calls(monkeypatch, owner, name):
    """The arguments of every call of owner.name from here on."""
    calls, wrapped = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or wrapped(*args))
    return calls


@pytest.mark.parametrize("p, precision, literal, closed", [
    (3, 8, "162,-102,114;-102,150,-12;114,-12,123", 13),
    (7, 32, "-50,30,10;30,-60,-30;10,-30,-80", 8),
])
def test_a_sweep_lifts_its_structure_matrix_once(monkeypatch, p, precision, literal, closed):
    """A sweep lifts the structure matrix once and reads each closed B's
    Smith divisors off that lift and B's own row and column
    (IndexPMatrices.divisors): it never enters smith_divisors or
    Mat.is_integral for a symbol.  One table of p residues serves every U
    and the products (-t) A: from_int runs p times."""
    ctx = PrimeContext(p, precision)
    alg = Algebra(parse_matrix(literal, ctx))
    lifts = _calls(monkeypatch, subalgebras, "lift")
    smith = _calls(monkeypatch, normal_forms, "smith_divisors")
    divisors = _calls(monkeypatch, subalgebras.IndexPMatrices, "divisors")
    integral = _calls(monkeypatch, Mat, "is_integral")
    ints = _calls(monkeypatch, PrimeContext, "from_int")
    assert sum(r.closed for r in enumerate_index_p(alg)) == closed
    assert [M for (M,) in lifts] == [alg.matrix]
    assert (smith, integral) == ([], [])
    assert len(divisors) == closed
    assert len(ints) == p
