"""The index-p sweep, the Smith form, the domain chain, the key identity
and the selftest draws against the references in tests/oracles.py: the
per-symbol loop through the generic change_of_basis, the Smith
elimination that updates its witnesses as it goes, the chain through the
kernel of a 3 x 6 stack, the key identity as two 3 x 6 Hermite forms, and
the draws that took a det of every Mat."""

import collections
import contextlib
import io
import itertools
import random

import pytest

from padiclie import cli, selfsim, subalgebras
from padiclie.classify import FAMILIES, CanonicalForm
from padiclie.errors import InvalidParameters, PadicLieError, PrecisionLoss
from padiclie.lattice import Algebra, change_of_basis
from padiclie.normal_forms import Mat, congruent_diagonalize, smith_divisors, snf
from padiclie.padic_core import INF, PrimeContext
from padiclie.selfsim import non_self_similarity_certificate
from padiclie.subalgebras import (
    SWEEP_BOUND,
    IndexPMatrices,
    XiSymbol,
    all_symbols,
    closed_symbols,
    enumerate_index_p,
    nss_condition,
)

from oracles import (
    canonical_diagonal,
    int_adjugate,
    int_contains,
    int_det,
    p_valuation,
    parent_enumerate_index_p,
    reference_certificate,
    reference_domain_chain,
    reference_enumerate_index_p,
    reference_key_identity,
    reference_random_symmetric,
    reference_random_unimodular,
    reference_snf,
    side_by_side,
)

PRIMES = (3, 5, 7, 11)
PRECISIONS = (8, 16, 32)


def _unimodular(rng, p, span):
    while True:
        V = [[rng.randrange(-span, span + 1) for _ in range(3)] for _ in range(3)]
        if int_det(V) % p:
            return V


def _conjugate(V, A):
    """V^T A V in integers."""
    AV = [[sum(A[i][k] * V[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    return [[sum(V[k][i] * AV[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def _orbit_case(rng, p):
    """V^T D V for a canonical diagonal D with s up to 8."""
    family = rng.randrange(1, 5)
    a = rng.randrange(3)
    b, c = a + rng.randrange(1, 4), a + rng.randrange(4, 7)
    s = {1: (a, b, c), 2: (a, a, c), 3: (a, c, c), 4: (a, a, a)}[family]
    d = canonical_diagonal(family, s, (rng.randrange(2), rng.randrange(2)), p)
    D = [[d[i] if i == j else 0 for j in range(3)] for i in range(3)]
    rows = _conjugate(_unimodular(rng, p, 9), D)
    return lambda ctx: Mat.from_ints(ctx, rows)


def _selftest_case(rng, p):
    """(V^T A V) u as selftest builds it: mirrored entries can differ in
    precision."""
    e = [[rng.randrange(1, p) * p ** rng.randrange(3) if rng.random() < 0.8 else 0
          for _ in range(3)] for _ in range(3)]
    a = [[e[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)]
    v = _unimodular(rng, p, p * p)
    u = rng.randrange(1, p)

    def build(ctx):
        V = Mat.from_ints(ctx, v)
        return (V.transpose() * Mat.from_ints(ctx, a) * V).scale(ctx.from_int(u))

    return build


def _diagonal_case(rng, p):
    """diag(u_i p^v_i), some entries zero, or the diagonal D that
    congruent_diagonalize gives for an orbit case, whose entries carry
    shrunk windows."""
    if rng.random() < 0.5:
        d = [rng.randrange(1, p * p) * p ** rng.randrange(7) if rng.random() < 0.9 else 0
             for _ in range(3)]
        return lambda ctx: Mat.diagonal(ctx, [ctx.from_int(x) for x in d])
    orbit = _orbit_case(rng, p)
    return lambda ctx: congruent_diagonalize(orbit(ctx))[0]


CASES = (_orbit_case, _selftest_case, _diagonal_case)


def _fields(M):
    return tuple((x.val, x.unit, x.prec) for row in M.data for x in row)


def _outcome(f, *args):
    """(None, value) or (error type, None)."""
    try:
        return None, f(*args)
    except PadicLieError as error:
        return type(error), None


def _sweep(f, alg):
    error, reports = _outcome(f, alg)
    if error is not None:
        return error, None
    return None, [(r.xi.entries, _fields(r.u_matrix), _fields(r.b_matrix), r.closed, r.sub_s)
                  for r in reports]


def _seeded_cases(seed):
    """(p, precision, build) without end, the case kinds in turn."""
    rng = random.Random(seed)
    trial = 0
    while True:
        p, precision = rng.choice(PRIMES), rng.choice(PRECISIONS)
        yield p, precision, CASES[trial % 3](rng, p)
        trial += 1


def _seeded_algebras(seed, count):
    """count (p, precision, build, Algebra) whose structure matrix the window
    can build."""
    cases = _seeded_cases(seed)
    while count:
        p, precision, build = next(cases)
        try:
            alg = Algebra(build(PrimeContext(p, precision)))
        except PadicLieError:
            continue  # a diagonal case whose diagonalization the window cannot decide
        yield p, precision, build, alg
        count -= 1


def test_the_sweep_matches_the_change_of_basis_loop():
    """(U, B, closed, sub_s) field for field, or the same error, on 1,000
    matrices.  Where the reference raises PrecisionLoss, the sweep raises
    PrecisionLoss too, or answers what the reference answers at a wider
    window: its Smith divisors build no witness that could run out of it."""
    for p, precision, build, alg in _seeded_algebras(20, 1000):
        error, ref = _sweep(reference_enumerate_index_p, alg)
        new_error, new = _sweep(enumerate_index_p, alg)
        if error is not PrecisionLoss:
            assert (new_error, new) == (error, ref)
        elif new_error is not None:
            assert new_error is PrecisionLoss
        else:
            wider = precision
            while error is not None:
                wider *= 2
                error, ref = _sweep(reference_enumerate_index_p,
                                    Algebra(build(PrimeContext(p, wider))))
            assert [(x, c, s) for x, _, _, c, s in new] == [(x, c, s) for x, _, _, c, s in ref]


def _reports_or_error(f, alg):
    """(error type, message), or per report the symbol, U and B as
    (val, unit, prec) each, closed and sub_s."""
    try:
        reports = f(alg)
    except PadicLieError as error:
        return type(error), str(error)
    return [(r.xi.entries, _fields(r.u_matrix), _fields(r.b_matrix), r.closed, r.sub_s)
            for r in reports]


def test_the_sweep_matches_its_frozen_parent():
    """Every report field for field, or the same error type and message,
    against the sweep as it was before it formed A's lift, the residues and
    the symbols once (tests/oracles.py parent_enumerate_index_p), on 600
    seeded algebras at every p in {3, 5, 7, 11} and precision in {8, 16,
    32}.  Diagonal matrices take the b_xi cross-check, and Bs occur whose
    entries the sums cut below the window of a full-window A."""
    seen = collections.Counter()
    for p, precision, _, alg in _seeded_algebras(31, 600):
        ref = _reports_or_error(parent_enumerate_index_p, alg)
        assert _reports_or_error(enumerate_index_p, alg) == ref
        seen[p, precision] += 1
        if isinstance(ref, tuple):
            seen["error"] += 1
            continue
        seen["diagonal"] += alg.matrix.is_diagonal()
        full = all(x.prec == precision for row in alg.matrix.data for x in row)
        seen["cut"] += full and any(prec < precision for report in ref
                                    for _, _, prec in report[2])
    assert len(seen) == 12 + 3, seen
    assert seen["diagonal"] > 100 and seen["cut"] > 100 and seen["error"] > 0, seen


def test_index_p_matrix_is_change_of_basis_scalar_for_scalar():
    """Every symbol's B, or its PrecisionLoss, on the seeded cases at p = 3, 5
    (the sweep test covers the rest through enumerate_index_p)."""
    checked = 0
    for p, _, _, alg in _seeded_algebras(21, 300):
        if p > 5:
            continue
        A = alg.matrix
        matrices = IndexPMatrices(A)
        for xi in all_symbols(p):
            error, ref = _outcome(change_of_basis, alg, xi.u_matrix(A.ctx))
            new_error, new = _outcome(matrices.of_entries, xi.entries)
            assert new_error is error
            if error is None:
                assert _fields(new) == _fields(ref)
            checked += 1
    assert checked > 2000


def test_snf_matches_the_interleaved_elimination():
    """(divisors, P, Q) field for field, or the same error, on square cases,
    3 x 6 stacks [A | -S] and rank-deficient stacks [A | A]."""
    rng = random.Random(22)
    seen = set()
    for p, _, _, alg in _seeded_algebras(23, 1000):
        A, ctx = alg.matrix, alg.ctx
        other = CASES[rng.randrange(3)](rng, p)
        try:
            S = other(ctx)
        except PadicLieError:
            S = A
        for M in (A, side_by_side(A, S.scale(-ctx.one())), side_by_side(A, A)):
            error, ref = _outcome(reference_snf, M)
            new_error, new = _outcome(snf, M)
            seen.add(error)
            assert new_error is error
            if error is not None:
                continue
            assert new[0] == ref[0]
            assert (_fields(new[1]), _fields(new[2])) == (_fields(ref[1]), _fields(ref[2]))
    assert None in seen


def _nss_forms(p, smax):
    """Every canonical form with s <= smax whose diagonal is NSS, as an Algebra."""
    for family, (free, eps_slots) in FAMILIES.items():
        for values in _increasing(len(free), smax):
            for bits in _bits(len(eps_slots)):
                cf = CanonicalForm.from_parameters(family, values + bits, p)
                alg = cf.algebra()
                if nss_condition(alg.matrix)[0]:
                    yield alg


def _increasing(n, smax):
    if n == 0:
        yield ()
        return
    for rest in _increasing(n - 1, smax):
        for v in range((rest[-1] + 1) if rest else 0, smax + 1):
            yield rest + (v,)


def _bits(n):
    return [tuple((b >> i) & 1 for i in range(n)) for b in range(2**n)]


def test_the_certificate_matches_the_change_of_basis_loop():
    """Every NSS diagonal canonical form with s <= 6 at p = 3, 5, 7, 11, 13,
    against the loop through change_of_basis and the frozen 3 x 6 key
    identity."""
    checked = 0
    for p in (3, 5, 7, 11, 13):
        for alg in _nss_forms(p, 6):
            assert non_self_similarity_certificate(alg) == reference_certificate(alg)
            checked += 1
    assert checked == 5 * 182


def test_the_integer_closure_test_matches_integrality_of_b():
    """closed_symbols agrees with B.is_integral() for B = change_of_basis
    wherever the reference answers, on diagonal inputs of every window."""
    rng = random.Random(24)
    compared = 0
    for trial in range(400):
        p, precision = rng.choice(PRIMES), rng.choice(PRECISIONS)
        try:
            A = _diagonal_case(rng, p)(PrimeContext(p, precision))
        except PadicLieError:
            continue
        alg = Algebra(A)
        try:
            ref = [xi.entries for xi in all_symbols(p)
                   if change_of_basis(alg, xi.u_matrix(A.ctx)).is_integral()]
        except PrecisionLoss:
            continue
        assert [xi.entries for xi in closed_symbols(A)] == ref
        compared += 1
    assert compared > 300


def test_sweeps_above_the_bound_are_refused_before_any_work(monkeypatch):
    """p = 139 (19,461 symbols) is under SWEEP_BOUND and p = 149 above it;
    a refused sweep builds no symbol."""
    assert 1 + 139 + 139**2 <= SWEEP_BOUND < 1 + 149 + 149**2
    ctx = PrimeContext(1009)
    alg = Algebra(Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, 1009, -1009)]))
    monkeypatch.setattr("padiclie.subalgebras.XiSymbol", None)
    for f in (enumerate_index_p, non_self_similarity_certificate):
        with pytest.raises(InvalidParameters, match="20000"):
            f(alg)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["subalgebras", "--prime", "1009", "--matrix", "1,0,0;0,1009,0;0,0,-1009"])
    assert (code, out.getvalue()) == (2, "")
    assert "InvalidParameters" in err.getvalue()


def test_the_certificate_answers_at_p_101():
    ctx = PrimeContext(101)
    alg = Algebra(Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, 101, 101**2)]))
    cert = non_self_similarity_certificate(alg)
    assert len(cert["key_identity"]) == 102
    assert all(cert["key_identity"].values())


def test_selftest_draws_match_the_det_filtered_draws():
    """The same matrices, now drawn as integer rows, and the same generator
    state after every draw, for 200 seeds at p = 3, 5, 7, 101 and precision
    32: the rows enter Mat.from_ints as the reference's scalars, field for
    field, and the symmetric draw's own Mat is that Mat."""
    for p in (3, 5, 7, 101):
        ctx = PrimeContext(p, 32)
        for seed in range(200):
            old, new = random.Random(seed), random.Random(seed)
            for ref_draw, draw in (
                (reference_random_symmetric, cli._random_symmetric),
                (reference_random_unimodular, lambda *args: (cli._random_unimodular(*args),)),
                (reference_random_symmetric, cli._random_symmetric),
            ):
                rows, *kept = draw(new, ctx)
                ref = _fields(ref_draw(old, ctx))
                assert _fields(Mat.from_ints(ctx, rows)) == ref
                assert all(_fields(M) == ref for M in kept)
                assert new.getstate() == old.getstate()


def _ints(M):
    """The integral M as integer rows: each entry's value, read off its fields."""
    return [[0 if x.is_zero() else x.unit * x.ctx.p**x.val for x in row] for row in M.data]


def _against_the_reference(p, precision, answer, reference):
    """answer(ctx) against reference(ctx), both plain values.  Where the
    reference does not raise PrecisionLoss, the same value or error; where
    it does, PrecisionLoss again or the reference's answer at the first
    doubled precision from 64 on where it answers.  Returns the two
    outcomes at this precision."""
    ref = _outcome(reference, PrimeContext(p, precision))
    new = _outcome(answer, PrimeContext(p, precision))
    if ref[0] is not PrecisionLoss:
        assert new == ref
    elif new[0] is None:
        wider = _outcome(reference, PrimeContext(p, 64))
        while wider[0] is PrecisionLoss:
            precision = 2 * max(precision, 64)
            wider = _outcome(reference, PrimeContext(p, precision))
        assert new == wider
    else:
        assert new[0] is PrecisionLoss
    return ref, new


def _endo_pair(rng, p):
    """(domain, phi) in integers.  Half the draws are built as the
    benchmark's endo inputs are: U diag(1, p, 1) and U diag(1, 1, p) for U
    a product of four elementary matrices, one in five with two images
    swapped.  The other half are a random nonsingular domain and a random
    phi, singular one time in three."""
    if rng.randrange(2) == 0:
        U = [[int(i == j) for j in range(3)] for i in range(3)]
        for _ in range(4):
            i, j = rng.sample(range(3), 2)
            c = rng.choice((-2, -1, 1, 2))
            for row in U:
                row[j] += c * row[i]
        domain = [[U[i][j] * (p if j == 1 else 1) for j in range(3)] for i in range(3)]
        phi = [[U[i][j] * (p if j == 2 else 1) for j in range(3)] for i in range(3)]
        if rng.randrange(5) == 0:
            phi = [[row[0], row[2], row[1]] for row in phi]
        return domain, phi

    def draw():
        return [[rng.randrange(-p * p, p * p + 1) * p ** rng.randrange(3) for _ in range(3)]
                for _ in range(3)]

    domain = draw()
    while int_det(domain) == 0:
        domain = draw()
    phi = draw()
    if rng.randrange(3) == 0:
        a, b = rng.randrange(-2, 3), rng.randrange(-2, 3)
        for row in phi:
            row[2] = a * row[0] + b * row[1]
    return domain, phi


def _package_chain(domain, phi, depth):
    """The package's chain as Mats, as domain_chain builds them."""
    return [Mat.from_ints(domain.ctx, D) for D in selfsim._domain_chain(domain, phi, depth)]


def test_the_domain_chain_matches_the_3x6_kernel_chain():
    """1,000 seeded (domain, phi) pairs at p = 3, 5, 7, 11 and precision 8,
    16 and 32, chains of depth 3 or 8, against the chain through the kernel of
    [phi | -S] frozen in tests/oracles.py.  Every term the new route gives
    is checked in integers: D_{n+1} lies in the domain, and phi maps it
    into D_n."""
    rng = random.Random(25)
    outcomes = set()
    for _ in range(1000):
        p, precision = rng.choice(PRIMES), rng.choice(PRECISIONS)
        domain, phi = _endo_pair(rng, p)
        depth = rng.choice((3, 8))

        def chain_by(route):
            return lambda ctx: [_ints(D) for D in route(
                Mat.from_ints(ctx, domain), Mat.from_ints(ctx, phi), depth)]

        ref, new = _against_the_reference(
            p, precision, chain_by(_package_chain), chain_by(reference_domain_chain))
        outcomes.add((ref[0], new[0]))
        if new[0] is not None:
            continue
        v = p_valuation(int_det(domain), p)
        pulled = [[sum(x * y for x, y in zip(row, col)) for col in zip(*int_adjugate(domain))]
                  for row in phi]  # phi adj(domain) = det(domain) phi domain^{-1}
        for D, E in zip(new[1], new[1][1:]):
            assert int_contains(domain, E, p)
            image = [[sum(x * y for x, y in zip(row, col)) for col in zip(*E)] for row in pulled]
            assert int_contains([[x * p**v for x in row] for row in D], image, p)
    assert (None, None) in outcomes


def test_the_integer_chain_matches_the_windowed_chain():
    """1,200 seeded (domain, phi) pairs at p = 3, 5, 7 and precision 16 and
    32, chains of depth 1 to 6: domain_chain equals the frozen windowed
    chain term by term where that answers, and where it raises
    PrecisionLoss, answers as it does at a wider window, or raises
    PrecisionLoss too."""
    rng = random.Random(29)
    outcomes = set()
    for _ in range(1200):
        p, precision = rng.choice((3, 5, 7)), rng.choice((16, 32))
        domain, phi = _endo_pair(rng, p)
        depth = rng.randrange(1, 7)

        def chain_by(route):
            return lambda ctx: [_ints(D) for D in route(
                Mat.from_ints(ctx, domain), Mat.from_ints(ctx, phi), depth)]

        ref, new = _against_the_reference(
            p, precision, chain_by(_package_chain), chain_by(reference_domain_chain))
        outcomes.add((ref[0], new[0]))
    assert {(None, None), (PrecisionLoss, None)} <= outcomes


def _closed_bs(rng, count):
    """(p, precision, alg, matrices, xi, B) for every closed symbol xi of
    count seeded algebras at p = 3, 5, 7 whose B = matrices.of_entries the
    window builds, then of count diagonal forms (_diagonal_forms), matrices
    the IndexPMatrices over alg.matrix.  The axpy's cancellation leaves
    some entries of B fewer digits than the window."""
    algebras = ((p, precision, alg) for p, precision, _, alg in _seeded_algebras(30, 3 * count)
                if p <= 7)
    diagonals = ((p, rng.choice(PRECISIONS), d) for p, d in _diagonal_forms(rng, count))
    for p, precision, alg in itertools.islice(algebras, count):
        matrices = IndexPMatrices(alg.matrix)
        for xi in all_symbols(p):
            error, B = _outcome(matrices.of_entries, xi.entries)
            if error is None and B.is_integral():
                yield p, precision, alg, matrices, xi, B
    for p, precision, d in diagonals:
        ctx = PrimeContext(p, precision)
        A = Mat.diagonal(ctx, [ctx.from_int(x) for x in d])
        matrices = IndexPMatrices(A)
        for xi in closed_symbols(A):
            yield p, precision, Algebra(A), matrices, xi, matrices.of_entries(xi.entries)


def test_the_divisors_from_minors_match_the_smith_elimination():
    """Every closed symbol of 300 seeded algebras and 300 diagonal forms at
    p = 3, 5, 7: the sweep's sub_s is the divisors of the frozen Smith
    elimination, and with a stop, those below it and INF for the rest,
    where that elimination answers; where it raises PrecisionLoss, an
    answer or PrecisionLoss.  The builder's divisors, read off A's lift
    and B's row and column m, are smith_divisors' at every stop.  On the
    diagonal forms the key identity agrees with the 3 x 6 Hermite forms by
    the same rule.  Some B hold an entry whose digits the axpy's
    cancellation cut below the window."""
    rng = random.Random(31)
    cut = compared = identities = 0
    for p, precision, alg, matrices, xi, B in _closed_bs(rng, 300):
        cut += any(not x.is_zero() and x.prec < precision for row in B.data for x in row)
        error, ref = _outcome(reference_snf, B)
        new_error, new = _outcome(smith_divisors, B, INF)
        if error is PrecisionLoss:
            assert new_error in (None, PrecisionLoss)
        else:
            assert (new_error, new) == (error, ref and ref[0])
            stop = rng.randrange(1, 1 + max((d for d in new if d != INF), default=0) + 1)
            assert smith_divisors(B, stop) == tuple(d if d < stop else INF for d in new)
            for at in (stop, INF):
                assert (_outcome(matrices.divisors, B, len(xi.entries), at)
                        == _outcome(smith_divisors, B, at))
            compared += 1
        if alg.matrix.is_diagonal():
            error, ref = _outcome(reference_key_identity, alg, xi, xi.u_matrix(alg.ctx), B)
            new_error, new = _outcome(subalgebras._key_identity, matrices, xi, B)
            if error is PrecisionLoss:
                assert new_error in (None, PrecisionLoss)
            else:
                assert (new_error, new) == (error, ref)
                identities += 1
    assert cut > 0 and compared > 5000 and identities > 2000


def _diagonal_forms(rng, count):
    """count diagonals (p, entries) at p = 3, 5, 7: even draws a canonical
    form's, odd draws u p^v, with v ascending or, one time in three, in any
    order; many of them are not NSS."""
    for trial in range(count):
        p = rng.choice((3, 5, 7))
        if trial % 2 == 0:
            family = rng.randrange(1, 5)
            a = rng.randrange(3)
            b, c = a + rng.randrange(0, 4), a + rng.randrange(0, 7)
            s = {1: (a, b, max(b, c)), 2: (a, a, max(a, c)), 3: (a, c, c), 4: (a, a, a)}[family]
            yield p, canonical_diagonal(family, s, (rng.randrange(2), rng.randrange(2)), p)
        else:
            v = [rng.randrange(7) for _ in range(3)]
            if rng.randrange(3):
                v.sort()
            yield p, [rng.choice((1, -1)) * rng.randrange(1, p * p) * p**e for e in v]


def test_the_key_identity_matches_the_3x6_hermite_forms():
    """Every closed symbol of 400 seeded diagonal forms, NSS and not, at
    precision 8, 16 and 32, against the Hermite forms of the two 3 x 6
    stacks frozen in tests/oracles.py; the comparison sees both answers."""
    rng = random.Random(26)
    answers = set()
    checked = 0
    for p, d in _diagonal_forms(rng, 400):
        precision = rng.choice(PRECISIONS)
        for xi in closed_symbols(Mat.diagonal(PrimeContext(p), [
                PrimeContext(p).from_int(x) for x in d])):

            def identity_by(route, xi=xi):
                def run(ctx):
                    matrices = IndexPMatrices(Mat.diagonal(ctx, [ctx.from_int(x) for x in d]))
                    return route(matrices, xi, matrices.of_entries(xi.entries))
                return run

            def reference(matrices, xi, B):
                alg = Algebra(matrices.A)
                return reference_key_identity(alg, xi, xi.u_matrix(alg.ctx), B)

            ref, new = _against_the_reference(
                p, precision, identity_by(subalgebras._key_identity), identity_by(reference))
            answers.add(new[1])
            checked += 1
    assert answers >= {True, False}
    assert checked > 3000


def test_the_key_identity_says_no_where_the_3x6_forms_differ():
    """Diagonal bases on which the frozen identity is False at precision 32:
    on the sorted ones, all of them not NSS, the indices differ; on the
    unsorted (9, 6, 27) a row of U B lies outside the right side."""
    cases = [
        (3, (6, -27, 27), (0, 1)),
        (3, (3, -3, 27), (1,)),
        (5, (2, -15, -15), (0, 2)),
        (7, (-21, 42, -98), (3,)),
        (3, (9, 6, 27), (1,)),
    ]
    for p, d, entries in cases:
        xi = XiSymbol(entries)
        for precision in (32, 16, 8):
            ctx = PrimeContext(p, precision)
            A = Mat.diagonal(ctx, [ctx.from_int(x) for x in d])
            matrices = IndexPMatrices(A)
            U, B = xi.u_matrix(ctx), matrices.of_entries(xi.entries)
            if precision == 32:
                assert d == (9, 6, 27) or not nss_condition(A)[0]
                assert reference_key_identity(Algebra(A), xi, U, B) is False
            assert subalgebras._key_identity(matrices, xi, B) is False
