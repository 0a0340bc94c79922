"""The index-p sweep, the Smith form and the selftest draws against the
references in tests/oracles.py: the per-symbol loop through the generic
change_of_basis, the Smith elimination that updates its witnesses as it
goes, and the draws that took a det of every Mat."""

import contextlib
import io
import random

import pytest

import oracles
from padiclie import cli, selfsim, subalgebras
from padiclie.classify import FAMILIES, CanonicalForm
from padiclie.errors import InvalidParameters, PadicLieError, PrecisionLoss
from padiclie.lattice import Algebra, change_of_basis
from padiclie.normal_forms import Mat, congruent_diagonalize, kernel_basis, snf
from padiclie.padic_core import PrimeContext
from padiclie.selfsim import non_self_similarity_certificate
from padiclie.subalgebras import (
    SWEEP_BOUND,
    all_symbols,
    closed_symbols,
    enumerate_index_p,
    index_p_matrix,
    nss_condition,
)

from oracles import (
    canonical_diagonal,
    int_det,
    reference_certificate,
    reference_enumerate_index_p,
    reference_kernel_basis,
    reference_random_symmetric,
    reference_random_unimodular,
    reference_snf,
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


def test_index_p_matrix_is_change_of_basis_scalar_for_scalar():
    """Every symbol's B, or its PrecisionLoss, on the seeded cases at p = 3, 5
    (the sweep test covers the rest through enumerate_index_p)."""
    checked = 0
    for p, _, _, alg in _seeded_algebras(21, 300):
        if p > 5:
            continue
        A = alg.matrix
        for xi in all_symbols(p):
            error, ref = _outcome(change_of_basis, alg, xi.u_matrix(A.ctx))
            new_error, new = _outcome(index_p_matrix, A, xi)
            assert new_error is error
            if error is None:
                assert _fields(new) == _fields(ref)
            checked += 1
    assert checked > 2000


def test_snf_and_kernel_basis_match_the_interleaved_elimination():
    """(divisors, P, Q) and kernel_basis field for field, or the same
    error, on square cases, 3 x 6 stacks as _preimage_lattice builds them,
    and rank-deficient stacks; a kernel_basis builds no P, so where the
    reference's P runs out of window it may answer."""
    rng = random.Random(22)
    seen = set()
    for p, _, _, alg in _seeded_algebras(23, 1000):
        A, ctx = alg.matrix, alg.ctx
        other = CASES[rng.randrange(3)](rng, p)
        try:
            S = other(ctx)
        except PadicLieError:
            S = A
        for M in (A, A.hstack(S.scale(-ctx.one())), A.hstack(A)):
            error, ref = _outcome(reference_snf, M)
            new_error, new = _outcome(snf, M)
            seen.add(error)
            assert new_error is error
            if error is None:
                assert new[0] == ref[0]
                assert (_fields(new[1]), _fields(new[2])) == (_fields(ref[1]), _fields(ref[2]))
            error, ref = _outcome(reference_kernel_basis, M)
            new_error, new = _outcome(kernel_basis, M)
            if error is PrecisionLoss:
                assert new_error in (None, PrecisionLoss)
            else:
                assert new_error is error
                if error is None:
                    assert (new.nrows, new.ncols, _fields(new)) == (
                        ref.nrows, ref.ncols, _fields(ref))
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


def test_the_certificate_matches_the_change_of_basis_loop(monkeypatch):
    """Every NSS diagonal canonical form with s <= 6 at p = 3, 5, 7, 11, 13.
    Both sides run the one _key_identity; a result is kept for its exact
    arguments, so a call the reference repeats is answered by the
    certificate's own."""
    kept = {}
    key_identity = subalgebras._key_identity

    def keeping(alg, xi, U, B):
        key = (_fields(alg.matrix), xi.entries, _fields(U), _fields(B))
        if key not in kept:
            kept[key] = key_identity(alg, xi, U, B)
        return kept[key]

    monkeypatch.setattr(selfsim, "_key_identity", keeping)
    monkeypatch.setattr(oracles, "_key_identity", keeping)
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
    """The same entries, field for field, and the same generator state after
    every draw, for 200 seeds at p = 3, 5, 7, 101 and precision 32."""
    for p in (3, 5, 7, 101):
        ctx = PrimeContext(p, 32)
        for seed in range(200):
            old, new = random.Random(seed), random.Random(seed)
            for ref_draw, draw in (
                (reference_random_symmetric, cli._random_symmetric),
                (reference_random_unimodular, cli._random_unimodular),
                (reference_random_symmetric, cli._random_symmetric),
            ):
                assert _fields(draw(new, ctx)) == _fields(ref_draw(old, ctx))
                assert new.getstate() == old.getstate()
