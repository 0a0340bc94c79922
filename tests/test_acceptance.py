"""Acceptance suite: ten end-to-end criteria, one test per criterion.

Each test covers one numbered guarantee of the library: orbit invariance
of the canonical form, the dual-route eta computation, the named-lattice
table, coherence of the index-p decision with the explicit constructions
and obstructions, the subalgebra shift law, the nine-row sigma table,
index quadrupling of derived subalgebras, the Jacobi/symmetry dichotomy,
isomorphism-index rigidity, and Hermite-form lattice equality against a
brute-force oracle.
"""

import random
import time

import pytest

from oracles import (
    is_lie,
    jacobiator,
    jacobiator_direct,
    lattice_eq,
    membership_mod,
    sub_s_invariants,
)
from padiclie.classify import CanonicalForm, canonical_form, eta, is_isomorphic
from padiclie.errors import NotLie
from padiclie.lattice import Algebra, change_of_basis, index_exponent
from padiclie.normal_forms import Mat, Span, hnf_columns, snf
from padiclie.padic_core import PrimeContext
from padiclie.selfsim import (
    construct_simple_ve,
    decide_index_p,
    invariant_ideal_search,
    is_morphism,
    non_self_similarity_certificate,
    regularity_check,
    sigma_bounds,
    witness_subalgebra,
)
from padiclie.subalgebras import (
    enumerate_index_p,
    enumerate_sublattices,
    nss_condition,
)


# -- samplers and enumerators -------------------------------------------------


def random_symmetric(rng, ctx):
    """Random symmetric matrix with nonzero determinant."""
    while True:
        e = [
            [
                ctx.from_int(
                    rng.randrange(1, ctx.p) * ctx.p ** rng.randrange(0, 3)
                )
                if rng.random() < 0.8
                else ctx.zero()
                for _ in range(3)
            ]
            for _ in range(3)
        ]
        rows = [[e[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)]
        M = Mat(ctx, rows)
        if not M.det().is_zero():
            return M


def random_unimodular(rng, ctx):
    while True:
        M = Mat.from_ints(
            ctx, [[rng.randrange(-9, 10) for _ in range(3)] for _ in range(3)]
        )
        d = M.det()
        if not d.is_zero() and d.valuation() == 0:
            return M


def all_forms(p, smax):
    """Every canonical form with s-invariants bounded by smax."""
    forms = []
    for s0 in range(smax + 1):
        for s1 in range(s0 + 1, smax + 1):
            for s2 in range(s1 + 1, smax + 1):
                for e1 in (0, 1):
                    for e2 in (0, 1):
                        forms.append(CanonicalForm(1, (s0, s1, s2), (e1, e2), p))
    for s0 in range(smax + 1):
        for s2 in range(s0 + 1, smax + 1):
            for e1 in (0, 1):
                forms.append(CanonicalForm(2, (s0, s0, s2), (e1, None), p))
            for e2 in (0, 1):
                forms.append(CanonicalForm(3, (s0, s2, s2), (None, e2), p))
    for s0 in range(smax + 1):
        forms.append(CanonicalForm(4, (s0, s0, s0), (None, None), p))
    return forms


def lemma_eta(cf, delta):
    """The four closed formulas for eta on the canonical shapes."""
    s0, s1, s2 = cf.s
    if cf.family == 1:
        e1, e2 = cf.eps
        return (
            delta * (s0 + s1 + s2 + s0 * s1 + s0 * s2 + s1 * s2)
            + (e1 + e2) * s0
            + e2 * s1
            + e1 * s2
        ) % 2
    if cf.family == 2:
        return (cf.eps[0] * (s0 + s2)) % 2
    if cf.family == 3:
        return (cf.eps[1] * (s0 + s1)) % 2
    return 0


def matching_rows(cf):
    """Independent predicates for the nine table rows (eta = 0 forms)."""
    s0, s1, s2 = cf.s
    rows = []
    if cf.family == 4:
        rows.append(1)
    if cf.family == 3 and cf.eps[1] == 0:
        rows.append(2)
    if cf.family == 3 and cf.eps[1] == 1:
        rows.append(3)
    if cf.family == 2 and cf.eps[0] == 0:
        rows.append(4)
    if cf.family == 2 and cf.eps[0] == 1:
        rows.append(5)
    if cf.family == 1:
        par = [s0 % 2, s1 % 2, s2 % 2]
        if par[0] == par[1] == par[2]:
            rows.append(6)
        elif par[0] == par[1]:
            rows.append(7)
        elif par[1] == par[2]:
            rows.append(8)
        else:
            rows.append(9)
    return rows


# -- criteria ------------------------------------------------------------------


def test_criterion_01_orbit_invariance_and_irredundancy():
    start = time.time()
    for p in (3, 5, 7, 11):
        ctx = PrimeContext(p)
        rng = random.Random(100 + p)
        for _ in range(500):
            A = random_symmetric(rng, ctx)
            V = random_unimodular(rng, ctx)
            u = ctx.from_int(rng.randrange(1, p))
            B = ((V.transpose() * A) * V).scale(u)
            assert canonical_form(Algebra(A)) == canonical_form(Algebra(B))
        reps = all_forms(p, 4)
        seen = set()
        for cf in reps:
            back = canonical_form(cf.algebra())
            assert back == cf
            seen.add((back.family, back.s, back.eps))
        assert len(seen) == len(reps)
        a, b = reps[0].algebra(), reps[-1].algebra()
        assert not is_isomorphic(a, b)
    assert time.time() - start < 120


def test_criterion_02_eta_dual_route_and_closed_formulas():
    for p in (3, 5, 7, 11):
        ctx = PrimeContext(p)
        rng = random.Random(200 + p)
        for _ in range(500):
            A = random_symmetric(rng, ctx)
            br = eta(A)  # raises PathDisagreement if the two routes split
            assert br.eta == (ctx.delta * br.disc_valuation_parity + br.hilbert_sum) % 2
            assert br.eta in (0, 1)
        for cf in all_forms(p, 4):
            assert eta(cf.matrix()).eta == lemma_eta(cf, ctx.delta)


def test_criterion_03_named_lattice_table():
    from padiclie.catalog import named_algebra

    for p in (3, 5, 7):
        ctx = PrimeContext(p)
        rho = ctx.rho
        for k in range(4):
            table = [
                ("sl2", {}, (1, 1, 1)),
                ("sl2_congruence", {"k": k}, (p**k,) * 3),
                ("sl2_sylow", {}, (1, p, -p)),
                (
                    "gamma_sl2_sylow",
                    {"n": 2 * k} if k else None,
                    (p**k, p ** (k + 1), -(p ** (k + 1))),
                ),
                (
                    "gamma_sl2_sylow",
                    {"n": 2 * k + 1},
                    (p ** (k + 1), -(p ** (k + 1)), p ** (k + 2)),
                ),
                ("sl1_delta", {}, (1, -rho, p)),
                (
                    "sl1_congruence",
                    {"k": 2 * k},
                    (p**k, -rho * p**k, p ** (k + 1)),
                ),
                (
                    "sl1_congruence",
                    {"k": 2 * k + 1},
                    (p**k, p ** (k + 1), -rho * p ** (k + 1)),
                ),
            ]
            for name, kwargs, diag in table:
                if kwargs is None:
                    continue
                cf = canonical_form(named_algebra(ctx, name, **kwargs))
                want = Mat.diagonal(ctx, [ctx.from_int(t) for t in diag])
                assert cf.matrix() == want, (p, name, kwargs)


def test_criterion_04_decision_coherence():
    start = time.time()
    for p in (3, 5):
        for cf in all_forms(p, 3):
            alg = cf.algebra()
            if decide_index_p(cf):
                ve = construct_simple_ve(alg)
                assert is_morphism(ve)
                assert ve.index_exponent() == 1
                assert invariant_ideal_search(ve, 6) is None
                assert regularity_check(ve, 8).regular
            else:
                ok, witness = nss_condition(alg.matrix)
                assert ok, (cf, witness)
                cert = non_self_similarity_certificate(alg)
                assert cert["nss"] is True
                assert cert["key_identity"]
                assert all(cert["key_identity"].values())
    assert time.time() - start < 600


def test_criterion_05_shift_law_and_existence():
    for p in (3, 5):
        for cf in all_forms(p, 3):
            alg = cf.algebra()
            nss_ok, _ = nss_condition(alg.matrix)
            # the obstruction condition holds exactly on the decide-no forms
            assert nss_ok == (not decide_index_p(cf))
            if not nss_ok:
                continue
            for report in enumerate_index_p(alg):
                i = report.xi.class_index()
                assert report.closed == (cf.s[i] >= 1)
                if report.closed:
                    predicted = sub_s_invariants(cf.s, i)
                    assert tuple(sorted(report.sub_s)) == tuple(sorted(predicted))


def test_criterion_06_sigma_table_rows_and_witnesses():
    for p in (3, 5):
        ctx = PrimeContext(p)
        for cf in all_forms(p, 6):
            if eta(cf.matrix()).eta != 0:
                continue
            rows = matching_rows(cf)
            assert len(rows) == 1
            rep = sigma_bounds(cf)
            assert rep.table_row == rows[0]
            if rep.table_row in (1, 2, 4):
                assert (rep.sigma_lower, rep.sigma_upper) == (1, 1)
                ve = construct_simple_ve(cf.algebra())
                assert is_morphism(ve) and ve.index_exponent() == 1
            else:
                assert rep.sigma_lower == 2
                assert isinstance(rep.sigma_upper, int)
                U, sub = witness_subalgebra(cf)
                assert index_exponent(U) == rep.sigma_upper - 1
                sub_cf = canonical_form(sub)
                assert decide_index_p(sub_cf)
                sub_ve = construct_simple_ve(sub)
                assert is_morphism(sub_ve) and sub_ve.index_exponent() == 1
    # the bounds coincide on diag(1, -rho, p^2) at p = 5: sigma = p^2 exactly
    ctx = PrimeContext(5)
    cf = canonical_form(
        Algebra(Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, -2, 25)]))
    )
    rep = sigma_bounds(cf)
    assert (rep.sigma_lower, rep.sigma_upper) == (2, 2)


def test_criterion_07_index_quadrupling():
    for p in (3, 5, 7, 11):
        ctx = PrimeContext(p)
        rng = random.Random(700 + p)
        for _ in range(200):
            alg = Algebra(random_symmetric(rng, ctx))
            while True:
                U = Mat.from_ints(
                    ctx,
                    [[rng.randrange(-(p**2), p**2 + 1) for _ in range(3)] for _ in range(3)],
                )
                if not U.det().is_zero():
                    break
            B = change_of_basis(alg, U)
            lift = max(
                [0] + [-x.valuation() for row in B.data for x in row if not x.is_zero()]
            )
            M = U.shift(lift)
            k = index_exponent(M)
            cols = [M.col(j) for j in range(3)]
            pairs = [(1, 2), (2, 0), (0, 1)]
            brackets = [alg.bracket(cols[i], cols[j]) for i, j in pairs]
            derived_m = Mat(ctx, [[w[r] for w in brackets] for r in range(3)])
            derived_l, _ = hnf_columns(alg.matrix)
            T = Span(derived_l).solve(derived_m)
            assert T.is_integral()
            divisors, _, _ = snf(T)
            assert sum(divisors) == 2 * k


def test_criterion_08_jacobi_iff_symmetric():
    for p in (3, 5):
        ctx = PrimeContext(p)
        rng = random.Random(800 + p)
        for t in range(100):
            A = random_symmetric(rng, ctx)
            alg = Algebra(A)
            assert is_lie(alg)
            assert all(c.is_zero() for c in jacobiator(alg))
            canonical_form(alg)  # must not raise NotLie
        checked = 0
        while checked < 100:
            rows = [[rng.randrange(-20, 21) for _ in range(3)] for _ in range(3)]
            A = Mat.from_ints(ctx, rows)
            if A.det().is_zero() or A.is_symmetric():
                continue
            alg = Algebra(A)
            assert not is_lie(alg)
            with pytest.raises(NotLie):
                canonical_form(alg)
            if checked % 10 == 0:
                assert any(x != 0 for x in jacobiator_direct(rows))
            checked += 1


def test_criterion_09_isomorphism_index_rigidity():
    p = 3
    ctx = PrimeContext(p)
    rng = random.Random(900)
    forms = all_forms(p, 2)
    for _ in range(20):
        cf = rng.choice(forms)
        V = random_unimodular(rng, ctx)
        u = ctx.from_int(rng.randrange(1, p))
        alg = Algebra(((V.transpose() * cf.matrix()) * V).scale(u))
        index_p = set()
        for report in enumerate_index_p(alg):
            if report.closed:
                sub = canonical_form(Algebra(report.b_matrix))
                index_p.add((sub.family, sub.s, sub.eps))
        index_p2 = set()
        for H in enumerate_sublattices(ctx, 2):
            B = change_of_basis(alg, H)
            if B.is_integral():
                sub = canonical_form(Algebra(B))
                index_p2.add((sub.family, sub.s, sub.eps))
        assert index_p2, "index-p^2 subalgebras always exist (p^2 L at least)"
        assert not (index_p & index_p2)


def _int_unimodular(rng):
    M = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        c = rng.randrange(-2, 3)
        for t in range(3):
            M[i][t] += c * M[j][t]
    return M


def _int_mul(A, B):
    return [
        [sum(A[i][t] * B[t][j] for t in range(3)) for j in range(3)]
        for i in range(3)
    ]


def test_criterion_10_hnf_equality_vs_membership_oracle():
    p, K = 3, 4
    ctx = PrimeContext(p)
    rng = random.Random(1000)
    agreements = 0
    for trial in range(100):
        exps = [rng.randrange(0, 3) for _ in range(3)]
        while sum(exps) > K:
            exps[rng.randrange(3)] -= 1
        D = [[p ** exps[i] if i == j else 0 for j in range(3)] for i in range(3)]
        M = _int_mul(_int_mul(_int_unimodular(rng), D), _int_unimodular(rng))
        same = trial % 2 == 0
        if same:
            N = _int_mul(M, _int_unimodular(rng))
        else:
            exps2 = list(exps)
            exps2[rng.randrange(3)] += 1
            while sum(exps2) > K:
                exps2[rng.randrange(3)] = max(0, exps2[rng.randrange(3)] - 1)
            if sum(exps2) == sum(exps):
                exps2[0] += 1
            D2 = [[p ** exps2[i] if i == j else 0 for j in range(3)] for i in range(3)]
            N = _int_mul(_int_mul(_int_unimodular(rng), D2), _int_unimodular(rng))
        HM, _ = hnf_columns(Mat.from_ints(ctx, M))
        HN, _ = hnf_columns(Mat.from_ints(ctx, N))
        hnf_equal = lattice_eq(HM, HN)
        mcols = [[M[r][j] for r in range(3)] for j in range(3)]
        ncols = [[N[r][j] for r in range(3)] for j in range(3)]
        brute = all(membership_mod(v, ncols, p, K) for v in mcols) and all(
            membership_mod(v, mcols, p, K) for v in ncols
        )
        assert hnf_equal == brute == same
        agreements += 1
    assert agreements == 100
