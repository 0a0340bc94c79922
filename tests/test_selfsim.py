"""Index-p decisions, explicit simple endomorphisms, domain chains,
invariant-ideal searches, and the nine-row sigma table."""

import functools
import random
import sys

import pytest

from padiclie import classify, cli, lattice, normal_forms, selfsim, subalgebras
from padiclie.catalog import group_report
from padiclie.classify import CanonicalForm, canonical_form, eta
from padiclie.errors import (
    Degenerate,
    InvalidParameters,
    NotIndexPSelfSimilar,
    PathDisagreement,
    PrecisionLoss,
    PreconditionViolated,
)
from padiclie.lattice import Algebra, change_of_basis, index_exponent
from padiclie.normal_forms import Mat, hnf_columns, parse_matrix
from padiclie.padic_core import INF, PrimeContext
from padiclie.selfsim import (
    CONJECTURED_INFINITE,
    VirtualEndomorphism,
    construct_simple_ve,
    decide_index_p,
    domain_chain,
    invariant_ideal_search,
    is_morphism,
    lowdim_report,
    non_self_similarity_certificate,
    regularity_check,
    sigma_bounds,
    witness_subalgebra,
)
from oracles import (
    invariant_ideal_exists_dim2,
    is_subalgebra,
    key_identity_check,
    lattice_eq,
    simple_ve_by_products,
)


def test_decide_index_p_table():
    p = 5
    assert decide_index_p(CanonicalForm(4, (1, 1, 1), (None, None), p))
    assert decide_index_p(CanonicalForm(3, (0, 2, 2), (None, 0), p))
    assert not decide_index_p(CanonicalForm(3, (0, 1, 1), (None, 1), p))
    assert decide_index_p(CanonicalForm(2, (1, 1, 2), (0, None), p))
    assert not decide_index_p(CanonicalForm(2, (0, 0, 2), (1, None), p))
    assert not decide_index_p(CanonicalForm(1, (0, 1, 2), (0, 0), p))
    assert not decide_index_p(CanonicalForm(1, (0, 1, 2), (1, 1), p))


def test_hyperbolic_literal_construction():
    """[[a,0,0],[0,0,b],[0,b,0]]: M = <x0, p x1, x2>, phi fixes x0,
    divides x1 by p, multiplies x2 by p."""
    for p in (3, 5, 7):
        ctx = PrimeContext(p)
        alg = Algebra(parse_matrix("1,0,0;0,0,2;0,2,0", ctx))
        ve = construct_simple_ve(alg)
        assert ve.index_exponent() == 1
        assert is_morphism(ve)
        assert ve.domain == Mat.p_power_diagonal(ctx, (0, 1, 0))
        assert ve.phi == Mat.p_power_diagonal(ctx, (0, 0, 1))


def test_constructed_ve_on_prepared_shapes():
    """Families that decide yes get a verified simple endomorphism."""
    cases = []
    for p in (3, 5):
        ctx = PrimeContext(p)
        # family 3, eps2 = 0: Sylow shape
        cases.append(Algebra(Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, p, -p)])))
        # family 2, eps1 = 0
        cases.append(
            Algebra(Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, -1, p**2)]))
        )
        # family 4 at level 0 and 1 (unit form may need a class shuffle)
        cases.append(Algebra(Mat.diagonal(ctx, [ctx.one()] * 3)))
        cases.append(
            Algebra(Mat.diagonal(ctx, [ctx.from_int(p)] * 3))
        )
        # a non-diagonal isomorphic copy
        base = Algebra(Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, p, -p)]))
        U = Mat.from_ints(ctx, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert U.det().valuation() == 0
        cases.append(Algebra(change_of_basis(base, U)))
    for alg in cases:
        ve = construct_simple_ve(alg)
        assert ve.index_exponent() == 1
        assert is_morphism(ve)


def test_construct_raises_on_decide_no():
    ctx = PrimeContext(5)
    rho = ctx.rho
    no_cases = [
        Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, -rho, 25)]),
        Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, 5, -rho * 5)]),
        Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, 5, 25)]),
    ]
    for A in no_cases:
        with pytest.raises(NotIndexPSelfSimilar):
            construct_simple_ve(Algebra(A))


def test_domain_chain_closed_form():
    """On the literal hyperbolic shape D_n = <x0, p^n x1, x2>."""
    ctx = PrimeContext(3)
    alg = Algebra(parse_matrix("1,0,0;0,0,2;0,2,0", ctx))
    ve = construct_simple_ve(alg)
    chain = domain_chain(ve, 6)
    for n, D in enumerate(chain):
        expected = Mat.p_power_diagonal(ctx, (0, n, 0))
        assert lattice_eq(D, expected)


def test_regularity_of_simple_construction():
    ctx = PrimeContext(5)
    alg = Algebra(parse_matrix("1,0,0;0,0,2;0,2,0", ctx))
    ve = construct_simple_ve(alg)
    rep = regularity_check(ve, 6)
    assert rep.regular
    assert all(e == 1 for e in rep.index_exponents)
    assert all(rep.escapes)


def test_regularity_fails_for_scaled_identity():
    """domain = pL with phi = p id is a morphism but jumps index p^3."""
    ctx = PrimeContext(3)
    alg = Algebra(parse_matrix("1,0,0;0,0,2;0,2,0", ctx))
    ve = VirtualEndomorphism(
        alg, Mat.identity(ctx, 3).shift(1), Mat.identity(ctx, 3).shift(1)
    )
    assert is_morphism(ve)
    rep = regularity_check(ve, 4)
    assert not rep.regular
    assert rep.index_exponents[0] == 3


def test_invariant_ideal_search_finds_pl():
    """The scaled identity stabilizes pL, which the search reports."""
    ctx = PrimeContext(3)
    alg = Algebra(parse_matrix("1,0,0;0,0,2;0,2,0", ctx))
    ve = VirtualEndomorphism(
        alg, Mat.identity(ctx, 3).shift(1), Mat.identity(ctx, 3).shift(1)
    )
    assert invariant_ideal_search(ve, 2) is None
    witness = invariant_ideal_search(ve, 3)
    assert witness is not None
    assert lattice_eq(witness, Mat.identity(ctx, 3).shift(1))


def test_constructed_ve_is_simple():
    """No phi-invariant ideal up to index p^6 for the explicit map."""
    for p in (3, 5):
        ctx = PrimeContext(p)
        alg = Algebra(parse_matrix("1,0,0;0,0,2;0,2,0", ctx))
        ve = construct_simple_ve(alg)
        assert invariant_ideal_search(ve, 6) is None


def test_morphism_check_rejects_wrong_images():
    ctx = PrimeContext(3)
    alg = Algebra(parse_matrix("1,0,0;0,0,2;0,2,0", ctx))
    bad = VirtualEndomorphism(
        alg, Mat.p_power_diagonal(ctx, (0, 1, 0)), Mat.identity(ctx, 3)
    )
    assert not is_morphism(bad)


def test_sigma_bounds_rows_with_sigma_p():
    p = 5
    for cf in (
        CanonicalForm(4, (0, 0, 0), (None, None), p),
        CanonicalForm(4, (2, 2, 2), (None, None), p),
        CanonicalForm(3, (0, 1, 1), (None, 0), p),
        CanonicalForm(2, (1, 1, 4), (0, None), p),
    ):
        rep = sigma_bounds(cf)
        assert rep.index_p_self_similar
        assert (rep.sigma_lower, rep.sigma_upper) == (1, 1)
        assert rep.table_row in (1, 2, 4)
        assert witness_subalgebra(cf) is None


def test_sigma_bounds_frozen_interval():
    """diag(1, -rho, p^2): row 5 with the tight interval [p^2, p^2]."""
    ctx = PrimeContext(5)
    cf = canonical_form(Algebra(parse_matrix("1,0,0;0,-2,0;0,0,25", ctx)))
    rep = sigma_bounds(cf)
    assert rep.table_row == 5
    assert not rep.index_p_self_similar
    assert (rep.sigma_lower, rep.sigma_upper) == (2, 2)
    assert rep.witness_exponents == (0, 0, 1)


def test_sigma_bounds_eta1_sentinel():
    """eta = 1 rows report the conjectural upper bound as a sentinel."""
    for p in (3, 7):
        ctx = PrimeContext(p)
        A = Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, -ctx.rho, p)])
        cf = canonical_form(Algebra(A))
        rep = sigma_bounds(cf)
        assert rep.eta == 1
        assert rep.sigma_lower == 2
        assert rep.sigma_upper == CONJECTURED_INFINITE
        assert not isinstance(rep.sigma_upper, int)


def test_table_rows_cover_eta0_forms_exactly_once():
    """Every eta = 0 canonical form matches exactly one table row, and the
    witness subalgebra (when present) lands on a decide-yes family."""
    for p in (3, 5):
        for family, s, eps in _small_eta0_forms(p, 4):
            cf = CanonicalForm(family, s, eps, p)
            if eta(cf.matrix()).eta != 0:
                continue
            rep = sigma_bounds(cf)
            assert 1 <= rep.table_row <= 9
            if rep.table_row in (1, 2, 4):
                assert rep.index_p_self_similar
                continue
            assert rep.sigma_lower == 2
            U, sub = witness_subalgebra(cf)
            sub_cf = canonical_form(sub)
            assert decide_index_p(sub_cf)
            assert index_exponent(U) == rep.sigma_upper - 1


def test_sigma_bounds_guards_the_forms_valuations():
    """eta from the form keeps the guard of eta(cf.matrix()): s2 = 9 is
    undecidable at precision 16."""
    cf = CanonicalForm.from_parameters(1, (0, 1, 9, 0, 0), 5, PrimeContext(5, 16))
    with pytest.raises(PrecisionLoss, match="^valuation 9 too close to precision window 16$"):
        sigma_bounds(cf)


def test_witness_subalgebra_keeps_the_callers_precision():
    """A valuation-20 entry needs more than the default 32 digits."""
    ctx = PrimeContext(3, 80)
    cf = canonical_form(Algebra(parse_matrix("1,0,0;0,1*p^1,0;0,0,1*p^20", ctx)))
    assert witness_subalgebra(cf) is None  # eta = 1: no witness row
    cf = canonical_form(Algebra(parse_matrix("1,0,0;0,1*p^2,0;0,0,1*p^20", ctx)))
    U, sub = witness_subalgebra(cf)
    assert sub.ctx is ctx
    assert index_exponent(U) == sigma_bounds(cf).sigma_upper - 1


def test_canonical_form_carries_its_window():
    """Everything derived from a form read at precision 80 stays at 80."""
    literal = "1,0,0;0,1*p^2,0;0,0,1*p^20"
    alg = Algebra(parse_matrix(literal, PrimeContext(3, 80)))
    cf = canonical_form(alg)
    assert sigma_bounds(cf).sigma_upper == 12  # row 6: (2 + 20) / 2 + 1
    assert cf.matrix().ctx is alg.ctx
    assert witness_subalgebra(cf)[1].ctx is alg.ctx
    at_64 = canonical_form(Algebra(parse_matrix(literal, PrimeContext(3, 64))))
    assert cf == at_64 and hash(cf) == hash(at_64) and repr(cf) == repr(at_64)
    assert cf == CanonicalForm(cf.family, cf.s, cf.eps, 3)


def _small_eta0_forms(p, smax):
    out = []
    for s0 in range(smax + 1):
        for s1 in range(s0, smax + 1):
            for s2 in range(s1, smax + 1):
                if s0 < s1 < s2:
                    out += [
                        (1, (s0, s1, s2), (e1, e2)) for e1 in (0, 1) for e2 in (0, 1)
                    ]
                elif s0 == s1 < s2:
                    out += [(2, (s0, s1, s2), (e1, None)) for e1 in (0, 1)]
                elif s0 < s1 == s2:
                    out += [(3, (s0, s1, s2), (None, e2)) for e2 in (0, 1)]
                else:
                    out.append((4, (s0, s1, s2), (None, None)))
    return out


def test_non_self_similarity_certificate():
    ctx = PrimeContext(3)
    rho = ctx.rho
    alg = Algebra(
        Mat.diagonal(ctx, [ctx.from_int(t) for t in (3, rho * 9, rho * 27)])
    )
    cert = non_self_similarity_certificate(alg)
    assert cert["nss"] is True
    assert len(cert["key_identity"]) == 13
    assert all(cert["key_identity"].values())
    # a decide-yes basis fails the NSS precondition
    good = Algebra(Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, 3, -3)]))
    with pytest.raises(PreconditionViolated):
        non_self_similarity_certificate(good)


def test_lowdim_dimension_one():
    ctx = PrimeContext(3)
    rep = lowdim_report(ctx, 1, 2)
    assert rep.dim == 1 and rep.k == 2
    assert rep.is_morphism
    assert not rep.invariant_found
    with pytest.raises(InvalidParameters):
        lowdim_report(ctx, 1, 0)
    with pytest.raises(InvalidParameters):
        lowdim_report(ctx, 3, 1)


def test_lowdim_dimension_two_nonabelian():
    """s = 0, k = 1: the chain squeezes onto <y> and no ideal is stable."""
    ctx = PrimeContext(3)
    rep = lowdim_report(ctx, 2, 1, s=0)
    assert rep.is_morphism
    assert not rep.invariant_found
    # D_n = <p^n x, y> shrinks onto its limit <y>
    assert rep.d_infinity == Mat.from_ints(ctx, [[0, 0], [0, 1]])
    chain = selfsim._domain_chain(rep.domain, rep.phi, 4)
    assert chain == [Mat.from_ints(ctx, [[3**n, 0], [0, 1]]) for n in range(5)]


def test_lowdim_dimension_two_abelian():
    """s = INF: the swap map drains the whole lattice, D_infinity = 0."""
    ctx = PrimeContext(3)
    rep = lowdim_report(ctx, 2, 1, s=INF)
    assert rep.is_morphism
    assert not rep.invariant_found
    # D_2m = p^m L drains to its limit 0
    assert rep.d_infinity == Mat.from_ints(ctx, [[0, 0], [0, 0]])
    chain = selfsim._domain_chain(rep.domain, rep.phi, 4)
    assert chain[2] == Mat.p_power_diagonal(ctx, (1, 1))
    assert chain[4] == Mat.p_power_diagonal(ctx, (2, 2))


def test_lowdim_reports_the_limit_without_walking_past_the_search_bound():
    """k = 2 and a finite s: D_4 already has exponent 8, and the limit is
    <y> at the default precision, where D_8 (exponent 16) is undecidable."""
    for p in (3, 5, 7):
        ctx = PrimeContext(p)
        rep = lowdim_report(ctx, 2, 2, s=1)
        assert rep.is_morphism and not rep.invariant_found
        assert rep.d_infinity == Mat.from_ints(ctx, [[0, 0], [0, 1]])


def test_invariant_ideal_search_agrees_with_brute_force_in_dimension_two():
    """The search inside D_4 finds an invariant ideal exactly when one of
    the 2x2 Hermite sublattices of index p to p^4 is one."""
    answers = set()
    for p in (3, 5):
        ctx = PrimeContext(p)
        for k in (1, 2):
            domain = [[p**k, 0], [0, 1]]
            maps = (
                [[0, 1], [1, 0]],  # lowdim's swap: p^k x -> y, y -> x
                [[1, 0], [0, 1]],  # lowdim's finite-s map: p^k x -> x, y -> y
                domain,  # the inclusion: M itself is invariant
                [[0, p**k], [1, 0]],  # p^k x -> y, y -> p^k x: M is invariant
            )
            for s in (INF, 0, 1, 2):
                bracket = functools.partial(selfsim._dim2_bracket, ctx, s)
                for phi in maps:
                    D, P = Mat.from_ints(ctx, domain), Mat.from_ints(ctx, phi)
                    d_bound = selfsim._domain_chain(D, P, 4)[-1]
                    found = selfsim._invariant_ideal(bracket, D, P, d_bound, 4) is not None
                    want = invariant_ideal_exists_dim2(p, None if s == INF else s, domain, phi, 4)
                    assert found == want, (p, k, s, phi)
                    answers.add(found)
    assert answers == {True, False}


def test_lowdim_search_stays_inside_d_bound(monkeypatch):
    """At p = 101 the dimension-2 report walks its chain once and takes at
    most 10 candidates, where the sublattices of index up to p^4 number 10^8."""
    taken = []

    def capped(*args):
        for H in subalgebras.enumerate_sublattices(*args):
            taken.append(H)
            if len(taken) > 10:
                pytest.fail("lowdim_report takes more than 10 candidates")
            yield H

    monkeypatch.setattr(selfsim, "enumerate_sublattices", capped)
    steps = _counted(monkeypatch, selfsim, "_preimage_lattice")
    for s in (INF, 1):
        del taken[:], steps[:]
        rep = lowdim_report(PrimeContext(101), 2, 1, s)
        assert not rep.invariant_found
        assert len(steps) == selfsim.LOWDIM_BOUND


def test_random_decide_yes_always_certified():
    """Sampled decide-yes lattices admit verified simple endomorphisms."""
    rng = random.Random(40)
    built = 0
    for p in (3, 5):
        ctx = PrimeContext(p)
        for _ in range(20):
            s0 = rng.randrange(0, 2)
            s2 = s0 + rng.randrange(1, 3)
            kind = rng.choice([2, 3, 4])
            if kind == 2:
                cf = CanonicalForm(2, (s0, s0, s2), (0, None), p)
            elif kind == 3:
                cf = CanonicalForm(3, (s0, s2, s2), (None, 0), p)
            else:
                cf = CanonicalForm(4, (s0, s0, s0), (None, None), p)
            alg = cf.algebra()
            ve = construct_simple_ve(alg)
            assert is_morphism(ve)
            assert ve.index_exponent() == 1
            built += 1
    assert built == 40


def _counted(monkeypatch, owner, name):
    """Count calls of owner.name, rebinding every padiclie module that
    imported the function by name."""
    orig = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    if isinstance(owner, type):
        return calls
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("padiclie.") and (
            getattr(mod, name, None) is orig
        ):
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_one_diagonalization_per_certificate_and_group_report(monkeypatch):
    ctx = PrimeContext(5)
    # an orbit representative of diag(1, p, -p): family 3, eps2 = 0, decide-yes
    D = Mat.from_ints(ctx, [[1, 0, 0], [0, 5, 0], [0, 0, -5]])
    V = Mat.from_ints(ctx, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    alg = Algebra(V.transpose() * D * V)
    diagonalizations = _counted(monkeypatch, normal_forms, "_congruent_elimination")
    ve = construct_simple_ve(alg)
    assert len(diagonalizations) == 1
    gr = group_report(alg)
    assert len(diagonalizations) == 1
    assert gr.qp_type == "sl2" and gr.index_p_self_similar
    dets = _counted(monkeypatch, Mat, "det")
    adjugates = _counted(monkeypatch, Mat, "adjugate")
    assert is_morphism(ve)
    assert (len(dets), len(adjugates)) == (1, 1)


def test_one_diagonalization_per_report_command(monkeypatch, capsys):
    diagonalizations = _counted(monkeypatch, normal_forms, "congruent_diagonalize")
    for matrix in ("1,1,0;1,6,5;0,5,0", "3,0,0;0,-6,0;0,0,27"):
        del diagonalizations[:]
        assert cli.main(["report", "--prime", "5", "--matrix", matrix]) == 0
        assert len(diagonalizations) == 1
    capsys.readouterr()


def test_selfsim_command_diagonalizes_once_and_computes_eta_once(monkeypatch, capsys):
    """The form and the certificate both ask congruent_diagonalize; the
    elimination runs once.  eta comes from the form, not classify.eta."""
    diagonalizations = _counted(monkeypatch, normal_forms, "_congruent_elimination")
    etas = _counted(monkeypatch, classify, "eta")
    assert cli.main(["selfsim", "--prime", "3", "--matrix", "1,0,0;0,3,0;0,0,-3"]) == 0
    assert "certificate" in capsys.readouterr().out
    assert (len(diagonalizations), len(etas)) == (1, 0)


def test_one_eta_per_analysis(monkeypatch):
    """sigma_bounds and group_report read eta off the canonical form, so
    only the explicit eta call runs classify.eta."""
    etas = _counted(monkeypatch, classify, "eta")
    alg = Algebra(parse_matrix("1,1,0;1,6,5;0,5,0", PrimeContext(5)))
    cf = canonical_form(alg)
    value = classify.eta(alg.matrix).eta
    assert sigma_bounds(cf).eta == value
    assert group_report(alg).qp_type == ("sl2" if value == 0 else "sl1d")
    assert len(etas) == 1


def test_certificate_runs_four_matrix_products(monkeypatch):
    """Off the literal hyperbolic shape: two in the change_of_basis
    cross-check, one in the Span solve and one for phi."""
    ctx = PrimeContext(5)
    alg = Algebra(Mat.from_ints(ctx, [[1, 1, 0], [1, 6, 5], [0, 5, 0]]))
    products = _counted(monkeypatch, Mat, "__mul__")
    ve = construct_simple_ve(alg)
    assert len(products) == 4
    assert is_morphism(ve)


def _scalars(M):
    return [(x.val, x.unit, x.prec) for row in M.data for x in row]


def test_certificate_matches_the_product_chain(monkeypatch):
    """Column operations give the same (val, unit, prec) in every entry of
    domain and phi as the generic products, on decide-yes forms of
    families 2, 3 and 4 and on seeded unimodular conjugates of them."""
    cassels = _counted(monkeypatch, normal_forms, "cassels_move")
    rng = random.Random(42)
    for p in (3, 5, 7, 13):
        ctx = PrimeContext(p)
        for family, parameters in ((2, (0, 2, 0)), (2, (1, 2, 0)), (3, (0, 1, 0)),
                                   (3, (1, 3, 0)), (4, (0,)), (4, (1,))):
            base = CanonicalForm.from_parameters(family, parameters, p, ctx).algebra()
            conjugates = []
            while len(conjugates) < 3:
                U = Mat.from_ints(ctx, [[rng.randrange(-4, 5) for _ in range(3)]
                                        for _ in range(3)])
                if not U.det().is_zero() and U.det().valuation() == 0:
                    conjugates.append(Algebra(change_of_basis(base, U)))
            for alg in [base] + conjugates:
                ve = construct_simple_ve(alg)
                domain, phi = simple_ve_by_products(alg)
                assert _scalars(ve.domain) == _scalars(domain)
                assert _scalars(ve.phi) == _scalars(phi)
    # the bare family-4 forms at p = 3 and 7 (delta = 1) have no hyperbolic
    # pair on the diagonal, so the certificate makes the Cassels move there
    assert len(cassels) >= 4


def test_cassels_move_only_on_family_4_pair_01(monkeypatch):
    """A decide-yes D without a hyperbolic pair is family 4, so the
    certificate's one Cassels move goes on (0, 1).  A canonical family-4
    form needs it exactly when -1 is a non-square, p = 3 mod 4.

    Two conjugates of diag(1, p^6, -p^6) lose their window in the
    change_of_basis cross-check at precision 32; the move, if any, has
    been made by then, so their calls are checked too."""
    moves = _counted(monkeypatch, selfsim, "cassels_move")
    rng = random.Random(14)
    built, lost = 0, []
    for p in (3, 5, 7, 11, 13):
        ctx = PrimeContext(p)
        for family, s, eps in _small_eta0_forms(p, 6):
            cf = CanonicalForm(family, s, eps, p, ctx)
            if not decide_index_p(cf):
                continue
            base = cf.algebra()
            conjugates = []
            while len(conjugates) < 2:
                U = Mat.from_ints(ctx, [[rng.randrange(-4, 5) for _ in range(3)]
                                        for _ in range(3)])
                if not U.det().is_zero() and U.det().valuation() == 0:
                    conjugates.append(Algebra(change_of_basis(base, U)))
            for alg in [base] + conjugates:
                del moves[:]
                try:
                    assert is_morphism(construct_simple_ve(alg))
                    built += 1
                except PrecisionLoss:
                    lost.append((p, family, s))
                assert all(family == 4 and (i, j) == (0, 1) for _D, i, j, _u in moves)
                if alg is base and family == 4:
                    assert len(moves) == (1 if p % 4 == 3 else 0)
    assert lost == [(3, 3, (0, 6, 6)), (11, 3, (0, 6, 6))]
    assert built == 5 * 49 * 3 - len(lost)


def test_no_hyperbolic_pair_after_the_cassels_move_is_a_path_disagreement(monkeypatch):
    """diag(1, 1, 1) at p = 3 decides yes, but -1 is a non-square there:
    without the move no pair is hyperbolic, and the routes disagree."""
    ctx = PrimeContext(3)
    monkeypatch.setattr(selfsim, "cassels_move", lambda D, i, j, u: (D, Mat.identity(ctx, 3)))
    with pytest.raises(PathDisagreement, match="no hyperbolic pair even after a Cassels move"):
        construct_simple_ve(Algebra(Mat.identity(ctx, 3)))


def test_a_certificate_reads_its_hermite_domain_off_the_adjugate(monkeypatch):
    """Off the literal hyperbolic shape the certificate runs no hnf_columns,
    and its domain is still the Hermite form of its span."""
    hnfs = _counted(monkeypatch, normal_forms, "hnf_columns")
    rng = random.Random(16)
    for p in (3, 5, 101):
        ctx = PrimeContext(p)
        for family, parameters in ((2, (0, 2, 0)), (3, (1, 3, 0)), (4, (0,))):
            base = CanonicalForm.from_parameters(family, parameters, p, ctx).algebra()
            U = Mat.from_ints(ctx, [[1, rng.randrange(-4, 5), 0], [0, 1, 0], [2, 0, 1]])
            for alg in (base, Algebra(change_of_basis(base, U))):
                assert not selfsim._is_hyperbolic(alg.matrix)
                del hnfs[:]
                domain = construct_simple_ve(alg).domain
                assert hnfs == []
                assert _scalars(hnf_columns(domain)[0]) == _scalars(domain)


def test_regularity_check_adds_no_hermite_form_to_the_chain(monkeypatch):
    """The escape test is a membership solve: regularity_check(ve, d) runs
    exactly the Hermite forms of domain_chain(ve, d + 1)."""
    ctx = PrimeContext(3)
    ve = construct_simple_ve(Algebra(parse_matrix("1,0,0;0,3,0;0,0,-3", ctx)))
    hnfs = _counted(monkeypatch, normal_forms, "hnf_columns")
    for depth in (0, 1, 3):
        del hnfs[:]
        domain_chain(ve, depth + 1)
        in_chain = len(hnfs)
        del hnfs[:]
        assert regularity_check(ve, depth).regular
        assert len(hnfs) == in_chain


def test_endo_chain_builds_the_chain_once(monkeypatch, capsys):
    """depth d: d + 1 preimage steps, D_1 .. D_{d+1}, for chain and escapes."""
    steps = _counted(monkeypatch, selfsim, "_preimage_lattice")
    argv = [
        "endo", "chain", "--prime", "3", "--matrix", "1,0,0;0,0,2;0,2,0",
        "--domain", "1,0,0;0,3,0;0,0,1", "--phi", "1,0,0;0,1,0;0,0,3",
    ]
    for depth in (0, 1, 4):
        del steps[:]
        assert cli.main(argv + ["--depth", str(depth)]) == 0
        assert len(steps) == depth + 1
    capsys.readouterr()


def test_eta_of_a_diagonal_keeps_the_pivot_checks():
    ctx = PrimeContext(3, 32)
    with pytest.raises(PrecisionLoss, match="valuation 20 too close to precision window 32"):
        eta(Mat.p_power_diagonal(ctx, (0, 1, 20)))
    with pytest.raises(Degenerate, match="matrix is degenerate"):
        eta(Mat.diagonal(ctx, [ctx.one(), ctx.zero(), ctx.one()]))
    assert eta(Mat.p_power_diagonal(PrimeContext(3, 64), (0, 1, 20))).eta == 1


def test_hyperbolic_cross_check_raises_path_disagreement(monkeypatch):
    ctx = PrimeContext(5)
    alg = Algebra(Mat.from_ints(ctx, [[1, 0, 0], [0, 5, 0], [0, 0, -5]]))
    monkeypatch.setattr(selfsim, "_prepare_hyperbolic", lambda alg, D, V: Mat.identity(ctx, 3))
    with pytest.raises(PathDisagreement):
        construct_simple_ve(alg)


def test_certificate_scans_nss_once_and_changes_basis_once_per_symbol(monkeypatch):
    ctx = PrimeContext(3)
    alg = Algebra(Mat.diagonal(ctx, [ctx.from_int(t) for t in (3, ctx.rho * 9, ctx.rho * 27)]))
    closed = [xi for xi in subalgebras.all_symbols(3) if is_subalgebra(alg, xi.u_matrix(ctx))]
    expected = {
        "nss": True,
        "key_identity": {xi.entries: key_identity_check(alg, xi) for xi in closed},
    }
    scans = _counted(monkeypatch, subalgebras, "nss_condition")
    changes = _counted(monkeypatch, lattice, "change_of_basis")
    assert non_self_similarity_certificate(alg) == expected
    assert (len(scans), len(changes)) == (1, 13)
