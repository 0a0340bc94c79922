"""Catalog constructors, the canonical-matrix table of the named
lattices, group-level reports, and the Sylow ideal verdicts."""

import pytest

from padiclie.catalog import (
    GroupReport,
    group_report,
    named_algebra,
    normal_subgroup_sigma,
)
from padiclie.classify import FAMILIES, CanonicalForm, canonical_form
from padiclie.errors import InvalidParameters, NotAnIdeal
from padiclie.lattice import Algebra, lcs_exponents
from padiclie.normal_forms import Mat
from padiclie.padic_core import PrimeContext
from padiclie.selfsim import CONJECTURED_INFINITE
from test_classify import all_small_forms


def _expect_diag(ctx, entries):
    return Mat.diagonal(ctx, [ctx.from_int(t) for t in entries])


def test_named_canonical_matrix_table():
    """All eight named families canonicalize to the tabulated diagonals."""
    for p in (3, 5, 7):
        ctx = PrimeContext(p)
        rho = ctx.rho
        for k in range(4):
            rows = [
                ("sl2", dict(), (1, 1, 1)),
                ("sl2_congruence", dict(k=k), (p**k, p**k, p**k)),
                ("sl2_sylow", dict(), (1, p, -p)),
                (
                    "gamma_sl2_sylow",
                    dict(n=2 * k) if k else None,  # n >= 1
                    (p**k, p ** (k + 1), -(p ** (k + 1))),
                ),
                (
                    "gamma_sl2_sylow",
                    dict(n=2 * k + 1),
                    (p ** (k + 1), -(p ** (k + 1)), p ** (k + 2)),
                ),
                ("sl1_delta", dict(), (1, -rho, p)),
                (
                    "sl1_congruence",
                    dict(k=2 * k),
                    (p**k, -rho * p**k, p ** (k + 1)),
                ),
                (
                    "sl1_congruence",
                    dict(k=2 * k + 1),
                    (p**k, p ** (k + 1), -rho * p ** (k + 1)),
                ),
            ]
            for name, kwargs, diag in rows:
                if kwargs is None:
                    continue
                alg = named_algebra(ctx, name, **kwargs)
                cf = canonical_form(alg)
                assert cf.matrix() == _expect_diag(ctx, diag), (name, kwargs)


def test_named_gamma_matches_literal_series():
    """gamma_sl2_sylow(n) is the sublattice cut out by lcs_exponents."""
    ctx = PrimeContext(5)
    sylow_s = (0, 1, 1)
    for n in (1, 2, 3, 4, 5):
        alg = named_algebra(ctx, "gamma_sl2_sylow", n=n)
        cf = canonical_form(alg)
        exps = lcs_exponents(sylow_s, n)
        total = sum(exps)
        assert cf.s == tuple(sorted(sylow_s[i] + total - 2 * exps[i] for i in range(3)))
        # index transfer: det gains exactly the index exponent of gamma_n
        assert sum(cf.s) - sum(sylow_s) == total


def test_named_literal_families_roundtrip():
    ctx = PrimeContext(7)
    cases = [
        ("L1", dict(s=(0, 1, 3), eps=(1, 0)), 1, (0, 1, 3), (1, 0)),
        ("L2", dict(s=(1, 2), eps=(1, 0)), 2, (1, 1, 2), (1, None)),
        ("L3", dict(s=(0, 2), eps=(0, 1)), 3, (0, 2, 2), (None, 1)),
        ("L4", dict(s=(2,)), 4, (2, 2, 2), (None, None)),
    ]
    for name, kwargs, family, s, eps in cases:
        cf = canonical_form(named_algebra(ctx, name, **kwargs))
        assert (cf.family, cf.s, cf.eps) == (family, s, eps)


def test_named_parameter_validation():
    ctx = PrimeContext(3)
    with pytest.raises(InvalidParameters):
        named_algebra(ctx, "nonesuch")
    with pytest.raises(InvalidParameters):
        named_algebra(ctx, "sl2_congruence")
    with pytest.raises(InvalidParameters):
        named_algebra(ctx, "gamma_sl2_sylow", n=0)
    with pytest.raises(InvalidParameters):
        named_algebra(ctx, "L1", s=(2, 1, 0))
    with pytest.raises(InvalidParameters):
        named_algebra(ctx, "L2", s=(1, 1))
    with pytest.raises(InvalidParameters):
        named_algebra(ctx, "L4", s=(2, 5))
    # an option the name does not read
    with pytest.raises(InvalidParameters, match="sl2 does not read k"):
        named_algebra(ctx, "sl2", k=5)
    with pytest.raises(InvalidParameters, match="sl2_congruence does not read n"):
        named_algebra(ctx, "sl2_congruence", k=1, n=4, s=(1, 2))
    with pytest.raises(InvalidParameters, match="L4 does not read eps"):
        named_algebra(ctx, "L4", s=(1,), eps=(1, 1))
    with pytest.raises(InvalidParameters, match="sl1_delta does not read n"):
        named_algebra(ctx, "sl1_delta", n=2)


def test_named_refuses_an_eps_bit_the_family_does_not_carry():
    """L2 carries eps1 only and L3 eps2 only: a set bit in the other slot
    is refused, as the CLI refuses its flag; None or 0 there is unset."""
    ctx = PrimeContext(5)
    with pytest.raises(InvalidParameters, match="L2 does not read eps2"):
        named_algebra(ctx, "L2", s=(0, 1), eps=(0, 1))
    with pytest.raises(InvalidParameters, match="L3 does not read eps1"):
        named_algebra(ctx, "L3", s=(0, 1), eps=(1, 0))
    with pytest.raises(InvalidParameters, match="eps is a pair"):
        named_algebra(ctx, "L1", s=(0, 1, 2), eps=(1,))
    for name, s, eps, want in (("L2", (0, 1), (1, None), (1, None)),
                               ("L2", (0, 1), (None, None), (0, None)),
                               ("L3", (0, 1), (0, 1), (None, 1)),
                               ("L1", (0, 1, 2), (None, 1), (0, 1))):
        assert canonical_form(named_algebra(ctx, name, s=s, eps=eps)).eps == want


def test_parameters_name_the_form_and_its_group():
    """parameters, the catalog names L1-L4 and the group name agree on every
    small form: the free s-values first, then the eps bits present."""
    for p in (3, 5, 7):
        ctx = PrimeContext(p)
        for cf in all_small_forms(p, 3):
            params = cf.parameters
            assert CanonicalForm.from_parameters(cf.family, params, p) == cf
            free, _ = FAMILIES[cf.family]
            alg = named_algebra(ctx, f"L{cf.family}", s=params[: len(free)], eps=cf.eps)
            assert canonical_form(alg) == cf
            rep = group_report(alg)
            assert rep.parameters == params
            name = f"G{cf.family}({', '.join(map(str, params))})"
            assert rep.group_name == (name if rep.residually_nilpotent else None)


def test_group_report_family2_frozen():
    """diag(p, -rho p, p^3): G2(1, 3, 1), not self-similar of index p."""
    ctx = PrimeContext(3)
    alg = named_algebra(ctx, "L2", s=(1, 3), eps=(1, 0))
    rep = group_report(alg)
    assert isinstance(rep, GroupReport)
    assert rep.group_name == "G2(1, 3, 1)"
    assert rep.residually_nilpotent
    assert not rep.index_p_self_similar
    assert (rep.sigma_lower, rep.sigma_upper) == (2, 2)
    assert rep.qp_type == "sl2"
    assert rep.prime_threshold == 5 and not rep.threshold_met


def test_group_report_family4():
    for p in (5, 7):
        ctx = PrimeContext(p)
        rep = group_report(named_algebra(ctx, "L4", s=(1,)))
        assert rep.group_name == "G4(1)"
        assert rep.index_p_self_similar
        assert (rep.sigma_lower, rep.sigma_upper) == (1, 1)
        assert rep.threshold_met


def test_group_report_congruence_subgroups():
    """p^k sl2 for k >= 1: self-similar of index p, valid from p = 3 on."""
    for p in (3, 5):
        ctx = PrimeContext(p)
        for k in (1, 2, 3):
            rep = group_report(named_algebra(ctx, "sl2_congruence", k=k))
            assert rep.family == 4
            assert rep.index_p_self_similar
            assert rep.prime_threshold == 3
            assert rep.threshold_met
            assert rep.residually_nilpotent


def test_group_report_residual_nilpotence_failure():
    """sl1_delta has s = (0,0,1): reported stall, no group name."""
    ctx = PrimeContext(7)
    rep = group_report(named_algebra(ctx, "sl1_delta"))
    assert not rep.residually_nilpotent
    assert rep.failing_s == 0
    assert rep.group_name is None
    assert rep.qp_type == "sl1d"
    assert rep.sigma_upper == CONJECTURED_INFINITE
    assert any("lower central series stalls" in note for note in rep.notes)


def test_group_report_sl1_congruence_threshold():
    """Depth >= 2 congruence lattices in the division algebra: p >= 3."""
    ctx = PrimeContext(3)
    rep = group_report(named_algebra(ctx, "sl1_congruence", k=2))
    assert rep.prime_threshold == 3 and rep.threshold_met
    assert rep.sigma_upper == CONJECTURED_INFINITE
    shallow = group_report(named_algebra(ctx, "sl1_congruence", k=1))
    assert shallow.prime_threshold == 5


def test_normal_subgroup_sigma_gamma_terms():
    """Every gamma term of the Sylow lattice gets the sharp verdict p."""
    ctx = PrimeContext(3)
    alg = named_algebra(ctx, "sl2_sylow")
    alg = Algebra(_expect_diag(ctx, (1, 3, -3)))
    for level in (0, 1, 2, 3, 4):
        I = Mat.p_power_diagonal(ctx, lcs_exponents((0, 1, 1), level))
        rep = normal_subgroup_sigma(alg, I)
        assert rep.level == level
        assert rep.equals_gamma_term
        assert rep.index_over_gamma == 0
        assert rep.verdict == "p"


def test_normal_subgroup_sigma_between_terms():
    """An ideal strictly between gamma_3 and gamma_2 at index p over
    gamma_3 gets the interval verdict, refined by the decision."""
    ctx = PrimeContext(5)
    alg = Algebra(_expect_diag(ctx, (1, 5, -5)))
    I = Mat.p_power_diagonal(ctx, (1, 1, 2))
    rep = normal_subgroup_sigma(alg, I)
    assert rep.level == 3
    assert not rep.equals_gamma_term
    assert rep.index_over_gamma == 1
    assert rep.verdict == "p_or_p2"
    assert rep.decided_exponent == 2


def test_normal_subgroup_sigma_rejects_non_ideal():
    ctx = PrimeContext(3)
    alg = Algebra(_expect_diag(ctx, (1, 3, -3)))
    with pytest.raises(NotAnIdeal):
        normal_subgroup_sigma(alg, Mat.p_power_diagonal(ctx, (1, 0, 1)))
    with pytest.raises(InvalidParameters):
        normal_subgroup_sigma(alg, Mat.from_ints(ctx, [[1, 0], [0, 1], [0, 0]]))
    with pytest.raises(InvalidParameters):
        normal_subgroup_sigma(
            Algebra(_expect_diag(ctx, (1, 1, 1))), Mat.identity(ctx, 3)
        )


def test_index_p_ideal_of_sylow():
    """<x0, p x1, x2> is an ideal of index p inside gamma_0 = L."""
    ctx = PrimeContext(3)
    alg = Algebra(_expect_diag(ctx, (1, 3, -3)))
    rep = normal_subgroup_sigma(alg, Mat.p_power_diagonal(ctx, (0, 1, 0)))
    assert rep.level == 1
    assert not rep.equals_gamma_term
    assert rep.verdict == "p_or_p2"
    assert rep.decided_exponent in (1, 2)
