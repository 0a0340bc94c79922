"""The ten result records keep the contract of the frozen dataclasses they
replaced: field order, repr, equality within one class, hash, immutability,
construction by position or keyword, and their validation."""

import copy
import itertools

import pytest

from padiclie.catalog import GroupReport, IdealSigmaReport, group_report, normal_subgroup_sigma
from padiclie.classify import CanonicalForm, EtaBreakdown, canonical_form, eta
from padiclie.errors import InvalidParameters, Record
from padiclie.lattice import Algebra
from padiclie.normal_forms import Mat
from padiclie.padic_core import PrimeContext
from padiclie.selfsim import (
    LowDimReport,
    RegularityReport,
    SelfSimReport,
    VirtualEndomorphism,
    construct_simple_ve,
    lowdim_report,
    regularity_check,
    sigma_bounds,
)
from padiclie.subalgebras import SubalgebraReport, XiSymbol, enumerate_index_p

CTX = PrimeContext(3)
ALG = Algebra(Mat.from_ints(CTX, [[1, 0, 0], [0, 3, 0], [0, 0, -3]]))

SIGMA = (
    "SelfSimReport(canonical=CanonicalForm(family=3, s=(0, 1, 1), eps=(None, 0), p=3), eta=0, "
    "index_p_self_similar=True, sigma_lower=1, sigma_upper=1, table_row=2, "
    "witness_exponents=None, note='sigma = p, certified by an explicit simple endomorphism')"
)
# the repr of one sample of each record, as the frozen dataclasses printed it
REPRS = {
    CanonicalForm: "CanonicalForm(family=3, s=(0, 1, 1), eps=(None, 0), p=3)",
    EtaBreakdown: "EtaBreakdown(disc_valuation_parity=0, hilbert_sum=0, eta=0)",
    VirtualEndomorphism: (
        "VirtualEndomorphism(ambient=<Algebra 1*p^0,0,0;0,1*p^1,0;0,0,-1*p^1 (p=3)>, "
        "domain=<Mat 1*p^0,0,0;0,1*p^1,1*p^0;0,0,1*p^0 (p=3)>, "
        "phi=<Mat 1*p^0,0,0;0,5*p^0,1*p^1;0,4*p^0,1*p^1 (p=3)>)"
    ),
    RegularityReport: (
        "RegularityReport(regular=True, index_exponents=(1,), escapes=(True,), "
        "chain=(<Mat 1*p^0,0,0;0,1*p^0,0;0,0,1*p^0 (p=3)>, "
        "<Mat 1*p^0,0,0;0,1*p^1,1*p^0;0,0,1*p^0 (p=3)>, "
        "<Mat 1*p^0,0,0;0,1*p^2,1*p^0;0,0,1*p^0 (p=3)>))"
    ),
    SelfSimReport: SIGMA,
    LowDimReport: (
        "LowDimReport(dim=1, s=None, k=2, domain=<Mat 1*p^2 (p=3)>, phi=<Mat 1*p^0 (p=3)>, "
        "is_morphism=True, d_infinity=<Mat 0 (p=3)>, invariant_found=False)"
    ),
    XiSymbol: "XiSymbol(entries=(1, 2))",
    SubalgebraReport: (
        "SubalgebraReport(xi=XiSymbol(entries=(0,)), "
        "u_matrix=<Mat 1*p^0,0,0;0,1*p^1,0;0,0,1*p^0 (p=3)>, "
        "b_matrix=<Mat 1*p^1,0,0;0,1*p^0,0;0,0,-1*p^2 (p=3)>, closed=True, sub_s=(0, 1, 2))"
    ),
    GroupReport: (
        "GroupReport(group_name='G3(0, 1, 0)', family=3, parameters=(0, 1, 0), "
        "residually_nilpotent=True, failing_s=None, prime_threshold=5, threshold_met=False, "
        "qp_type='sl2', index_p_self_similar=True, sigma_lower=1, sigma_upper=1, "
        "index_transfer='for saturable lattices, [G : H] = [L_G : L_H] for open subgroups "
        "and their subalgebras; simple maps correspond to simple maps', "
        "notes=('eta = 0: the group embeds as an open subgroup of the Sylow pro-p subgroup "
        f"of SL2(Z_p) (p >= 5)',), selfsim={SIGMA})"
    ),
    IdealSigmaReport: (
        "IdealSigmaReport(level=2, equals_gamma_term=True, index_over_gamma=0, verdict='p', "
        "decided_exponent=1)"
    ),
}
# records with a Mat field are unhashable, as Mat is
UNHASHABLE = {VirtualEndomorphism, RegularityReport, LowDimReport, SubalgebraReport}


def samples():
    cf = canonical_form(ALG)
    ve = construct_simple_ve(ALG)
    return [
        cf,
        eta(ALG),
        ve,
        regularity_check(ve, 1),
        sigma_bounds(cf),
        lowdim_report(CTX, 1, 2),
        XiSymbol((1, 2)),
        enumerate_index_p(ALG)[1],
        group_report(ALG),
        normal_subgroup_sigma(ALG, Mat.p_power_diagonal(CTX, (1, 1, 1))),
    ]


def fields(record):
    return {f: getattr(record, f) for f in type(record).__slots__}


def test_repr_is_the_dataclass_repr():
    records = samples()
    assert [type(r) for r in records] == list(REPRS)
    for r in records:
        assert repr(r) == REPRS[type(r)]


def test_equality_and_hash():
    for r in samples():
        twin = type(r)(**fields(r))
        assert twin == r and not twin != r
        if type(r) in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(r)
        else:
            assert hash(twin) == hash(r)
    # ctx takes no part in equality, hash or repr
    cf = CanonicalForm(3, (0, 1, 1), (None, 0), 3)
    wide = CanonicalForm(3, (0, 1, 1), (None, 0), 3, PrimeContext(3, 64))
    assert cf.ctx.precision != wide.ctx.precision
    assert cf == wide and hash(cf) == hash(wide) and repr(cf) == repr(wide)
    assert cf != CanonicalForm(3, (0, 1, 1), (None, 1), 3)
    assert hash(cf) == hash((3, (0, 1, 1), (None, 0), 3))  # the dataclass hash


def test_records_of_different_classes_are_never_equal():
    records = samples()
    for a, b in itertools.permutations(records, 2):
        assert a != b and not a == b
    for r in records:
        assert r != tuple(fields(r).values())
    assert EtaBreakdown(0, 0, 0) != RegularityReport(0, 0, 0, 0)


def test_fields_cannot_be_assigned_or_deleted():
    for r in samples():
        for name in type(r).__slots__:
            with pytest.raises(AttributeError):
                setattr(r, name, None)
            with pytest.raises(AttributeError):
                delattr(r, name)
        with pytest.raises(AttributeError):
            r.extra = 1
        assert repr(r) == REPRS[type(r)]


def test_keyword_and_positional_construction_agree():
    for r in samples():
        values = fields(r)
        by_position = type(r)(*values.values())
        by_keyword = type(r)(**values)
        assert by_position == by_keyword == r
        assert repr(by_position) == repr(by_keyword) == repr(r)
        assert copy.copy(r) == r
    assert CanonicalForm(3, (0, 1, 1), (None, 0), 3).ctx == PrimeContext(3)


@pytest.mark.parametrize(
    "args",
    [
        (5, (0, 1, 2), (0, 0), 3),  # no family 5
        (1, (0, 0, 1), (0, 0), 3),  # family 1 needs s0 < s1
        (2, (0, 1, 2), (0, None), 3),  # family 2 ties s1 to s0
        (3, (0, 1, 1), (0, 0), 3),  # family 3 carries no eps1
        (4, (-1, -1, -1), (None, None), 3),  # s0 >= 0
        (1, (0, 1, 2), (2, 0), 3),  # eps bits are 0 or 1
        (4, (0, 0, 0), (None,), 3),  # two eps slots
        (4, (0, 0, 0), (None, None), 3, PrimeContext(5)),  # context over another prime
        (2, (0, 0, 1), (1.0, None), 5),  # an eps bit is an int
        (4, (0.0, 0.0, 0.0), (None, None), 5),  # s holds ints
        (1, (0, 1), (0, 1), 5),  # s has three entries
        (4, "000", (None, None), 5),
        (4, (0, 0, 0), (None, None), 5.0),  # p is an int
        (4, (0, 0, 0), (None, None), 5.0, PrimeContext(5)),
        (1.0, (0, 1, 2), (0, 1), 5),  # so is the family
    ],
)
def test_canonical_form_checks_raise(args):
    with pytest.raises(InvalidParameters):
        CanonicalForm(*args)


def test_canonical_form_stores_tuples_of_ints():
    """A list s or eps is stored as a tuple, so the form hashes; parameters
    that are not ints are refused, as in the fields."""
    form = CanonicalForm(1, [0, 1, 2], [0, 1], 5)
    assert (form.s, form.eps) == ((0, 1, 2), (0, 1))
    assert hash(form) == hash(CanonicalForm(1, (0, 1, 2), (0, 1), 5))
    with pytest.raises(InvalidParameters):
        CanonicalForm.from_parameters(2, (0, 1.5, 0), 5)


def test_xi_symbol_check_raises():
    with pytest.raises(InvalidParameters):
        XiSymbol((0, 1, 2))
    with pytest.raises(InvalidParameters):
        XiSymbol(entries=(0, 0, 0, 0))
    assert XiSymbol(entries=(0, 1)) == XiSymbol((0, 1))
    assert hash(XiSymbol((0, 1))) == hash(((0, 1),))  # the dataclass hash


BINDING_ERRORS = {
    # how each case calls a record's class, given its fields in order
    "missing-field": lambda cls, f: cls(**dict(list(f.items())[1:])),
    "extra-positional": lambda cls, f: cls(*f.values(), None),
    "unknown-keyword": lambda cls, f: cls(*f.values(), no_such_field=None),
    "keyword-repeats-positional": lambda cls, f: cls(next(iter(f.values())), **f),
}


@pytest.mark.parametrize("call", BINDING_ERRORS.values(), ids=BINDING_ERRORS.keys())
def test_binding_a_wrong_set_of_fields_raises_type_error(call):
    records = samples()
    assert len({type(r) for r in records}) == 10
    for r in records:
        with pytest.raises(TypeError):
            call(type(r), fields(r))


def test_the_answers_of_a_decide_no_lattice_bind_every_record_by_position(monkeypatch):
    """canonical_form, eta, sigma_bounds and group_report on a decide-no
    lattice call Record._bind, the keyword path, not once."""
    calls = []
    bind = Record._bind.__func__

    def counted(cls, args, kwargs):
        calls.append(cls)
        return bind(cls, args, kwargs)

    monkeypatch.setattr(Record, "_bind", classmethod(counted))
    ctx = PrimeContext(5)
    alg = Algebra(Mat.from_ints(ctx, [[1, 1, 0], [1, 6, 0], [0, 0, 25]]))
    cf = canonical_form(alg)
    eta(alg.matrix)
    assert not sigma_bounds(cf).index_p_self_similar
    group_report(alg)
    assert calls == []
    GroupReport(**fields(group_report(alg)))  # callers keep the keyword path
    assert calls == [GroupReport]
