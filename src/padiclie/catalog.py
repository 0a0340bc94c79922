"""Named lattices, their canonical data, and group-level reporting.

The catalog holds the standard unsolvable lattices and their congruence
and lower-central relatives, each returned in its traditional basis so
that classification of the catalog exercises the full pipeline:

    sl2                 [[1,0,0],[0,0,2],[0,2,0]]
    sl2_congruence(k)   p^k * sl2
    sl2_sylow           [[1,0,0],[0,0,2p],[0,2p,0]]   basis (p x0, x1, p x2)
    gamma_sl2_sylow(n)  gamma_n of the Sylow lattice, diagonal basis
    sl1_delta           diag(-1, rho, p)
    sl1_congruence(k)   the index-p^k congruence chain inside sl1_delta
    L1/L2/L3/L4         literal canonical representatives

Group-level facts transfer through the exponential correspondence for
saturable lattices: indices of open subgroups match indices of
subalgebras, morphisms match morphisms, and simplicity matches
simplicity.  The correspondence needs p >= 5 in general (dimension 3);
statements about congruence subgroups of depth >= 1 already hold for
p >= 3.  A torsion-free group only exists over the lattice when the
lower central series shrinks, i.e. when the middle s-invariant is >= 1.
"""

from .classify import FAMILIES, CanonicalForm, QpType, canonical_form, qp_type_of_eta
from .errors import InvalidParameters, NotAnIdeal, Record
from .lattice import (
    Algebra,
    change_of_basis,
    induced_algebra,
    is_ideal,
    lcs_exponents,
    residually_nilpotent,
)
from .normal_forms import IntSpan, Mat, hnf_columns
from .selfsim import decide_index_p, sigma_bounds


NAMED = (
    "sl2",
    "sl2_congruence",
    "sl2_sylow",
    "gamma_sl2_sylow",
    "sl1_delta",
    "sl1_congruence",
    "L1",
    "L2",
    "L3",
    "L4",
)


# the options (CLI flags) each catalog name reads; a name not listed reads none
READS = {
    "sl2_congruence": ("k",), "sl1_congruence": ("k",), "gamma_sl2_sylow": ("n",),
    "dim1": ("k",), "dim2": ("k", "s"),
    **{f"L{f}": ("s", *(f"eps{j + 1}" for j in e)) for f, (_, e) in FAMILIES.items()},
}


def named_algebra(ctx, name, k=None, s=None, eps=None, n=None):
    """Construct a catalog lattice in its traditional basis.  A k, n, s or
    eps (with an entry not None) that the name does not read raises InvalidParameters."""
    _need(name in NAMED, f"unknown catalog name {name!r}")
    reads = {flag.rstrip("12") for flag in READS.get(name, ())}  # eps1, eps2: eps
    eps_set = eps is not None and any(e is not None for e in eps)
    for option, value in (("k", k), ("n", n), ("s", s), ("eps", eps_set or None)):
        _need(value is None or option in reads, f"{name} does not read {option}")
    p = ctx.p
    if name == "sl2":
        return Algebra(Mat.from_ints(ctx, [[1, 0, 0], [0, 0, 2], [0, 2, 0]]))
    if name == "sl2_congruence":
        _need(k is not None and k >= 0, "sl2_congruence needs k >= 0")
        base = named_algebra(ctx, "sl2")
        return Algebra(base.matrix.shift(k))
    if name == "sl2_sylow":
        return Algebra(
            Mat.from_ints(ctx, [[1, 0, 0], [0, 0, 2 * p], [0, 2 * p, 0]])
        )
    if name == "gamma_sl2_sylow":
        _need(n is not None and n >= 1, "gamma_sl2_sylow needs n >= 1")
        base = Algebra(Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, p, -p)]))
        exps = lcs_exponents((0, 1, 1), n)
        U = Mat.p_power_diagonal(ctx, exps)
        return Algebra(change_of_basis(base, U))
    if name == "sl1_delta":
        return Algebra(Mat.diagonal(ctx, [ctx.from_int(t) for t in (-1, ctx.rho, p)]))
    if name == "sl1_congruence":
        _need(k is not None and k >= 0, "sl1_congruence needs k >= 0")
        base = named_algebra(ctx, "sl1_delta")
        m, odd = divmod(k, 2)
        U = Mat.p_power_diagonal(ctx, (m, m, m + 1) if odd else (m, m, m))
        return Algebra(change_of_basis(base, U))
    return Algebra(_canonical_named(ctx, name, s, eps))  # L1-L4


def _need(cond, msg):
    if not cond:
        raise InvalidParameters(msg)


def _canonical_named(ctx, name, s, eps):
    """The literal canonical representative L1-L4 from the family's free
    s-values and, of eps = (eps1, eps2), the bits the family carries."""
    family = int(name[1])
    free, eps_slots = FAMILIES[family]
    order = " < ".join(f"s{i}" for i in free)
    ok = s is not None and len(s) == len(free) and 0 <= s[0] and list(s) == sorted(set(s))
    _need(ok, f"{name} needs 0 <= {order}" if len(free) > 1 else f"{name} needs {order} >= 0")
    eps = eps or (0, 0)
    params = (*s, *(eps[j] for j in eps_slots))
    return CanonicalForm.from_parameters(family, params, ctx.p, ctx).matrix()


# ---------------------------------------------------------------------------
# Group-level reporting
# ---------------------------------------------------------------------------


class GroupReport(Record):
    """What the lattice classification says about the associated group."""

    __slots__ = ("group_name", "family", "parameters", "residually_nilpotent", "failing_s",
                 "prime_threshold", "threshold_met", "qp_type", "index_p_self_similar",
                 "sigma_lower", "sigma_upper", "index_transfer", "notes",
                 "selfsim")  # the sigma report; its canonical is the canonical form


def group_report(alg):
    """Classification and self-similarity transferred to the group side.

    When the middle s-invariant is 0 the lower central series stalls and
    no torsion-free group sits over the lattice; the failure is reported,
    not raised.
    """
    cf = canonical_form(alg)
    report = sigma_bounds(cf)
    resnil = residually_nilpotent(cf.s)
    failing = None if resnil else sorted(cf.s)[1]
    params = cf.parameters
    name = f"G{cf.family}({', '.join(map(str, params))})" if resnil else None
    threshold = 5
    notes = []
    ty = qp_type_of_eta(report.eta)
    if ty is QpType.SL2:
        notes.append(
            "eta = 0: the group embeds as an open subgroup of the Sylow "
            "pro-p subgroup of SL2(Z_p) (p >= 5)"
        )
        if cf.family == 4 and cf.s[0] >= 1:
            threshold = 3
            notes.append(
                "congruence level: the k-th congruence subgroup of SL2(Z_p) "
                "is self-similar of index p for every k >= 1 (p >= 3)"
            )
    else:
        notes.append(
            "eta = 1: no open subgroup acts faithfully self-similarly on a "
            "p-ary tree of degree p; conjecturally of any degree"
        )
        # parameters (s0, s0 + 1, 1) with s0 >= 1, in family 2 or 3: sl1_congruence
        if params[1:] == (params[0] + 1, 1) and params[0] >= 1:
            threshold = 3
            notes.append(
                "congruence level inside the division-algebra group: the "
                "index-p statement holds for p >= 3 at depth >= 2"
            )
    if not resnil:
        notes.append(
            "middle s-invariant is 0: the lower central series stalls, no "
            "torsion-free p-adic analytic group lies over this lattice"
        )
    return GroupReport(  # by position, in __slots__ order
        name,
        cf.family,
        params,
        resnil,
        failing,  # failing_s
        threshold,  # prime_threshold
        cf.p >= threshold,  # threshold_met
        ty.value,
        report.index_p_self_similar,
        report.sigma_lower,
        report.sigma_upper,
        "for saturable lattices, [G : H] = [L_G : L_H] for open subgroups "  # index_transfer
        "and their subalgebras; simple maps correspond to simple maps",
        tuple(notes),
        report,  # selfsim
    )


# ---------------------------------------------------------------------------
# Nonzero ideals of the Sylow lattice
# ---------------------------------------------------------------------------


class IdealSigmaReport(Record):
    __slots__ = ("level", "equals_gamma_term", "index_over_gamma", "verdict", "decided_exponent")


def normal_subgroup_sigma(alg, ideal):
    """sigma verdict for a nonzero ideal of the Sylow-type lattice.

    alg must carry the diagonal Sylow matrix diag(1, p, -p).  Locates the
    least level with gamma_level inside the ideal; the theorem gives
    sigma = p when the ideal is a gamma term and p or p^2 otherwise, and
    the exact value is also decided through the canonical form.
    """
    ctx = alg.ctx
    expect = Mat.diagonal(ctx, [ctx.from_int(t) for t in (1, ctx.p, -ctx.p)])
    if alg.matrix != expect:
        raise InvalidParameters("expects the Sylow lattice in its diagonal basis")
    I, rank = hnf_columns(ideal)
    if rank < 3:
        raise InvalidParameters("ideal must be full rank (nonzero closed ideals are)")
    if not is_ideal(alg.matrix, I):
        raise NotAnIdeal("submodule is not an ideal of the Sylow lattice")
    s = (0, 1, 1)
    # I is a Hermite form and each gamma term an exact p-power diagonal, so
    # the containment test reads both as exact
    inside = IntSpan(I, exact=True)
    level = 0
    while True:
        exps = lcs_exponents(s, level)
        gamma = [[ctx.p**e if i == j else 0 for j in range(3)] for i, e in enumerate(exps)]
        if inside.adj_solve(gamma) is not None:
            break
        level += 1
        if level > 4 * ctx.precision:
            raise InvalidParameters("gamma terms never entered the ideal")
    gh, _ = hnf_columns(Mat.p_power_diagonal(ctx, exps))
    equals = gh == I
    idx = sum(x.valuation() for x in gh.diagonal_entries()) - sum(
        x.valuation() for x in I.diagonal_entries()
    )
    sub = induced_algebra(alg, I)
    decided = 1 if decide_index_p(canonical_form(sub)) else 2
    verdict = "p" if equals else "p_or_p2"
    return IdealSigmaReport(level, equals, idx, verdict, decided)
