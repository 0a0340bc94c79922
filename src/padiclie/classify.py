"""Canonical forms and the eta invariant of unsolvable Lie lattices.

Every unsolvable Lie lattice on Z_p^3 (p odd) has a symmetric nondegenerate
structure matrix, and the congruence class of that matrix up to a unit
factor is a complete isomorphism invariant.  Each class contains exactly
one representative from four diagonal families (rho is the least positive
non-residue mod p), stated once as the table FAMILIES, which the canonical
matrix, the form's eta and canonical_form all read:

    1: diag(p^s0, rho^e1 p^s1, rho^e2 p^s2)      0 <= s0 < s1 < s2
    2: diag(p^s0, -rho^e1 p^s0, p^s2)            0 <= s0 < s2
    3: diag(p^s0, p^s1, -rho^e2 p^s1)            0 <= s0 < s1
    4: diag(p^s0, p^s0, p^s0)

The eta invariant separates the two Q_p types: eta = 0 lattices sit inside
sl2(Q_p), eta = 1 lattices inside sl1 of the quaternion division algebra.
eta(A) is computed along two independent routes (additive Hilbert symbols
against a closed formula in the diagonal data) which must agree; a
CanonicalForm reads its own eta off its integers by the closed formula.
"""

from bisect import bisect_right
from enum import Enum
from operator import index, itemgetter

from .errors import (
    Degenerate, InvalidParameters, NotLie, NotSymmetric, PathDisagreement, Record
)
from .lattice import Algebra
from .normal_forms import Mat, congruent_valuations
from .padic_core import PrimeContext, hilbert_additive


class QpType(Enum):
    SL2 = "sl2"
    SL1D = "sl1d"


# The classification: each family's free s-slots (a tied slot copies the
# slot before it), then, for each eps bit j it carries, (slot, ref, neg):
# eps_j is the square class of (-1)^neg u_slot u_ref for the units u_i of a
# diagonal of the class with ascending valuations, and the canonical matrix
# has the unit (-1)^neg rho^eps_j in that slot, 1 in the others.  An eps
# bit a family lacks holds None.
FAMILIES = {
    1: ((0, 1, 2), {0: (1, 0, 0), 1: (2, 0, 0)}),
    2: ((0, 2), {0: (1, 0, 1)}),
    3: ((0, 1), {1: (2, 1, 1)}),
    4: ((0,), {}),
}

# FAMILIES as three tables.  The valuations s of a diagonal ascend, so the
# rises (s1 > s0, s2 > s1) name the free slots above slot 0: _BY_RISES maps
# them to the family and its eps rules as (j, slot, ref, neg), and _SHAPE
# maps a family to its rises and which of the eps bits it carries.
# _PARAMETERS maps a family to the getter of its parameters from s + eps:
# the free slots, then 3 + j for each eps bit j (a lone slot i as the slice
# i:i+1, so that the getter still returns a tuple).
_BY_RISES = {}
_SHAPE = {}
_PARAMETERS = {}
for _family, (_free, _rules) in FAMILIES.items():
    _rises = (1 in _free, 2 in _free)
    _BY_RISES[_rises] = (_family, tuple((j, *rule) for j, rule in _rules.items()))
    _SHAPE[_family] = (_rises, (0 in _rules, 1 in _rules))
    _slots = _free + tuple(3 + j for j in _rules)
    _PARAMETERS[_family] = itemgetter(*_slots if _slots[1:] else [slice(_slots[0], _slots[0] + 1)])
del _family, _free, _rules, _rises, _slots

_BITS = (None, 0, 1)


def _bit_or_none(e):
    return e if e is None else index(e)


class CanonicalForm(Record):
    """Complete isomorphism invariant: (family, s, eps) at a fixed prime.

    ctx, the window the form was read in (PrimeContext(p) when omitted),
    serves every value derived from the form and takes no part in equality.
    """

    __slots__ = ("family", "s", "eps", "p", "ctx")
    _hidden = ("ctx",)

    def __init__(self, family, s, eps, p, ctx=None):
        try:
            family, p = index(family), index(p)
            s, eps = tuple(map(index, s)), tuple(map(_bit_or_none, eps))
        except TypeError:
            raise InvalidParameters(
                f"canonical data are integers: family {family}, s={s}, eps={eps}, p={p}"
            ) from None
        shape = _SHAPE.get(family)
        # the ties of an ascending s fix its family's free slots, and the
        # family the eps bits it carries
        if (
            shape is None
            or len(s) != 3
            or not 0 <= s[0] <= s[1] <= s[2]
            or (s[1] > s[0], s[2] > s[1]) != shape[0]
            or len(eps) != 2
            or (eps[0] is not None, eps[1] is not None) != shape[1]
        ):
            raise InvalidParameters(
                f"inconsistent canonical data: family {family}, s={s}, eps={eps}"
            )
        if eps[0] not in _BITS or eps[1] not in _BITS:
            raise InvalidParameters("eps entries must be 0, 1, or absent")
        ctx = ctx or PrimeContext(p)
        if ctx.p != p:
            raise InvalidParameters(f"context over p = {ctx.p} for a form at p = {p}")
        super().__init__(family, s, eps, p, ctx)

    @classmethod
    def from_parameters(cls, family, parameters, p, ctx=None):
        """The form with these parameters: its free s-values, then its eps bits."""
        if family not in FAMILIES or len(parameters) != sum(map(len, FAMILIES[family])):
            raise InvalidParameters(f"no family {family} form has parameters {tuple(parameters)}")
        free, eps_slots = FAMILIES[family]
        # slot i copies the last free slot at or before it
        s = tuple(parameters[bisect_right(free, i) - 1] for i in range(3))
        bits = dict(zip(eps_slots, parameters[len(free) :]))
        return cls(family, s, (bits.get(0), bits.get(1)), p, ctx)

    @property
    def parameters(self):
        """The free s-values, then the eps bits the family carries."""
        return _PARAMETERS[self.family](self.s + self.eps)

    def matrix(self):
        """The canonical structure matrix as a Mat in the form's window."""
        ctx = self.ctx
        units = [1, 1, 1]
        for j, (slot, _, neg) in FAMILIES[self.family][1].items():
            units[slot] = (-1) ** neg * ctx.rho ** self.eps[j]
        return Mat.diagonal(ctx, [ctx.from_int(u * ctx.p**v) for u, v in zip(units, self.s)])

    def algebra(self):
        return Algebra(self.matrix())

    def eta(self):
        """eta of the canonical matrix, from the form's integers.

        FAMILIES fixes the unit square classes of the diagonal, so the
        closed formula needs no Mat.  Each valuation passes guard_decidable
        in ascending order first, as in eta(self.matrix()).
        """
        ctx = self.ctx
        for v in self.s:
            ctx.guard_decidable(v)
        delta = ctx.delta
        chi = [0, 0, 0]
        for j, (slot, _, neg) in FAMILIES[self.family][1].items():
            chi[slot] = (neg * delta + self.eps[j]) % 2
        return _eta_closed_route(self.s, chi, delta)


def canonical_form(alg):
    """Canonical form of an unsolvable Lie lattice, read off the Jordan
    data (s, chi) of its structure matrix A: congruent_valuations, one
    integer elimination kept on A.

    The one road from a structure matrix to its form.  Raises NotLie when
    A is not symmetric (an unsolvable Lie bracket forces symmetry),
    Degenerate when A lifted to integers has det 0, and PrecisionLoss
    naming the least valuation that the window, or the digits the entries
    carry, cannot decide.  The read-off
    checks symmetry and guards each valuation, and A keeps only a success;
    the form is read off (s, chi) by the rules of FAMILIES.
    """
    try:
        s, chi = congruent_valuations(alg.matrix)
    except NotSymmetric:
        raise NotLie("structure matrix of an unsolvable Lie lattice must be symmetric") from None
    except Degenerate:
        raise Degenerate("structure matrix is degenerate") from None
    ctx = alg.matrix.ctx
    family, rules = _BY_RISES[s[1] > s[0], s[2] > s[1]]
    delta = ctx.delta
    eps = [None, None]
    for j, slot, ref, neg in rules:
        eps[j] = (chi[slot] + chi[ref] + neg * delta) % 2
    return CanonicalForm(family, s, eps, ctx.p, ctx)


def is_isomorphic(a, b):
    """Two unsolvable Lie lattices are isomorphic iff canonical forms agree."""
    if a.ctx.p != b.ctx.p:
        raise InvalidParameters("lattices live over different primes")
    return canonical_form(a) == canonical_form(b)


# ---------------------------------------------------------------------------
# The eta invariant
# ---------------------------------------------------------------------------


class EtaBreakdown(Record):
    """eta = delta * v_p(d(A)) + e(A) mod 2, with both ingredients exposed."""

    __slots__ = ("disc_valuation_parity", "hilbert_sum", "eta")


def _eta_symbol_route(entries, ctx):
    """Route one: discriminant parity plus pairwise additive Hilbert symbols."""
    disc_val = sum(x.valuation() for x in entries)
    e = 0
    for i in range(3):
        for j in range(i + 1, 3):
            e = (e + hilbert_additive(entries[i], entries[j])) % 2
    return (ctx.delta * disc_val + e) % 2, disc_val % 2, e


def _eta_closed_route(s, chi, delta):
    """Route two: closed formula in the valuations s_i and unit square
    classes chi_i of a diagonal, delta the class of -1.

        eta = delta (sum_i s_i + sum_{i<j} s_i s_j)
              + sum_{i<j} (chi_i s_j + chi_j s_i)   (mod 2)
    """
    total = delta * (sum(s) + s[0] * s[1] + s[0] * s[2] + s[1] * s[2])
    for i in range(3):
        for j in range(i + 1, 3):
            total += chi[i] * s[j] + chi[j] * s[i]
    return total % 2


def eta(A):
    """eta invariant of a symmetric nondegenerate matrix over Q_p.

    Both routes read the Jordan data (s, chi) of congruent_valuations, as
    canonical_form does, and raise its NotSymmetric, Degenerate and
    PrecisionLoss.  The symbol route takes p^s_i times a unit of class
    chi_i (1 or rho) as the diagonal; both routes are always evaluated,
    and disagreement raises PathDisagreement.
    """
    if isinstance(A, Algebra):
        A = A.matrix
    ctx = A.ctx
    if A.nrows == A.ncols != 3:
        raise InvalidParameters("eta needs a 3x3 matrix")
    s, chi = congruent_valuations(A)
    units = (ctx.one(), ctx.from_int(ctx.rho))
    entries = [units[c].shift(v) for v, c in zip(s, chi)]
    via_symbols, disc_parity, e_sum = _eta_symbol_route(entries, ctx)
    via_formula = _eta_closed_route(s, chi, ctx.delta)
    if via_symbols != via_formula:
        raise PathDisagreement(
            f"eta routes disagree: symbols {via_symbols}, closed formula {via_formula}"
        )
    return EtaBreakdown(disc_parity, e_sum, via_symbols)


def qp_type_of_eta(value):
    """Q_p isomorphism type: sl2 when eta = 0, the division algebra when 1."""
    return QpType.SL2 if value == 0 else QpType.SL1D


def qp_type(A):
    """Q_p isomorphism type of a symmetric nondegenerate matrix."""
    return qp_type_of_eta(eta(A).eta)
