"""Index-p submodules, the Xi parametrization, and the key stability identity.

The 1 + p + p^2 index-p submodules of Z_p^3 are parametrized by symbols

    ()          ->  U = diag(p, 1, 1)
    (e)         ->  U = [[1,0,0],[e,p,0],[0,0,1]]        e in {0..p-1}
    (e, f)      ->  U = [[1,0,0],[0,1,0],[e,f,p]]        e, f in {0..p-1}

partitioned into classes Xi_0, Xi_1, Xi_2 by the first basis direction the
symbol avoids.  For diagonal A = diag(a0, a1, a2) the transformed structure
matrix has a closed form whose only possibly fractional entry is a single
p^{-1} term, so membership of L^xi among subalgebras is immediate.

A diagonal basis is "non-singular-stable" (NSS) when the three families of
valuation identities below hold; under NSS the subalgebra L^xi in class
Xi_i exists iff s_i >= 1, its s-invariants are the ambient ones shifted by
(-1, +1, +1) in slot i, and the key identity

    [M, M] + p^{s_i} M  =  p [L, L] + p^{s_i} L

pins every such M, which is what makes index-p self-similarity decidable.
"""

import operator
from itertools import chain, product

from .errors import InvalidParameters, NotDiagonal, PathDisagreement, Record
from .lattice import change_of_basis
from .normal_forms import Mat, lift, smith_divisors_of_lift
from .padic_core import INF


class XiSymbol(Record):
    """One of the 1 + p + p^2 index-p symbols: (), (e,), or (e, f), stored
    as a tuple of ints; each entry lies in [0, p) for the prime p that reads
    it (entries_below)."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        try:
            entries = tuple(map(operator.index, entries))
        except TypeError:
            raise InvalidParameters("symbol entries are integers") from None
        if len(entries) > 2:
            raise InvalidParameters("symbol has at most two entries")
        super().__init__(entries)

    def class_index(self):
        """Which Xi_i the symbol belongs to (0, 1, or 2)."""
        t = self.entries
        if len(t) == 0:
            return 0
        if len(t) == 1:
            return 0 if t[0] != 0 else 1
        if t[0] != 0:
            return 0
        return 1 if t[1] != 0 else 2

    def entries_below(self, p):
        """The entries, or InvalidParameters when one lies outside [0, p):
        then U is none of the 1 + p + p^2 index-p symbols."""
        t = self.entries
        for x in t:
            if not 0 <= x < p:
                raise InvalidParameters(f"symbol entry {x} lies outside [0, {p})")
        return t

    def u_matrix(self, ctx):
        """Generator matrix of the submodule L^xi: the identity but for row
        m = len(entries), which holds the entries, one from_int each, then p."""
        t = self.entries_below(ctx.p)
        m = len(t)
        rows = [list(row) for row in Mat.identity(ctx, 3).data]
        rows[m][: m + 1] = [*map(ctx.from_int, t), ctx.one().shift(1)]
        return Mat(ctx, rows)


def all_symbols(p):
    """All 1 + p + p^2 symbols, in a fixed deterministic order.  The ints
    generated here are bound by position, without XiSymbol's checks."""
    new, put = XiSymbol.__new__, XiSymbol._setters[0]
    out = []
    for entries in chain([()], product(range(p)), product(range(p), repeat=2)):
        xi = new(XiSymbol)
        put(xi, entries)
        out.append(xi)
    return out


def _require_3x3(A):
    if (A.nrows, A.ncols) != (3, 3):
        raise InvalidParameters("index-p symbols act on a 3 x 3 structure matrix")


def b_xi(A, xi):
    """Closed form of the transformed structure matrix for diagonal A."""
    _require_3x3(A)
    if not A.is_diagonal():
        raise NotDiagonal("closed form requires a diagonal structure matrix")
    ctx = A.ctx
    a0, a1, a2 = A.diagonal_entries()
    z = ctx.zero()
    t = xi.entries_below(ctx.p)
    if len(t) == 0:
        return Mat.diagonal(ctx, [a0.shift(-1), a1.shift(1), a2.shift(1)])
    if len(t) == 1:
        e = ctx.from_int(t[0])
        mid = (e * e * a0 + a1).shift(-1)
        return Mat(
            ctx,
            [
                [a0.shift(1), -(e * a0), z],
                [-(e * a0), mid, z],
                [z, z, a2.shift(1)],
            ],
        )
    e, f = ctx.from_int(t[0]), ctx.from_int(t[1])
    corner = (e * e * a0 + f * f * a1 + a2).shift(-1)
    return Mat(
        ctx,
        [
            [a0.shift(1), z, -(e * a0)],
            [z, a1.shift(1), -(f * a1)],
            [-(e * a0), -(f * a1), corner],
        ],
    )


class SubalgebraReport(Record):
    """What enumerate_index_p records for one symbol."""

    __slots__ = ("xi", "u_matrix", "b_matrix", "closed", "sub_s")


# The most index-p symbols a sweep takes, counted before any work: p = 139
# (19,461 symbols, a 5 MB subalgebras answer) is the largest prime under it.
SWEEP_BOUND = 20000


def refuse_large_sweep(p):
    """InvalidParameters when a sweep over the 1 + p + p^2 symbols would
    take more than SWEEP_BOUND of them."""
    count = 1 + p + p * p
    if count > SWEEP_BOUND:
        raise InvalidParameters(
            f"an index-p sweep at p = {p} takes {count} symbols, more than {SWEEP_BOUND}"
        )


# the rows other than m, and the entries of row and column m, for m = 0, 1, 2
_OFF = ((1, 2), (0, 2), (0, 1))
_CROSS = tuple(tuple((m, c) for c in range(3)) + tuple((r, m) for r in _OFF[m]) for m in range(3))


class IndexPMatrices:
    """U, B = adj(U) A adj(U)^T / p and a closed B's Smith divisors for the
    index-p symbols over one integral 3 x 3 structure matrix A, B equal to
    change_of_basis(Algebra(A), U) scalar for scalar.  One lives for one
    sweep, and a symbol is handed over as its entries t, each in [0, p).

    Row m = len(t) of adj(U) is (-t, 1, 0..) and every other row is p e_r.
    So B is p A off row and column m, row m the axpy row of adj(U) A,
    column m the axpy of each row, and B[m][m] the axpy of row m over p.
    Each axpy sums in index order, and an exact-zero term leaves the sum as
    it is, as Mat.__mul__ skips it (_axpy); shifts commute with every sum
    and product, so the scalars, and any PrecisionLoss, are
    change_of_basis's own.  B[m][m] is the only entry that can be
    fractional.

    What no symbol owns is formed here: A's shifted entries, the products
    (-t) A[k][c] for t in [1, p), U's residues from_int(t), and p lift(A)
    with lift's (t, g) off each row and column m.  A symbol pays its sums,
    the at most two products of B[m][m], and the lift of B's row and
    column m.
    """

    __slots__ = ("A", "ctx", "_shifted", "_products", "_residues", "_identity", "_p_scalar",
                 "_lifted", "_bounds")

    def __init__(self, A):
        _require_3x3(A)
        ctx, data = A.ctx, A.data
        self.A, self.ctx = A, ctx
        self._shifted = tuple(tuple(x.shift(1) for x in row) for row in data)
        residues = self._residues = [ctx.from_int(x) for x in range(ctx.p)]
        # (-t, its products with the rows of A), at index t
        self._products = [None] + [(-e, [[-e * x for x in row] for row in data])
                                   for e in residues[1:]]
        self._identity = Mat.identity(ctx, 3).data
        self._p_scalar = ctx.one().shift(1)
        R, _, _, _ = lift(A)
        self._lifted = [[ctx.p * n for n in row] for row in R]
        self._bounds = []
        for off in _OFF:
            block = [data[r][c] for r in off for c in off if data[r][c].val != INF]
            self._bounds.append((min([x.val + x.prec for x in block], default=INF) + 1,
                                 min([x.val for x in block], default=INF) + 1))

    def u(self, t):
        """U for the symbol t: the identity's rows, row m = len(t) holding
        t's residues, then p."""
        m = len(t)
        rows = list(self._identity)
        rows[m] = (*map(self._residues.__getitem__, t), self._p_scalar, *rows[m][m + 1 :])
        return Mat.of_rows(self.ctx, tuple(rows))

    def of_entries(self, t):
        """B for the symbol t."""
        A = self.A.data
        m = len(t)
        off = _OFF[m]
        Am = A[m]
        # the symbol's nonzero entries: a zero coefficient's terms are skipped
        terms = [(k, self._products[e]) for k, e in enumerate(t) if e]
        # row m of adj(U) A: column c sums (-t_k) A[k][c] over k < m, then
        # A[m][c]; column m: row r sums (-t_k) A[r][k] over k < m, then A[r][m]
        if not terms:
            row_m, col = list(Am), [A[r][m] for r in off]
        elif len(terms) == 1:
            (k, (_, P)), = terms
            row_m = [x + y for x, y in zip(P[k], Am)]
            col = [P[r][k] + A[r][m] for r in off]
        else:
            (k, (_, P)), (j, (_, Q)) = terms
            row_m = [x + y + z for x, y, z in zip(P[k], Q[j], Am)]
            col = [P[r][k] + Q[r][j] + A[r][m] for r in off]
        corner = _axpy([coef * row_m[k] for k, (coef, _) in terms if row_m[k].val != INF],
                       row_m[m])
        row_m[m] = corner.shift(-1)
        # the shifted rows r != m, entry m of each from col
        rows = [None, None, None]
        rows[m] = tuple(row_m)
        for r, x in zip(off, col):
            a, b, c = self._shifted[r]
            rows[r] = (x, b, c) if m == 0 else (a, x, c) if m == 1 else (a, b, x)
        return Mat.of_rows(self.ctx, tuple(rows))

    def divisors(self, B, m, stop):
        """smith_divisors(B, stop) for a closed B = of_entries(t), m = len(t):
        B is integral and its lift is p lift(A) off row and column m, so only
        the five entries of row and column m are lifted here and folded
        into lift's t and g."""
        t, g = self._bounds[m]
        R = [list(row) for row in self._lifted]
        p, powers = self.ctx.p, self.ctx.p_powers
        data = B.data
        for r, c in _CROSS[m]:
            x = data[r][c]
            v = x.val
            if v == INF:
                R[r][c] = 0
                continue
            mod = powers[x.prec]
            u = x.unit % mod  # lift's symmetric residue of the unit
            R[r][c] = (u - mod if u > mod // 2 else u) * p**v
            if v < g:
                g = v
            if v + x.prec < t:
                t = v + x.prec
        return smith_divisors_of_lift(B, R, t, g, stop)


def _axpy(terms, last):
    """The terms, then last, summed in order.  PadicScalar.__add__ returns
    the other summand itself when one is the exact zero, so this sum, like
    every sum of of_entries, is the one that skips each exact zero."""
    acc = None
    for y in terms:
        acc = y if acc is None else acc + y
    return last if acc is None else acc + last


def enumerate_index_p(alg):
    """Reports for every index-p submodule of the algebra, U and B from one
    IndexPMatrices.  A diagonal A's B is cross-checked against the closed
    form b_xi.  More than SWEEP_BOUND symbols is refused before any work.
    """
    p = alg.ctx.p
    refuse_large_sweep(p)
    A = alg.matrix
    diag = A.is_diagonal()
    matrices = IndexPMatrices(A)
    reports = []
    for xi in all_symbols(p):
        t = xi.entries
        B = matrices.of_entries(t)
        if diag and B != b_xi(A, xi):
            raise PathDisagreement("closed form disagrees with base change")
        m = len(t)
        closed = B.data[m][m].is_integral()
        sub_s = matrices.divisors(B, m, INF) if closed else None
        reports.append(SubalgebraReport(xi, matrices.u(t), B, closed, sub_s))
    return reports


def closed_symbols(A):
    """The symbols whose L^xi is a subalgebra, for a diagonal integral A,
    in all_symbols order.

    b_xi has one entry that can be fractional, and it is integral iff
    v(a0) >= 1 for (), v(e^2 a0 + a1) >= 1 for (e), and
    v(e^2 a0 + f^2 a1 + a2) >= 1 for (e, f): a test on the residues of
    the a_i mod p, in integers, that builds only the symbols it keeps.
    """
    if not A.is_diagonal():
        raise NotDiagonal("the integer closure test reads a diagonal matrix")
    p = A.ctx.p
    refuse_large_sweep(p)
    r0, r1, r2 = (x.residue_mod(1) for x in A.diagonal_entries())
    out = [XiSymbol(())] if r0 == 0 else []
    out += [XiSymbol((e,)) for e in range(p) if (e * e * r0 + r1) % p == 0]
    for e in range(p):
        head = e * e * r0 + r2
        out += [XiSymbol((e, f)) for f in range(p) if (head + f * f * r1) % p == 0]
    return out


# ---------------------------------------------------------------------------
# The NSS condition and the key identity
# ---------------------------------------------------------------------------


def nss_condition(A):
    """Check the three valuation-identity families for diagonal sorted A.

    With a = diag entries, Z1 = {1..p-1}, Z0 = {0..p-1}:

        (1)  v(e^2 a0 + a1) = v(a0)            for all e in Z1
        (2)  v(e^2 a0 + f^2 a1 + a2) = v(a0)   for all e in Z1, f in Z0
        (3)  v(f^2 a1 + a2) = v(a1)            for all f in Z1

    Returns (True, None) or (False, witness) with witness = (rule, e, f).
    """
    _require_3x3(A)
    if not A.is_diagonal():
        raise NotDiagonal("NSS condition is read on a diagonal matrix")
    ctx = A.ctx
    a0, a1, a2 = A.diagonal_entries()
    vals = [x.valuation() for x in (a0, a1, a2)]
    if sorted(vals) != vals:
        raise InvalidParameters("diagonal must be sorted by valuation")
    p = ctx.p
    # e^2 a0 and f^2 a1 once each, the products every sum below reads
    ee_a0 = [ctx.from_int(e * e) * a0 for e in range(p)]
    ff_a1 = [ctx.from_int(f * f) * a1 for f in range(p)]
    for e in range(1, p):
        if (ee_a0[e] + a1).valuation() != a0.valuation():
            return False, (1, e, None)
    for e in range(1, p):
        for f in range(p):
            if (ee_a0[e] + ff_a1[f] + a2).valuation() != a0.valuation():
                return False, (2, e, f)
    for f in range(1, p):
        if (ff_a1[f] + a2).valuation() != a1.valuation():
            return False, (3, None, f)
    return True, None


def _key_identity(matrices, xi, B):
    """[M, M] + p^{s_i} M = p [L, L] + p^{s_i} L for M = L^xi, A =
    matrices.A diagonal, U = xi.u_matrix; B is the integral
    matrices.of_entries(xi.entries).

    The right side is diag(p^r_j) Z_p^3, r_j = min(s_j + 1, s_i).  The left
    side U (B Z_p^3 + p^{s_i} Z_p^3) lies in it iff row j of U B has
    valuation >= r_j, and is then equal to it iff its index, 1 + sum_k
    min(d_k, s_i) for the Smith divisors d_k of B (matrices.divisors,
    stopped at s_i), is sum_j r_j.  U B = A adj(U)^T, so row j is a_j times column
    j of adj(U), which IndexPMatrices describes for m = len(xi.entries):
    1 in row m for j = m, p in row j and -U[m, j] in row m for j < m, p
    alone for j > m.  Its least valuation is 0 where it holds a unit (j = m,
    or j < m and U[m, j] = t_j != 0, t the symbol's entries), else 1.
    """
    s = [x.valuation() for x in matrices.A.diagonal_entries()]
    si = s[xi.class_index()]
    r = [min(sj + 1, si) for sj in s]
    t = xi.entries
    m = len(t)
    least = [0 if j == m or (j < m and t[j]) else 1 for j in range(3)]
    if any(sj + c < rj for sj, c, rj in zip(s, least, r)):
        return False
    divisors = matrices.divisors(B, m, si)
    return 1 + sum(min(d, si) for d in divisors) == sum(r)


# ---------------------------------------------------------------------------
# Index p^2 and generic sublattice enumeration
# ---------------------------------------------------------------------------


def enumerate_index_p2(alg):
    """Index-p^2 subalgebras: the Hermite sublattices of index p^2 whose
    change of basis is integral.  Returns {hnf_key: (H, B)}."""
    found = {}
    for H in enumerate_sublattices(alg.ctx, 2):
        B = change_of_basis(alg, H)
        if B.is_integral():
            found[H.key()] = (H, B)
    return found


def enumerate_sublattices(ctx, exponent, n=3):
    """All full-rank sublattices of Z_p^n of index exactly p^exponent.

    Direct Hermite enumeration: pivots p^a, p^b, ... with exponents summing
    to the given one (the first varies slowest), then above-pivot entries
    reduced mod the pivot of their row, in row-major order.  Yields Mats
    already in Hermite form.
    """
    p = ctx.p
    above = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for head in product(range(exponent + 1), repeat=n - 1):
        if sum(head) > exponent:
            continue
        exps = (*head, exponent - sum(head))
        for entries in product(*(range(p ** exps[i]) for i, _ in above)):
            rows = [[p**e if i == j else 0 for j in range(n)] for i, e in enumerate(exps)]
            for (i, j), h in zip(above, entries):
                rows[i][j] = h
            yield Mat.from_ints(ctx, rows)
