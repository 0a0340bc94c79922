"""Matrices over Z_p / Q_p and their normal forms.

Z_p is a discrete valuation ring, so both echelon and diagonal normal forms
take a particularly rigid shape: every pivot can be normalized to a pure
power of p.  The three workhorses here are

* hnf_columns   -- the column Hermite form, read off the lifted entries in
                   integers (int_hermite): canonical, so literal equality of
                   forms is equality of lattices,
* snf           -- the Smith form with unimodular witnesses (the divisor
                   valuations are the elementary-divisor exponents),
* congruent_valuations -- the valuations s and unit square classes chi
                   of a congruent diagonal of a symmetric matrix, read off
                   one fraction-free elimination of its entries lifted to
                   integers; the Jordan data every classification reads,
* congruent_diagonalize -- the diagonalization itself under the congruence
                   action V^T A V in the precision window, valuations sorted
                   ascending, for the callers that consume D and V: the
                   read-off's pivot plan replayed on the scalars.

Each Mat keeps the first success of both, an immutable value that later
calls share, and never a failure.

cassels_move shuffles a unit between two diagonal entries of equal
valuation without leaving the congruence class.  Every "does span N lie
in span M" question is IntSpan's, in integers: the entries are lifted
(lift), and adj(M) N = 0 mod p^v(det M) decides it while v(det M) stays
below the digits the entries hold.  Span solves M^{-1} N in the window for
the constructions that need the coordinates themselves.
"""

import math
import operator

from .errors import (
    Degenerate,
    InvalidParameters,
    NotDiagonal,
    NotSymmetric,
    PathDisagreement,
    PrecisionLoss,
    ValuationMismatch,
)
from .padic_core import INF, legendre_class, parse_scalar, sqrt_mod_p


class Mat:
    """Immutable dense matrix of PadicScalar entries."""

    __slots__ = ("ctx", "nrows", "ncols", "data", "_congruent", "_valuations")

    def __init__(self, ctx, rows):
        self.ctx = ctx
        self.data = tuple(tuple(row) for row in rows)
        self.nrows = len(self.data)
        self.ncols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.ncols:
                raise InvalidParameters("ragged matrix")
        self._congruent = None  # congruent_diagonalize's (D, V), once it succeeded
        self._valuations = None  # congruent_valuations' (s, chi), once it succeeded

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_ints(cls, ctx, rows):
        return cls(ctx, [[ctx.from_int(x) for x in row] for row in rows])

    @classmethod
    def of_rows(cls, ctx, data):
        """Mat(ctx, data) for data a tuple of equal-length tuples, kept as
        given: no copy and no shape check."""
        M = cls.__new__(cls)
        M.ctx, M.data, M.nrows, M.ncols = ctx, data, len(data), len(data[0])
        M._congruent = M._valuations = None
        return M

    @classmethod
    def identity(cls, ctx, n):
        one, zero = ctx.one(), ctx.zero()
        return cls(ctx, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, ctx, entries):
        zero = ctx.zero()
        n = len(entries)
        return cls(ctx, [[entries[i] if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def p_power_diagonal(cls, ctx, exponents):
        return cls.diagonal(ctx, [ctx.one().shift(k) for k in exponents])

    # -- access ---------------------------------------------------------------

    def __getitem__(self, ij):
        return self.data[ij[0]][ij[1]]

    def row(self, i):
        return self.data[i]

    def col(self, j):
        return tuple(self.data[i][j] for i in range(self.nrows))

    def cols(self):
        return list(zip(*self.data))

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(
                self.data[i][j] == other.data[i][j]
                for i in range(self.nrows)
                for j in range(self.ncols)
            )
        )

    __hash__ = None

    def key(self):
        return tuple(x.key() for row in self.data for x in row)

    # -- algebra ---------------------------------------------------------------

    def transpose(self):
        return Mat(self.ctx, zip(*self.data))

    def __mul__(self, other):
        # A term with an exact-zero factor is skipped: x * 0 is the exact
        # zero and acc + 0 is acc, so every entry, and every PrecisionLoss,
        # is that of the sum over all terms in the same order.
        if self.ncols != other.nrows:
            raise InvalidParameters("shape mismatch in matrix product")
        zero = self.ctx.zero()
        other_cols = other.cols()
        rows = []
        for r in self.data:
            row = []
            for c in other_cols:
                acc = zero
                for x, y in zip(r, c):
                    if x.val != INF and y.val != INF:
                        acc = acc + x * y
                row.append(acc)
            rows.append(row)
        return Mat(self.ctx, rows)

    def scale(self, s):
        return Mat(self.ctx, [[s * x for x in row] for row in self.data])

    def shift(self, k):
        """Multiply every entry by p^k."""
        return Mat(self.ctx, [[x.shift(k) for x in row] for row in self.data])

    def shift_columns(self, exponents):
        """Multiply column j by p^exponents[j]: self * diag(p^k), without the product."""
        return Mat(self.ctx, [[x.shift(k) for x, k in zip(row, exponents)] for row in self.data])

    def det(self):
        """Closed-form determinant; 2x2 and 3x3 only."""
        return int_det(self.data)

    def adjugate(self):
        """Classical adjugate, self * adjugate = det * identity; 2x2 and 3x3 only."""
        return Mat(self.ctx, int_adjugate(self.data))

    def is_symmetric(self):
        return all(
            self.data[i][j] == self.data[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    def is_diagonal(self):
        return all(
            self.data[i][j].is_zero()
            for i in range(self.nrows)
            for j in range(self.ncols)
            if i != j
        )

    def is_integral(self):
        return all(x.is_integral() for row in self.data for x in row)

    def diagonal_entries(self):
        return tuple(self.data[i][i] for i in range(min(self.nrows, self.ncols)))

    # -- printing ----------------------------------------------------------------

    def to_literal(self):
        return ";".join(",".join(x.to_literal() for x in row) for row in self.data)

    def to_rows(self):
        return [[x.to_literal() for x in row] for row in self.data]

    def __repr__(self):
        return f"<Mat {self.to_literal()} (p={self.ctx.p})>"


def parse_matrix(text, ctx):
    """Parse "a,b,c;d,e,f;g,h,i" into a Mat (entries in the scalar grammar)."""
    return Mat(
        ctx,
        [[parse_scalar(cell, ctx) for cell in row.split(",")] for row in text.strip().split(";")],
    )


# ---------------------------------------------------------------------------
# Hermite normal form (column style)
# ---------------------------------------------------------------------------


def hnf_columns(M):
    """Canonical column Hermite form over Z_p.

    Returns (H, rank).  H is square (nrows x nrows): pivot columns first,
    ordered by pivot row, zero columns trailing.  Pivots are pure powers
    of p; entries right of a pivot in its row are canonical integer
    residues mod the pivot.  Two generator matrices span the same lattice
    iff their forms are literally equal.  For a full-rank M of index p,
    _index_p_hermite(Span(M)) gives the same H scalar for scalar without
    the reduction.

    It is int_hermite on M's lift, pivots below t, the digits the lift
    holds.  Below full rank, where a block had none, that counts as 0 when
    holds_half_window, else PrecisionLoss; a row without a pivot holds the
    lift's values.
    """
    ctx = M.ctx
    if not M.is_integral():
        raise InvalidParameters("Hermite form expects an integral matrix")
    R, t, _, _ = lift(M)
    H, rank = int_hermite(R, ctx.p, 0 if t == INF else t)
    if rank < min(M.nrows, M.ncols) and not holds_half_window((x for r in M.data for x in r), ctx):
        raise PrecisionLoss(f"a block reduced to 0 within the {t} digits of the entries")
    rows = [[ctx.from_rational(*x) if isinstance(x, tuple) else ctx.from_int(x) for x in row]
            for row in H]
    return Mat(ctx, rows), rank


def int_hermite(R, p, t):
    """The column Hermite form of span R, R integer rows, pivots below t:
    (H, rank).  hnf_columns' steps on exact values, each column kept as
    (X, w), the values X / w for a unit w, so that no step divides; a row
    without a pivot holds such (X, w) pairs."""
    n = len(R)
    active, placed = [[list(col), 1] for col in zip(*R)], {}

    def reduce(col, piv, i, r, pd):  # col - ((col[i] - r) / p^d) piv
        f = (col[0][i] - r * col[1]) // pd
        if f:
            col[:] = [[x * piv[1] - f * y for x, y in zip(col[0], piv[0])], col[1] * piv[1]]

    for i in range(n - 1, -1, -1):
        d, a = min(((p_valuation(col[0][i], p), a) for a, col in enumerate(active) if col[0][i]),
                   default=(t, None))
        if d >= t:
            continue
        piv = active.pop(a)
        pd = p**d
        piv[1] = piv[0][i] // pd  # now piv[i] stands for p^d
        for col in active:
            reduce(col, piv, i, 0, pd)
        placed[i] = (piv, d)
    order = sorted(placed)
    # residues from the last pivot row back, so that no reduction disturbs
    # a row already reduced (column a has support on rows <= order[a])
    for a, i in reversed(list(enumerate(order))):
        pd = p ** placed[i][1]
        for col in (placed[b][0] for b in order[a + 1 :]):
            reduce(col, placed[i][0], i, col[0][i] * pow(col[1], -1, pd) % pd, pd)
    cols = [placed[i][0] for i in order]
    H = [[X[k] // w if k in placed else (X[k], w) for X, w in cols] + [0] * (n - len(cols))
         for k in range(n)]
    return H, len(cols)


class Span:
    """The column span of a square, full-rank M in the window: one adjugate
    and the det read off it, for the constructions that need M^{-1} N.
    Whether N lies in span M is IntSpan's question, not this one's."""

    __slots__ = ("adj", "d_inv")

    def __init__(self, M):
        # det M from adj's column 0 in int_det's order: the same scalar
        self.adj = adj = M.adjugate()
        terms = [x * y for x, y in zip(M.row(0), adj.col(0))]
        d = sum(terms[1:], terms[0])
        if d.is_zero():
            raise Degenerate("matrix is singular")
        self.d_inv = d.inv()

    def solve(self, N):
        """M^{-1} N, exactly, over Q_p; no membership is decided."""
        return (self.adj * N).scale(self.d_inv)


def _index_p_hermite(span):
    """hnf_columns(M)[0] for an integral M of index p, read off span = Span(M).

    v(det M) = 1, so adj M has rank 1 mod p, and span M = {x : a.x = 0 mod p}
    for a row a of adj M that is nonzero mod p.  The Hermite form is the
    identity except in row k = min{t : a_t != 0 mod p}, which holds p at
    (k, k) and the residue of -a_b/a_k mod p at (k, b) for b > k.  These
    are the exact zero, pure p-powers and from_int residues, the very
    scalars hnf_columns builds, so the two forms agree scalar for scalar.
    """
    if span.d_inv.valuation() != -1:
        raise PathDisagreement("Hermite read-off needs a lattice of index p")
    ctx = span.adj.ctx
    p = ctx.p
    residues = ([x.residue_mod(1) for x in row] for row in span.adj.data)
    a = next(row for row in residues if any(row))
    k = next(t for t, x in enumerate(a) if x)
    q = pow(-a[k], -1, p)  # -1/a_k mod p
    H = [list(row) for row in Mat.identity(ctx, len(a)).data]
    H[k] = H[k][:k] + [ctx.one().shift(1)] + [ctx.from_int(x * q % p) for x in a[k + 1 :]]
    return Mat(ctx, H)


# ---------------------------------------------------------------------------
# Lattice questions in integers
# ---------------------------------------------------------------------------


def lift(M):
    """M's entries as integers: (the rows, t, g, m).

    A nonzero entry p^val u becomes p^(val + m) r, r the symmetric residue
    of u mod p^prec, with m = max(0, -least val) so that the lift is
    integral (m = 0 on an integral M); the exact zero becomes 0.  t is the
    least val + m + prec over the nonzero entries and g the least val + m,
    both INF when there is none: the lift differs from p^m times any
    completion of M's known digits by entries of valuation >= t, and g is
    the least valuation in both.
    """
    p = M.ctx.p
    t = g = INF
    R = []
    for row in M.data:
        r = []
        for x in row:
            v = x.val
            if v == INF:
                r.append(0)
                continue
            r.append(x._symmetric_unit() * p**v if v > 0 else x._symmetric_unit())
            if v < g:
                g = v
            if v + x.prec < t:
                t = v + x.prec
        R.append(r)
    m = 0
    if g < 0:  # a non-integral M, lifted times p^m
        m, t, g = -g, t - g, 0
        R = [[0 if x.val == INF else x._symmetric_unit() * p ** (x.val + m) for x in row]
             for row in M.data]
    return R, t, g, m


def holds_half_window(entries, ctx):
    """Whether every nonzero entry holds at least half the window.  Then an
    entry differs from its lift only by what PadicScalar.__add__ treats as
    the exact zero, so a singular lift is Degenerate, not PrecisionLoss."""
    return all(2 * x.prec >= ctx.precision for x in entries if x.val != INF)


def int_det(R):
    """Closed-form determinant of a 2x2 or 3x3 matrix of integers or of
    PadicScalar (Mat.det).

    Cofactor expansion along the first row, with the operand order of a
    Laplace expansion (tests/oracles.py laplace_det), so that on scalars
    every value and every PrecisionLoss matches it exactly.
    """
    n = len(R)
    if any(len(row) != n for row in R):
        raise InvalidParameters("determinant of a non-square matrix")
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = R
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n != 2:
        raise InvalidParameters("determinant of a matrix other than 2x2 or 3x3")
    (a, b), (c, d) = R
    return a * d - b * c


def int_adjugate(R):
    """Classical adjugate of a 2x2 or 3x3 matrix of integers or of
    PadicScalar (Mat.adjugate), R adj(R) = det(R) I: the transposed
    cofactors, each a 2x2 minor taken in row order."""
    n = len(R)
    if n not in (2, 3) or any(len(row) != n for row in R):
        raise InvalidParameters("adjugate of a matrix other than 2x2 or 3x3")
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = R
        return [
            [e * i - f * h, c * h - b * i, b * f - c * e],
            [f * g - d * i, a * i - c * g, c * d - a * f],
            [d * h - e * g, b * g - a * h, a * e - b * d],
        ]
    (a, b), (c, d) = R
    return [[d, -b], [-c, a]]


def int_mul(X, Y):
    """The product of two integer matrices given as lists of rows."""
    if len(Y) == 3 and len(Y[0]) == 3:
        # the common case, spelled out: a third of the time of the sums
        (a, b, c), (d, e, f), (g, h, i) = Y
        return [[x * a + y * d + z * g, x * b + y * e + z * h, x * c + y * f + z * i]
                for x, y, z in X]
    cols = list(zip(*Y))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in X]


def p_valuation(n, p):
    """v_p of the nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def least_valuation(R, t, p):
    """A lower bound on the valuation of every entry of every completion
    of the integer matrix R known to within p^t: R's least, or t."""
    g = math.gcd(*[x for row in R for x in row])
    return min(p_valuation(g, p), t) if g else t


def product_bound(tx, gx, ty, gy):
    """The error bound of X Y for X, Y known to within p^tx, p^ty whose
    entries have valuation >= gx, gy: every error term has one factor's
    error and the other's value."""
    return min(tx + gy, gx + ty)


def zero_below(n, p, t):
    """n = 0 mod p^t; for t INF, n = 0."""
    return n == 0 if t == INF else n % p**t == 0


class Bounded:
    """An integer n standing for every p-adic value within p^t of it.

    A lifted entry p^val u has t = val + prec (INF for the exact zero).
    Sums keep the least t, and a product's error has one factor's error
    and the other's value, so its t is min(t_a + v_b, v_a + t_b), v =
    min(v_p(n), t) the least valuation of a value it stands for.  That is
    PadicScalar's precision rule without the window: int_det, int_adjugate,
    int_mul and lattice.compound run on Bounded entries unchanged and give
    every entry of the result its own error bound.
    """

    __slots__ = ("n", "t", "p", "_v")

    def __init__(self, n, t, p, v=None):
        self.n, self.t, self.p, self._v = n, t, p, v

    @property
    def v(self):
        if self._v is None:
            self._v = min(p_valuation(self.n, self.p), self.t) if self.n else self.t
        return self._v

    def __add__(self, other):
        return Bounded(self.n + other.n, min(self.t, other.t), self.p)

    def __radd__(self, other):
        """0 + self, the first step of sum()."""
        return self

    def __neg__(self):
        return Bounded(-self.n, self.t, self.p, self._v)

    def __sub__(self, other):
        return Bounded(self.n - other.n, min(self.t, other.t), self.p)

    def __mul__(self, other):
        return Bounded(self.n * other.n, product_bound(self.t, self.v, other.t, other.v), self.p)

    def refuted(self):
        """Whether no value it stands for is 0."""
        return not zero_below(self.n, self.p, self.t)


def bounded_lift(M):
    """lift(M) entry by entry: the rows of Bounded, each entry its own t."""
    R, _, _, m = lift(M)
    p = M.ctx.p
    return [[Bounded(n, x.val + m + x.prec, p, x.val + m) for n, x in zip(r, row)]
            for r, row in zip(R, M.data)]


class IntSpan:
    """The column span of a square, full-rank M, from its lift R in integers.

    t_R bounds R's error (lift's t; INF when exact, for a Mat known to be
    exact, as hnf_columns' forms are) and g_R is R's least valuation.
    delta = v(det R), the index exponent of p^m M.  adj and det are R's
    adjugate and det divided by p^g, g the least valuation in adj(R), so
    that R adj = det I still holds and e = v(det) is the largest
    elementary divisor of R.  self.t bounds their error.

    Raises Degenerate when det R is 0 and every entry of M holds at least
    half the window (holds_half_window, the congruent read-off's rule), and
    PrecisionLoss when det R is 0 otherwise, or when g or delta reach the
    valuation the lift's error can give them: then not every completion of
    M's known digits has this delta and g.  The error bounds: every entry
    of R has valuation >= g_R and error >= t_R, so an entry of a 3 x 3
    adjugate, a 2 x 2 minor, has error >= t_R + g_R, and det R, the sum of
    R_0j adj_j0, has error >= min(t_R + g, g_R + that).
    """

    __slots__ = ("p", "R", "m", "t_R", "g_R", "delta", "det", "adj", "e", "t")

    def __init__(self, M, exact=False):
        R, t, g1, m = lift(M)
        if exact:
            t = INF
        p = M.ctx.p
        d = int_det(R)
        if d == 0:
            if holds_half_window((x for row in M.data for x in row), M.ctx):
                raise Degenerate("matrix is singular")
            raise PrecisionLoss(f"the determinant cancelled to zero within {t} digits")
        g1 = min(g1, t)
        t_adj = t + g1 if len(R) == 3 else t  # a 2 x 2 adjugate holds entries of R
        adj = int_adjugate(R)
        g = least_valuation(adj, INF, p)
        delta = p_valuation(d, p)
        if g >= t_adj or delta >= min(t + g, g1 + t_adj):
            raise PrecisionLoss(f"determinant valuation {delta} not decided by the digits held")
        self.p, self.R, self.m, self.t_R, self.g_R = p, R, m, t, g1
        self.delta, self.e, self.t = delta, delta - g, min(t_adj - g, t)
        if g:
            q = p**g
            d //= q
            adj = [[x // q for x in row] for row in adj]
        self.det, self.adj = d, adj

    def error(self, N, t=INF):
        """The error bound of adj N for N known to within p^t: adj is
        primitive, so it is product_bound with N's least valuation."""
        return product_bound(self.t, 0, t, least_valuation(N, t, self.p))

    def adj_solve(self, N, t=INF, shift=0):
        """adj N, which is det M^{-1} N, when every column of the integer
        matrix N lies in p^shift span R, else None: the one containment
        test.  N holds its values to within p^t.

        The columns lie there iff adj N = 0 mod p^(e + shift), always when
        e + shift <= 0, N being integral.  Below the error bound of adj N
        every completion of M and N gives the same answer, and
        PrecisionLoss is raised otherwise.
        """
        e = max(0, self.e + shift)
        bound = self.error(N, t)
        if e >= bound:
            raise PrecisionLoss(f"containment mod p^{e} needs more than {bound} digits")
        X = int_mul(self.adj, N)
        q = self.p**e
        return None if any(x % q for row in X for x in row) else X

    def contains(self, N):
        """Whether the column span of the Mat N lies in span M: N's lift,
        scaled by p^m_N, against p^(m_N - m) span R."""
        S, u, _, m = lift(N)
        return self.adj_solve(S, u, m - self.m) is not None


def lattice_contains(M, N):
    """Column span of the full-rank M contains column span of N."""
    if N.nrows != M.nrows:
        raise InvalidParameters("shape mismatch in lattice containment")
    return IntSpan(M).contains(N)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def snf(M):
    """Smith form over Z_p with witnesses.

    Returns (divisors, P, Q) with P * M * Q diagonal, P and Q unimodular,
    and divisors the list of diagonal valuations sorted ascending (INF for
    absent pivots), of length min(nrows, ncols).

    One pass: each row operation is made on P, and each column operation
    on Q, as the elimination makes it.

    No entry of M is computed only to be overwritten with 0 or p^d: step k
    works right of column k, where the rows >= k have their only nonzero
    entries, and after the row operations column k is zero off row k, so
    a column operation only clears an entry of row k, which no later step
    reads.
    """
    ctx = M.ctx
    if not M.is_integral():
        raise InvalidParameters("Smith form expects an integral matrix")
    n, m = M.nrows, M.ncols
    A = [list(row) for row in M.data]
    P = [list(row) for row in Mat.identity(ctx, n).data]
    Qt = [list(row) for row in Mat.identity(ctx, m).data]  # Q's columns
    zero = ctx.zero()
    divisors = []
    r = min(n, m)
    for k in range(r):
        best = None
        for i in range(k, n):
            for j in range(k, m):
                v = A[i][j].valuation()
                if v != INF and (best is None or v < A[best[0]][best[1]].valuation()):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        d = A[bi][bj].valuation()
        ctx.guard_decidable(d)
        A[k], A[bi], P[k], P[bi] = A[bi], A[k], P[bi], P[k]
        Qt[k], Qt[bj] = Qt[bj], Qt[k]
        for row in A:
            row[k], row[bj] = row[bj], row[k]
        u_inv = A[k][k].shift(-d).inv()
        # entries left of the pivot are exact zeros in every row >= k
        tail = [x * u_inv for x in A[k][k + 1 :]]
        P[k] = [x * u_inv for x in P[k]]
        for i in range(k + 1, n):
            row = A[i]
            e = row[k]
            if e.is_zero():
                continue
            q = e.shift(-d)
            A[i] = row[:k] + [zero] + [x - q * y for x, y in zip(row[k + 1 :], tail)]
            P[i] = [x - q * y for x, y in zip(P[i], P[k])]
        # column k is now zero off row k: the column operations clear row k
        for j, e in enumerate(tail, k + 1):
            if not e.is_zero():
                q = e.shift(-d)
                Qt[j] = [x - q * y for x, y in zip(Qt[j], Qt[k])]
        divisors.append(d)
    # already ascending, INF last: each pivot has the least valuation of its
    # block, and eliminating subtracts q * x with v(q) >= 0, which cannot
    # bring an entry below the pivot's valuation
    return tuple(divisors) + (INF,) * (r - len(divisors)), Mat(ctx, P), Mat(ctx, Qt).transpose()


def smith_divisors(M, stop):
    """The Smith divisors of the 3 x 3 integral M, ascending, INF for each
    at or above stop, read off M's lift (smith_divisors_of_lift)."""
    if (M.nrows, M.ncols) != (3, 3) or not M.is_integral():
        raise InvalidParameters("Smith divisors read a 3 x 3 integral matrix")
    R, t, g1, _ = lift(M)
    return smith_divisors_of_lift(M, R, t, g1, stop)


def smith_divisors_of_lift(M, R, t, g1, stop):
    """smith_divisors(M, stop) for the 3 x 3 integral M whose lift(M) the
    caller holds as (R, t, g1): d_k = g_k - g_(k-1), g_k the least valuation
    of R's k x k minors, known below t, t + g_1 and min(t + g_2, 2 t + g_1,
    3 t) (the det moves by each entry's error times its cofactor), or else
    each minor below its own bound (Bounded, read off M).  An undecided g_k
    leaves the divisors from k on at least bound - g_(k-1): INF if that
    reaches stop, or half the window past divisors below it (the window's
    zero)."""
    p = M.ctx.p
    adj = int_adjugate(R)
    det = R[0][0] * adj[0][0] + R[0][1] * adj[1][0] + R[0][2] * adj[2][0]  # int_det(R)
    g2, g3 = least_valuation(adj, INF, p), p_valuation(det, p) if det else INF
    levels = [(g1, t), (g2, t + g1), (g3, min(t + g2, 2 * t + g1, 3 * t))]
    if g2 >= t + g1 or g3 >= levels[2][1]:
        B = bounded_lift(M)
        cofs = int_adjugate(B)
        least = min((x for row in cofs for x in row), key=lambda x: (x.v, x.v == x.t))
        first = min(x.t + c.v for row, cof in zip(B, zip(*cofs)) for x, c in zip(row, cof))
        levels[1:] = [(least.v, least.t), (g3, min(first, 2 * t + g1, 3 * t))]
    divisors = []
    for k, (g, bound) in enumerate(levels, 1):
        d = min(g, bound) - sum(divisors)
        if d >= stop or g >= bound and d >= M.ctx.precision / 2 > max(divisors, default=0):
            break
        if g >= bound:
            raise PrecisionLoss(f"the {k} x {k} minors' valuation {g} not below {bound}")
        divisors.append(d)
    return tuple(divisors) + (INF,) * (3 - len(divisors))


def int_kernel(Y, p, e):
    """{c : Y c = 0 mod p^e} for the integer rows Y: (C, k), the basis
    C = Q diag(p^k), Q of unit det, of a Smith elimination mod p^e by column
    operations: the entry of least valuation d < e left in the unused
    columns clears its row, and its column needs p^(e - d) alone then."""
    q, m = p**e, len(Y[0])
    A = [[x % q for x in col] for col in zip(*Y)]  # columns, as Q's below
    Q, k, free = [[int(i == j) for i in range(m)] for j in range(m)], [0] * m, list(range(m))
    while True:
        d, i, j = min(((p_valuation(A[j][i], p), i, j) for i in range(len(Y)) for j in free
                       if A[j][i]), default=(e, None, None))
        if d >= e:
            return [[x * p**c for x, c in zip(row, k)] for row in zip(*Q)], k
        u = pow(A[j][i] // p**d, -1, q)
        for c in free:
            f = A[c][i] // p**d * u % q
            if c != j and f:
                A[c] = [(x - f * y) % q for x, y in zip(A[c], A[j])]
                Q[c] = [(x - f * y) % q for x, y in zip(Q[c], Q[j])]
        k[j] = e - d
        free.remove(j)


# ---------------------------------------------------------------------------
# Symmetric congruence: diagonalization and Cassels moves
# ---------------------------------------------------------------------------


def congruent_valuations(A):
    """The Jordan data (s, chi) of the symmetric A over Q_p.

    s holds the valuations of a diagonal congruent to A, ascending, and chi
    the square classes of their units, both tuples of ints: the values
    congruent_diagonalize's D carries, without building D or V.  Raises
    NotSymmetric; Degenerate when A, lifted to integers, is singular and
    every entry holds at least half the window; and PrecisionLoss naming
    the least valuation the window or the entries' digits cannot decide.

    The first success is kept on the object A, with the pivot plan that
    congruent_diagonalize replays, and returned by every later call; an
    error is not kept, and is raised again on every call.
    """
    if A._valuations is None:
        A._valuations = _congruent_read_off(A)
    return A._valuations[0]


def _congruent_read_off(A):
    """congruent_valuations without the memo: one integer elimination.
    Returns ((s, chi), plan).

    Lift: lift(A), the entries p^val u as integers p^(val + m) r, r the
    symmetric residue of u mod p^prec, m = max(0, -min val), so that every
    entry is integral; a scale by the pure power p^m moves each s by m and
    no chi.  The lift differs from p^m A by entries of valuation at least
    t + m, t the least val + prec over the nonzero entries.

    Elimination, fraction-free: step k holds B_k = c_k S_k, S_k the exact
    Schur complement and c_0 = 1; with pivot d_k, B_k+1 = d_k B_k' - b b^T
    is c_k+1 S_k+1 for c_k+1 = d_k c_k, so the diagonal entry d_k / c_k
    has s_k = v(d_k) - v(c_k) - m and chi_k = class(unit(d_k) unit(c_k));
    of c_k only its valuation and class are kept.  The pivot rule, the one
    congruent_diagonalize replays: the first diagonal entry of least
    valuation, unless an off-diagonal one, first in row order, has a
    smaller valuation; then that entry's (i, j) surfaces the diagonal pivot
    i by col_i += col_j, row_i += row_j.  plan holds (i, j) for each step,
    j None where nothing surfaced.  Each pivot has the least valuation of
    its block, so s ascends.  A zero block means the lift is singular.
    That is Degenerate when every entry holds at least half the window, so
    that A differs from its lift only by what PadicScalar.__add__ treats as
    the exact zero, and PrecisionLoss otherwise.

    Guards: each s_k, ascending, passes guard_decidable, and then must stay
    below t.  Below t the answer is A's own: moved to a congruent diagonal
    by an integral unimodular V, the lift's error keeps valuation >= t + m
    through every step, and changes no pivot's valuation or class.
    """
    ctx = A.ctx
    if A.nrows != A.ncols:
        raise InvalidParameters("congruence requires a square matrix")
    if not A.is_symmetric():
        raise NotSymmetric("matrix is not symmetric")
    R, t, g, m = lift(A)
    if g == INF:
        raise Degenerate("matrix is degenerate")
    t -= m  # on A's own scale, as s is
    n, p, data = A.nrows, ctx.p, A.data
    exact = holds_half_window((x for row in data for x in row), ctx)
    # the upper triangle, mirrored: mirrored entries may hold different digits
    B = [[R[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    # w[i][j] = v(B[i][j]), for the block's entries; mirrored entries share val
    w = [[x.val + m for x in row] for row in data]
    s, chi, plan = [], [], []
    vc = cc = 0  # the valuation and unit square class of c_k
    for k in range(n):
        piv, v = k, w[k][k]
        for i in range(k + 1, n):
            if w[i][i] < v:
                piv, v = i, w[i][i]
        oi = oj = partner = None
        ov = INF
        for i in range(k, n):
            for j in range(i + 1, n):
                if w[i][j] < ov:
                    oi, oj, ov = i, j, w[i][j]
        if ov < v:
            # surface a diagonal pivot; 2 is a unit, so the new (i, i)
            # entry has valuation ov
            for r in range(k, n):
                B[r][oi] += B[r][oj]
            for r in range(k, n):
                B[oi][r] += B[oj][r]
            piv, v, partner = oi, ov, oj
        elif v == INF:
            if exact:
                raise Degenerate("matrix is degenerate")
            raise PrecisionLoss(f"a block cancelled to zero within the {t} digits of the entries")
        plan.append((piv, partner))
        B[k], B[piv] = B[piv], B[k]
        for r in range(k, n):
            row = B[r]
            row[k], row[piv] = row[piv], row[k]
        b = B[k]
        d = b[k]
        for i in range(k + 1, n):
            bi, row, wi = b[i], B[i], w[i]
            for j in range(i, n):
                x = row[j] = B[j][i] = d * row[j] - bi * b[j]
                wi[j] = w[j][i] = p_valuation(x, p) if x else INF
        s.append(v - vc - m)
        cc = (legendre_class(d // p**v, p) + cc) % 2
        chi.append(cc)
        vc += v
    for v in s:
        ctx.guard_decidable(v)
        if v >= t:
            raise PrecisionLoss(f"valuation {v} not below {t}, the digits the entries carry")
    return (tuple(s), tuple(chi)), tuple(plan)


def congruent_diagonalize(A):
    """Diagonalize the symmetric matrix A under congruence.

    Returns (D, V) with D = V^T A V diagonal, V unimodular, and diagonal
    valuations sorted ascending.  Works over Q_p: entries may carry
    negative valuations.  Raises congruent_valuations' errors, and
    PrecisionLoss where a sum in the window cancels through its digits.

    The first success is kept on the object A, and every later call on A
    returns that same pair, immutable and so safe to share; an error is
    not kept, and is raised again on every call.
    """
    if A._congruent is None:
        A._congruent = _congruent_elimination(A)
    return A._congruent


def _congruent_elimination(A):
    """congruent_diagonalize without the memo: the read-off's pivot plan
    replayed in the window.

    congruent_valuations decides every pivot, and raises its errors, on
    the integer lift; here each step k surfaces and swaps in the pivot it
    chose and clears row and column k.  Step k works on the trailing
    block, rows and columns >= k: above it, every off-diagonal entry is
    the exact zero, and x + q * 0 is x itself, so each kept scalar is the
    one a full-matrix elimination computes, and terms with an exact-zero
    factor are skipped as Mat.__mul__ skips them.  Clearing B[k][j] stores
    the exact zero in B[k][j] and B[j][k]: e - (e/d) d is that zero or a
    PrecisionLoss, never anything else.
    """
    congruent_valuations(A)  # raises its errors, or keeps the plan on A
    ctx = A.ctx
    n = A.nrows
    zero = ctx.zero()
    B = [list(row) for row in A.data]
    V = [list(row) for row in Mat.identity(ctx, n).data]

    def add_col_to(i, j, q, k):
        # column op: col_i += q * col_j, mirrored on rows to stay congruent;
        # in B only rows and columns >= k can hold a nonzero term
        for r in range(k, n):
            x = B[r][j]
            if x.val != INF:
                B[r][i] = B[r][i] + q * x
        for r in range(k, n):
            x = B[j][r]
            if x.val != INF:
                B[i][r] = B[i][r] + q * x
        for r in range(n):
            x = V[r][j]
            if x.val != INF:
                V[r][i] = V[r][i] + q * x

    def swap(k, j):
        # k <= j: rows above k hold exact zeros in both columns
        for r in range(k, n):
            B[r][k], B[r][j] = B[r][j], B[r][k]
        B[k], B[j] = B[j], B[k]
        for r in range(n):
            V[r][k], V[r][j] = V[r][j], V[r][k]

    for k, (piv, partner) in enumerate(A._valuations[1]):
        if partner is not None:
            # surface the diagonal pivot: 2 is a unit, so the new (i,i)
            # entry B_ii + 2 B_ij + B_jj has the minimal valuation
            add_col_to(piv, partner, ctx.one(), k)
        swap(k, piv)
        d = B[k][k]
        for j in range(k + 1, n):
            e = B[k][j]
            if e.is_zero():
                continue
            # B[j][k] keeps its value for the column op's (j, j) term
            B[k][j] = zero
            add_col_to(j, k, -(e / d), k + 1)
            B[j][k] = zero
    # already ascending: each pivot has the least valuation of its block,
    # and eliminating adds q * x with v(q) >= 0, which cannot bring an entry
    # below the pivot's valuation
    return Mat(ctx, B), Mat(ctx, V)


def cassels_move(D, i, j, u):
    """Move the unit class of u between equal-valuation diagonal entries.

    Given diagonal D with v(D_ii) = v(D_jj), returns (D2, V) with
    V^T D V = D2 exactly, D2 diagonal, D2 equal to D away from i and j,
    and class(D2_ii) = class(D_ii) + class(u).  Only square classes are
    controlled; the witness realizes the move exactly.
    """
    ctx = D.ctx
    if not D.is_diagonal():
        raise NotDiagonal("Cassels move needs a diagonal matrix")
    if i == j or not (0 <= i < D.nrows and 0 <= j < D.nrows):
        raise InvalidParameters(f"a Cassels move takes two distinct indices in [0, {D.nrows})")
    di, dj = D[i, i], D[j, j]
    if di.is_zero() or dj.is_zero() or di.valuation() != dj.valuation():
        raise ValuationMismatch("entries must share a finite valuation")
    if isinstance(u, int):
        u = ctx.from_int(u)
    if not u.is_unit():
        raise InvalidParameters("moved factor must be a unit")
    p = ctx.p
    m = di.valuation()
    c, d = di.shift(-m), dj.shift(-m)
    target = (c.square_class() + u.square_class()) % 2
    t = ctx.one() if target == 0 else ctx.from_int(ctx.rho)
    # solve c x^2 + d y^2 = t, first mod p, then lift the free coordinate
    cu, du, tu = c.unit_mod(1), d.unit_mod(1), t.unit_mod(1)
    sol = None
    for x0 in range(p):
        rhs = (tu - cu * x0 * x0) % p
        y0 = sqrt_mod_p(rhs * pow(du, -1, p), p)
        if y0 is not None:
            sol = (x0, y0)
            break
    if sol is None:
        raise InvalidParameters("binary form failed to represent the target class")
    x0, y0 = sol
    if y0 % p != 0:
        x = ctx.from_int(x0)
        y = ((t - c * x * x) / d).sqrt()
    else:
        y = ctx.from_int(y0)
        x = ((t - d * y * y) / c).sqrt()
    n = D.nrows
    V = [list(row) for row in Mat.identity(ctx, n).data]
    V[i][i] = x
    V[j][i] = y
    V[i][j] = -(d * y)
    V[j][j] = c * x
    V = Mat(ctx, V)
    entries = list(D.diagonal_entries())
    entries[i] = t.shift(m)
    entries[j] = (c * d * t).shift(m)
    return Mat.diagonal(ctx, entries), V

