"""Matrices over Z_p / Q_p and their normal forms.

Z_p is a discrete valuation ring, so both echelon and diagonal normal forms
take a particularly rigid shape: every pivot can be normalized to a pure
power of p.  The three workhorses here are

* hnf_columns   -- the column Hermite form (canonical generator matrix of
                   the column span, so literal equality of forms is equality
                   of lattices),
* snf           -- the Smith form with unimodular witnesses (the divisor
                   valuations are the elementary-divisor exponents),
* congruent_valuations -- the valuations s and unit square classes chi
                   of a congruent diagonal of a symmetric matrix, read off
                   one fraction-free elimination of its entries lifted to
                   integers; the Jordan data every classification reads,
* congruent_diagonalize -- the diagonalization itself under the congruence
                   action V^T A V in the precision window, valuations sorted
                   ascending, for the callers that consume D and V.

Each Mat keeps the first success of both, an immutable value that later
calls share, and never a failure.

cassels_move shuffles a unit between two diagonal entries of equal
valuation without leaving the congruence class, and Span answers every
"does span N lie in span M" question.
"""

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

    def mul_vec(self, v):
        """self * v for a vector v, skipping exact-zero terms as __mul__ does."""
        if self.ncols != len(v):
            raise InvalidParameters("shape mismatch in matrix product")
        zero = self.ctx.zero()
        out = []
        for r in self.data:
            acc = zero
            for x, y in zip(r, v):
                if x.val != INF and y.val != INF:
                    acc = acc + x * y
            out.append(acc)
        return tuple(out)

    def det(self):
        """Closed-form determinant; 2x2 and 3x3 only."""
        if self.nrows != self.ncols:
            raise InvalidParameters("determinant of a non-square matrix")
        if self.nrows == 3:
            (a, b, c), (d, e, f), (g, h, i) = self.data
            # cofactor expansion along the first row, with the operand order
            # of a Laplace expansion (tests/oracles.py laplace_det), so every
            # scalar and every PrecisionLoss matches it exactly
            return a * (e * i - f * h) + -(b * (d * i - f * g)) + c * (d * h - e * g)
        if self.nrows != 2:
            raise InvalidParameters("determinant of a matrix other than 2x2 or 3x3")
        (a, b), (c, d) = self.data
        return a * d - b * c

    def adjugate(self):
        """Classical adjugate, self * adjugate = det * identity; 2x2 and 3x3 only."""
        if self.nrows != self.ncols or self.nrows not in (2, 3):
            raise InvalidParameters("adjugate of a matrix other than 2x2 or 3x3")
        if self.nrows == 3:
            (a, b, c), (d, e, f), (g, h, i) = self.data
            # transposed cofactors, each a 2x2 minor taken in row order
            return Mat(
                self.ctx,
                [
                    [e * i - f * h, -(b * i - c * h), b * f - c * e],
                    [-(d * i - f * g), a * i - c * g, -(a * f - c * d)],
                    [d * h - e * g, -(a * h - b * g), a * e - b * d],
                ],
            )
        (a, b), (c, d) = self.data
        return Mat(self.ctx, [[d, -b], [-c, a]])

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
    """
    ctx = M.ctx
    if not M.is_integral():
        raise InvalidParameters("Hermite form expects an integral matrix")
    n = M.nrows
    zero = ctx.zero()
    cols = [list(M.col(j)) for j in range(M.ncols)]
    placed = {}  # pivot row -> column
    active = list(range(len(cols)))
    for i in range(n - 1, -1, -1):
        best = None
        for j in active:
            v = cols[j][i].valuation()
            if v != INF and (best is None or v < cols[best][i].valuation()):
                best = j
        if best is None:
            continue
        piv = cols[best]
        d = piv[i].valuation()
        ctx.guard_decidable(d)
        u_inv = piv[i].shift(-d).inv()  # unit part inverse
        # rows below i are exact zeros in every active column
        piv = [x * u_inv for x in piv[:i]] + [ctx.one().shift(d)] + piv[i + 1 :]
        cols[best] = piv
        for j in active:
            if j == best:
                continue
            col = cols[j]
            e = col[i]
            if e.is_zero():
                continue
            q = e.shift(-d)
            cols[j] = [x - q * y for x, y in zip(col[:i], piv)] + [zero] + col[i + 1 :]
        placed[i] = best
        active = [j for j in active if j != best]
    order = sorted(placed)
    result = [cols[placed[i]] for i in order]
    # canonical reduction: entries above each pivot reduced mod the pivot.
    # Work from the last pivot row back so a reduction never disturbs a row
    # that was already canonicalized (column a only has support on rows
    # <= order[a]).
    for a in range(len(order) - 1, -1, -1):
        i = order[a]
        d = result[a][i].valuation()
        for b in range(a + 1, len(order)):
            e = result[b][i]
            if e.is_zero():
                continue
            r = ctx.from_int(e.residue_mod(d))
            q = (e - r).shift(-d)
            if not q.is_zero():
                result[b] = [x - q * y for x, y in zip(result[b][:i], result[a])] + result[b][i:]
            result[b][i] = r
    rank = len(order)
    zero_col = [ctx.zero()] * n
    while len(result) < n:
        result.append(zero_col)
    return Mat(ctx, result).transpose(), rank


class Span:
    """The column span of a square, full-rank M: one det and one adjugate.

    coordinates(N) is the one membership test: it solves M^{-1} N exactly,
    guards d_max = v(det M) - min v(adj M), the largest elementary divisor
    of M (p^(d_max + 1) Z_p^n lies in span M), and reads integrality.  Why
    this guard: PadicScalar.__add__ makes a sum the exact zero only after
    it cancelled through half the window, so on integral operands a misread
    zero has valuation >= precision/2 > d_max, and an error inside span M
    cannot move a vector in or out of it.  d_max bounds every Hermite pivot.
    """

    __slots__ = ("adj", "d_inv", "d_max")

    def __init__(self, M):
        d = M.det()
        if d.is_zero():
            raise Degenerate("matrix is singular")
        self.adj = M.adjugate()
        self.d_inv = d.inv()
        self.d_max = d.valuation() - min(x.valuation() for row in self.adj.data for x in row)

    def solve(self, N):
        """M^{-1} N, exactly, over Q_p; no membership is decided."""
        return (self.adj * N).scale(self.d_inv)

    def coordinates(self, N):
        """M^{-1} N when every column of N lies in span M, else None."""
        X = self.solve(N)
        self.adj.ctx.guard_decidable(self.d_max)
        return X if X.is_integral() else None


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


def lattice_contains(M, N):
    """Column span of the full-rank M contains column span of N."""
    return Span(M).coordinates(N) is not None


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def snf(M):
    """Smith form over Z_p with witnesses.

    Returns (divisors, P, Q) with P * M * Q diagonal, P and Q unimodular,
    and divisors the list of diagonal valuations sorted ascending (INF for
    absent pivots), of length min(nrows, ncols).

    One elimination, _smith_elimination, gives the divisors and a log of
    its row and of its column operations; P is the row log replayed on the
    identity, and Q the column log, in the order the elimination took
    them, so every witness scalar is the one an interleaved elimination
    computes.
    """
    divisors, row_log, col_log = _smith_elimination(M)
    ctx = M.ctx
    P = Mat(ctx, _replay(ctx, M.nrows, row_log))
    Q = Mat(ctx, _replay(ctx, M.ncols, col_log)).transpose()
    return divisors, P, Q


def _smith_elimination(M, stop=INF):
    """snf's elimination: (divisors, row_log, col_log).

    Each log holds one (k, swap, scale, ops) per pivot step: exchange
    lines k and swap, multiply line k by scale (None for columns), then
    line i -= q * line k for each (i, q) in ops.

    It stops once the least valuation left in the block is >= stop, and
    reports each divisor it did not reach as INF: a caller that reads M
    only mod p^stop has no pivot at or above it guarded.  snf passes none.

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
    zero = ctx.zero()
    divisors, row_log, col_log = [], [], []
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
        if d >= stop:
            break
        ctx.guard_decidable(d)
        A[k], A[bi] = A[bi], A[k]
        for row in A:
            row[k], row[bj] = row[bj], row[k]
        u_inv = A[k][k].shift(-d).inv()
        # entries left of the pivot are exact zeros in every row >= k
        tail = [x * u_inv for x in A[k][k + 1 :]]
        row_ops = []
        for i in range(k + 1, n):
            row = A[i]
            e = row[k]
            if e.is_zero():
                continue
            q = e.shift(-d)
            A[i] = row[:k] + [zero] + [x - q * y for x, y in zip(row[k + 1 :], tail)]
            row_ops.append((i, q))
        # column k is now zero off row k: the column operations clear row k
        col_ops = [(j, e.shift(-d)) for j, e in enumerate(tail, k + 1) if not e.is_zero()]
        row_log.append((k, bi, u_inv, row_ops))
        col_log.append((k, bj, None, col_ops))
        divisors.append(d)
    # already ascending, INF last: each pivot has the least valuation of its
    # block, and eliminating subtracts q * x with v(q) >= 0, which cannot
    # bring an entry below the pivot's valuation
    return tuple(divisors) + (INF,) * (r - len(divisors)), row_log, col_log


def _replay(ctx, size, log):
    """The rows of the size x size identity after a Smith log's operations."""
    W = [list(row) for row in Mat.identity(ctx, size).data]
    for k, swap, scale, ops in log:
        W[k], W[swap] = W[swap], W[k]
        if scale is not None:
            W[k] = [x * scale for x in W[k]]
        for i, q in ops:
            W[i] = [x - q * y for x, y in zip(W[i], W[k])]
    return W


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

    The first success is kept on the object A and returned by every later
    call; an error is not kept, and is raised again on every call.
    """
    if A._valuations is None:
        A._valuations = _congruent_read_off(A)
    return A._valuations


def _congruent_read_off(A):
    """congruent_valuations without the memo: one integer elimination.

    Lift: each nonzero entry p^val u becomes the integer p^val r, r the
    symmetric residue of u mod p^prec, scaled by p^(2m), m = max(0, -min
    val), so that every entry is integral; a scale by a square moves each
    s by 2m and no chi.  The lift differs from A by entries of valuation at
    least t, the least val + prec over the nonzero entries.

    Elimination: _congruent_elimination's pivot rule, fraction-free.  Step
    k holds B_k = c_k S_k, S_k the exact Schur complement and c_0 = 1;
    with pivot d_k, B_k+1 = d_k B_k' - b b^T is c_k+1 S_k+1 for c_k+1 =
    d_k c_k, so the diagonal entry d_k / c_k has s_k = v(d_k) - v(c_k) - 2m
    and chi_k = class(unit(d_k) unit(c_k)); of c_k only its valuation and
    class are kept.  Each pivot has the least valuation of its block, so
    s ascends.  A zero block means the lift is singular.  That is
    Degenerate when every entry holds at least half the window, so that A
    differs from its lift only by what PadicScalar.__add__ treats as the
    exact zero, and PrecisionLoss otherwise.

    Guards: each s_k, ascending, passes guard_decidable, and then must stay
    below t.  Below t the answer is A's own: moved to a congruent diagonal
    by an integral unimodular V, the lift's error keeps valuation >= t
    through every step, and changes no pivot's valuation or class.
    """
    ctx = A.ctx
    if A.nrows != A.ncols:
        raise InvalidParameters("congruence requires a square matrix")
    if not A.is_symmetric():
        raise NotSymmetric("matrix is not symmetric")
    n, p, data = A.nrows, ctx.p, A.data
    held = [x for i, row in enumerate(data) for x in row[i:] if x.val != INF]
    if not held:
        raise Degenerate("matrix is degenerate")
    m = max(0, -min(x.val for x in held))
    t = min(x.val + x.prec for x in held)
    exact = 2 * min(x.prec for x in held) >= ctx.precision
    B = [[0] * n for _ in range(n)]
    w = [[INF] * n for _ in range(n)]  # w[i][j] = v(B[i][j]), for the block's entries
    for i in range(n):
        for j in range(i, n):
            x = data[i][j]
            if x.val != INF:
                e = x.val + 2 * m
                B[i][j] = B[j][i] = x._symmetric_unit() * p**e
                w[i][j] = w[j][i] = e
    s, chi = [], []
    vc = cc = 0  # the valuation and unit square class of c_k
    for k in range(n):
        # the first diagonal entry of least valuation, unless an
        # off-diagonal one, first in row order, has a smaller valuation
        piv, v = k, w[k][k]
        for i in range(k + 1, n):
            if w[i][i] < v:
                piv, v = i, w[i][i]
        oi = oj = None
        ov = INF
        for i in range(k, n):
            for j in range(i + 1, n):
                if w[i][j] < ov:
                    oi, oj, ov = i, j, w[i][j]
        if ov < v:
            # surface a diagonal pivot: col_i += col_j, then row_i += row_j;
            # 2 is a unit, so the new (i, i) entry has valuation ov
            for r in range(k, n):
                B[r][oi] += B[r][oj]
            for r in range(k, n):
                B[oi][r] += B[oj][r]
            piv, v = oi, ov
        elif v == INF:
            if exact:
                raise Degenerate("matrix is degenerate")
            raise PrecisionLoss(f"a block cancelled to zero within the {t} digits of the entries")
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
                e = INF
                if x:
                    e = 0
                    while x % p == 0:
                        x //= p
                        e += 1
                wi[j] = w[j][i] = e
        s.append(v - vc - 2 * m)
        cc = (legendre_class(d // p**v, p) + cc) % 2
        chi.append(cc)
        vc += v
    for v in s:
        ctx.guard_decidable(v)
        if v >= t:
            raise PrecisionLoss(f"valuation {v} not below {t}, the digits the entries carry")
    return tuple(s), tuple(chi)


def congruent_diagonalize(A):
    """Diagonalize the symmetric matrix A under congruence.

    Returns (D, V) with D = V^T A V diagonal, V unimodular, and diagonal
    valuations sorted ascending.  Works over Q_p: entries may carry
    negative valuations.  Raises NotSymmetric / Degenerate.

    The first success is kept on the object A, and every later call on A
    returns that same pair, immutable and so safe to share; an error is
    not kept, and is raised again on every call.
    """
    if A._congruent is None:
        A._congruent = _congruent_elimination(A)
    return A._congruent


def _congruent_elimination(A):
    """congruent_diagonalize without the memo: the symmetric elimination.

    Step k works on the trailing block, rows and columns >= k: above it,
    every off-diagonal entry is the exact zero, and x + q * 0 is x itself,
    so each kept scalar is the one a full-matrix elimination computes, and
    terms with an exact-zero factor are skipped as Mat.__mul__ skips them.
    Clearing B[k][j] stores the exact zero in B[k][j] and B[j][k]: e - (e/d) d
    is that zero or a PrecisionLoss, never anything else.

    det(A) is taken only when the elimination raises PrecisionLoss, and an
    exact-zero det turns the failure into Degenerate.  A success needs no
    det: its pivots are nonzero and guarded, and V is unimodular.
    """
    ctx = A.ctx
    if A.nrows != A.ncols:
        raise InvalidParameters("congruence requires a square matrix")
    if not A.is_symmetric():
        raise NotSymmetric("matrix is not symmetric")
    n = A.nrows
    if n not in (2, 3):
        # the sizes Mat.det takes, which a failure needs
        raise InvalidParameters("determinant of a matrix other than 2x2 or 3x3")
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

    try:
        for k in range(n):
            diag_best = None
            for i in range(k, n):
                v = B[i][i].valuation()
                if v != INF and (diag_best is None or v < B[diag_best][diag_best].valuation()):
                    diag_best = i
            off_best = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    v = B[i][j].valuation()
                    if v != INF and (
                        off_best is None or v < B[off_best[0]][off_best[1]].valuation()
                    ):
                        off_best = (i, j)
            if diag_best is not None and (
                off_best is None
                or B[diag_best][diag_best].valuation() <= B[off_best[0]][off_best[1]].valuation()
            ):
                piv = diag_best
            elif off_best is None:
                # the block cancelled to zero: degenerate, or the window ran out
                raise PrecisionLoss("cancellation exhausted the precision window")
            else:
                # surface a diagonal pivot: 2 is a unit, so the new (i,i) entry
                # B_ii + 2 B_ij + B_jj has the minimal valuation
                i, j = off_best
                add_col_to(i, j, ctx.one(), k)
                piv = i
            ctx.guard_decidable(B[piv][piv].valuation())
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
    except PrecisionLoss:
        if A.det().is_zero():
            raise Degenerate("matrix is degenerate") from None
        raise
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

