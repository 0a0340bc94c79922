"""Matrices over Z_p / Q_p and their normal forms.

Z_p is a discrete valuation ring, so both echelon and diagonal normal forms
take a particularly rigid shape: every pivot can be normalized to a pure
power of p.  The three workhorses here are

* hnf_columns   -- the column Hermite form (canonical generator matrix of
                   the column span, so literal equality of forms is equality
                   of lattices),
* snf           -- the Smith form with unimodular witnesses (the divisor
                   valuations are the elementary-divisor exponents),
* congruent_diagonalize -- diagonalization of a symmetric matrix under the
                   congruence action V^T A V, valuations sorted ascending;
                   each Mat keeps its own first success, an immutable pair
                   that later calls share, and never a failure.

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
from .padic_core import INF, parse_scalar, sqrt_mod_p


class Mat:
    """Immutable dense matrix of PadicScalar entries."""

    __slots__ = ("ctx", "nrows", "ncols", "data", "_congruent")

    def __init__(self, ctx, rows):
        self.ctx = ctx
        self.data = tuple(tuple(row) for row in rows)
        self.nrows = len(self.data)
        self.ncols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.ncols:
                raise InvalidParameters("ragged matrix")
        self._congruent = None  # congruent_diagonalize's (D, V), once it succeeded

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

    def hstack(self, other):
        return Mat(
            self.ctx,
            [tuple(self.data[i]) + tuple(other.data[i]) for i in range(self.nrows)],
        )

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
        piv = [x * u_inv for x in piv]
        piv[i] = ctx.one().shift(d)
        cols[best] = piv
        for j in active:
            if j == best:
                continue
            e = cols[j][i]
            if e.is_zero():
                continue
            q = e.shift(-d)
            cols[j] = [x - q * y for x, y in zip(cols[j], piv)]
            cols[j][i] = ctx.zero()
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
                result[b] = [x - q * y for x, y in zip(result[b], result[a])]
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
    """
    ctx = M.ctx
    if not M.is_integral():
        raise InvalidParameters("Smith form expects an integral matrix")
    n, m = M.nrows, M.ncols
    A = [list(row) for row in M.data]
    P = [list(row) for row in Mat.identity(ctx, n).data]
    Q = [list(row) for row in Mat.identity(ctx, m).data]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        P[i], P[j] = P[j], P[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in Q:
            row[i], row[j] = row[j], row[i]

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
        swap_rows(k, best[0])
        swap_cols(k, best[1])
        d = A[k][k].valuation()
        ctx.guard_decidable(d)
        u_inv = A[k][k].shift(-d).inv()
        A[k] = [x * u_inv for x in A[k]]
        P[k] = [x * u_inv for x in P[k]]
        A[k][k] = ctx.one().shift(d)
        for i in range(k + 1, n):
            e = A[i][k]
            if e.is_zero():
                continue
            q = e.shift(-d)
            A[i] = [x - q * y for x, y in zip(A[i], A[k])]
            P[i] = [x - q * y for x, y in zip(P[i], P[k])]
            A[i][k] = ctx.zero()
        for j in range(k + 1, m):
            e = A[k][j]
            if e.is_zero():
                continue
            q = e.shift(-d)
            for row in A:
                row[j] = row[j] - q * row[k]
            for row in Q:
                row[j] = row[j] - q * row[k]
            A[k][j] = ctx.zero()
    # already ascending, INF last: each pivot has the least valuation of its
    # block, and eliminating subtracts q * x with v(q) >= 0, which cannot
    # bring an entry below the pivot's valuation
    divisors = tuple(A[k][k].valuation() for k in range(r))
    return divisors, Mat(ctx, P), Mat(ctx, Q)


def kernel_basis(M):
    """Basis (as columns) of the kernel of M over Z_p; saturated submodule."""
    divisors, _P, Q = snf(M)
    r = sum(1 for d in divisors if d != INF)
    cols = [Q.col(j) for j in range(r, M.ncols)]
    ctx = M.ctx
    if not cols:
        return Mat(ctx, [[] for _ in range(M.ncols)])
    return Mat(ctx, list(zip(*cols)))


# ---------------------------------------------------------------------------
# Symmetric congruence: diagonalization and Cassels moves
# ---------------------------------------------------------------------------


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
    """congruent_diagonalize without the memo: the symmetric elimination."""
    ctx = A.ctx
    if A.nrows != A.ncols:
        raise InvalidParameters("congruence requires a square matrix")
    if not A.is_symmetric():
        raise NotSymmetric("matrix is not symmetric")
    if A.det().is_zero():
        raise Degenerate("matrix is degenerate")
    n = A.nrows
    B = [list(row) for row in A.data]
    V = [list(row) for row in Mat.identity(ctx, n).data]

    def add_col_to(i, j, q):
        # column op: col_i += q * col_j, mirrored on rows to stay congruent
        for r in range(n):
            B[r][i] = B[r][i] + q * B[r][j]
        for r in range(n):
            B[i][r] = B[i][r] + q * B[j][r]
        for r in range(n):
            V[r][i] = V[r][i] + q * V[r][j]

    def swap(i, j):
        for r in range(n):
            B[r][i], B[r][j] = B[r][j], B[r][i]
        B[i], B[j] = B[j], B[i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]

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
            # det(A) is nonzero, so the block only cancelled to zero here
            raise PrecisionLoss("cancellation exhausted the precision window")
        else:
            # surface a diagonal pivot: 2 is a unit, so the new (i,i) entry
            # B_ii + 2 B_ij + B_jj has the minimal valuation
            i, j = off_best
            add_col_to(i, j, ctx.one())
            piv = i
        ctx.guard_decidable(B[piv][piv].valuation())
        swap(k, piv)
        d = B[k][k]
        for j in range(k + 1, n):
            e = B[k][j]
            if e.is_zero():
                continue
            add_col_to(j, k, -(e / d))
            B[k][j] = ctx.zero()
            B[j][k] = ctx.zero()
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

