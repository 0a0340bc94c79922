"""Antisymmetric A-products on Z_p^3: brackets, bases, sublattices.

A 3x3 matrix A over Z_p encodes the product with

    [x1, x2] = sum_i A_i0 x_i,   [x2, x0] = sum_i A_i1 x_i,
    [x0, x1] = sum_i A_i2 x_i,

equivalently [x, y] = A (x cross y) on coordinate triples.  The single
Jacobi instance J(x0, x1, x2) decides the Jacobi identity in dimension 3,
and equals A v where v is the antisymmetry defect vector of A, so symmetric
A always yields a Lie bracket and a nondegenerate Lie bracket forces A
symmetric.

Changing basis by U (columns are the new basis, det U nonzero) transforms
the structure matrix by

    B = det(U) U^{-1} A U^{-T},

which is also the integrality test for a full-rank submodule to be a
subalgebra, and then B is the structure matrix of the submodule.
"""

import operator

from .errors import Degenerate, InvalidParameters, NotSubalgebra
from .normal_forms import Mat, int_span, lift
from .padic_core import INF

# The pairs (a, b) whose brackets [e_a, e_b] are the columns of a structure
# matrix S, by dimension.  In dimension 3 they are cyclic, so S is the A
# above: [e1, e2] = A e0, [e2, e0] = A e1, [e0, e1] = A e2.
PAIRS = {2: ((0, 1),), 3: ((1, 2), (2, 0), (0, 1))}


def cross(x, y):
    """Coordinate cross product of two scalar triples."""
    return (
        x[1] * y[2] - x[2] * y[1],
        x[2] * y[0] - x[0] * y[2],
        x[0] * y[1] - x[1] * y[0],
    )


class Algebra:
    """Z_p^3 with the antisymmetric product encoded by a structure matrix."""

    def __init__(self, matrix):
        if matrix.nrows != 3 or matrix.ncols != 3:
            raise InvalidParameters("structure matrix must be 3x3")
        if not matrix.is_integral():
            raise InvalidParameters("structure matrix must be over Z_p")
        self.matrix = matrix
        self.ctx = matrix.ctx

    def bracket(self, x, y):
        """[x, y] = A (x cross y) on coordinate triples."""
        return (self.matrix * Mat(self.ctx, [[c] for c in cross(x, y)])).col(0)

    def __repr__(self):
        return f"<Algebra {self.matrix.to_literal()} (p={self.ctx.p})>"


def change_of_basis(alg, U):
    """Structure matrix after the basis change U: det(U) U^{-1} A U^{-T}.

    Exact over Q_p via the adjugate; entries may have negative valuation
    when U is not unimodular.
    """
    d = U.det()
    if d.is_zero():
        raise Degenerate("basis-change matrix is singular")
    adj = U.adjugate()
    return (adj * alg.matrix * adj.transpose()).scale(d.inv())


def induced_algebra(alg, U):
    """The subalgebra structure on the column span of U; NotSubalgebra if open."""
    B = change_of_basis(alg, U)
    if not B.is_integral():
        raise NotSubalgebra("submodule is not closed under the bracket")
    return Algebra(B)


def structure_matrix(bracket, ctx, n):
    """The Mat whose columns are the brackets [e_a, e_b], (a, b) in PAIRS[n]."""
    e = Mat.identity(ctx, n).cols()
    return Mat(ctx, list(zip(*(bracket(e[a], e[b]) for a, b in PAIRS[n]))))


def compound(R):
    """The minors of the integer square R on the row and column pairs of
    PAIRS: column c holds those of R's columns PAIRS[c], so S compound(R)
    lists the brackets of R's column pairs.  In dimension 3 it is adj(R)^T."""
    pairs = PAIRS[len(R)]
    return [[R[i][a] * R[k][b] - R[i][b] * R[k][a] for a, b in pairs] for i, k in pairs]


def compound_bounds(M):
    """The error bound of each entry of compound(R), R the lift of the
    integral Mat M: each of a minor's two products is known to within
    p^(its factors' valuations + the lesser prec), PadicScalar's rule."""
    pairs = PAIRS[M.nrows]

    def term(x, y):
        return x.val + y.val + min(x.prec, y.prec)

    d = M.data
    return [[min(term(d[i][a], d[k][b]), term(d[i][b], d[k][a])) for a, b in pairs]
            for i, k in pairs]


def ad_images(S, R):
    """The brackets [e_a, r] for every a and every column r of R, all in
    integers, as the columns of one matrix: [e_a, r] = sum_c S_c m_c with
    m_c the minor of (e_a, r) on the pair PAIRS[c]."""
    pairs = PAIRS[len(R)]
    images = []
    for a in range(len(R)):
        for r in zip(*R):
            m = [r[k] if a == i else -r[i] if a == k else 0 for i, k in pairs]
            images.append([sum(s * x for s, x in zip(row, m)) for row in S])
    return [list(row) for row in zip(*images)]


def is_ideal(S, J):
    """Whether the column span of the full-rank J is an ideal of the
    algebra with structure matrix S (PAIRS' columns, in J's dimension):
    [x, j] lies in span J for every standard basis vector x and every
    column j of J.

    The n^2 brackets are formed in integers from the lifts of J and S and
    go into one containment test.  J's lift is p^m J, so the brackets of
    its columns are those of J scaled by p^m, and S's lift scales them by
    p^(S's m): they are tested against p^(S's m) span p^m J.
    """
    span = int_span(J)
    RS, u, _, m = lift(S)
    return span.adj_solve(ad_images(RS, span.R), min(span.t_R, u), m) is not None


def index_exponent(U):
    """v_p(det U): the index of the column span in Z_p^3 is p to this.

    Read off the integer det of U's lift by IntSpan, so its Degenerate and
    PrecisionLoss rules are the ones every lattice question follows.
    """
    span = int_span(U)
    return span.delta - U.nrows * span.m


def saturating_scale(n, s):
    """n * s with the conventions 0 * INF = 0 and n * INF = INF for n > 0."""
    if n == 0:
        return 0
    return n * s if s != INF else INF


def lcs_exponents(s, n):
    """Diagonal exponents of gamma_n(L) in a well-diagonalizing basis.

    s = (s0, s1, s2) are the s-invariants read in a basis where the
    structure matrix is diagonal with those valuations; entries may be INF.
    The series is indexed from gamma_0 = L, gamma_{n+1} = [L, gamma_n].
    For n = 2m+1 the exponents are

        ((m+1) s0 + m s1,  m s0 + (m+1) s1,  m s0 + m s1 + s2)

    and for n = 2m (m >= 1)

        (m s0 + m s1,  m s0 + m s1,  m s0 + (m-1) s1 + s2),

    with saturating arithmetic so that INF entries stay INF.
    """
    try:
        n = operator.index(n)
        s0, s1, s2 = s
    except (TypeError, ValueError):
        raise InvalidParameters(f"an integer n and three entries of s: n={n!r}, s={s!r}") from None
    if n < 0:
        raise InvalidParameters("the series starts at gamma_0 = L")

    def add(*terms):
        return INF if any(t == INF for t in terms) else sum(terms)

    if n == 0:
        return (0, 0, 0)
    if n % 2 == 1:
        m = (n - 1) // 2
        return (
            add(saturating_scale(m + 1, s0), saturating_scale(m, s1)),
            add(saturating_scale(m, s0), saturating_scale(m + 1, s1)),
            add(saturating_scale(m, s0), saturating_scale(m, s1), s2),
        )
    m = n // 2
    return (
        add(saturating_scale(m, s0), saturating_scale(m, s1)),
        add(saturating_scale(m, s0), saturating_scale(m, s1)),
        add(saturating_scale(m, s0), saturating_scale(m - 1, s1), s2),
    )


def residually_nilpotent(s):
    """gamma_n(L) shrinks to zero iff the middle sorted s-invariant is >= 1."""
    middle = sorted(s)[1]
    return middle >= 1
