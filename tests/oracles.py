"""Independent reference computations used to pin expected values.

Everything here recomputes quantities by a different route than the
package: plain integer arithmetic mod p^K, exhaustive enumeration, or
textbook algorithms with no reliance on the scalar class.  Three groups
work on the package's objects on purpose.  The Laplace expansion is the
reference the closed-form 3x3 determinant and adjugate must match scalar
for scalar, and the term-by-term product is the one the zero-skipping
matrix products must match.  The predicates near the end (Jacobi and
unsolvability tests, subalgebra and commutator indices, unimodularity,
lattice equality) were package API that only tests reached; they live
here as references, and so do the s-invariant shift law and the checked
key identity at the end.
The product chain is the reference the column operations of the index-p
certificate must match scalar for scalar, and the full-matrix, det-first
elimination the one the block-local congruent elimination must match;
the block-local elimination with its own pivot search in the window is
frozen beside it, the second search the integer read-off's pivot plan is
checked against.  The canonical form of an integer
diagonal is read off by Legendre symbols from the four families'
definitions, the reference for the package's table of families; the
package's own reading of FAMILIES, a scan for the family of an (s, chi)
and a check of a form's fields run over the table, is frozen beside it,
the reference for the lookups canonical_form and CanonicalForm make.  An
integer diagonal congruent to a symmetric matrix comes from elimination
over Fractions.  The last group freezes the index-p sweep through the
generic change_of_basis, the windowed column Hermite form
(windowed_hnf_columns, which every reference that takes a Hermite form
calls, so that none runs the integer form under test), the Smith
elimination that updates its witnesses as it goes, the domain chain through the kernel of the 3 x 6 stack
[phi | -S], the key identity as two 3 x 6 Hermite forms, the certificate
loop and selftest's random draws, as the references their rewrites must
match.  The windowed membership test Span.coordinates, with lattice_contains,
is_ideal and the bracket law that read it, is frozen last, the reference
for the integer containment test.  A certificate's morphism law is also
read mod p^k on its integer rows alone (morphism_law_mod), the law the
benchmark's checker reads.  The index-p sweep is frozen a second time as
it stood before a sweep formed A's lift, the residues and the symbols
once (parent_enumerate_index_p), with the scalar sum and literal it ran
on (parent_add, parent_to_literal).
"""

from fractions import Fraction

from padiclie import lattice, normal_forms
from padiclie.classify import FAMILIES
from padiclie.errors import (
    Degenerate,
    InvalidParameters,
    NotSubalgebra,
    NotSymmetric,
    PathDisagreement,
    PrecisionLoss,
    PreconditionViolated,
)
from padiclie.lattice import induced_algebra
from padiclie.normal_forms import (
    Mat,
    Span,
    cassels_move,
    congruent_diagonalize,
    lattice_contains,
)
from padiclie.padic_core import INF, PadicScalar
from padiclie.subalgebras import (
    SubalgebraReport,
    XiSymbol,
    all_symbols,
    b_xi,
    nss_condition,
    refuse_large_sweep,
)


def egcd(a, b):
    """Extended Euclid: returns (g, x, y) with a*x + b*y = g."""
    if b == 0:
        return a, 1, 0
    g, x, y = egcd(b, a % b)
    return g, y, x - (a // b) * y


def inverse_mod(a, m):
    g, x, _ = egcd(a % m, m)
    assert g == 1
    return x % m


def legendre_symbol(a, p):
    """Euler criterion; returns +1, -1 or 0."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def least_nonresidue(p):
    n = 2
    while legendre_symbol(n, p) != -1:
        n += 1
    return n


def membership_mod(vec, cols, p, K):
    """Is vec in the span of cols over Z/p^K, by meet-in-the-middle?

    cols is a list of three integer 3-vectors.  Solvability mod p^K
    equals Z_p-span membership whenever K >= v_p(det cols).
    """
    return span_membership(cols, p, K)(vec)


def span_membership(cols, p, K):
    """membership_mod as a predicate on vec, with the table for cols built
    once."""
    m = p**K
    (u0, u1, u2), (v0, v1, v2), _ = cols
    left = {
        ((a * u0 + b * v0) % m, (a * u1 + b * v1) % m, (a * u2 + b * v2) % m)
        for a in range(m)
        for b in range(m)
    }

    def member(vec):
        return any(
            tuple((vec[i] - c * cols[2][i]) % m for i in range(3)) in left
            for c in range(m)
        )

    return member


def bracket_direct(A, x, y):
    """[x, y] with structure matrix A over Fractions: A times (x cross y)."""
    cx = (
        x[1] * y[2] - x[2] * y[1],
        x[2] * y[0] - x[0] * y[2],
        x[0] * y[1] - x[1] * y[0],
    )
    return tuple(sum(A[i][j] * cx[j] for j in range(3)) for i in range(3))


def jacobiator_direct(A):
    """J(e0, e1, e2) by literally expanding the three nested brackets."""
    e = [(Fraction(1), Fraction(0), Fraction(0)),
         (Fraction(0), Fraction(1), Fraction(0)),
         (Fraction(0), Fraction(0), Fraction(1))]
    A = [[Fraction(a) for a in row] for row in A]
    total = (Fraction(0), Fraction(0), Fraction(0))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        inner = bracket_direct(A, e[i], e[j])
        term = bracket_direct(A, inner, e[k])
        total = tuple(total[t] + term[t] for t in range(3))
    return total


def count_sublattices_exponent(p, k):
    """Number of sublattices of Z_p^3 of index p^k, by enumerating HNFs.

    Column-style HNF: upper triangular, diagonal (p^a, p^b, p^c) with
    a+b+c = k, entry (0,1) and (0,2) free mod p^a, entry (1,2) free mod p^b.
    """
    total = 0
    for a in range(k + 1):
        for b in range(k - a + 1):
            total += p**a * p**a * p**b
    return total


def hermite_sublattices(p, k):
    """Integer generator matrices (rows of a column-style HNF) of every
    sublattice of Z_p^3 of index p^k, the ones count_sublattices_exponent
    counts."""
    for a in range(k + 1):
        for b in range(k - a + 1):
            c = k - a - b
            for h01 in range(p**a):
                for h02 in range(p**a):
                    for h12 in range(p**b):
                        yield ((p**a, h01, h02), (0, p**b, h12), (0, 0, p**c))


def is_closed_direct(A, H, p, K):
    """Is the column span of the integer matrix H closed under the bracket
    A (x cross y)?  Each bracket of two columns is tested with
    span_membership mod p^K, which needs K >= v_p(det H)."""
    cols = [tuple(H[i][j] for i in range(3)) for j in range(3)]
    member = span_membership(cols, p, K)
    return all(member(bracket_direct(A, cols[i], cols[j])) for i, j in ((0, 1), (0, 2), (1, 2)))


def solve_two_square_classes(c, d, t, p):
    """Some (x, y) mod p with c x^2 + d y^2 = t (mod p), x or y nonzero."""
    for x in range(p):
        for y in range(p):
            if (x or y) and (c * x * x + d * y * y - t) % p == 0:
                return x, y
    return None


def laplace_det(M):
    """Determinant by recursive cofactor expansion along the first row,
    built from minor matrices (the package's original algorithm)."""
    n = M.nrows
    if n == 1:
        return M[0, 0]
    if n == 2:
        return M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    acc = M.ctx.zero()
    sign = 1
    for j in range(n):
        minor = type(M)(
            M.ctx, [[M[i, t] for t in range(n) if t != j] for i in range(1, n)]
        )
        term = M[0, j] * laplace_det(minor)
        acc = acc + (term if sign > 0 else -term)
        sign = -sign
    return acc


def laplace_adjugate(M):
    """Transposed matrix of signed minors, each minor by laplace_det."""
    n = M.nrows
    if n == 1:
        return type(M)(M.ctx, [[M.ctx.one()]])
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = type(M)(
                M.ctx,
                [[M[r, c] for c in range(n) if c != j] for r in range(n) if r != i],
            )
            d = laplace_det(minor)
            row.append(d if (i + j) % 2 == 0 else -d)
        rows.append(row)
    return type(M)(M.ctx, rows).transpose()


def product_by_terms(A, B):
    """A * B summed over every term, acc = acc + x * y, exact zeros too."""
    rows = []
    for i in range(A.nrows):
        row = []
        for j in range(B.ncols):
            acc = A.ctx.zero()
            for t in range(A.ncols):
                acc = acc + A[i, t] * B[t, j]
            row.append(acc)
        rows.append(row)
    return type(A)(A.ctx, rows)


def reference_congruent_elimination(A):
    """(D, V) with D = V^T A V by the full-matrix elimination that takes
    det(A) first (the package's earlier algorithm): every column and row
    operation runs over all n rows and columns, and the operation that
    clears B[k][j] computes e - (e/d) d before storing the exact zero.
    normal_forms._congruent_elimination must match it field for field
    wherever it answers or raises Degenerate."""
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
        diag = [i for i in range(k, n) if not B[i][i].is_zero()]
        off = [(i, j) for i in range(k, n) for j in range(i + 1, n) if not B[i][j].is_zero()]
        diag_best = min(diag, key=lambda i: B[i][i].valuation(), default=None)
        off_best = min(off, key=lambda ij: B[ij[0]][ij[1]].valuation(), default=None)
        if diag_best is not None and (
            off_best is None
            or B[diag_best][diag_best].valuation() <= B[off_best[0]][off_best[1]].valuation()
        ):
            piv = diag_best
        elif off_best is None:
            raise PrecisionLoss("cancellation exhausted the precision window")
        else:
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
    return Mat(ctx, B), Mat(ctx, V)


def windowed_congruent_elimination(A):
    """(D, V) with D = V^T A V by the block-local elimination in the window
    with its own pivot search (the package's earlier
    _congruent_elimination): each pivot is chosen on the windowed entries
    and guarded, and det(A) is taken only when the elimination raises
    PrecisionLoss, an exact-zero det turning it into Degenerate.  The
    package's elimination replays the pivots its integer read-off chose;
    wherever both answer, the two must agree field for field."""
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


def trial_division_is_prime(n):
    """Primality by trial division up to sqrt(n) (the package's original
    test, kept as the reference for its Miller-Rabin replacement)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def p_valuation(x, p):
    """v_p of a nonzero integer."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def hilbert_symbol(a, b, p):
    """Hilbert symbol (a, b)_p of nonzero integers, p odd: for a = p^alpha u
    and b = p^beta v it is (-1)^(alpha beta (p-1)/2) (u/p)^beta (v/p)^alpha."""
    alpha, beta = p_valuation(a, p), p_valuation(b, p)
    u, v = a // p**alpha, b // p**beta
    sign = (-1) ** (alpha * beta * ((p - 1) // 2))
    return sign * legendre_symbol(u, p) ** beta * legendre_symbol(v, p) ** alpha


def eta_of_diagonal(diag, p):
    """eta of diag(a0, a1, a2) for nonzero integers: (-1)^eta is
    (-1, a0 a1 a2)_p times the three symbols (a_i, a_j)_p with i < j."""
    a0, a1, a2 = diag
    sign = hilbert_symbol(-1, a0 * a1 * a2, p)
    for a, b in ((a0, a1), (a0, a2), (a1, a2)):
        sign *= hilbert_symbol(a, b, p)
    return 0 if sign == 1 else 1


def canonical_diagonal(family, s, eps, p):
    """The integer diagonal of the canonical form (family, s, eps), rho the
    least non-residue mod p:

        1: diag(p^s0, rho^e1 p^s1, rho^e2 p^s2)      0 <= s0 < s1 < s2
        2: diag(p^s0, -rho^e1 p^s0, p^s2)            0 <= s0 < s2
        3: diag(p^s0, p^s1, -rho^e2 p^s1)            0 <= s0 < s1
        4: diag(p^s0, p^s0, p^s0)
    """
    rho = least_nonresidue(p)
    (s0, s1, s2), (e1, e2) = s, eps
    if family == 1:
        return p**s0, rho**e1 * p**s1, rho**e2 * p**s2
    if family == 2:
        return p**s0, -(rho**e1) * p**s0, p**s2
    if family == 3:
        return p**s0, p**s1, -(rho**e2) * p**s1
    return p**s0, p**s0, p**s0


def canonical_of_diagonal(d, p):
    """(family, s, eps, canonical diagonal) of the form diag(d0, d1, d2),
    for nonzero integers d_i, from the four families' definitions.

    Over Z_p, p odd, the form splits into Jordan blocks by valuation; a
    block is fixed by its size and the Legendre symbol of its unit
    determinant, and the form counts only up to a unit factor c, which
    multiplies a block's determinant by c^size.  With units u_i in order
    of ascending valuation s_i:
      1: s0 < s1 < s2: c = u0 leaves eps1 = (u0 u1 / p), eps2 = (u0 u2 / p);
      2: s0 = s1 < s2: c = u2, and the block det u0 u1 is that of
         diag(1, -rho^eps1);
      3: s0 < s1 = s2: c = u0, and the block det u1 u2 is that of
         diag(1, -rho^eps2);
      4: one block of odd size, so c makes its det a square.
    An eps bit is 0 for a residue symbol +1 and 1 for -1.
    """
    s, u = zip(*sorted((p_valuation(x, p), x // p ** p_valuation(x, p)) for x in d))

    def bit(a):
        return 0 if legendre_symbol(a, p) == 1 else 1

    if s[0] < s[1] < s[2]:
        family, eps = 1, (bit(u[0] * u[1]), bit(u[0] * u[2]))
    elif s[0] == s[1] < s[2]:
        family, eps = 2, (bit(-u[0] * u[1]), None)
    elif s[0] < s[1] == s[2]:
        family, eps = 3, (None, bit(-u[1] * u[2]))
    else:
        family, eps = 4, (None, None)
    return family, s, eps, canonical_diagonal(family, s, eps, p)


def scanned_canonical_data(s, chi, delta):
    """(family, eps) of the Jordan data (s, chi), s ascending and delta the
    class of -1, by a scan of FAMILIES for the family whose free slots are
    0 and each slot above its neighbour."""
    free = (0, *(i for i in (1, 2) if s[i] > s[i - 1]))
    family, rules = next((f, r) for f, (slots, r) in FAMILIES.items() if slots == free)
    bits = {j: (chi[slot] + chi[ref] + neg * delta) % 2 for j, (slot, ref, neg) in rules.items()}
    return family, (bits.get(0), bits.get(1))


def scanned_canonical_check(family, s, eps):
    """The check of a form's integer fields family, s (three entries) and
    eps, run over FAMILIES slot by slot: InvalidParameters with the
    package's messages, or None when the fields are consistent."""
    free, eps_slots = FAMILIES.get(family, ((), ()))
    s0, s1, s2 = s
    ok = (
        free
        and s0 >= 0
        and all(b > a if i in free else b == a for i, a, b in ((1, s0, s1), (2, s1, s2)))
        and len(eps) == 2
        and all((eps[j] is not None) == (j in eps_slots) for j in (0, 1))
    )
    if not ok:
        raise InvalidParameters(
            f"inconsistent canonical data: family {family}, s={s}, eps={eps}"
        )
    for e in eps:
        if e not in (None, 0, 1):
            raise InvalidParameters("eps entries must be 0, 1, or absent")


def rational_congruent_diagonal(rows, p):
    """Nonzero integers d with diag(d) congruent over Z_p to the
    nondegenerate symmetric integer matrix rows, by exact elimination over
    Fractions, with no precision window.  Each step pivots on an entry of
    least p-valuation in the trailing block, a diagonal one or one surfaced
    by adding column j and row j to column i and row i, so every operation
    is p-integral and invertible over Z_p.  A pivot a/b is returned as a*b,
    which has the same valuation and square class."""
    n = len(rows)
    B = [[Fraction(x) for x in row] for row in rows]

    def val(x):
        return p_valuation(x.numerator, p) - p_valuation(x.denominator, p)

    diagonal = []
    for k in range(n):
        block = range(k, n)
        piv = min((i for i in block if B[i][i]), key=lambda i: val(B[i][i]), default=None)
        off = min(((i, j) for i in block for j in block if i < j and B[i][j]),
                  key=lambda ij: val(B[ij[0]][ij[1]]), default=None)
        if piv is None or (off is not None and val(B[off[0]][off[1]]) < val(B[piv][piv])):
            i, j = off
            for r in range(n):
                B[r][i] += B[r][j]
            for r in range(n):
                B[i][r] += B[j][r]
            piv = i
        for r in range(n):
            B[r][k], B[r][piv] = B[r][piv], B[r][k]
        B[k], B[piv] = B[piv], B[k]
        d = B[k][k]
        for j in range(k + 1, n):
            q = B[k][j] / d
            for r in range(n):
                B[r][j] -= q * B[r][k]
            for r in range(n):
                B[j][r] -= q * B[k][r]
        diagonal.append(d.numerator * d.denominator)
    return diagonal


def int_det(M):
    """Determinant of a square integer matrix (list of rows), by expansion."""
    n = len(M)
    if n == 1:
        return M[0][0]
    return sum(
        (-1) ** j * M[0][j] * int_det([row[:j] + row[j + 1:] for row in M[1:]])
        for j in range(n)
    )


def int_adjugate(M):
    """Adjugate of a square integer matrix: M * adj(M) = det(M) * I."""
    n = len(M)
    if n == 1:
        return [[1]]
    return [
        [
            (-1) ** (i + j) * int_det([row[:i] + row[i + 1:] for k, row in enumerate(M) if k != j])
            for j in range(n)
        ]
        for i in range(n)
    ]


def int_contains(M, N, p):
    """Does the Z_p-span of the columns of the nonsingular integer matrix M
    contain the columns of N?  Exactly: adj(M) N must vanish mod p^v(det M)."""
    d = int_det(M)
    if d == 0:
        raise ValueError("M is singular")
    v = p_valuation(d, p)
    adj = int_adjugate(M)
    return all(
        sum(adj[i][t] * N[t][j] for t in range(len(N))) % p**v == 0
        for i in range(len(M))
        for j in range(len(N[0]))
    )


def int_elementary_divisors(M, p):
    """v_p of the elementary divisors of a nonsingular 3x3 integer matrix,
    ascending, from its determinantal divisors: d1 = min v(entries),
    d1 + d2 = min v(2x2 minors), d1 + d2 + d3 = v(det M)."""
    det = int_det(M)
    if det == 0:
        raise ValueError("M is singular")
    g1 = min(p_valuation(x, p) for row in M for x in row if x != 0)
    g2 = min(p_valuation(x, p) for row in int_adjugate(M) for x in row if x != 0)
    g3 = p_valuation(det, p)
    return (g1, g2 - g1, g3 - g2)


def int_rows_mod(M, p, K):
    """The integral matrix M as integer rows mod p^K, read off each entry's
    valuation and unit digits; raises ValueError when an entry is not
    known to K digits."""
    rows = []
    for row in M.data:
        out = []
        for x in row:
            if x.is_zero():
                out.append(0)
                continue
            if x.val < 0 or x.val + x.prec < K:
                raise ValueError(f"entry {x!r} is not known mod p^{K}")
            out.append(x.unit * p**x.val % p**K)
        rows.append(out)
    return rows


def is_congruence_mod(A, D, V, p, K):
    """V^T A V = D mod p^K, in plain integer arithmetic."""
    a, d, v = (int_rows_mod(M, p, K) for M in (A, D, V))
    n = len(a)
    return all(
        sum(v[r][i] * a[r][c] * v[c][j] for r in range(n) for c in range(n)) % p**K
        == d[i][j] % p**K
        for i in range(n)
        for j in range(n)
    )


def morphism_law_mod(A, domain, phi, p, k):
    """phi[x, y] = [phi x, phi y] mod p^k on the pairs of domain columns, in
    plain integers: A, domain and phi are integer rows, the domain
    nonsingular.  The domain coordinates of a bracket w are adj(domain) w
    over det(domain) = p^e u; adj w must vanish mod p^e (the domain is
    closed), and the coordinates are read mod p^k, so the entries need only
    be known mod p^(k + e).  False when the law or the closure fails."""
    d = int_det(domain)
    e = p_valuation(d, p)
    u_inv = inverse_mod(d // p**e, p**k)
    adj = int_adjugate(domain)
    cols, images = list(zip(*domain)), list(zip(*phi))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        w = bracket_direct(A, cols[i], cols[j])
        t = [sum(a * x for a, x in zip(row, w)) for row in adj]
        if any(x % p**e for x in t):
            return False
        coords = [x // p**e * u_inv for x in t]
        lhs = [sum(c * image[r] for c, image in zip(coords, images)) for r in range(3)]
        rhs = bracket_direct(A, images[i], images[j])
        if any((x - y) % p**k for x, y in zip(lhs, rhs)):
            return False
    return True


def invariant_ideal_exists_dim2(p, s, domain, phi, bound):
    """Brute force over every 2x2 Hermite sublattice J of index p to
    p^bound: is one of them an ideal of L(s) = <x, y | [x, y] = p^s x>
    (s None: abelian) inside the span of domain with phi(J) inside J?

    domain and phi are integer 2x2 matrices (lists of rows); the columns of
    phi are the images of the columns of domain.  phi(J) lies in J exactly
    when phi adj(domain) J lies in the span of det(domain) J.
    """

    def times(A, B):
        return [[sum(A[i][t] * B[t][j] for t in range(2)) for j in range(2)] for i in range(2)]

    d, to_images = int_det(domain), times(phi, int_adjugate(domain))
    for e in range(1, bound + 1):
        for a in range(e + 1):
            for h in range(p**a):
                J = [[p**a, h], [0, p ** (e - a)]]
                # [x, c] = (p^s det(x|c), 0) for x = e_0, e_1 and the columns c of J
                first = [p**s * (x * J[1][j] - y * J[0][j]) for x, y in ((1, 0), (0, 1))
                         for j in range(2)] if s is not None else [0] * 4
                if not int_contains(J, [first, [0] * 4], p):
                    continue
                if not int_contains(domain, J, p):
                    continue
                if int_contains([[d * x for x in row] for row in J], times(to_images, J), p):
                    return True
    return False


def antisymmetry_defect(alg):
    """The vector v with A - A^T = [[0,v2,-v1],[-v2,0,v0],[v1,-v0,0]]."""
    A = alg.matrix
    return (A[1, 2] - A[2, 1], A[2, 0] - A[0, 2], A[0, 1] - A[1, 0])


def jacobiator(alg):
    """J(x0, x1, x2) = A v; zero iff the bracket satisfies Jacobi."""
    return (alg.matrix * Mat(alg.ctx, [[x] for x in antisymmetry_defect(alg)])).col(0)


def is_lie(alg):
    return all(c.is_zero() for c in jacobiator(alg))


def is_unsolvable(alg):
    """Nonzero determinant, equivalently L is an unsolvable Lie lattice."""
    return not alg.matrix.det().is_zero()


def is_subalgebra(alg, U):
    """Whether the column span of U is closed under the bracket."""
    return lattice.change_of_basis(alg, U).is_integral()


def index_and_commutator_index(alg, U):
    """Measure [L : M] and [[L,L] : [M,M]] for the subalgebra M = span U.

    Returns (k, c) with p^k the index of M and p^c the commutator index,
    both read off Hermite forms.  The quadrupling law c = 2k is checked
    (PathDisagreement when it fails).  lattice.index_exponent is looked up
    at call time, so a test can replace it.
    """
    if not is_unsolvable(alg):
        raise Degenerate("commutator index needs an unsolvable algebra")
    B = lattice.induced_algebra(alg, U).matrix
    k = lattice.index_exponent(U)
    comm_L, _ = windowed_hnf_columns(alg.matrix)  # [L, L] is spanned by the columns of A
    comm_M, _ = windowed_hnf_columns(U * B)
    if not lattice_contains(comm_L, comm_M):
        raise NotSubalgebra("commutator lattice escaped; inconsistent input")
    c = sum(x.valuation() for x in comm_M.diagonal_entries()) - sum(
        x.valuation() for x in comm_L.diagonal_entries()
    )
    if c != 2 * k:
        raise PathDisagreement("commutator index must be the square of the index")
    return k, c


def is_unimodular(V):
    """True when V is square, integral, with unit determinant."""
    if V.nrows != V.ncols or not V.is_integral():
        return False
    return V.det().valuation() == 0


def lattice_eq(M, N):
    """Whether M and N have the same column span: equal Hermite forms."""
    H1, _ = windowed_hnf_columns(M)
    H2, _ = windowed_hnf_columns(N)
    return H1 == H2


def simple_ve_by_products(alg):
    """(domain, phi) of the index-p certificate of a decide-yes lattice
    that is not literally hyperbolic, built from generic 3x3 products: a
    permutation Mat, diag(1, 1, w), [[2,0,0],[0,1,1],[0,-1,1]] and two
    products with diag(p^k).  selfsim.construct_simple_ve builds the same
    witness by column operations and must match this scalar for scalar."""
    ctx = alg.ctx
    D, V = congruent_diagonalize(alg.matrix)

    def find_pair(diag):
        for i in range(3):
            for j in range(i + 1, 3):
                di, dj = diag[i, i], diag[j, j]
                if di.valuation() == dj.valuation() and (-(di * dj)).square_class() == 0:
                    return i, j
        return None

    pair = find_pair(D)
    if pair is None:
        i, j = next(
            (i, j)
            for i in range(3)
            for j in range(i + 1, 3)
            if D[i, i].valuation() == D[j, j].valuation()
        )
        D, Vc = cassels_move(D, i, j, ctx.rho)
        V = V * Vc
        pair = find_pair(D)
    i, j = pair
    m = 3 - i - j
    one, zero = ctx.one(), ctx.zero()
    slots = ((m, 0), (i, 1), (j, 2))
    perm = Mat(ctx, [[one if (r, c) in slots else zero for c in range(3)] for r in range(3)])
    D = (perm.transpose() * D) * perm
    V = V * perm
    w = (-(D[1, 1] / D[2, 2])).sqrt()
    V = V * Mat.diagonal(ctx, [one, one, w])
    V = V * Mat.from_ints(ctx, [[2, 0, 0], [0, 1, 1], [0, -1, 1]])
    W = V.transpose().adjugate()
    prepared_domain = W * Mat.p_power_diagonal(ctx, (0, 1, 0))
    domain, _ = windowed_hnf_columns(prepared_domain)
    phi = W * Mat.p_power_diagonal(ctx, (0, 0, 1)) * Span(prepared_domain).solve(domain)
    return domain, phi


def sub_s_invariants(s, i):
    """Shift law: s-invariants of L^xi for xi in Xi_i under an NSS basis.

    Slot i loses one, the other two slots gain one; requires s_i >= 1.
    """
    if s[i] == INF or s[i] < 1:
        raise NotSubalgebra(f"no index-p subalgebra in class {i}: s_{i} < 1")
    shifted = [
        (x - 1 if j == i else (x + 1 if x != INF else INF)) for j, x in enumerate(s)
    ]
    return tuple(sorted(shifted))


def key_identity_check(alg, xi):
    """Verify [M, M] + p^{s_i} M = p [L, L] + p^{s_i} L for M = L^xi.

    Precondition: the algebra's matrix is diagonal, sorted, NSS, and L^xi
    is a subalgebra.  Both sides are compared as Hermite forms of 3x6
    generator matrices.
    """
    ok, witness = nss_condition(alg.matrix)
    if not ok:
        raise PreconditionViolated(f"basis is not NSS, witness {witness}")
    U = xi.u_matrix(alg.ctx)
    return reference_key_identity(alg, xi, U, induced_algebra(alg, U).matrix)


# ---------------------------------------------------------------------------
# The index-p sweep, the Smith form, the domain chain, the key identity and
# the selftest draws as they were
# ---------------------------------------------------------------------------


def windowed_hnf_columns(M):
    """hnf_columns as the package computed it before: (H, rank) by an
    elimination in the window, every pivot guarded at precision/2, then the
    entries right of each pivot reduced mod the pivot.  The integer form,
    and every reference below that takes a Hermite form, match it."""
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


def reference_snf(M, with_rows=True):
    """(divisors, P, Q) by the Smith elimination that updates P and Q as it
    goes, frozen here as an independent copy: snf must match it field for
    field.  with_rows=False builds no P, and
    returns None in its place, as the package's earlier kernel basis did."""
    ctx = M.ctx
    if not M.is_integral():
        raise InvalidParameters("Smith form expects an integral matrix")
    n, m = M.nrows, M.ncols
    A = [list(row) for row in M.data]
    P = [list(row) for row in Mat.identity(ctx, n).data]
    Q = [list(row) for row in Mat.identity(ctx, m).data]
    zero = ctx.zero()
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
        A[k], A[best[0]] = A[best[0]], A[k]
        P[k], P[best[0]] = P[best[0]], P[k]
        for rows in (A, Q):
            for row in rows:
                row[k], row[best[1]] = row[best[1]], row[k]
        d = A[k][k].valuation()
        ctx.guard_decidable(d)
        u_inv = A[k][k].shift(-d).inv()
        tail = [x * u_inv for x in A[k][k + 1 :]]
        A[k] = A[k][:k] + [ctx.one().shift(d)] + tail
        if with_rows:
            P[k] = [x * u_inv for x in P[k]]
        for i in range(k + 1, n):
            row = A[i]
            e = row[k]
            if e.is_zero():
                continue
            q = e.shift(-d)
            A[i] = row[:k] + [zero] + [x - q * y for x, y in zip(row[k + 1 :], tail)]
            if with_rows:
                P[i] = [x - q * y for x, y in zip(P[i], P[k])]
        for j in range(k + 1, m):
            e = A[k][j]
            if e.is_zero():
                continue
            q = e.shift(-d)
            for row in Q:
                row[j] = row[j] - q * row[k]
            A[k][j] = zero
    divisors = tuple(A[k][k].valuation() for k in range(r))
    return divisors, Mat(ctx, P) if with_rows else None, Mat(ctx, Q)


def side_by_side(X, Y):
    """[X | Y]: each row of X followed by the same row of Y."""
    return Mat(X.ctx, [X.row(i) + Y.row(i) for i in range(X.nrows)])


def reference_preimage_lattice(phi, S):
    """{c integral : phi c in span S} as the package built it before:
    the kernel of the 3 x 6 stack [phi | -S] (the columns r.. of
    reference_snf's Q, with no P built), then the Hermite form of its top
    rows."""
    ctx, n = phi.ctx, phi.ncols
    divisors, _, Q = reference_snf(side_by_side(phi, S.scale(-ctx.one())), with_rows=False)
    r = sum(1 for d in divisors if d != INF)
    top = Mat(ctx, [Q.row(i)[r:] for i in range(n)])
    H, rank = windowed_hnf_columns(top)
    if rank < n:
        raise Degenerate("preimage degenerated; phi and S must be full rank")
    return H


def reference_domain_chain(domain, phi, depth):
    """The domain chain D_0 .. D_depth through reference_preimage_lattice."""
    chain = [Mat.identity(domain.ctx, domain.nrows)]
    for _ in range(depth):
        pre_c = reference_preimage_lattice(phi, chain[-1])
        nxt, _ = windowed_hnf_columns(domain * pre_c)
        chain.append(nxt)
    return chain


def reference_key_identity(alg, xi, U, B):
    """[M, M] + p^{s_i} M = p [L, L] + p^{s_i} L for M = L^xi as the package
    compared it before: the Hermite forms of the two 3 x 6 generator
    matrices [U B | p^{s_i} U] and [p A | p^{s_i} I]."""
    s = [x.valuation() for x in alg.matrix.diagonal_entries()]
    si = s[xi.class_index()]
    lhs = side_by_side(U * B, U.shift(si))
    rhs = side_by_side(alg.matrix.shift(1), Mat.identity(alg.ctx, 3).shift(si))
    return windowed_hnf_columns(lhs)[0] == windowed_hnf_columns(rhs)[0]


def reference_enumerate_index_p(alg):
    """The index-p sweep symbol by symbol through the generic base change
    (the package's earlier enumerate_index_p): B = change_of_basis(alg, U),
    the b_xi cross-check on a diagonal matrix, B.is_integral(), and the
    reference_snf divisors of a closed B."""
    diag = alg.matrix.is_diagonal()
    reports = []
    for xi in all_symbols(alg.ctx.p):
        U = xi.u_matrix(alg.ctx)
        B = lattice.change_of_basis(alg, U)
        if diag and B != b_xi(alg.matrix, xi):
            raise PathDisagreement("closed form disagrees with base change")
        closed = B.is_integral()
        sub_s = reference_snf(B)[0] if closed else None
        reports.append(SubalgebraReport(xi, U, B, closed, sub_s))
    return reports


def reference_certificate(alg):
    """non_self_similarity_certificate with B = change_of_basis(alg, U) on
    every symbol, and the key identity on each integral B."""
    ok, witness = nss_condition(alg.matrix)
    if not ok:
        raise PreconditionViolated(f"basis fails NSS at {witness}")
    results = {}
    for xi in all_symbols(alg.ctx.p):
        U = xi.u_matrix(alg.ctx)
        B = lattice.change_of_basis(alg, U)
        if B.is_integral():
            results[xi.entries] = reference_key_identity(alg, xi, U, B)
    return {"nss": True, "key_identity": results}


def reference_random_symmetric(rng, ctx):
    """selftest's symmetric draw as it was: nine scalars, then det != 0."""
    while True:
        entries = [
            [
                ctx.from_int(rng.randrange(1, ctx.p) * ctx.p ** rng.randrange(0, 3))
                if rng.random() < 0.8
                else ctx.zero()
                for _ in range(3)
            ]
            for _ in range(3)
        ]
        M = Mat(ctx, [[entries[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)])
        if not M.det().is_zero():
            return M


def reference_random_unimodular(rng, ctx):
    """selftest's unimodular draw as it was: the Mat, then its det's valuation."""
    while True:
        M = Mat.from_ints(
            ctx, [[rng.randrange(-ctx.p**2, ctx.p**2) for _ in range(3)] for _ in range(3)]
        )
        d = M.det()
        if not d.is_zero() and d.valuation() == 0:
            return M


def reference_span_coordinates(M, N):
    """Span(M).coordinates(N) as the package computed it before: M^{-1} N
    solved in the window, the largest elementary divisor d_max = v(det M)
    - min v(adj M) guarded at precision/2, and integrality read off."""
    d = M.det()
    if d.is_zero():
        raise Degenerate("matrix is singular")
    adj = M.adjugate()
    d_max = d.valuation() - min(x.valuation() for row in adj.data for x in row)
    X = (adj * N).scale(d.inv())
    M.ctx.guard_decidable(d_max)
    return X if X.is_integral() else None


def reference_lattice_contains(M, N):
    """lattice_contains through reference_span_coordinates."""
    return reference_span_coordinates(M, N) is not None


def reference_is_ideal(bracket, J):
    """is_ideal as it was: the n^2 brackets in the window, one windowed solve."""
    images = [bracket(x, j) for x in Mat.identity(J.ctx, J.nrows).cols() for j in J.cols()]
    return reference_span_coordinates(J, Mat(J.ctx, list(zip(*images)))) is not None


def reference_bracket_law(bracket, domain, phi):
    """is_morphism's law as it was: the brackets of the domain pairs solved
    in the window, mapped by phi, compared scalar by scalar with the
    brackets of phi's columns; NotSubalgebra when the domain is open."""
    pairs = [(i, j) for j in range(domain.ncols) for i in range(j)]
    dom, im = domain.cols(), phi.cols()
    brackets = Mat(domain.ctx, list(zip(*(bracket(dom[i], dom[j]) for i, j in pairs))))
    coords = reference_span_coordinates(domain, brackets)
    if coords is None:
        raise NotSubalgebra("domain of a virtual endomorphism must be a subalgebra")
    lhs = (phi * coords).cols()
    return all(lhs[t] == bracket(im[i], im[j]) for t, (i, j) in enumerate(pairs))


def reference_escapes(domain, phi, terms):
    """regularity_check's escapes as they were: phi of each term's domain
    coordinates, solved in the window, against the term's span."""
    in_domain = Span(domain).solve
    return [not reference_lattice_contains(D, phi * in_domain(D)) for D in terms]


def parent_add(a, b):
    """PadicScalar.__add__ as it was, with min() over the three windows and
    the loop that strips p from every sum."""
    if a.val == INF:
        return b
    if b.val == INF:
        return a
    if a.val > b.val:
        a, b = b, a
    ctx = a.ctx
    powers = ctx.p_powers
    d = b.val - a.val
    window = min(a.prec, d + b.prec, ctx.precision)
    if d < window:
        w = (a.unit + b.unit * powers[d]) % powers[window]
    else:
        w = a.unit % powers[window]
    if w == 0:
        if 2 * window >= ctx.precision:
            return ctx._zero
        raise PrecisionLoss("cancellation exhausted the precision window")
    p = ctx.p
    t = 0
    while w % p == 0:
        w //= p
        t += 1
    return PadicScalar(ctx, a.val + t, w, window - t)


def parent_to_literal(x):
    """PadicScalar.to_literal as it was: the exact zero, else the unit's
    symmetric residue mod p^prec times p^val, or over p^-val."""
    if x.is_zero():
        return "0"
    mod = x.ctx.p_powers[x.prec]
    u = x.unit - mod if x.unit > mod // 2 else x.unit
    if x.val >= 0:
        return f"{u}*p^{x.val}"
    return f"{u}/{x.ctx.p ** (-x.val)}"


def parent_u_matrix(xi, ctx):
    """XiSymbol.u_matrix as it was: the identity's scalars, p at (m, m) and
    one from_int per entry of the symbol left of it in row m."""
    t = xi.entries_below(ctx.p)
    m = len(t)
    one, zero = ctx.one(), ctx.zero()
    rows = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    rows[m][: m + 1] = [ctx.from_int(x) for x in t] + [one.shift(1)]
    return Mat(ctx, rows)


def parent_smith_divisors(M, stop):
    """smith_divisors as it was: the integrality check and the lift of all
    nine entries, the det taken apart from the adjugate."""
    if (M.nrows, M.ncols) != (3, 3) or not M.is_integral():
        raise InvalidParameters("Smith divisors read a 3 x 3 integral matrix")
    R, t, g1, _ = normal_forms.lift(M)
    p = M.ctx.p
    g2 = normal_forms.least_valuation(normal_forms.int_adjugate(R), INF, p)
    g3 = normal_forms.least_valuation([[normal_forms.int_det(R)]], INF, p)
    levels = [(g1, t), (g2, t + g1), (g3, min(t + g2, 2 * t + g1, 3 * t))]
    if any(g >= bound for g, bound in levels[1:]):
        B = normal_forms.bounded_lift(M)
        cofs = normal_forms.int_adjugate(B)
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


def _parent_axpy(terms, last):
    acc = None
    for y in terms:
        if y.val != INF:
            acc = y if acc is None else parent_add(acc, y)
    if acc is None:
        return last
    return parent_add(acc, last) if last.val != INF else acc


def _parent_index_p_matrix(A, shifted, products, xi):
    """IndexPMatrices.matrix as it was: the shifted entries and the products
    (-t) A[k][c] shared through shifted and products, a symbol's sums
    through lists that skip each exact zero."""
    ctx = A.ctx
    t = xi.entries_below(ctx.p)
    m = len(t)
    terms = []
    for k, e in enumerate(t):
        if e:
            if e not in products:
                coef = -ctx.from_int(e)
                products[e] = (coef, [[coef * x for x in row] for row in A.data])
            terms.append((k, products[e]))
    rows = [list(row) for row in shifted]
    row_m = rows[m]
    for c in range(3):
        row_m[c] = _parent_axpy([P[k][c] for k, (_, P) in terms], A.data[m][c])
    for r, row in enumerate(rows):
        if r != m:
            row[m] = _parent_axpy([P[r][k] for k, (_, P) in terms], A.data[r][m])
    corner = _parent_axpy([coef * row_m[k] for k, (coef, _) in terms if row_m[k].val != INF],
                          row_m[m])
    row_m[m] = corner.shift(-1)
    return Mat(ctx, rows)


def parent_enumerate_index_p(alg):
    """enumerate_index_p as it was before one sweep formed the symbols, the
    residues from_int(x) and A's lift once: each symbol built with
    XiSymbol's checks, its U from one from_int per entry, its B from the
    shared products with list-built sums, and the sub_s of a closed B from
    parent_smith_divisors on all nine entries."""
    ctx = alg.ctx
    p = ctx.p
    refuse_large_sweep(p)
    A = alg.matrix
    diag = A.is_diagonal()
    shifted = [[x.shift(1) for x in row] for row in A.data]
    products = {}
    symbols = [XiSymbol(())] + [XiSymbol((e,)) for e in range(p)]
    symbols += [XiSymbol((e, f)) for e in range(p) for f in range(p)]
    reports = []
    for xi in symbols:
        B = _parent_index_p_matrix(A, shifted, products, xi)
        if diag and B != b_xi(A, xi):
            raise PathDisagreement("closed form disagrees with base change")
        m = len(xi.entries)
        closed = B.data[m][m].is_integral()
        sub_s = parent_smith_divisors(B, INF) if closed else None
        reports.append(SubalgebraReport(xi, parent_u_matrix(xi, ctx), B, closed, sub_s))
    return reports
