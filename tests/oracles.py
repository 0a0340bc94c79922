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
certificate must match scalar for scalar.
"""

from fractions import Fraction

from padiclie import lattice
from padiclie.errors import Degenerate, NotSubalgebra, PathDisagreement, PreconditionViolated
from padiclie.lattice import induced_algebra
from padiclie.normal_forms import (
    Mat,
    Span,
    cassels_move,
    congruent_diagonalize,
    hnf_columns,
    lattice_contains,
)
from padiclie.padic_core import INF
from padiclie.subalgebras import _key_identity, nss_condition


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
    return alg.matrix.mul_vec(antisymmetry_defect(alg))


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
    comm_L, _ = hnf_columns(alg.matrix)  # [L, L] is spanned by the columns of A
    comm_M, _ = hnf_columns(U * B)
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
    H1, _ = hnf_columns(M)
    H2, _ = hnf_columns(N)
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
    domain, _ = hnf_columns(prepared_domain)
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
    return _key_identity(alg, xi, U, induced_algebra(alg, U).matrix)
