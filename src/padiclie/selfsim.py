"""Self-similarity: decision, certificates, obstruction data, sigma bounds.

A virtual endomorphism of L is a module map phi from a finite-index
subalgebra M into L; it is simple when no nonzero ideal J of L with J
inside M satisfies phi(J) inside J.  L is self-similar of index p^k when a
simple phi exists on some M of index p^k; sigma(L) is the least such p^k.

Index-p decision (complete, by canonical family):

    family 1 -> never      family 2 -> iff eps1 = 0
    family 3 -> iff eps2 = 0       family 4 -> always

The positive certificate is fully explicit.  Any matrix of the hyperbolic
shape [[a,0,0],[0,0,b],[0,b,0]] (b nonzero) admits the simple map

    M = <x0, p x1, x2>,  phi: x0 -> x0, p x1 -> x1, x2 -> p x2,

whose domain chain is D_n = <x0, p^n x1, x2> with intersection <x0, x2>.
Every decide-yes diagonal form reaches that shape by permutation, a unit
rescale by sqrt(-u_i/u_j) (possible exactly when the relevant eps
vanishes; family 4 may first need a Cassels move), and the basis change
[[2,0,0],[0,1,1],[0,-1,1]].

The negative certificate is the key identity: in an NSS basis, every
index-p subalgebra M in class Xi_i satisfies [M,M] + p^{s_i} M =
p[L,L] + p^{s_i} L, which any index-p morphism must stabilize.

sigma bounds for eta = 0 follow the nine-row table (see sigma_bounds);
for eta = 1 the lattice is not self-similar of index p, and the upper
bound is conjectured infinite: the sentinel is never a number.
"""

import functools
import math
import operator

from .classify import canonical_form
from .errors import (
    Degenerate,
    InvalidParameters,
    NotIndexPSelfSimilar,
    NotSubalgebra,
    PathDisagreement,
    PrecisionLoss,
    PreconditionViolated,
    Record,
)
from .lattice import (
    compound,
    compound_bounds,
    index_exponent,
    induced_algebra,
    is_ideal,
    structure_matrix,
)
from .normal_forms import (
    IntSpan,
    Mat,
    Span,
    _index_p_hermite,
    bounded_lift,
    cassels_move,
    congruent_diagonalize,
    int_adjugate,
    int_det,
    int_hermite,
    int_kernel,
    int_mul,
    least_valuation,
    lift,
    p_valuation,
    product_bound,
    zero_below,
)
from .padic_core import INF
from .subalgebras import (
    IndexPMatrices,
    _key_identity,
    closed_symbols,
    enumerate_sublattices,
    nss_condition,
    refuse_large_sweep,
)

CONJECTURED_INFINITE = "conjectured_infinite"
# The most chain depth, search bound or lcs depth a caller may ask for: a
# chain that stabilizes never loses precision, so nothing else would stop it.
DEPTH_BOUND = 1024


def decide_index_p(cf):
    """Is a lattice with this canonical form self-similar of index p?"""
    if cf.family == 1:
        return False
    if cf.family == 2:
        return cf.eps[0] == 0
    if cf.family == 3:
        return cf.eps[1] == 0
    return True


# ---------------------------------------------------------------------------
# Virtual endomorphisms
# ---------------------------------------------------------------------------


class VirtualEndomorphism(Record):
    """phi: M -> L.  domain columns span M; phi columns are the images of
    the domain basis vectors, written in ambient coordinates."""

    __slots__ = ("ambient", "domain", "phi")

    def __init__(self, ambient, domain, phi):
        try:
            IntSpan(domain)  # the rank, read off the integer det of the lift
        except Degenerate:
            raise Degenerate("domain must have full rank") from None
        if not domain.is_integral() or not phi.is_integral():
            raise InvalidParameters("domain and images must be integral")
        n = ambient.matrix.nrows
        if any(M.nrows != n or M.ncols != n for M in (domain, phi)):
            raise InvalidParameters(f"domain and images must be {n}x{n}")
        super().__init__(ambient, domain, phi)

    def index_exponent(self):
        return index_exponent(self.domain)


def is_morphism(ve):
    """Check phi[x, y] = [phi x, phi y] on the domain basis pairs; raises
    NotSubalgebra when the domain is not closed under the bracket."""
    return _bracket_law(ve.ambient.matrix, ve.domain, ve.phi)


def _bracket_law(S, domain, phi):
    """is_morphism for a structure matrix S (lattice.PAIRS), domain and phi
    of any size, all integral, in integers.

    The brackets of the column pairs of U = domain are B = S compound(U)
    (in dimension 3, A cof(U)), and the domain is closed iff they lie in
    span U: the containment test, which also gives X = adj B = det U^{-1} B
    (IntSpan's adj and det).  The law, phi applied to the coordinates
    U^{-1} B equal to the brackets S compound(F) of phi's columns F, then
    reads F X = det S compound(F), and it fails iff some entry of the
    difference is nonzero below that entry's own error bound.

    Every entry has its own bound, carried through each sum and product
    from the digits its inputs hold, as PadicScalar carries them
    (_law_by_entries), so a digit that phi holds in one entry is read
    there.  A cheap bound settles the usual case first.  A sum's bound is
    at most each term's, and a product's at most one factor's valuation
    plus the other's bound, so entry (i, j) of the difference has a bound
    of at most v(det) + v(S_ic) + t(compound(F)_cj) for every c
    (lattice.compound_bounds).  An entry divisible by p to the least of
    these is divisible by p to its own bound, and so is not refuted.
    """
    span = IntSpan(domain)
    p, U = span.p, span.R
    RS, t_s, g_s, _ = lift(S)
    C = compound(U)
    B = int_mul(RS, C)
    t_c = span.t_R + span.g_R  # a minor of U
    t_b = product_bound(t_s, g_s, t_c, least_valuation(C, t_c, p))
    X = span.adj_solve(B, t_b)
    if X is None:
        raise NotSubalgebra("domain of a virtual endomorphism must be a subalgebra")
    d = span.det
    F = lift(phi)[0]
    diff = [[x - d * y for x, y in zip(lrow, rrow)]
            for lrow, rrow in zip(int_mul(F, X), int_mul(RS, compound(F)))]
    if any(map(any, diff)):
        cols = list(zip(*compound_bounds(phi)))
        for drow, srow in zip(diff, S.data):
            vs = [s.val for s in srow]
            for x, col in zip(drow, cols):
                if x and not zero_below(x, p, span.e + min(map(operator.add, vs, col))):
                    return _law_by_entries(S, domain, phi)
    return True


def _law_by_entries(S, domain, phi):
    """_bracket_law's decision, each entry of F adj(U) S compound(U) -
    det(U) S compound(F) against its own error bound (Bounded)."""
    RS, U, F = (bounded_lift(M) for M in (S, domain, phi))
    X = int_mul(int_adjugate(U), int_mul(RS, compound(U)))
    d = int_det(U)
    return not any((x - d * y).refuted()
                   for lrow, rrow in zip(int_mul(F, X), int_mul(RS, compound(F)))
                   for x, y in zip(lrow, rrow))


def _invariance(domain, phi):
    """The test "D lies in the domain and phi(D) in D" for a Hermite form D
    of hnf_columns, in integers; domain and phi integral.

    With X = adj(domain) D (IntSpan's reduced adjugate, which also decides
    D in the domain), phi maps the domain coordinates of D into span D iff
    F X lies in p^e span D, F = phi and e the domain's largest elementary
    divisor.  D enters as exact, its guarded pivots and residues being the
    Hermite form of the lattice itself, so F X has the error bound of F and
    of the domain's adj.
    """
    inside = IntSpan(domain)
    F, t_f, _, _ = lift(phi)

    def invariant(D):
        span = IntSpan(D, exact=True)
        X = inside.adj_solve(span.R)
        return X is not None and span.adj_solve(
            int_mul(F, X), min(t_f, inside.t), inside.e) is not None

    return invariant


def domain_chain(ve, depth):
    """The descending chain D_0 = L, D_{n+1} = {x in M : phi x in D_n}.

    Returns the list [D_0, ..., D_depth] of Hermite generator matrices in
    ambient coordinates.  depth may exceed DEPTH_BOUND by one, the step
    regularity_check takes past its own depth.
    """
    if depth > DEPTH_BOUND + 1:
        raise InvalidParameters(f"chain depth must be <= {DEPTH_BOUND + 1}")
    return [Mat.from_ints(ve.ambient.ctx, D) for D in _domain_chain(ve.domain, ve.phi, depth)]


def _domain_chain(domain, phi, depth):
    """domain_chain for a domain and phi of any size, as exact integer
    Hermite forms.  phi c lies in span D_n iff adj F c = 0 mod p^e, F phi's
    lift, adj D_n's adjugate over p^g, g its least valuation, e its largest
    elementary divisor: decided while e < t_f, F's digits.  With C its basis
    (int_kernel), D_{n+1} is the form of U C, U the domain's lift; it holds
    p^(e_U + e), so by Nakayama every completion of U spans it while
    e_U + e < t_u + min k.
    """
    p = domain.ctx.p
    span = IntSpan(domain)
    F, t_f, _, _ = lift(phi)
    terms = [[[int(i == j) for j in range(len(span.R))] for i in range(len(span.R))]]
    for _ in range(depth):
        adj = int_adjugate(terms[-1])
        g = least_valuation(adj, INF, p)
        e = p_valuation(int_det(terms[-1]), p) - g
        C, k = int_kernel(int_mul([[x // p**g for x in row] for row in adj], F), p, e)
        if e >= t_f or span.e + e >= span.t_R + min(k):
            raise PrecisionLoss(f"chain term divisor {e} not decided by the digits of the maps")
        terms.append(int_hermite(int_mul(span.R, C), p, span.delta + sum(k) + 1)[0])
    return terms


class RegularityReport(Record):
    __slots__ = ("regular", "index_exponents", "escapes",
                 "chain")  # (D_0, ..., D_{depth+1}), the chain the check walked


def regularity_check(ve, depth):
    """Indices along the domain chain, and the escape condition at each level.

    regular means every consecutive index is exactly p.  escapes[n] records
    whether phi(D_{n+1}) is NOT contained in D_{n+1}, the sufficient
    condition for regularity to propagate.
    """
    if depth < 0:
        raise InvalidParameters("chain depth must be >= 0")
    if depth > DEPTH_BOUND:
        raise InvalidParameters(f"chain depth must be <= {DEPTH_BOUND}")
    chain = domain_chain(ve, depth + 1)
    vals = [sum(x.valuation() for x in D.diagonal_entries()) for D in chain]
    exps = [b - a for a, b in zip(vals, vals[1 : depth + 1])]
    invariant = _invariance(ve.domain, ve.phi)
    escapes = [not invariant(D) for D in chain[1 : depth + 1]]
    return RegularityReport(all(e == 1 for e in exps), tuple(exps), tuple(escapes), tuple(chain))


def invariant_ideal_search(ve, bound):
    """Search for a nonzero phi-invariant ideal J of L inside M, of index
    at most p^bound: in dimension 3 here, in dimension 2 for lowdim_report.
    Returns the witness Hermite matrix or None.

    Any phi-invariant ideal lies inside every D_n, so the enumeration runs
    over sublattices of D_bound only; proper sublattices of L are
    considered (index exponent >= 1), ordered by increasing index.
    """
    if bound < 0:
        raise InvalidParameters("search bound must be >= 0")
    if bound > DEPTH_BOUND:
        raise InvalidParameters(f"search bound must be <= {DEPTH_BOUND}")
    induced_algebra(ve.ambient, ve.domain)  # NotSubalgebra when the domain is open
    d_bound = _domain_chain(ve.domain, ve.phi, bound)[-1]
    return _invariant_ideal(ve.ambient.matrix, ve.domain, ve.phi, d_bound, bound)


def _invariant_ideal(S, domain, phi, d_bound, bound):
    """invariant_ideal_search given D_bound in integer rows (_domain_chain),
    for a structure matrix S (lattice.PAIRS), domain and phi of any size.
    A candidate is the form of D_bound H, which holds p^(v_bound + rel)."""
    p = domain.ctx.p
    v_bound = p_valuation(int_det(d_bound), p)
    if v_bound > bound:
        return None
    invariant = _invariance(domain, phi)
    for rel in range(max(0, 1 - v_bound), bound - v_bound + 1):
        for H in enumerate_sublattices(domain.ctx, rel, domain.nrows):
            DH = int_mul(d_bound, lift(H)[0])
            J = Mat.from_ints(domain.ctx, int_hermite(DH, p, v_bound + rel + 1)[0])
            if is_ideal(S, J) and invariant(J):
                return J
    return None


# ---------------------------------------------------------------------------
# Construction of the simple index-p endomorphism
# ---------------------------------------------------------------------------


_OFF_HYPERBOLIC = ((0, 1), (0, 2), (1, 0), (2, 0), (1, 1), (2, 2))


def _is_hyperbolic(A):
    """Matches [[a,0,0],[0,0,b],[0,b,0]] with b nonzero."""
    return (all(A[i, j].is_zero() for i, j in _OFF_HYPERBOLIC)
            and not A[1, 2].is_zero() and A[1, 2] == A[2, 1])


def _check_hyperbolic(Vt, A):
    """Raise unless Vt A Vt^T is hyperbolic, decided as _bracket_law decides
    the law: P = R S R^T, R and S the lifts, is known to within p^t
    (product_bound).  An entry off the shape, or P_12 - P_21, nonzero mod
    p^t refutes it, and b = P_12 must be refuted as zero, against its own
    error bound (Bounded) where p^t cannot tell."""
    p = A.ctx.p
    R, t_v, g_v, _ = lift(Vt)
    S, t_a, g_a, _ = lift(A)
    X = int_mul(R, S)
    t = product_bound(t_v, g_v, t_a, g_a)
    t = product_bound(t, least_valuation(X, t, p), t_v, g_v)
    P = int_mul(X, list(zip(*R)))
    if not zero_below(math.gcd(P[1][2] - P[2][1], *(P[i][j] for i, j in _OFF_HYPERBOLIC)), p, t):
        raise PathDisagreement("preparation failed to reach the hyperbolic shape")
    if zero_below(P[1][2], p, t):
        B = bounded_lift(Vt)
        b = sum(map(operator.mul, int_mul(B[1:2], bounded_lift(A))[0], B[2]))
        if not b.refuted():  # b = 0 when exact, else undecided
            raise (PathDisagreement if b.t == INF else PrecisionLoss)(
                "preparation reached no nonzero hyperbolic entry b")


def _certificate(alg, domain, phi):
    """VirtualEndomorphism(alg, domain, phi) for a domain built here, upper
    triangular with p-power pivots: of full rank without __init__'s IntSpan,
    so is_morphism builds the certificate's one."""
    if not phi.is_integral():
        raise InvalidParameters("domain and images must be integral")
    ve = object.__new__(VirtualEndomorphism)
    Record.__init__(ve, alg, domain, phi)
    return ve


def _prepare_hyperbolic(alg, D, V):
    """V^T for a congruence witness V with V^T A V hyperbolic.

    (D, V) is the congruent diagonalization of a decide-yes structure
    matrix.  Find an equal-valuation pair i, j whose negated unit product
    is a square.  Only a family-4 D can lack one, and there one Cassels
    move with rho on (0, 1) creates it.  Three column operations on V then
    stand for the products with a permutation, diag(1, 1, w) and
    [[2,0,0],[0,1,1],[0,-1,1]]: reorder the columns to (m, i, j), multiply
    column j by w = sqrt(-u_i/u_j), and form (2 v_m, v_i - v_j, v_i + v_j).
    The scalar steps are the products' own, less their terms with 1 and 0.
    The basis change that rewrites alg into that shape is W = adj(V^T).
    """
    ctx = alg.ctx

    def find_pair(diag):
        for i in range(3):
            for j in range(i + 1, 3):
                di, dj = diag[i, i], diag[j, j]
                if di.valuation() != dj.valuation():
                    continue
                if (-(di * dj)).square_class() == 0:
                    return i, j
        return None

    pair = find_pair(D)
    if pair is None:
        # family 4: shuffle one rho across the tied pair (0, 1)
        D, Vc = cassels_move(D, 0, 1, ctx.rho)
        V = V * Vc
        pair = find_pair(D)
        if pair is None:
            # decide_index_p said yes, so the two routes disagree
            raise PathDisagreement("no hyperbolic pair even after a Cassels move")
    i, j = pair
    m = 3 - i - j
    w = (-(D[i, i] / D[j, j])).sqrt()  # unit: same valuation, square class 0
    two = ctx.from_int(2)
    vm, vi = V.col(m), V.col(i)
    vj = [x * w for x in V.col(j)]
    # V^T row by row: each row is one column of the finished witness V
    Vt = Mat(
        ctx,
        [
            [x * two for x in vm],
            [a - b for a, b in zip(vi, vj)],
            [a + b for a, b in zip(vi, vj)],
        ],
    )
    return Vt


def construct_simple_ve(alg):
    """Explicit simple virtual endomorphism of index p, or raise.

    For the hyperbolic shape the construction is literal; otherwise the
    lattice is rewritten into that shape first.  Raises
    NotIndexPSelfSimilar when the canonical family forbids index p.
    """
    cf = canonical_form(alg)
    if not decide_index_p(cf):
        raise NotIndexPSelfSimilar(
            f"family {cf.family} with eps {cf.eps} admits no simple index-p map"
        )
    if _is_hyperbolic(alg.matrix):  # the literal construction
        return _certificate(alg, Mat.p_power_diagonal(alg.ctx, (0, 1, 0)),
                            Mat.p_power_diagonal(alg.ctx, (0, 0, 1)))
    D, V = congruent_diagonalize(alg.matrix)  # the one windowed elimination of a request
    Vt = _prepare_hyperbolic(alg, D, V)
    # cross-check: the rewritten matrix really is hyperbolic.  The structure
    # matrix transforms by det(W) W^{-1} A W^{-T}; for W = adj(V^T) that is
    # V^T A V, since adj(adj X) = det(X) X and det(adj X) = det(X)^2 in 3x3
    _check_hyperbolic(Vt, alg.matrix)
    W = Vt.adjugate()
    # rewrite phi on the Hermite domain basis: columns of domain expressed
    # in the prepared basis, mapped through the prepared phi
    span = Span(W.shift_columns((0, 1, 0)))
    domain = _index_p_hermite(span)
    phi = W.shift_columns((0, 0, 1)) * span.solve(domain)
    return _certificate(alg, domain, phi)


def non_self_similarity_certificate(alg):
    """Negative certificate: NSS holds and the key identity pins every M.

    Returns a dict with the NSS flag and the per-symbol key identity
    results; meaningful on a diagonal sorted basis of a decide-no form.
    Closure is decided in integers first (closed_symbols), and only the
    closed symbols have their B built and the key identity checked, from
    one IndexPMatrices.  More than SWEEP_BOUND symbols is refused before
    any work.
    """
    refuse_large_sweep(alg.ctx.p)
    ok, witness = nss_condition(alg.matrix)
    if not ok:
        raise PreconditionViolated(f"basis fails NSS at {witness}")
    matrices = IndexPMatrices(alg.matrix)
    results = {}
    for xi in closed_symbols(alg.matrix):
        results[xi.entries] = _key_identity(matrices, xi, matrices.of_entries(xi.entries))
    return {"nss": True, "key_identity": results}


# ---------------------------------------------------------------------------
# sigma bounds (the nine-row table for eta = 0)
# ---------------------------------------------------------------------------


class SelfSimReport(Record):
    """sigma(L) bounds as p-power exponents, with the certifying data."""

    __slots__ = ("canonical", "eta", "index_p_self_similar", "sigma_lower",
                 "sigma_upper",  # int exponent, or CONJECTURED_INFINITE
                 "table_row", "witness_exponents", "note")


def _table_row(cf):
    """Row number, upper-bound exponent, witness scaling exponents."""
    s0, s1, s2 = cf.s
    if cf.family == 4:
        return 1, 1, None
    if cf.family == 3:
        if cf.eps[1] == 0:
            return 2, 1, None
        l = (s1 - s0) // 2
        return 3, s1 - s0 + 1, (0, l, l)
    if cf.family == 2:
        if cf.eps[0] == 0:
            return 4, 1, None
        l = (s2 - s0) // 2
        return 5, (s2 - s0) // 2 + 1, (0, 0, l)
    # family 1: split by the parity pattern, all distinct valuations
    par = [t % 2 for t in cf.s]
    if par[0] == par[1] == par[2]:
        l1, l2 = (s1 - s0) // 2, (s2 - s0) // 2
        return 6, l1 + l2 + 1, (0, l1, l2)
    if par[0] == par[1]:
        l = (s1 - s0) // 2
        return 7, l + 1, (0, l, 0)
    if par[1] == par[2]:
        l = (s2 - s1) // 2
        return 8, l + 1, (0, 0, l)
    l = (s2 - s0) // 2
    return 9, l + 1, (0, 0, l)


def sigma_bounds(cf):
    """Bounds on sigma(L) for the canonical form, per the nine-row table.

    eta = 0: the form matches exactly one row; rows 1, 2, 4 have sigma = p
    certified by the explicit construction; the other rows carry a witness
    subalgebra M of the listed index with sigma(M) = p, giving
    sigma(L) <= p * [L : M].  eta = 1: sigma >= p^2 and the upper bound is
    conjecturally infinite (reported as a sentinel, never a number).
    """
    eta_value = cf.eta()
    yes = decide_index_p(cf)  # never for eta = 1
    if eta_value == 1:
        row, upper, witness = 0, CONJECTURED_INFINITE, None
        note = (
            "eta = 1: not self-similar of index p; conjecturally not "
            "self-similar of any index"
        )
    else:
        row, upper, witness = _table_row(cf)  # rows 1, 2 and 4 are the decide-yes forms
        note = (
            "sigma = p, certified by an explicit simple endomorphism"
            if yes
            else "not self-similar of index p; the witness subalgebra has sigma = p "
            "and index p^(upper-1), so sigma(L) <= p * index"
        )
    return SelfSimReport(cf, eta_value, yes, 1 if yes else 2, upper, row, witness, note)


def witness_subalgebra(cf):
    """The scaled-basis subalgebra certifying the table upper bound.

    Returns (U, induced_algebra) for rows with a witness; None for rows
    whose sigma is exactly p.
    """
    report = sigma_bounds(cf)
    if report.witness_exponents is None:
        return None
    alg = cf.algebra()
    U = Mat.p_power_diagonal(alg.ctx, report.witness_exponents)
    return U, induced_algebra(alg, U)


# ---------------------------------------------------------------------------
# Dimensions 1 and 2
# ---------------------------------------------------------------------------


class LowDimReport(Record):
    """Simple virtual endomorphism data in dimension 1 or 2."""

    __slots__ = ("dim", "s",  # s: dim 2 only, the bracket exponent, int or INF
                 "k", "domain", "phi", "is_morphism", "d_infinity", "invariant_found")


LOWDIM_BOUND = 4  # lowdim_report's search bound, and the depth of its chain


def _dim2_bracket(ctx, s, x, y):
    """[x, y] = det(x|y) p^s e0 on Z_p^2; s = INF means abelian."""
    d = x[0] * y[1] - x[1] * y[0]
    if s == INF:
        return (ctx.zero(), ctx.zero())
    return (d.shift(s), ctx.zero())


def lowdim_report(ctx, dim, k, s=None):
    """The standard simple virtual endomorphism in dimension 1 or 2.

    dim 1: domain p^k Z_p, phi(a) = p^{-k} a.
    dim 2: L(s) = <x, y | [x, y] = p^s x>, domain <p^k x, y>;
           s = INF: phi swaps p^k x -> y, y -> x (the chain drains to 0);
           s finite: phi(p^k x) = x, phi(y) = y (the chain shrinks onto <y>).

    Reports the morphism law, the chain's limit above as d_infinity, and
    whether the invariant-ideal search inside D_4 finds one.
    """
    p = ctx.p
    if dim == 1:
        if k < 1:
            raise InvalidParameters("dimension 1 needs k >= 1")
        domain = Mat.p_power_diagonal(ctx, (k,))
        phi = Mat.identity(ctx, 1)
        # ideals are p^m Z_p; invariant needs phi(p^m) in p^m, i.e. m-k >= m
        invariant = False
        d_inf = Mat(ctx, [[ctx.zero()]])
        return LowDimReport(1, None, k, domain, phi, True, d_inf, invariant)
    if dim != 2:
        raise InvalidParameters("only dimensions 1 and 2 here")
    if k < 1:
        raise InvalidParameters("dimension 2 needs k >= 1")
    if s is not None and s != INF and s < 0:
        raise InvalidParameters("bracket exponent must be >= 0 or INF")
    s = INF if s is None else s
    domain = Mat.from_ints(ctx, [[p**k, 0], [0, 1]])
    if s == INF:
        phi = Mat.from_ints(ctx, [[0, 1], [1, 0]])
    else:
        phi = Mat.from_ints(ctx, [[1, 0], [0, 1]])
    d_inf = Mat.from_ints(ctx, [[0, 0], [0, 0 if s == INF else 1]])
    S = structure_matrix(functools.partial(_dim2_bracket, ctx, s), ctx, 2)
    ok = _bracket_law(S, domain, phi)
    d_bound = _domain_chain(domain, phi, LOWDIM_BOUND)[-1]
    invariant = _invariant_ideal(S, domain, phi, d_bound, LOWDIM_BOUND)
    return LowDimReport(2, s, k, domain, phi, ok, d_inf, invariant is not None)
