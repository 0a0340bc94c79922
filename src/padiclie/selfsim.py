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

from .classify import canonical_form
from .errors import (
    Degenerate,
    InvalidParameters,
    NotIndexPSelfSimilar,
    NotSubalgebra,
    PathDisagreement,
    PreconditionViolated,
    Record,
    _set,
)
from .lattice import change_of_basis, index_exponent, induced_algebra, is_ideal
from .normal_forms import (
    Mat,
    Span,
    _index_p_hermite,
    cassels_move,
    congruent_diagonalize,
    hnf_columns,
    kernel_basis,
    lattice_contains,
)
from .padic_core import INF
from .subalgebras import _key_identity, all_symbols, enumerate_sublattices, nss_condition

CONJECTURED_INFINITE = "conjectured_infinite"


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
        _set(self, "ambient", ambient)
        _set(self, "domain", domain)
        _set(self, "phi", phi)
        if domain.det().is_zero():
            raise Degenerate("domain must have full rank")
        if not domain.is_integral() or not phi.is_integral():
            raise InvalidParameters("domain and images must be integral")
        n = ambient.matrix.nrows
        if any(M.nrows != n or M.ncols != n for M in (domain, phi)):
            raise InvalidParameters(f"domain and images must be {n}x{n}")

    def index_exponent(self):
        return index_exponent(self.domain)


def is_morphism(ve):
    """Check phi[x, y] = [phi x, phi y] on the domain basis pairs; raises
    NotSubalgebra when the domain is not closed under the bracket."""
    return _bracket_law(ve.ambient.bracket, ve.domain, ve.phi)


def _bracket_law(bracket, domain, phi):
    """is_morphism for a bracket, domain and phi of any size.  One solve
    of the brackets [u_i, u_j] (i < j) of the domain basis decides closure
    and gives the coordinates that phi maps; in dimension 3 those are the
    columns of det(U) U^{-1} A U^{-T} up to sign and order."""
    pairs = [(i, j) for j in range(domain.ncols) for i in range(j)]
    dom, im = domain.cols(), phi.cols()
    brackets = Mat(domain.ctx, list(zip(*(bracket(dom[i], dom[j]) for i, j in pairs))))
    coords = Span(domain).coordinates(brackets)
    if coords is None:
        raise NotSubalgebra("domain of a virtual endomorphism must be a subalgebra")
    lhs = (phi * coords).cols()
    return all(lhs[t] == bracket(im[i], im[j]) for t, (i, j) in enumerate(pairs))


def _preimage_lattice(phi, S):
    """Generator matrix of {c integral : phi c in span S} (full rank)."""
    stacked = phi.hstack(S.scale(-phi.ctx.one()))
    K = kernel_basis(stacked)
    n = phi.ncols
    top = Mat(phi.ctx, [K.row(i) for i in range(n)])
    H, rank = hnf_columns(top)
    if rank < n:
        raise Degenerate("preimage degenerated; phi and S must be full rank")
    return H


def domain_chain(ve, depth):
    """The descending chain D_0 = L, D_{n+1} = {x in M : phi x in D_n}.

    Returns the list [D_0, ..., D_depth] of Hermite generator matrices in
    ambient coordinates.
    """
    return _domain_chain(ve.domain, ve.phi, depth)


def _domain_chain(domain, phi, depth):
    """domain_chain for a domain and phi of any size."""
    chain = [Mat.identity(domain.ctx, domain.nrows)]
    for _ in range(depth):
        pre_c = _preimage_lattice(phi, chain[-1])
        nxt, _ = hnf_columns(domain * pre_c)
        chain.append(nxt)
    return chain


class RegularityReport(Record):
    __slots__ = ("regular", "index_exponents", "escapes", "chain")

    def __init__(self, regular, index_exponents, escapes, chain):
        _set(self, "regular", regular)
        _set(self, "index_exponents", index_exponents)
        _set(self, "escapes", escapes)
        _set(self, "chain", chain)  # (D_0, ..., D_{depth+1}), the chain the check walked


def regularity_check(ve, depth):
    """Indices along the domain chain, and the escape condition at each level.

    regular means every consecutive index is exactly p.  escapes[n] records
    whether phi(D_{n+1}) is NOT contained in D_{n+1}, the sufficient
    condition for regularity to propagate.
    """
    if depth < 0:
        raise InvalidParameters("chain depth must be >= 0")
    chain = domain_chain(ve, depth + 1)
    vals = [sum(x.valuation() for x in D.diagonal_entries()) for D in chain]
    exps = [b - a for a, b in zip(vals, vals[1 : depth + 1])]
    in_domain = Span(ve.domain).solve
    escapes = [not lattice_contains(D, ve.phi * in_domain(D)) for D in chain[1 : depth + 1]]
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
    induced_algebra(ve.ambient, ve.domain)  # NotSubalgebra when the domain is open
    d_bound = domain_chain(ve, bound)[-1]
    return _invariant_ideal(ve.ambient.bracket, ve.domain, ve.phi, d_bound, bound)


def _invariant_ideal(bracket, domain, phi, d_bound, bound):
    """invariant_ideal_search given D_bound, for a bracket, domain and phi of any size."""
    v_bound = sum(x.valuation() for x in d_bound.diagonal_entries())
    if v_bound > bound:
        return None
    inside = Span(domain)
    for rel in range(max(0, 1 - v_bound), bound - v_bound + 1):
        for H in enumerate_sublattices(domain.ctx, rel, domain.nrows):
            J = hnf_columns(d_bound * H)[0]
            if not is_ideal(bracket, J):
                continue
            c = inside.coordinates(J)
            if c is not None and lattice_contains(J, phi * c):
                return J
    return None


# ---------------------------------------------------------------------------
# Construction of the simple index-p endomorphism
# ---------------------------------------------------------------------------


def _is_hyperbolic(A):
    """Matches [[a,0,0],[0,0,b],[0,b,0]] with b nonzero."""
    zero_positions = [(0, 1), (0, 2), (1, 0), (2, 0), (1, 1), (2, 2)]
    if any(not A[i, j].is_zero() for i, j in zero_positions):
        return False
    return (not A[1, 2].is_zero()) and A[1, 2] == A[2, 1]


def _hyperbolic_ve(alg):
    """The literal construction on [[a,0,0],[0,0,b],[0,b,0]]."""
    ctx = alg.ctx
    domain = Mat.p_power_diagonal(ctx, (0, 1, 0))
    phi = Mat.p_power_diagonal(ctx, (0, 0, 1))
    return VirtualEndomorphism(alg, domain, phi)


def _prepare_hyperbolic(alg, D, V):
    """Basis-change witness W with change_of_basis(alg, W) hyperbolic.

    (D, V) is the congruent diagonalization of a decide-yes structure
    matrix.  Find an equal-valuation pair i, j whose negated unit product
    is a square.  Only a family-4 D can lack one, and there one Cassels
    move with rho on (0, 1) creates it.  Three column operations on V then
    stand for the products with a permutation, diag(1, 1, w) and
    [[2,0,0],[0,1,1],[0,-1,1]]: reorder the columns to (m, i, j), multiply
    column j by w = sqrt(-u_i/u_j), and form (2 v_m, v_i - v_j, v_i + v_j).
    The scalar steps are the products' own, less their terms with 1 and 0.
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
    # V is a congruence witness (V^T A V hyperbolic).  The structure matrix
    # transforms by det(W) W^{-1} A W^{-T}, and W = adj(V^T) turns that into
    # exactly V^T A V, so hand back the adjugate transpose.
    return Vt.adjugate()


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
    if _is_hyperbolic(alg.matrix):
        return _hyperbolic_ve(alg)
    D, V = congruent_diagonalize(alg.matrix)  # the memoized pair cf was read from
    W = _prepare_hyperbolic(alg, D, V)
    # cross-check: the rewritten matrix really is hyperbolic
    H = change_of_basis(alg, W)
    if not _is_hyperbolic(H):
        raise PathDisagreement("preparation failed to reach the hyperbolic shape")
    # rewrite phi on the Hermite domain basis: columns of domain expressed
    # in the prepared basis, mapped through the prepared phi
    span = Span(W.shift_columns((0, 1, 0)))
    domain = _index_p_hermite(span)
    phi = W.shift_columns((0, 0, 1)) * span.solve(domain)
    return VirtualEndomorphism(alg, domain, phi)


def non_self_similarity_certificate(alg):
    """Negative certificate: NSS holds and the key identity pins every M.

    Returns a dict with the NSS flag and the per-symbol key identity
    results; meaningful on a diagonal sorted basis of a decide-no form.
    """
    ok, witness = nss_condition(alg.matrix)
    if not ok:
        raise PreconditionViolated(f"basis fails NSS at {witness}")
    results = {}
    for xi in all_symbols(alg.ctx.p):
        U = xi.u_matrix(alg.ctx)
        B = change_of_basis(alg, U)
        if B.is_integral():
            results[xi.entries] = _key_identity(alg, xi, U, B)
    return {"nss": True, "key_identity": results}


# ---------------------------------------------------------------------------
# sigma bounds (the nine-row table for eta = 0)
# ---------------------------------------------------------------------------


class SelfSimReport(Record):
    """sigma(L) bounds as p-power exponents, with the certifying data."""

    __slots__ = ("canonical", "eta", "index_p_self_similar", "sigma_lower", "sigma_upper",
                 "table_row", "witness_exponents", "note")

    def __init__(self, canonical, eta, index_p_self_similar, sigma_lower, sigma_upper,
                 table_row, witness_exponents, note):
        _set(self, "canonical", canonical)
        _set(self, "eta", eta)
        _set(self, "index_p_self_similar", index_p_self_similar)
        _set(self, "sigma_lower", sigma_lower)
        _set(self, "sigma_upper", sigma_upper)  # int exponent, or CONJECTURED_INFINITE
        _set(self, "table_row", table_row)
        _set(self, "witness_exponents", witness_exponents)
        _set(self, "note", note)


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

    __slots__ = ("dim", "s", "k", "domain", "phi", "is_morphism", "d_infinity",
                 "invariant_found")

    def __init__(self, dim, s, k, domain, phi, is_morphism, d_infinity, invariant_found):
        _set(self, "dim", dim)
        _set(self, "s", s)  # dim 2 only: bracket exponent, int or INF
        _set(self, "k", k)
        _set(self, "domain", domain)
        _set(self, "phi", phi)
        _set(self, "is_morphism", is_morphism)
        _set(self, "d_infinity", d_infinity)
        _set(self, "invariant_found", invariant_found)


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
    bracket = functools.partial(_dim2_bracket, ctx, s)
    ok = _bracket_law(bracket, domain, phi)
    d_bound = _domain_chain(domain, phi, LOWDIM_BOUND)[-1]
    invariant = _invariant_ideal(bracket, domain, phi, d_bound, LOWDIM_BOUND)
    return LowDimReport(2, s, k, domain, phi, ok, d_inf, invariant is not None)
