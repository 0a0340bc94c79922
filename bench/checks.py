"""Checks of padiclie's answers made apart from the program.

Everything here is plain integer arithmetic on the generated inputs and
on the integers the program's answers denote.  Each check raises
CheckFailed on a wrong answer; bench/test_checks.py feeds every checker a
known-wrong answer.
"""

from __future__ import annotations


class CheckFailed(AssertionError):
    """A program output disagrees with an independent computation."""


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# Integer p-adic helpers
# ---------------------------------------------------------------------------


def vp(n, p):
    """p-adic valuation of an integer; infinite for 0."""
    if n == 0:
        return float("inf")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def unit_part(n, p):
    return n // p ** vp(n, p)


def chi(u, p):
    """Square class of a unit: 0 for residues mod p, 1 for non-residues."""
    return 0 if pow(u % p, (p - 1) // 2, p) == 1 else 1


def hilbert(a, b, p):
    """Hilbert symbol (a, b)_p in {1, -1} for nonzero integers, p odd."""
    alpha, beta = vp(a, p), vp(b, p)
    u, v = unit_part(a, p), unit_part(b, p)
    e = alpha * beta * ((p - 1) // 2) + alpha * chi(v, p) + beta * chi(u, p)
    return -1 if e % 2 else 1


def isotropy_eta(d, p):
    """eta of diag(d): 0 when the ternary form is isotropic over Q_p, else 1.

    <a, b, c> is isotropic iff (-ac, -bc)_p = 1.
    """
    a, b, c = d
    return 0 if hilbert(-a * c, -b * c, p) == 1 else 1


def canonical_of_diagonal(d, p):
    """(family, s, eps) of a nondegenerate integer diagonal form.

    Sort by valuation; the unit square classes that survive congruence and
    a unit rescaling of the whole form are the eps bits of the family.
    """
    entries = sorted(d, key=lambda x: vp(x, p))
    s = tuple(vp(x, p) for x in entries)
    c = [chi(unit_part(x, p), p) for x in entries]
    delta = ((p - 1) // 2) % 2
    if s[0] < s[1] < s[2]:
        return 1, s, ((c[1] + c[0]) % 2, (c[2] + c[0]) % 2)
    if s[0] == s[1] < s[2]:
        return 2, s, ((delta + c[0] + c[1]) % 2, None)
    if s[0] < s[1] == s[2]:
        return 3, s, (None, (delta + c[1] + c[2]) % 2)
    return 4, s, (None, None)


def index_p_expected(family, eps):
    """The paper's index-p decision by canonical family."""
    if family == 1:
        return False
    if family == 2:
        return eps[0] == 0
    if family == 3:
        return eps[1] == 0
    return True


def sublattice_count(p, k):
    """Full-rank sublattices of Z_p^3 of index p^k, by Hermite shapes."""
    return sum(p ** (2 * a + b) for a in range(k + 1) for b in range(k + 1 - a))


def index_p2_count(p):
    """Closed form of sublattice_count(p, 2)."""
    return 1 + p + 2 * p**2 + p**3 + p**4


def shift_law(s, i):
    """s-invariants of an index-p subalgebra in class Xi_i: slot i loses
    one, the other two gain one."""
    return tuple(sorted(x - 1 if j == i else x + 1 for j, x in enumerate(s)))


def xi_class_sizes(p):
    """|Xi_0|, |Xi_1|, |Xi_2|: the index-p symbols of each class."""
    return (p * p, p, 1)


def nss(d, p):
    """The three valuation-identity families on a sorted integer diagonal."""
    a0, a1, a2 = d
    v0, v1 = vp(a0, p), vp(a1, p)
    for e in range(1, p):
        if vp(e * e * a0 + a1, p) != v0:
            return False
        for f in range(p):
            if vp(e * e * a0 + f * f * a1 + a2, p) != v0:
                return False
    return all(vp(f * f * a1 + a2, p) == v1 for f in range(1, p))


# ---------------------------------------------------------------------------
# Integer 3x3 algebra and the morphism check
# ---------------------------------------------------------------------------


def det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def adj3(m):
    """Adjugate: m * adj3(m) = det3(m) * I."""
    def cof(i, j):
        r = [x for x in range(3) if x != i]
        c = [x for x in range(3) if x != j]
        minor = m[r[0]][c[0]] * m[r[1]][c[1]] - m[r[0]][c[1]] * m[r[1]][c[0]]
        return minor if (i + j) % 2 == 0 else -minor
    return [[cof(j, i) for j in range(3)] for i in range(3)]


def col(m, j):
    return [m[i][j] for i in range(3)]


def bracket(A, x, y):
    """[x, y] = A (x cross y)."""
    c = (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])
    return [sum(A[i][t] * c[t] for t in range(3)) for i in range(3)]


def is_morphism_mod(A, domain, phi, p, k):
    """phi[x, y] = [phi x, phi y] on the domain basis pairs, modulo p^k.

    The domain must be closed under the bracket; coordinates in the domain
    basis come from the adjugate and the unit part of the determinant.
    """
    d = det3(domain)
    require(d != 0, "certificate domain is singular")
    e = vp(d, p)
    mod = p ** (k + e)
    uinv = pow(unit_part(d, p), -1, p**k)
    adj = adj3(domain)
    dom = [col(domain, j) for j in range(3)]
    img = [col(phi, j) for j in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            w = bracket(A, dom[i], dom[j])
            t = [sum(adj[r][c] * w[c] for c in range(3)) % mod for r in range(3)]
            require(all(x % p**e == 0 for x in t), "certificate domain is not a subalgebra")
            coords = [(x // p**e) * uinv % p**k for x in t]
            lhs = [sum(img[c][r] * coords[c] for c in range(3)) % p**k for r in range(3)]
            rhs = [x % p**k for x in bracket(A, img[i], img[j])]
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# Checks of one answer each
# ---------------------------------------------------------------------------


def check_canonical(got, d, p):
    """got = (family, s, eps) must be the canonical data of diag(d)."""
    want = canonical_of_diagonal(d, p)
    got = (got[0], tuple(got[1]), tuple(got[2]))
    require(got == want, f"canonical form {got}, expected {want}")


def check_eta(got, d, p):
    want = isotropy_eta(d, p)
    require(got == want, f"eta {got}, isotropy test gives {want}")


def check_decision(yes, d, p):
    family, _s, eps = canonical_of_diagonal(d, p)
    want = index_p_expected(family, eps)
    require(yes == want, f"index-p decision {yes}, expected {want}")
    require(not (yes and isotropy_eta(d, p) == 1), "an eta = 1 lattice was decided yes")


def check_sigma(lower, upper, yes):
    """sigma_lower <= sigma_upper, and lower = upper = 1 exactly when yes."""
    if isinstance(upper, str):
        require(upper == "conjectured_infinite", f"sigma upper sentinel {upper!r}")
        require(not yes and lower >= 2, "infinite sigma upper bound with a yes decision")
        return
    require(lower <= upper, f"sigma bounds {lower} > {upper}")
    require((lower == upper == 1) == yes, f"sigma bounds ({lower}, {upper}) with decision {yes}")


def check_certificate(A, domain, phi, p, k):
    """Index-p domain and the integer morphism law modulo p^k."""
    require(vp(det3(domain), p) == 1, "certificate domain is not of index p")
    require(is_morphism_mod(A, domain, phi, p, k), "certificate phi is not a morphism")


def check_index_p_reports(reports, p, d=None):
    """reports: (class_index, closed, sub_s) for every index-p submodule.

    Always: one report per index-p sublattice, and v(det) of a closed
    report's structure matrix grows by one.  For a diagonal input whose
    basis is NSS (checked here on integers): closed exactly in the classes
    with s_i >= 1, with s-invariants given by the shift law.
    """
    require(len(reports) == sublattice_count(p, 1), f"{len(reports)} index-p reports")
    if d is None:
        return
    s = tuple(vp(x, p) for x in d)
    for _cls, closed, sub_s in reports:
        if closed:
            require(sum(sub_s) == sum(s) + 1, f"sub_s {sub_s} of s {s} breaks det growth")
    if sorted(s) == list(s) and nss(d, p):
        for cls, closed, sub_s in reports:
            require(closed == (s[cls] >= 1), f"class {cls} closed={closed} with s={s}")
            if closed:
                require(tuple(sub_s) == shift_law(s, cls),
                        f"sub_s {tuple(sub_s)}, shift law gives {shift_law(s, cls)}")


def closed_count_nss(s, p):
    """Index-p subalgebras of an NSS diagonal: the classes with s_i >= 1."""
    return sum(n for n, si in zip(xi_class_sizes(p), s) if si >= 1)


def check_index_p2_count(count, p, d):
    """Every index-p^2 sublattice of a p^k-scaled lattice, k >= 2, is closed."""
    require(count <= index_p2_count(p), f"{count} index-p^2 subalgebras exceed the sublattices")
    if min(vp(x, p) for x in d) >= 2:
        require(count == index_p2_count(p),
                f"{count} index-p^2 subalgebras, expected {index_p2_count(p)}")


def check_same(got, want, what):
    require(got == want, f"{what}: {got} against {want}")
