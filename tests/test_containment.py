"""The integer containment test against the windowed solve it replaced,
frozen in tests/oracles.py: lattice_contains, is_ideal, the bracket law of
is_morphism and the escapes of regularity_check, on seeded inputs at
p = 3, 5, 7, 11 and precision 8, 16 and 32.

Where the frozen route answers, the integer route gives the same answer or
error.  Where it refuses (PrecisionLoss, or Degenerate from a det that
cancelled in the window), the integer route may answer only with the
frozen route's answer at precision 64.  Every answer on integer input is
also checked against the integers themselves, which are one completion of
the digits the window holds."""

import random

from padiclie import selfsim
from padiclie.classify import canonical_form
from padiclie.errors import Degenerate, PadicLieError, PrecisionLoss
from padiclie.lattice import Algebra, is_ideal
from padiclie.normal_forms import Mat, lattice_contains
from padiclie.padic_core import PrimeContext

from oracles import (
    bracket_direct,
    int_contains,
    reference_bracket_law,
    reference_escapes,
    reference_is_ideal,
    reference_lattice_contains,
)
from test_normal_forms import containment_case, int_unimodular
from test_sweeps import PRECISIONS, PRIMES, _endo_pair, _orbit_case

REFUSALS = (PrecisionLoss, Degenerate)


def _outcome(f, ctx):
    try:
        return None, f(ctx)
    except PadicLieError as error:
        return type(error), None


def _against_the_frozen(p, precision, answer, reference, outcomes):
    """answer(ctx) against reference(ctx), tallied in outcomes."""
    ref = _outcome(reference, PrimeContext(p, precision))
    new = _outcome(answer, PrimeContext(p, precision))
    if ref[0] not in REFUSALS:
        assert new == ref, (p, precision)
    elif new[0] not in REFUSALS:
        assert new == _outcome(reference, PrimeContext(p, 64)), (p, precision)
    key = (ref[0] or ref[1], new[0] or new[1])
    outcomes[key] = outcomes.get(key, 0) + 1
    return new


def test_lattice_contains_matches_the_frozen_solve():
    rng = random.Random(230)
    outcomes = {}
    for _ in range(1200):
        p, precision = rng.choice(PRIMES), rng.choice(PRECISIONS)
        M, N = containment_case(rng, p)

        def by(route, M=M, N=N):
            return lambda ctx: route(Mat.from_ints(ctx, M), Mat.from_ints(ctx, N))

        new = _against_the_frozen(p, precision, by(lattice_contains),
                                  by(reference_lattice_contains), outcomes)
        if new[0] is None:
            assert new[1] == int_contains(M, N, p)
    assert outcomes[(True, True)] > 100 and outcomes[(False, False)] > 100
    assert outcomes.get((PrecisionLoss, True), 0) + outcomes.get((PrecisionLoss, False), 0) > 0


def _structure(rng, p):
    """An integer structure matrix: an orbit representative, or one with
    entries divisible by p."""
    if rng.randrange(2):
        return [[int(x.residue_mod(40)) for x in row]
                for row in _orbit_case(rng, p)(PrimeContext(p, 40)).data]
    return [[rng.randrange(-p, p + 1) * p ** rng.randrange(3) for _ in range(3)]
            for _ in range(3)]


def _ideal_candidate(rng, p):
    if rng.randrange(3) == 0:
        return [[p ** rng.randrange(4) * x for x in row] for row in int_unimodular(rng, p)]
    return containment_case(rng, p)[0]


def test_is_ideal_matches_the_frozen_solve():
    rng = random.Random(231)
    e = [[int(i == j) for j in range(3)] for i in range(3)]
    outcomes = {}
    for _ in range(1000):
        p, precision = rng.choice(PRIMES), rng.choice(PRECISIONS)
        A, J = _structure(rng, p), _ideal_candidate(rng, p)

        def by(route, A=A, J=J):
            return lambda ctx: route(Algebra(Mat.from_ints(ctx, A)), Mat.from_ints(ctx, J))

        def new_route(alg, J):
            return is_ideal(alg.matrix, J)

        def reference(alg, J):
            return reference_is_ideal(alg.bracket, J)

        new = _against_the_frozen(p, precision, by(new_route), by(reference), outcomes)
        if new[0] is None:
            images = [bracket_direct(A, x, c) for x in e for c in zip(*J)]
            assert new[1] == int_contains(J, [list(r) for r in zip(*images)], p)
    assert outcomes[(True, True)] > 50 and outcomes[(False, False)] > 50


def _certificate(rng, p):
    """A decide-yes orbit representative's certificate, built at each
    precision: (structure matrix, domain, phi) as a function of ctx."""
    while True:
        build = _orbit_case(rng, p)
        try:
            alg = Algebra(build(PrimeContext(p, 64)))
            if selfsim.decide_index_p(canonical_form(alg)):
                break
        except PadicLieError:
            continue

    def certificate(ctx):
        alg = Algebra(build(ctx))
        ve = selfsim.construct_simple_ve(alg)
        return alg, ve.domain, ve.phi

    return certificate


def _law(route, build, perturb=None):
    def run(ctx):
        alg, domain, phi = build(ctx)
        if perturb is not None:
            i, j, k, c = perturb
            rows = [list(row) for row in phi.data]
            rows[i][j] = rows[i][j] + ctx.from_int(c * ctx.p**k)
            phi = Mat(ctx, rows)
        if route is reference_bracket_law:
            return route(alg.bracket, domain, phi)
        return route(alg.matrix, domain, phi)
    return run


def _law_both_ways(S, domain, phi):
    """_bracket_law, checked against its entry-by-entry pass: the cheap
    bound it tries first never changes an answer."""
    answer = selfsim._bracket_law(S, domain, phi)
    assert answer == selfsim._law_by_entries(S, domain, phi)
    return answer


def test_the_morphism_law_matches_the_frozen_solve():
    """Certificates of decide-yes orbit representatives, the same with phi
    perturbed at every digit below the window, and integer (domain, phi)
    pairs on orbit representatives.  A perturbation at a digit that its
    entry holds, the last one included, is refuted wherever the window
    refuted it: each entry of the integer law has its own error bound."""
    rng = random.Random(232)
    outcomes = {}
    checked = 0
    for trial in range(36):
        p, precision = PRIMES[trial % 4], PRECISIONS[trial % 3]
        build = _certificate(rng, p)
        _against_the_frozen(p, precision, _law(_law_both_ways, build),
                            _law(reference_bracket_law, build), outcomes)
        for k in range(precision):
            perturb = (rng.randrange(3), rng.randrange(3), k, rng.randrange(1, p))
            _against_the_frozen(p, precision, _law(_law_both_ways, build, perturb),
                                _law(reference_bracket_law, build, perturb), outcomes)
            checked += 1
    for _ in range(400):
        p, precision = rng.choice(PRIMES), rng.choice(PRECISIONS)
        A = _structure(rng, p)
        domain, phi = _endo_pair(rng, p)

        def pair(ctx, A=A, domain=domain, phi=phi):
            return (Algebra(Mat.from_ints(ctx, A)), Mat.from_ints(ctx, domain),
                    Mat.from_ints(ctx, phi))

        _against_the_frozen(p, precision, _law(_law_both_ways, pair),
                            _law(reference_bracket_law, pair), outcomes)
        checked += 1
    assert checked > 1000
    assert outcomes[(True, True)] > 20 and outcomes[(False, False)] > 100


def test_the_escapes_match_the_frozen_solve():
    """regularity_check's escapes on the benchmark's kind of endo pairs and
    on random ones, against the windowed solve of each chain term."""
    rng = random.Random(233)
    outcomes = {}
    for _ in range(300):
        p, precision = rng.choice(PRIMES), rng.choice(PRECISIONS)
        A = _structure(rng, p)
        domain, phi = _endo_pair(rng, p)
        depth = rng.choice((2, 5))

        def by(route, A=A, domain=domain, phi=phi, depth=depth):
            def run(ctx):
                ve = selfsim.VirtualEndomorphism(
                    Algebra(Mat.from_ints(ctx, A)), Mat.from_ints(ctx, domain),
                    Mat.from_ints(ctx, phi))
                if route == "new":
                    return selfsim.regularity_check(ve, depth).escapes
                terms = selfsim.domain_chain(ve, depth + 1)[1 : depth + 1]
                return tuple(reference_escapes(ve.domain, ve.phi, terms))
            return run

        _against_the_frozen(p, precision, by("new"), by("reference"), outcomes)
    assert sum(n for (ref, new), n in outcomes.items() if isinstance(ref, tuple)) > 150
