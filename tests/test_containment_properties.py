"""Property tests of the integer containment test and the morphism law,
with hypothesis (optional: the module is skipped where it is not
installed).  The inputs are small integers, which every window holds
exactly, so exact integer and Fraction arithmetic gives the truth:

* lattice_contains answers what int_contains answers, or raises
  PrecisionLoss, and Degenerate only on a singular M;
* the law answers its exact value or PrecisionLoss; a law that fails only
  beyond the digits compared may still read True;
* raising the precision never changes a containment answer, a False or a
  NotSubalgebra, and can only remove a PrecisionLoss."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from padiclie import selfsim  # noqa: E402
from padiclie.errors import Degenerate, NotSubalgebra, PadicLieError, PrecisionLoss  # noqa: E402
from padiclie.normal_forms import Mat, lattice_contains  # noqa: E402
from padiclie.padic_core import PrimeContext  # noqa: E402

from oracles import bracket_direct, int_adjugate, int_contains, int_det  # noqa: E402

PRIMES = (3, 5, 7, 11)
PRECISIONS = (8, 16, 32)


def _matrices(bound):
    entry = st.integers(-bound, bound)
    return st.lists(st.lists(entry, min_size=3, max_size=3), min_size=3, max_size=3)


def _outcome(f, *args):
    try:
        return f(*args)
    except PadicLieError as error:
        return type(error)


@st.composite
def _p_power_matrix(draw):
    """A 3 x 3 integer matrix, each column scaled by a small p-power, so
    that spans of every index turn up."""
    p = draw(st.sampled_from(PRIMES))
    M = draw(_matrices(9))
    scale = draw(st.lists(st.integers(0, 3), min_size=3, max_size=3))
    return p, [[x * p**k for x, k in zip(row, scale)] for row in M]


@settings(max_examples=300, deadline=None)
@given(_p_power_matrix(), _matrices(20))
def test_containment_answers_the_integers_at_every_precision(case, N):
    p, M = case
    truth = int_contains(M, N, p) if int_det(M) else Degenerate
    answers = [_outcome(lattice_contains, Mat.from_ints(ctx, M), Mat.from_ints(ctx, N))
               for ctx in (PrimeContext(p, precision) for precision in PRECISIONS)]
    for answer in answers:
        assert answer in (truth, PrecisionLoss)
    for low, high in zip(answers, answers[1:]):
        assert low is PrecisionLoss or high == low


def _law_truth(A, U, F, p):
    """The law in Fractions: NotSubalgebra when U^{-1} [u_i, u_j] is not
    p-integral, else whether phi maps those coordinates to [phi u_i,
    phi u_j]."""
    d = int_det(U)
    adj = int_adjugate(U)
    pairs = [(i, j) for j in range(3) for i in range(j)]
    cols, images = list(zip(*U)), list(zip(*F))
    for i, j in pairs:
        b = bracket_direct(A, cols[i], cols[j])
        coords = [Fraction(sum(a * x for a, x in zip(row, b)), d) for row in adj]
        if any(c.denominator % p == 0 for c in coords):
            return NotSubalgebra
    for i, j in pairs:
        b = bracket_direct(A, cols[i], cols[j])
        coords = [Fraction(sum(a * x for a, x in zip(row, b)), d) for row in adj]
        lhs = [sum(f * c for f, c in zip(row, coords)) for row in F]
        if lhs != list(bracket_direct(A, images[i], images[j])):
            return False
    return True


@st.composite
def _endo(draw):
    """(p, A, domain, phi): phi is the domain's own basis map one time in
    three, scaled columns of it another, so that closed domains and true
    laws turn up."""
    p = draw(st.sampled_from(PRIMES))
    A = draw(_matrices(4))
    A = [[A[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)]
    U = draw(_matrices(3))
    scale = draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))
    U = [[x * p**k for x, k in zip(row, scale)] for row in U]
    kind = draw(st.integers(0, 2))
    if kind == 0:
        F = U
    elif kind == 1:
        F = [[x * p**k for x, k in zip(row, (1, 0, 0))] for row in U]
    else:
        F = draw(_matrices(9))
    return p, A, U, F


@settings(max_examples=300, deadline=None)
@given(_endo())
def test_the_law_answers_its_exact_value_at_every_precision(case):
    p, A, U, F = case
    if int_det(U) == 0:
        return
    truth = _law_truth(A, U, F, p)
    answers = []
    for precision in PRECISIONS:
        ctx = PrimeContext(p, precision)
        answers.append(_outcome(selfsim._bracket_law, *(Mat.from_ints(ctx, X) for X in (A, U, F))))
    for answer in answers:
        assert answer in (truth, PrecisionLoss)
    for low, high in zip(answers, answers[1:]):
        assert low in (PrecisionLoss, True) or high == low
        assert low is not True or high in (True, truth)
