"""Self-test of the benchmark's checkers: each must reject a known-wrong answer.

    python3 bench/test_checks.py        (or: python3 -m pytest bench/test_checks.py)
"""

from __future__ import annotations

import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import inputs  # noqa: E402
from checks import CheckFailed  # noqa: E402


def rejects(fn, *args):
    try:
        fn(*args)
    except CheckFailed:
        return True
    return False


def test_shifted_s_is_rejected():
    p = 5
    d = inputs.canonical_diagonal(p, 1, (0, 2, 5), (1, 0))
    checks.check_canonical((1, (0, 2, 5), (1, 0)), d, p)
    assert rejects(checks.check_canonical, (1, (0, 3, 5), (1, 0)), d, p)
    assert rejects(checks.check_canonical, (1, (1, 3, 6), (1, 0)), d, p)
    # index-p reports of an NSS diagonal: class 0 follows the shift law
    s = (1, 2, 3)
    d = inputs.canonical_diagonal(p, 1, s, (0, 0))
    assert checks.nss(d, p)
    good = [(0, True, checks.shift_law(s, 0))]
    checks.check_index_p_reports(good * checks.sublattice_count(p, 1), p, d)
    bad = [(0, True, tuple(x + 1 for x in checks.shift_law(s, 0)))]
    assert rejects(checks.check_index_p_reports, bad * checks.sublattice_count(p, 1), p, d)


def test_flipped_eta_is_rejected():
    for p in (3, 5, 7, 31):
        rho = inputs.least_nonresidue(p)
        sl2 = (1, 4, -4)  # split: eta 0
        sl1_delta = (-1, rho, p)  # the division algebra: eta 1
        checks.check_eta(0, sl2, p)
        checks.check_eta(1, sl1_delta, p)
        assert rejects(checks.check_eta, 1, sl2, p)
        assert rejects(checks.check_eta, 0, sl1_delta, p)


def test_eta_one_decided_yes_is_rejected():
    p = 7
    d = (-1, inputs.least_nonresidue(p), p)
    checks.check_decision(False, d, p)
    assert rejects(checks.check_decision, True, d, p)
    checks.check_sigma(2, "conjectured_infinite", False)
    assert rejects(checks.check_sigma, 1, 1, False)
    assert rejects(checks.check_sigma, 2, 1, False)


def test_non_morphism_phi_is_rejected():
    p, a, b = 5, 1, 5
    A = inputs.hyperbolic(a, b)
    domain = inputs.diag((1, p, 1))
    phi = inputs.diag((1, 1, p))
    checks.check_certificate(A, domain, phi, p, 6)
    swapped = [[row[0], row[2], row[1]] for row in phi]
    assert rejects(checks.check_certificate, A, domain, swapped, p, 6)
    doubled = [[2 * x for x in row] for row in phi]
    assert rejects(checks.check_certificate, A, domain, doubled, p, 6)
    # the same certificate carried to another basis still passes
    U = inputs.random_sl3z(random.Random(3))
    A2 = inputs.matmul(inputs.matmul(U, A), inputs.transpose(U))
    checks.check_certificate(A2, inputs.matmul(U, domain), inputs.matmul(U, phi), p, 6)


def test_off_by_one_sublattice_count_is_rejected():
    for p in (3, 5, 7):
        n2 = checks.index_p2_count(p)
        assert checks.sublattice_count(p, 2) == n2
        assert checks.sublattice_count(p, 1) == 1 + p + p * p
        scaled = (p**2, p**2, p**3)
        checks.check_index_p2_count(n2, p, scaled)
        assert rejects(checks.check_index_p2_count, n2 - 1, p, scaled)
        assert rejects(checks.check_index_p2_count, n2 + 1, p, scaled)
        reports = [(0, False, None)] * (checks.sublattice_count(p, 1) - 1)
        assert rejects(checks.check_index_p_reports, reports, p)


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
        print("ok", t.__name__)
