"""Command-line front end.

Matrices are passed as row-major literals, rows separated by ";" and
entries by "," with each entry in the scalar grammar (integer, num/den,
or u*p^s).  Results go to stdout as one JSON document; errors go to
stderr as {"error": ..., "message": ...} with exit codes

    1  stdout closed by its reader (nothing on stderr)
    2  invalid input        3  precision loss
    4  unsupported prime    5  precondition violation
"""

import argparse
import functools
import json
import os
import re
import sys

from . import catalog, classify, selfsim, subalgebras
from .errors import Degenerate, InvalidInput, PadicLieError, PrecisionLoss, UnsupportedPrime
from .lattice import Algebra, lcs_exponents
from .normal_forms import Mat, congruent_valuations, int_det, int_mul, parse_matrix
from .padic_core import INF, PrimeContext


def _context(args):
    return PrimeContext(args.prime, args.precision)


def _algebra(args, ctx):
    if getattr(args, "name", None):
        return _named(args, ctx)
    if not getattr(args, "matrix", None):
        raise InvalidInput("provide --matrix or --name")
    return Algebra(parse_matrix(args.matrix, ctx))


def _int(text, option):
    """An integer in an option value; InvalidInput names the option."""
    try:
        return int(text)
    except ValueError:
        raise InvalidInput(f"{option} takes integers, got {text!r}") from None


def _refuse_unread(args):
    """InvalidInput for a catalog option the named lattice does not read."""
    for flag in ("eps1", "eps2", "k", "n", "s"):
        if getattr(args, flag) is not None and flag not in catalog.READS.get(args.name, ()):
            raise InvalidInput(f"{args.name} does not read --{flag}")


def _named(args, ctx):
    if args.name in catalog.NAMED:  # named_algebra reports an unknown name
        _refuse_unread(args)
    s = tuple(_int(t, "--s") for t in args.s.split(",")) if args.s else None
    eps = None if args.eps1 is None and args.eps2 is None else (args.eps1 or 0, args.eps2 or 0)
    return catalog.named_algebra(ctx, args.name, k=args.k, s=s, eps=eps, n=args.n)


def _cf_json(cf, eta_value):
    return {
        "family": cf.family,
        "s": list(cf.s),
        "eps": list(cf.eps),
        "eta": eta_value,
        "qp_type": classify.qp_type_of_eta(eta_value).value,
        "canonical_matrix": cf.matrix().to_rows(),
    }


def _sigma_json(report):
    return {
        "index_p_self_similar": report.index_p_self_similar,
        "sigma_lower_exponent": report.sigma_lower,
        "sigma_upper_exponent": report.sigma_upper,
        "table_row": report.table_row,
        "witness_exponents": list(report.witness_exponents)
        if report.witness_exponents
        else None,
        "note": report.note,
    }


def cmd_classify(args):
    ctx = _context(args)
    alg = _algebra(args, ctx)
    cf = classify.canonical_form(alg)
    return _cf_json(cf, cf.eta())


def cmd_eta(args):
    ctx = _context(args)
    A = parse_matrix(args.matrix, ctx)
    br = classify.eta(A)
    return {
        "disc_valuation_parity": br.disc_valuation_parity,
        "hilbert_sum": br.hilbert_sum,
        "eta": br.eta,
        "qp_type": classify.qp_type_of_eta(br.eta).value,
    }


def cmd_selfsim(args):
    ctx = _context(args)
    alg = _algebra(args, ctx)
    cf = classify.canonical_form(alg)
    report = selfsim.sigma_bounds(cf)
    out = {"canonical": _cf_json(cf, report.eta), "selfsim": _sigma_json(report)}
    if report.index_p_self_similar:
        ve = selfsim.construct_simple_ve(alg)
        out["certificate"] = {
            "domain": ve.domain.to_rows(),
            "phi": ve.phi.to_rows(),
            "is_morphism": selfsim.is_morphism(ve),
        }
    else:
        out["obstruction"] = (
            "every index-p subalgebra M satisfies [M,M] + p^{s_i} M = "
            "p[L,L] + p^{s_i} L, which any index-p morphism must stabilize"
        )
    return out


def cmd_subalgebras(args):
    ctx = _context(args)
    alg = _algebra(args, ctx)
    reports = subalgebras.enumerate_index_p(alg)
    return {
        "count": len(reports),
        "subalgebras": [
            {
                "xi": list(r.xi.entries),
                "class": r.xi.class_index(),
                "u": r.u_matrix.to_rows(),
                "b": r.b_matrix.to_rows(),
                "is_subalgebra": r.closed,
                "sub_s_invariants": [_val_json(v) for v in r.sub_s] if r.sub_s else None,
            }
            for r in reports
        ],
    }


def _val_json(v):
    return "inf" if v == INF else v


def cmd_endo(args):
    ctx = _context(args)
    alg = _algebra(args, ctx)
    ve = selfsim.VirtualEndomorphism(
        alg, parse_matrix(args.domain, ctx), parse_matrix(args.phi, ctx)
    )
    if args.action == "check":
        return {
            "is_morphism": selfsim.is_morphism(ve),
            "index_exponent": ve.index_exponent(),
        }
    if args.action == "chain":
        reg = selfsim.regularity_check(ve, args.depth)
        return {
            "chain": [m.to_rows() for m in reg.chain[: args.depth + 1]],
            "index_exponents": list(reg.index_exponents),
            "escapes": list(reg.escapes),
            "regular": reg.regular,
        }
    witness = selfsim.invariant_ideal_search(ve, args.search_bound)
    return {
        "witness": witness.to_rows() if witness is not None else None,
        "simple_up_to_bound": witness is None,
        "bound_exponent": args.search_bound,
    }


def cmd_lcs(args):
    ctx = _context(args)
    alg = _algebra(args, ctx)
    if args.depth < 0:
        raise InvalidInput("--depth must be >= 0")
    if args.depth > selfsim.DEPTH_BOUND:
        raise InvalidInput(f"--depth must be <= {selfsim.DEPTH_BOUND}")
    cf = classify.canonical_form(alg)
    terms = [[_val_json(v) for v in lcs_exponents(cf.s, n)] for n in range(1, args.depth + 1)]
    return {"s": list(cf.s), "gamma_exponents": terms}


def cmd_named(args):
    ctx = _context(args)
    if args.name in ("dim1", "dim2"):
        _refuse_unread(args)
        s = None if args.s in (None, "inf") else _int(args.s, "--s")
        k = 1 if args.k is None else args.k
        rep = selfsim.lowdim_report(ctx, 1 if args.name == "dim1" else 2, k, s)
        return {
            "dim": rep.dim,
            "s": _val_json(rep.s) if rep.s is not None else None,
            "k": rep.k,
            "domain": rep.domain.to_rows(),
            "phi": rep.phi.to_rows(),
            "is_morphism": rep.is_morphism,
            "d_infinity": rep.d_infinity.to_rows(),
            "invariant_ideal_found": rep.invariant_found,
        }
    alg = _named(args, ctx)
    cf = classify.canonical_form(alg)
    report = selfsim.sigma_bounds(cf)
    return {
        "name": args.name,
        "matrix": alg.matrix.to_rows(),
        "canonical": _cf_json(cf, report.eta),
        "selfsim": _sigma_json(report),
        "conjectured": report.sigma_upper == selfsim.CONJECTURED_INFINITE,
    }


def cmd_report(args):
    alg = _algebra(args, _context(args))
    gr = catalog.group_report(alg)
    return {
        "canonical": _cf_json(gr.selfsim.canonical, gr.selfsim.eta),
        "selfsim": _sigma_json(gr.selfsim),
        "group": {
            "name": gr.group_name,
            "family": gr.family,
            "parameters": list(gr.parameters),
            "residually_nilpotent": gr.residually_nilpotent,
            "failing_s": _val_json(gr.failing_s) if gr.failing_s is not None else None,
            "prime_threshold": gr.prime_threshold,
            "threshold_met": gr.threshold_met,
            "qp_type": gr.qp_type,
            "index_transfer": gr.index_transfer,
            "notes": list(gr.notes),
        },
    }


# selftest's most trials: about 0.2 s at p = 3, 5 and 101 (Python 3.11, 2-vCPU Xeon)
TRIALS_BOUND = 1000


def cmd_selftest(args):
    import random  # here, so that the other commands never load it

    rng = random.Random(args.seed)
    ctx = PrimeContext(args.prime, args.precision)
    results = {}
    trials = args.trials
    if trials < 1:
        raise InvalidInput("--trials must be at least 1")
    if trials > TRIALS_BOUND:
        raise InvalidInput(f"--trials must be at most {TRIALS_BOUND}")
    ok = 0
    for _ in range(trials):
        rows, A = _random_symmetric(rng, ctx)
        V = _random_unimodular(rng, ctx)
        u = rng.randrange(1, ctx.p)
        # B = u V^T A V, in integers
        B = [[u * x for x in row] for row in int_mul(list(zip(*V)), int_mul(rows, V))]
        if classify.canonical_form(Algebra(A)) == classify.canonical_form(
            Algebra(Mat.from_ints(ctx, B))
        ):
            ok += 1
    results["orbit_invariance"] = {"trials": trials, "passed": ok}
    for _ in range(trials):
        classify.eta(_random_symmetric(rng, ctx)[1])  # raises when the routes disagree
    results["eta_dual_route"] = {"trials": trials, "passed": trials}
    passed = all(v["passed"] == v["trials"] for v in results.values())
    return {"seed": args.seed, "prime": ctx.p, "results": results, "passed": passed}


def _random_symmetric(rng, ctx):
    """A nonsingular symmetric draw: its integer rows, and their Mat with
    the Jordan data canonical_form and eta read already kept on it.  Nine
    entries are drawn row by row, and the one at (i, j), i <= j, fills
    (i, j) and (j, i).  A singular draw, on which congruent_valuations
    raises Degenerate, is drawn again, and its PrecisionLoss propagates."""
    p = ctx.p
    while True:
        draws = [
            rng.randrange(1, p) * p ** rng.randrange(0, 3) if rng.random() < 0.8 else 0
            for _ in range(9)
        ]
        rows = [[draws[3 * min(i, j) + max(i, j)] for j in range(3)] for i in range(3)]
        M = Mat.from_ints(ctx, rows)
        try:
            congruent_valuations(M)
        except Degenerate:
            continue
        return rows, M


def _random_unimodular(rng, ctx):
    """Integer rows with entries in [-p^2, p^2) and det a unit mod p."""
    p = ctx.p
    while True:
        rows = [[rng.randrange(-p * p, p * p) for _ in range(3)] for _ in range(3)]
        if int_det(rows) % p:
            return rows


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser():
    ap = argparse.ArgumentParser(
        prog="padiclie",
        description="classification and self-similarity of 3-dimensional Lie lattices over Z_p",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--prime", type=int, required=True)
    shared.add_argument("--precision", type=int, default=32)
    shared.add_argument("--pretty", action="store_true")
    matrix_or_name = argparse.ArgumentParser(add_help=False)
    matrix_or_name.add_argument("--matrix")
    matrix_or_name.add_argument("--name")
    catalog_options = argparse.ArgumentParser(add_help=False)
    catalog_options.add_argument("--k", type=int)
    catalog_options.add_argument("--n", type=int)
    catalog_options.add_argument("--s")
    catalog_options.add_argument("--eps1", type=int)
    catalog_options.add_argument("--eps2", type=int)
    lattice = [shared, matrix_or_name, catalog_options]  # one lattice, by --matrix or --name

    sub.add_parser("classify", parents=lattice, help="canonical form of a lattice")
    p_eta = sub.add_parser("eta", parents=[shared], help="eta invariant of a symmetric matrix")
    p_eta.add_argument("--matrix", required=True)
    sub.add_parser("selfsim", parents=lattice, help="self-similarity report with certificate")
    sub.add_parser("subalgebras", parents=lattice, help="index-p submodule reports")
    p_endo = sub.add_parser("endo", parents=lattice, help="virtual endomorphism tools")
    p_endo.add_argument("action", choices=["check", "chain", "search"])
    p_endo.add_argument("--domain", required=True)
    p_endo.add_argument("--phi", required=True)
    p_endo.add_argument("--depth", type=int, default=8)
    p_endo.add_argument("--search-bound", type=int, default=6)
    p_lcs = sub.add_parser("lcs", parents=lattice, help="lower central series exponents")
    p_lcs.add_argument("--depth", type=int, default=8)
    p_named = sub.add_parser(
        "named", parents=[shared, catalog_options], help="catalog lattice and its canonical data"
    )
    p_named.add_argument("name")
    sub.add_parser("report", parents=lattice, help="full lattice-and-group report")
    p_self = sub.add_parser("selftest", parents=[shared], help="randomized invariants on a seed")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--trials", type=int, default=25)
    return ap


HANDLERS = {
    "classify": cmd_classify,
    "eta": cmd_eta,
    "selfsim": cmd_selfsim,
    "subalgebras": cmd_subalgebras,
    "endo": cmd_endo,
    "lcs": cmd_lcs,
    "named": cmd_named,
    "report": cmd_report,
    "selftest": cmd_selftest,
}


# argparse reads a value that starts with "-" as an option, so a matrix
# literal such as "-1,0,0;0,5,0;0,0,5" is joined to its option with "="
MATRIX_OPTIONS = ("--matrix", "--domain", "--phi")


def _join_matrix_values(argv):
    out = []
    for arg in argv:
        if out and out[-1] in MATRIX_OPTIONS and re.match(r"-\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = ap.parse_args(_join_matrix_values(argv))
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        result = HANDLERS[args.command](args)
    except UnsupportedPrime as e:
        return _fail(e, 4)
    except PrecisionLoss as e:
        return _fail(e, 3)
    except InvalidInput as e:
        return _fail(e, 2)
    except PadicLieError as e:
        return _fail(e, 5)
    indent = 2 if getattr(args, "pretty", False) else None
    try:
        print(json.dumps(result, indent=indent, sort_keys=False), flush=True)
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull, as Python's signal
        # documentation advises, so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


def _fail(exc, code):
    sys.stderr.write(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
