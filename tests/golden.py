"""Golden corpus: the package's answers on a fixed set of inputs, pinned.

    python tests/golden.py --check    # exit 1 and print every entry that changed
    python tests/golden.py --write    # store this tree's answers in tests/golden.tsv

Every entry runs in process, through cli.main or the Python API:

    cli/<seed>/<i>            cli.main on the benchmark's cli inputs, seeds 1-5
    edge/<i>                  the edge commands CI also runs as fresh processes
    malformed/<name>          tests/test_cli.py's malformed argv
    api/<seed>/<i>            canonical_form, eta, sigma_bounds, group_report and,
                              on decide-yes, construct_simple_ve and is_morphism
                              with every certificate scalar's (val, unit, prec),
                              on the benchmark's analyze inputs, seeds 1-5
    form/<p>/<prec>/<family>/<parameters>
                              canonical_form and eta of the canonical matrix of
                              every form with s2 <= 6, at p in {3, 5, 7, 11, 13}
                              and precision in {8, 16, 32}

A cli entry's output is its exit code, stdout and stderr; an API entry stops
at the first exception and records it.  tests/golden.tsv keeps one line
per entry: the key, a digest of the whole output, and its first EXCERPT
characters with newlines, tabs and backslashes escaped.  A change that
alters answers on purpose rewrites the file, and its diff lists the changed
entries.  The benchmark's inputs are read from bench/inputs.py and never
written.  argparse words its usage and error text differently on Python
3.10, so the stored file holds the text of Python 3.11 and --check is meant
to run there.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import shlex
import subprocess
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
GOLDEN = os.path.join(TESTS, "golden.tsv")
SEEDS = range(1, 6)
FORM_PRIMES = (3, 5, 7, 11, 13)
FORM_PRECISIONS = (8, 16, 32)
FORM_SMAX = 6
EXCERPT = 80

sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench"), TESTS]

import inputs  # noqa: E402  (bench/inputs.py)
from test_cli import MALFORMED  # noqa: E402

from padiclie import (  # noqa: E402
    Algebra,
    PrimeContext,
    canonical_form,
    cli,
    construct_simple_ve,
    eta,
    group_report,
    is_morphism,
    parse_matrix,
    sigma_bounds,
)
from padiclie.classify import FAMILIES, CanonicalForm  # noqa: E402

CANCELLING = (
    "6104007655641,2034669218547,8138676874209;2034669218547,678223072849,2712892291480;"
    "8138676874209,2712892291480,10851569165563"
)
ORIGIN = ["--matrix", "1,0,0;0,3,0;0,0,-3"]
# The edge commands: (expected exit code, argv).  CI runs each as a fresh
# process, in this order (check_fresh); edge/<i> pins its answer in process.
EDGE = [
    *((3, [command, "--prime", "7", "--precision", "10", "--matrix=" + CANCELLING])
      for command in ("classify", "eta", "selfsim", "report")),
    # the certificate's hyperbolic cross-check reads the lifts, not the window: family 3,
    # s = (0,4,4); (0,6,6) is edge/18
    (0, ["selfsim", "--prime", "7", "--precision", "16",
         "--matrix=64863,-454017,-461130;-454017,-1691261,668352;-461130,668352,1933334"]),
    (3, ["classify", "--prime", "5", "--precision", "8",
         "--matrix=-13372*p^1,107063*p^1,126306*p^1;107063*p^1,-26552*p^1,-137449*p^1;"
         "126306*p^1,-137449*p^1,123087*p^1"]),
    (2, ["named", "L4", "--prime", "3", "--s", "2,5"]),
    (2, ["named", "sl2", "--prime", "3", "--k", "5"]),
    (0, ["named", "dim2", "--prime", "101"]),
    (0, ["named", "dim2", "--prime", "101", "--s", "1"]),
    (0, ["named", "dim2", "--prime", "3", "--k", "2", "--s", "1"]),
    (0, ["selftest", "--prime", "5", "--seed", "1"]),
    (0, ["classify", "--prime", "5", "--matrix", "1,0,0;0,5,0;0,0,-5"]),
    (2, ["endo", "check", "--prime", "3", *ORIGIN, "--domain", "1,0,0,0;0,3,0,0;0,0,1,0;0,0,0,1",
         "--phi", "1,0,0;0,1,0;0,0,1"]),
    # work above the documented bounds is refused before it starts
    (2, ["lcs", "--prime", "3", *ORIGIN, "--depth", "3000000"]),
    (2, ["endo", "chain", "--prime", "3", *ORIGIN, "--domain", "1,0,0;0,3,0;0,0,1",
         "--phi", "1,0,0;0,3,0;0,0,1", "--depth", "100000"]),
    (2, ["selftest", "--prime", "5", "--trials", "1000000"]),
    # every symbol closed, 20 entries of the Bs below 8 digits: Smith divisors off A's
    # lift and B's row and column m
    (0, ["subalgebras", "--prime", "3", "--precision", "8",
         "--matrix=162,-102,114;-102,150,-12;114,-12,123"]),
    (0, ["selfsim", "--prime", "5",
         "--matrix=-140598,-46857,-140616;-46857,12,-93744;-140616,-93744,3"]),
    (0, ["classify", "--prime", "3", "--precision", "16",
         "--matrix=3894,-1950,-3876;-1950,3894,7764;-3876,7764,15576"]),
    # the domain's rank and the law read the integer det of the lift: v(det) = 4 < t = 8
    (0, ["endo", "check", "--prime", "3", "--precision", "8", "--matrix=81,0,0;0,81,0;0,0,81",
         "--domain=532547,-57524,433165;945373,-403504,756890;-606154,52729,-527933",
         "--phi=532547,-57524,433165;945373,-403504,756890;-606154,52729,-527933"]),
    # the preimage reads its Smith pivots only below the valuation that decides it
    (0, ["endo", "chain", "--prime", "3", "--precision", "16", "--matrix", "1,-20,0;-20,40,9;0,9,0",
         "--domain", "0,0,-3;3,-36,0;3,-9,0", "--phi", "0,0,-9;0,3,-3;-9,1,10", "--depth", "2"]),
    # the chain decides each term on the lifts' digits, not at precision/2:
    # D_16 = diag(1, 3^16, 1), 16 < t = 32
    (0, ["endo", "chain", "--prime", "3", "--matrix", "1,0,0;0,0,1;0,1,0",
         "--domain", "1,0,0;0,3,0;0,0,1", "--phi", "1,0,0;0,1,0;0,0,3", "--depth", "15"]),
    # the errors of canonical_form's read-off and of CanonicalForm's eps check
    (5, ["classify", "--prime", "5", "--matrix", "1,2,0;3,1,0;0,0,1"]),
    (5, ["classify", "--prime", "5", "--matrix", "1,0,0;0,0,0;0,0,1"]),
    (2, ["named", "L2", "--prime", "5", "--s", "0,3", "--eps1", "2"]),
    # SWEEP_BOUND: p = 139 (19,461 symbols) is taken, p = 149 (22,351) and 1009 refused
    (2, ["subalgebras", "--prime", "1009", "--matrix", "1,0,0;0,1009,0;0,0,-1009"]),
    (0, ["subalgebras", "--prime", "101", "--matrix", "1,0,0;0,101,0;0,0,-101"]),
    (0, ["subalgebras", "--prime", "139", "--matrix", "1,0,0;0,139,0;0,0,-139"]),
    (2, ["subalgebras", "--prime", "149", "--matrix", "1,0,0;0,149,0;0,0,-149"]),
    # the certificate's window: phi's product cancels through its digits at precision 16
    (3, ["selfsim", "--prime", "3", "--precision", "16",
         "--matrix=-11662,1458,-1456;1458,4374,2916;-1456,2916,1460"]),
]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception as e:  # a crash is an answer that --check shows
            code = f"crash {type(e).__name__}: {e}"
    return f"exit {code}\nstdout: {out.getvalue()}stderr: {err.getvalue()}"


def scalars(M):
    return [[(x.val, x.unit, x.prec) for x in row] for row in M.data]


def answers(steps):
    """One line per (name, value) the steps yield; an exception ends the text."""
    lines = []
    try:
        for name, value in steps:
            lines.append(f"{name}: {value!r}")
    except Exception as e:  # a PadicLieError, or a crash that --check shows
        lines.append(f"raises {type(e).__name__}: {e}")
    return "\n".join(lines)


def api_steps(item):
    alg = Algebra(parse_matrix(item["matrix"], PrimeContext(item["p"], item["precision"])))
    cf = canonical_form(alg)
    yield "canonical_form", cf
    yield "eta", eta(alg.matrix)
    report = sigma_bounds(cf)
    yield "sigma_bounds", report
    yield "group_report", group_report(alg)
    if report.index_p_self_similar:
        ve = construct_simple_ve(alg)
        yield "construct_simple_ve", ve
        yield "is_morphism", is_morphism(ve)
        yield "domain", scalars(ve.domain)
        yield "phi", scalars(ve.phi)


def form_steps(cf):
    M = cf.matrix()
    yield "canonical_form", canonical_form(Algebra(M))
    yield "eta", eta(M)


def forms(p, precision):
    ctx = PrimeContext(p, precision)
    for family, (free, eps_slots) in FAMILIES.items():
        for s in itertools.combinations(range(FORM_SMAX + 1), len(free)):
            for bits in itertools.product((0, 1), repeat=len(eps_slots)):
                yield CanonicalForm.from_parameters(family, s + bits, p, ctx)


def corpus():
    """(key, thunk) for every entry, in a fixed order."""
    for seed in SEEDS:
        for i, cmd in enumerate(inputs.cli_inputs(seed)):
            yield f"cli/{seed}/{i:03d}", lambda argv=cmd["argv"]: run_cli(argv)
    for i, (_, argv) in enumerate(EDGE):
        yield f"edge/{i:02d}", lambda argv=argv: run_cli(argv)
    for name, argv in MALFORMED.items():
        yield f"malformed/{name}", lambda argv=argv: run_cli(argv)
    for seed in SEEDS:
        for i, item in enumerate(inputs.analyze_inputs(seed)):
            yield f"api/{seed}/{i:03d}", lambda item=item: answers(api_steps(item))
    for p, precision in itertools.product(FORM_PRIMES, FORM_PRECISIONS):
        for cf in forms(p, precision):
            params = ",".join(map(str, cf.parameters))
            yield f"form/{p}/{precision}/{cf.family}/{params}", lambda cf=cf: answers(form_steps(cf))


def check_fresh():
    """Run every EDGE command as `python -m padiclie.cli` in a fresh process
    on this checkout's src: 1 on the first wrong exit code, traceback or run
    over 60 s, else 0."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.join(ROOT, "src"),
                                                        os.environ.get("PYTHONPATH", "")])}
    for want, argv in EDGE:
        command = [sys.executable, "-m", "padiclie.cli", *argv]
        try:
            run = subprocess.run(command, env=env, stdout=subprocess.DEVNULL,
                                 stderr=subprocess.PIPE, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            print(f"padiclie {shlex.join(argv)} ran over 60 s")
            return 1
        if run.returncode != want or "Traceback" in run.stderr:
            print(f"padiclie {shlex.join(argv)} exited {run.returncode}, expected {want}")
            print(run.stderr)
            return 1
    return 0


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load():
    stored = {}
    with open(GOLDEN, encoding="utf-8") as f:
        for line in f:
            key, dig, excerpt = line.rstrip("\n").split("\t")
            stored[key] = (dig, excerpt.encode().decode("unicode_escape"))
    return stored


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="store this tree's answers")
    mode.add_argument("--check", action="store_true", help="compare with the stored answers")
    args = ap.parse_args(argv)
    got = {key: thunk() for key, thunk in corpus()}
    if args.write:
        with open(GOLDEN, "w", encoding="utf-8") as f:
            for key, text in got.items():
                excerpt = text[:EXCERPT].encode("unicode_escape").decode()
                f.write(f"{key}\t{digest(text)}\t{excerpt}\n")
        print(f"{len(got)} entries written to {GOLDEN}")
        return 0
    stored = load()
    changed = 0
    for key in [*got, *(key for key in stored if key not in got)]:
        old = stored.get(key)
        new = got.get(key)
        if old and new is not None and old[0] == digest(new):
            continue
        changed += 1
        print(f"== {key}")
        if old:
            print(f"-- old {old[0]}, first {EXCERPT} characters\n{old[1]}")
        else:
            print("-- old: no such entry")
        print(f"-- new {digest(new)}\n{new}" if new is not None else "-- new: no such entry")
    print(f"{changed} of {len(got)} entries changed")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
