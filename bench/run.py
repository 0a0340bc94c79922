"""Benchmark of padiclie: three workloads, end-to-end metrics, layer tracing.

    python3 bench/run.py --workload analyze --seed 1 --seconds 50 --trace 0

Workloads (bench/README.md says why each was chosen):

    analyze    per-lattice questions on 200 lattices
    enumerate  index-p and index-p^2 sweeps and certificate audits
    cli        101 padiclie command lines through cli.main(argv)

Every operation runs once as a warm-up, then in whole passes over all
operations until --seconds have passed; each operation keeps its fastest
time.  Every output of every pass is checked (bench/checks.py).  With
--trace 0 the last line of stdout is the end-to-end result; with --trace 1
one more pass runs under the outside-in tracer (bench/layertrace.py), the
cli commands also run once each as fresh processes, and the last line holds
the per-layer metrics.  Spans and a summary go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import inputs  # noqa: E402
from checks import CheckFailed, require  # noqa: E402

SETUP_RUNS = 21  # fresh interpreters timed for setup_s, spread over the run
REF_RUNS = 7  # fresh interpreters timed for cli.import_ms and cli.interpreter_ms
MIN_PASSES = 2
CERT_K = 6  # certificates are checked modulo p^6, well inside every window
CHILD_TIMEOUT = 60

END_TO_END = {
    "work_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SPAN_METRICS = (
    # (metric, span name, field)
    ("normal_forms.congruent_diagonalize_calls", "normal_forms.congruent_diagonalize", "calls"),
    ("normal_forms.congruent_diagonalize_ms", "normal_forms.congruent_diagonalize", "ms"),
    ("normal_forms.Mat.det_calls", "normal_forms.Mat.det", "calls"),
    ("normal_forms.Mat.det_ms", "normal_forms.Mat.det", "ms"),
    ("normal_forms.Mat.adjugate_calls", "normal_forms.Mat.adjugate", "calls"),
    ("normal_forms.Mat.adjugate_ms", "normal_forms.Mat.adjugate", "ms"),
    ("normal_forms.Mat.mul_calls", "normal_forms.Mat.mul", "calls"),
    ("normal_forms.Mat.mul_ms", "normal_forms.Mat.mul", "ms"),
    ("normal_forms.hnf_columns_calls", "normal_forms.hnf_columns", "calls"),
    ("normal_forms.hnf_columns_ms", "normal_forms.hnf_columns", "ms"),
    ("normal_forms.snf_calls", "normal_forms.snf", "calls"),
    ("normal_forms.snf_ms", "normal_forms.snf", "ms"),
    ("normal_forms.parse_matrix_ms", "normal_forms.parse_matrix", "ms"),
    ("padic_core.prime_context_ms", "padic_core.prime_context", "ms"),
    ("lattice.change_of_basis_calls", "lattice.change_of_basis", "calls"),
    ("lattice.change_of_basis_ms", "lattice.change_of_basis", "ms"),
    ("classify.canonical_form_ms", "classify.canonical_form", "ms"),
    ("classify.eta_ms", "classify.eta", "ms"),
    ("subalgebras.enumerate_index_p_ms", "subalgebras.enumerate_index_p", "ms"),
    ("subalgebras.enumerate_index_p2_ms", "subalgebras.enumerate_index_p2", "ms"),
    ("subalgebras.b_xi_calls", "subalgebras.b_xi", "calls"),
    ("selfsim.sigma_bounds_ms", "selfsim.sigma_bounds", "ms"),
    ("selfsim.construct_simple_ve_ms", "selfsim.construct_simple_ve", "ms"),
    ("selfsim.is_morphism_ms", "selfsim.is_morphism", "ms"),
    ("selfsim.domain_chain_ms", "selfsim.domain_chain", "ms"),
    ("selfsim.invariant_ideal_search_ms", "selfsim.invariant_ideal_search", "ms"),
    ("catalog.group_report_ms", "catalog.group_report", "ms"),
)
COUNT_METRICS = (
    ("padic_core.mul_calls", "padic_core.mul"),
    ("padic_core.add_calls", "padic_core.add"),
    ("padic_core.inv_calls", "padic_core.inv"),
    ("padic_core.sqrt_calls", "padic_core.sqrt"),
    ("selfsim.ideal_candidates_examined", "selfsim.ideal_candidates"),
)
CLI_METRICS = ("cli.import_ms", "cli.main_ms", "cli.interpreter_ms", "cli.process_ms",
               "cli.json_bytes")


class Op:
    """One benchmark operation: a call into the program and its check.

    call() returns the raw answer, or raises Failure or the program's own
    error when the program reports an error; check(answer) raises
    CheckFailed on a wrong answer.
    """

    __slots__ = ("name", "units", "call", "check")

    def __init__(self, name, units, call, check):
        self.name, self.units, self.call, self.check = name, units, call, check


class Failure(Exception):
    """The program reported an error for this operation."""


# ---------------------------------------------------------------------------
# Loading the program and its inputs
# ---------------------------------------------------------------------------


def load_program():
    """Import padiclie from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "padiclie", "__init__.py")):
        sys.exit(f"bench: no program source under {SRC}")
    sys.path.insert(0, SRC)
    import padiclie
    import padiclie.cli  # noqa: F401  (the tracer patches cli.main)

    if not os.path.abspath(padiclie.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: padiclie was imported from {padiclie.__file__}, not {SRC}")
    return padiclie


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_child(args, stdin=None):
    """Run one fresh interpreter of this Python, without site hooks."""
    return subprocess.run(
        [sys.executable, "-S", *args], cwd=ROOT, env=child_env(), input=stdin,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )


SETUP_LIBRARY = """
import json, sys, time
items = json.loads(sys.stdin.read())
t0 = time.perf_counter()
import padiclie
from padiclie.normal_forms import parse_matrix
from padiclie.padic_core import PrimeContext
ctxs = {}
for it in items:
    key = (it["p"], it["precision"])
    if key not in ctxs:
        ctxs[key] = PrimeContext(*key)
    parse_matrix(it["matrix"], ctxs[key])
print(time.perf_counter() - t0)
"""
SETUP_CLI = """
import time
t0 = time.perf_counter()
import padiclie.cli
print(time.perf_counter() - t0)
"""


def setup_seconds(workload, items):
    """Import the program and make the inputs ready in a fresh interpreter."""
    if workload == "cli":
        r = run_child(["-c", SETUP_CLI])
    else:
        payload = [{"p": it["p"], "precision": it["precision"], "matrix": it["matrix"]}
                   for it in items]
        r = run_child(["-c", SETUP_LIBRARY], stdin=json.dumps(payload))
    if r.returncode != 0:
        sys.exit(f"bench: set-up child failed: {r.stderr.strip()}")
    return float(r.stdout.strip())


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def scalar_ints(M, p, k):
    """Integers congruent to the entries of an integral Mat modulo p^k."""
    out = []
    for row in M.data:
        vals = []
        for x in row:
            if x.is_zero():
                vals.append(0)
                continue
            require(x.val >= 0 and x.val + x.prec >= k, f"entry {x!r} not known mod p^{k}")
            vals.append(x.unit * p**x.val)
        out.append(vals)
    return out


def check_program_certificate(ve, is_morphism, ints, p):
    """is_morphism accepted the certificate, and so do the integer checks."""
    require(is_morphism is True, "is_morphism rejected the program's own certificate")
    k = CERT_K + 1
    checks.check_certificate(ints, scalar_ints(ve.domain, p, k), scalar_ints(ve.phi, p, k),
                             p, CERT_K)


def prepare(pkg, items):
    """PrimeContext and parse_matrix for every input: the workload's set-up."""
    ctxs = {}
    algs = []
    for it in items:
        key = (it["p"], it["precision"])
        if key not in ctxs:
            ctxs[key] = pkg.PrimeContext(*key)
        algs.append(pkg.Algebra(pkg.parse_matrix(it["matrix"], ctxs[key])))
    return algs


def analyze_ops(pkg, items):
    ops = []
    for it, alg in zip(items, prepare(pkg, items)):
        def call(alg=alg):
            cf = pkg.canonical_form(alg)
            e = pkg.eta(alg.matrix)
            sr = pkg.sigma_bounds(cf)
            gr = pkg.group_report(alg)
            ve = ok = None
            if sr.index_p_self_similar:
                ve = pkg.construct_simple_ve(alg)
                ok = pkg.is_morphism(ve)
            return cf, e, sr, gr, ve, ok

        def check(out, it=it):
            cf, e, sr, gr, ve, ok = out
            p, d = it["p"], it["diag"]
            checks.check_canonical((cf.family, cf.s, cf.eps), d, p)
            checks.check_eta(e.eta, d, p)
            yes = sr.index_p_self_similar
            checks.check_decision(yes, d, p)
            checks.check_sigma(sr.sigma_lower, sr.sigma_upper, yes)
            checks.check_same((sr.eta, gr.index_p_self_similar, gr.family, gr.qp_type),
                              (e.eta, yes, cf.family, "sl2" if e.eta == 0 else "sl1d"),
                              "sigma report and group report")
            if yes:
                check_program_certificate(ve, ok, it["ints"], p)

        ops.append(Op(f"analyze/{it['kind']}/p{it['p']}", 1, call, check))
    return ops


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def enumerate_ops(pkg, items):
    ops = []
    pair_counts = {}  # pair -> closed count of its diagonal member, this pass
    algs = prepare(pkg, items)
    for it, alg in zip(items, algs):
        p, d, kind = it["p"], it["diag"], it["kind"]
        diagonal = it["ints"] == inputs.diag(d)
        if kind == "index_p":
            def call(alg=alg):
                return [(r.xi.class_index(), r.closed, r.sub_s)
                        for r in pkg.enumerate_index_p(alg)]

            def check(reports, it=it, p=p, d=d, diagonal=diagonal):
                checks.check_index_p_reports(reports, p, d if diagonal else None)
                count = sum(1 for r in reports if r[1])
                agree_with_pair(pair_counts, it["pair"], count, diagonal)
                if diagonal and checks.nss(d, p):
                    s = tuple(checks.vp(x, p) for x in d)
                    checks.check_same(count, checks.closed_count_nss(s, p), "closed count")

            ops.append(Op(f"enumerate/index_p/p{p}", checks.sublattice_count(p, 1), call, check))
        elif kind == "index_p2":
            def call(alg=alg):
                return len(pkg.subalgebras.enumerate_index_p2(alg))

            def check(count, it=it, p=p, d=d, diagonal=diagonal):
                checks.check_index_p2_count(count, p, d)
                agree_with_pair(pair_counts, it["pair"], count, diagonal)

            ops.append(Op(f"enumerate/index_p2/p{p}", checks.index_p2_count(p), call, check))
        else:
            ve = pkg.construct_simple_ve(alg)
            check_program_certificate(ve, pkg.is_morphism(ve), it["ints"], p)
            depth, bound = inputs.CERT_DEPTH, inputs.CERT_BOUND

            def regularity(ve=ve):
                return pkg.regularity_check(ve, depth)

            def check_regular(rep):
                require(rep.regular and rep.index_exponents == (1,) * depth,
                        f"domain chain indices {rep.index_exponents} of a simple certificate")

            def search(ve=ve):
                return pkg.invariant_ideal_search(ve, bound)

            def check_search(witness):
                require(witness is None, "a simple certificate has an invariant ideal")

            ops.append(Op(f"enumerate/regularity/p{p}", depth + 1, regularity, check_regular))
            units = sum(checks.sublattice_count(p, j) for j in range(1, bound + 1))
            ops.append(Op(f"enumerate/ideal_search/p{p}", units, search, check_search))
    return ops


def agree_with_pair(pair_counts, pair, count, diagonal):
    """An orbit representative and its diagonal form count alike."""
    if diagonal:
        pair_counts[pair] = count
    else:
        checks.check_same(count, pair_counts[pair], "subalgebra count of orbit and diagonal")


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def literal_ints(rows, p):
    """Integer values of output literals "u*p^v" and "n"."""
    def value(t):
        if "*p^" in t:
            u, v = t.split("*p^")
            return int(u) * p ** int(v)
        require("/" not in t, f"non-integral literal {t}")
        return int(t)
    return [[value(t) for t in row] for row in rows]


def check_canonical_json(c, d, p):
    checks.check_canonical((c["family"], c["s"], c["eps"]), d, p)
    checks.check_eta(c["eta"], d, p)
    checks.check_same(c["qp_type"], "sl2" if c["eta"] == 0 else "sl1d", "qp_type")


def check_selfsim_json(o, d, p, ints):
    sel = o["selfsim"]
    yes = sel["index_p_self_similar"]
    checks.check_decision(yes, d, p)
    checks.check_sigma(sel["sigma_lower_exponent"], sel["sigma_upper_exponent"], yes)
    if ints is None:
        return yes
    if yes:
        cert = o["certificate"]
        require(cert["is_morphism"] is True, "certificate reported as not a morphism")
        checks.check_certificate(ints, literal_ints(cert["domain"], p),
                                 literal_ints(cert["phi"], p), p, CERT_K)
    else:
        require("obstruction" in o and "certificate" not in o, "decide-no without obstruction")
    return yes


def check_cli_output(cmd, stdout):
    """JSON fields of one successful command against the checks."""
    o = json.loads(stdout)
    argv, p, d = cmd["argv"], cmd["p"], cmd["diag"]
    kind = argv[0]
    if kind == "classify":
        check_canonical_json(o, d, p)
    elif kind == "eta":
        checks.check_eta(o["eta"], d, p)
        checks.check_same(o["qp_type"], "sl2" if o["eta"] == 0 else "sl1d", "qp_type")
    elif kind == "selfsim":
        check_canonical_json(o["canonical"], d, p)
        check_selfsim_json(o, d, p, cmd["ints"])
    elif kind == "report":
        check_canonical_json(o["canonical"], d, p)
        check_selfsim_json(o, d, p, None)
        g = o["group"]
        checks.check_same((g["family"], g["qp_type"]),
                          (o["canonical"]["family"], o["canonical"]["qp_type"]), "group report")
    elif kind == "subalgebras":
        reports = [(r["class"], r["is_subalgebra"], r["sub_s_invariants"])
                   for r in o["subalgebras"]]
        checks.check_same(o["count"], len(reports), "subalgebras count")
        checks.check_index_p_reports(reports, p)
        if checks.nss(d, p):
            s = tuple(checks.vp(x, p) for x in d)
            closed = sum(1 for r in reports if r[1])
            checks.check_same(closed, checks.closed_count_nss(s, p), "closed count")
    elif kind == "lcs":
        s = list(checks.canonical_of_diagonal(d, p)[1])
        checks.check_same(o["s"], s, "lcs s-invariants")
        checks.check_same((len(o["gamma_exponents"]), o["gamma_exponents"][0]),
                          (cmd["depth"], s), "gamma_1 exponents")
    elif kind == "named":
        check_canonical_json(o["canonical"], d, p)
        check_selfsim_json(o, d, p, None)
        checks.check_same(o["conjectured"], o["canonical"]["eta"] == 1, "conjectured flag")
    elif kind == "endo":
        action = argv[1]
        if action == "check":
            want = checks.is_morphism_mod(cmd["ints"], cmd["domain"], cmd["phi"], p, CERT_K)
            checks.check_same((o["is_morphism"], o["index_exponent"]), (want, 1), "endo check")
        elif action == "chain":
            depth = cmd["depth"]
            checks.check_same((len(o["chain"]), o["index_exponents"], o["regular"]),
                              (depth + 1, [1] * depth, True), "endo chain")
        else:
            checks.check_same((o["witness"], o["simple_up_to_bound"]), (None, True), "endo search")
    elif kind == "selftest":
        require(o["passed"] is True, "selftest did not pass")
        for name, r in o["results"].items():
            checks.check_same(r["passed"], r["trials"], f"selftest {name}")
    else:
        raise CheckFailed(f"unknown command {kind}")


def cli_process_ops(items):
    """Each command as a fresh `python -S -m padiclie.cli` process."""
    ops = []
    for cmd in items:
        def call(cmd=cmd):
            r = run_child(["-m", "padiclie.cli", *cmd["argv"]])
            return cli_result(r.returncode, r.stdout, r.stderr)

        def check(stdout, cmd=cmd):
            check_cli_output(cmd, stdout)

        ops.append(Op(cli_op_name(cmd), 1, call, check))
    return ops


def cli_result(code, stdout, stderr):
    """stdout of a successful command; Failure for a documented error exit.

    The CLI documents exit codes 2 to 5 for errors; any other code is a
    wrong answer."""
    if code == 0:
        return stdout
    require(code in (2, 3, 4, 5), f"undocumented exit code {code}: {stderr.strip()[-300:]}")
    raise Failure(f"exit {code}: {stderr.strip()}")


def cli_op_name(cmd):
    """cli/<subcommand>, with the endo action or the expected decision."""
    argv = cmd["argv"]
    if argv[0] == "endo":
        return f"cli/endo/{argv[1]}"
    if argv[0] == "selfsim":
        yes = checks.index_p_expected(*[checks.canonical_of_diagonal(cmd["diag"], cmd["p"])[i]
                                        for i in (0, 2)])
        return f"cli/selfsim/{'yes' if yes else 'no'}"
    return f"cli/{argv[0]}"


def cli_inprocess_ops(pkg, items, out_bytes):
    """The same commands through cli.main(argv) in this process.

    out_bytes[i] receives the size of command i's JSON output."""
    ops = []
    for i, cmd in enumerate(items):
        def call(i=i, cmd=cmd):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = pkg.cli.main(list(cmd["argv"]))
            out_bytes[i] = len(out.getvalue().encode())
            return cli_result(code, out.getvalue(), err.getvalue())

        def check(stdout, cmd=cmd):
            check_cli_output(cmd, stdout)

        ops.append(Op(cli_op_name(cmd), 1, call, check))
    return ops


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------


class Runner:
    """Runs whole passes over the operations and keeps each one's best time.

    errors are the exception types that mean the program reported an error:
    such an operation counts as failed, not as a wrong answer."""

    def __init__(self, ops, errors):
        self.ops = ops
        self.errors = (Failure, *errors)
        self.best = [float("inf")] * len(ops)
        self.failures = {}  # operation index -> last error message
        self.attempted = 0
        self.failed = 0

    def run_once(self, i):
        op = self.ops[i]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.call()
        except self.errors as exc:
            self.failed += 1
            self.failures[i] = f"{op.name}: {exc!r}"
            return None
        dt = time.perf_counter() - t0
        try:
            op.check(out)
        except (CheckFailed, KeyError, TypeError, ValueError) as exc:
            raise CheckFailed(f"{op.name} (operation {i}): {exc!r}") from exc
        return dt

    def run_pass(self):
        for i in range(len(self.ops)):
            dt = self.run_once(i)
            if dt is not None:
                self.best[i] = min(self.best[i], dt)

    def measure(self, seconds, between_passes=None):
        """Warm-up pass, then timed passes until seconds have passed."""
        for i in range(len(self.ops)):
            self.run_once(i)
        # attempted and failed count whole timed passes only, so the failed
        # share is the same in every run
        self.attempted = self.failed = 0
        start = time.perf_counter()
        passes = 0
        while passes < MIN_PASSES or time.perf_counter() - start < seconds:
            self.run_pass()
            passes += 1
            if between_passes:
                between_passes((time.perf_counter() - start) / seconds)
        return passes

    def ok_times(self):
        return [t for i, t in enumerate(self.best) if i not in self.failures]

    def ok_units(self):
        return sum(op.units for i, op in enumerate(self.ops) if i not in self.failures)


def percentile(values, q):
    """q-th percentile (0..100) by linear interpolation between ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class SetupSampler:
    """Times SETUP_RUNS fresh set-ups, spread evenly over the run."""

    def __init__(self, workload, items):
        self.workload, self.items, self.times = workload, items, []

    def __call__(self, progress):
        while len(self.times) < SETUP_RUNS and progress >= len(self.times) / SETUP_RUNS:
            self.times.append(setup_seconds(self.workload, self.items))

    def finish(self):
        while len(self.times) < SETUP_RUNS:
            self.times.append(setup_seconds(self.workload, self.items))
        return min(self.times)


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def build_ops(pkg, workload, items, out_bytes=None):
    if workload == "analyze":
        return analyze_ops(pkg, items)
    if workload == "enumerate":
        return enumerate_ops(pkg, items)
    return cli_inprocess_ops(pkg, items, out_bytes or [0] * len(items))


def end_to_end(pkg, workload, items, seconds):
    runner = Runner(build_ops(pkg, workload, items), (pkg.PadicLieError,))
    sampler = SetupSampler(workload, items)
    passes = runner.measure(seconds, sampler)
    setup = sampler.finish()
    times = runner.ok_times()
    metrics = {
        "work_per_s": runner.ok_units() / sum(times),
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_p90_ms": percentile(times, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup,
    }
    info = {"passes": passes, "operations": len(runner.ops),
            "failures": sorted(runner.failures.values())}
    return runner, metrics, info


def traced(pkg, workload, items, seconds):
    """Untraced passes for reference, then one traced set-up and pass.

    The traced part is the same work on every run with the same seed, so
    its counts repeat exactly.  Returns the per-layer metrics and a summary
    for the trace file."""
    from layertrace import Tracer

    out_bytes = [0] * len(items)
    reference = Runner(build_ops(pkg, workload, items, out_bytes), (pkg.PadicLieError,))
    reference.measure(seconds / 2)
    tracer = Tracer(pkg)
    tracer.install()
    try:
        # traced set-up (contexts, parsing, certificates) and one traced pass
        runner = Runner(build_ops(pkg, workload, items), (pkg.PadicLieError,))
        per_op, traced_time = [], 0.0
        for i in range(len(runner.ops)):
            before = tracer.snapshot()
            traced_time += runner.run_once(i) or 0.0
            after = tracer.snapshot()
            per_op.append({k: v - before.get(k, 0) for k, v in after.items()
                           if v != before.get(k, 0)})
    finally:
        tracer.uninstall()
    spans = tracer.summary()
    units = runner.ok_units()
    metrics = {}
    for metric, span, field in SPAN_METRICS:
        metrics[metric] = spans.get(span, {}).get(field, 0) / units
    for metric, name in COUNT_METRICS:
        metrics[metric] = tracer.counts.get(name, 0) / units
    p2_sublattices = sum(op.units for op in runner.ops if "/index_p2/" in op.name)
    composites = tracer.children_of("subalgebras.enumerate_index_p2", "normal_forms.hnf_columns")
    metrics["subalgebras.p2_composites_per_sublattice"] = (
        composites / p2_sublattices if p2_sublattices else 0.0
    )
    attempted = reference.attempted + runner.attempted
    failed = reference.failed + runner.failed
    if workload == "cli":
        processes = Runner(cli_process_ops(items), ())
        processes.run_pass()
        attempted += processes.attempted
        failed += processes.failed
        metrics.update(cli_reference_metrics(reference, processes, out_bytes))
    else:
        metrics.update({m: 0.0 for m in CLI_METRICS})
    untraced_time = sum(reference.ok_times())
    summary = {
        "workload": workload,
        "units": units,
        "untraced_pass_s": untraced_time,
        "traced_pass_s": traced_time,
        "overhead_ratio": traced_time / untraced_time,
        "spans": spans,
        "counts": dict(sorted(tracer.counts.items())),
        "calls_per_operation_kind": calls_by_kind(runner.ops, per_op),
    }
    return attempted, failed, metrics, summary, tracer


def calls_by_kind(ops, per_op):
    """Mean calls per operation of each kind (cli: subcommand and action)."""
    groups = {}
    for op, counts in zip(ops, per_op):
        groups.setdefault(op.name, []).append(counts)
    out = {}
    for kind, rows in sorted(groups.items()):
        names = sorted({k for r in rows for k in r})
        out[kind] = {"operations": len(rows),
                     **{k: sum(r.get(k, 0) for r in rows) / len(rows) for k in names}}
    return out


def cli_reference_metrics(reference, processes, out_bytes):
    """Start-up and process figures of the cli workload."""
    imports, bare = [], []
    for _ in range(REF_RUNS):
        imports.append(setup_seconds("cli", None))
        t0 = time.perf_counter()
        r = run_child(["-c", "pass"])
        bare.append(time.perf_counter() - t0)
        require(r.returncode == 0, "bare interpreter failed")
    ok = [b for i, b in enumerate(out_bytes) if i not in reference.failures]
    return {
        "cli.import_ms": min(imports) * 1e3,
        "cli.main_ms": statistics.mean(reference.ok_times()) * 1e3,
        "cli.interpreter_ms": min(bare) * 1e3,
        "cli.process_ms": statistics.mean(processes.ok_times()) * 1e3,
        "cli.json_bytes": statistics.mean(ok),
    }


def per_layer_units():
    units = {}
    for metric, _span, _field in SPAN_METRICS:
        units[metric] = "ms/op" if metric.endswith("_ms") else "calls/op"
    for metric, _name in COUNT_METRICS:
        units[metric] = "calls/op"
    units["subalgebras.p2_composites_per_sublattice"] = "ratio"
    units.update({"cli.import_ms": "ms", "cli.main_ms": "ms/op", "cli.interpreter_ms": "ms",
                  "cli.process_ms": "ms/op", "cli.json_bytes": "bytes/op"})
    return units


def main(argv=None):
    ap = argparse.ArgumentParser(description="padiclie benchmark")
    ap.add_argument("--workload", choices=sorted(inputs.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    pkg = load_program()
    items = inputs.WORKLOADS[args.workload](args.seed)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            attempted, failed, values, summary, tracer = traced(
                pkg, args.workload, items, args.seconds)
            units = per_layer_units()
            tracer.write_spans(os.path.join(OUT, f"spans-{tag}.tsv"))
            with open(os.path.join(OUT, f"trace-{tag}.json"), "w") as fh:
                json.dump(summary, fh, indent=1)
            print(f"trace overhead: traced pass {summary['traced_pass_s']:.3f} s, "
                  f"untraced {summary['untraced_pass_s']:.3f} s", file=sys.stderr)
        else:
            runner, values, info = end_to_end(pkg, args.workload, items, args.seconds)
            attempted, failed, units = runner.attempted, runner.failed, END_TO_END
            print(json.dumps(info), file=sys.stderr)
    except CheckFailed as exc:
        print(f"bench: wrong output: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
