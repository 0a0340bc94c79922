"""Outside-in tracing of padiclie's layers.

The tracer replaces public functions and methods of the package's modules
with wrappers, from outside the program.  A function that other modules
imported with ``from .x import f`` is rebound in every module namespace
that holds it, so internal calls are seen too.  Heavy call sites (matrix
and analysis functions) record a span each: name, start, end, parent span
and whether it is the outermost active call of that name.  The scalar
operations, called millions of times, are counted only.  Spans stay in
memory until the run ends; uninstall() restores every original.
"""

from __future__ import annotations

import functools
import inspect
import time

# (module, qualified name, metric prefix).  Methods are patched on their class.
SPANNED = (
    ("padic_core", "PrimeContext.__init__", "padic_core.prime_context"),
    ("normal_forms", "congruent_diagonalize", "normal_forms.congruent_diagonalize"),
    ("normal_forms", "Mat.det", "normal_forms.Mat.det"),
    ("normal_forms", "Mat.adjugate", "normal_forms.Mat.adjugate"),
    ("normal_forms", "Mat.__mul__", "normal_forms.Mat.mul"),
    ("normal_forms", "hnf_columns", "normal_forms.hnf_columns"),
    ("normal_forms", "snf", "normal_forms.snf"),
    ("normal_forms", "parse_matrix", "normal_forms.parse_matrix"),
    ("lattice", "change_of_basis", "lattice.change_of_basis"),
    ("classify", "canonical_form", "classify.canonical_form"),
    ("classify", "eta", "classify.eta"),
    ("subalgebras", "enumerate_index_p", "subalgebras.enumerate_index_p"),
    ("subalgebras", "enumerate_index_p2", "subalgebras.enumerate_index_p2"),
    ("subalgebras", "b_xi", "subalgebras.b_xi"),
    ("selfsim", "sigma_bounds", "selfsim.sigma_bounds"),
    ("selfsim", "construct_simple_ve", "selfsim.construct_simple_ve"),
    ("selfsim", "is_morphism", "selfsim.is_morphism"),
    ("selfsim", "domain_chain", "selfsim.domain_chain"),
    ("selfsim", "invariant_ideal_search", "selfsim.invariant_ideal_search"),
    ("catalog", "group_report", "catalog.group_report"),
    ("cli", "main", "cli.main"),
)
COUNTED = (
    ("padic_core", "PadicScalar.__mul__", "padic_core.mul"),
    ("padic_core", "PadicScalar.__add__", "padic_core.add"),
    ("padic_core", "PadicScalar.inv", "padic_core.inv"),
    ("padic_core", "PadicScalar.sqrt", "padic_core.sqrt"),
    # every candidate sublattice invariant_ideal_search builds comes from here
    ("subalgebras", "enumerate_sublattices", "selfsim.ideal_candidates"),
)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {
            name: getattr(package, name)
            for name in ("padic_core", "normal_forms", "lattice", "classify",
                         "subalgebras", "selfsim", "catalog", "cli")
        }
        self.spans = []  # (name, start, end, parent index, outermost)
        self.counts = {}
        self._stack = []
        self._active = {}
        self._restore = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name):
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            depth = active.get(name, 0)
            active[name] = depth + 1
            counts[name] = counts.get(name, 0) + 1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[name] = depth
                spans[idx] = (name, t0, t1, parent, depth == 0)

        return wrapper

    def _count(self, fn, name):
        counts = self.counts
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[name] = counts.get(name, 0) + 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        for table, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for module, qualname, name in table:
                self._patch(self.modules[module], qualname, name, make)

    def _patch(self, module, qualname, name, make):
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, make(orig, name))
            self._restore.append((cls, attr, orig))
            return
        orig = getattr(module, qualname)
        wrapped = make(orig, name)
        for holder in [self.package, *self.modules.values()]:
            for attr, value in list(vars(holder).items()):
                if value is orig:
                    setattr(holder, attr, wrapped)
                    self._restore.append((holder, attr, orig))

    def uninstall(self):
        for holder, attr, orig in reversed(self._restore):
            setattr(holder, attr, orig)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def snapshot(self):
        return dict(self.counts)

    def summary(self):
        """Per span name: calls, inclusive ms of outermost calls, self ms."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _outer in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _parent, outer) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            rec["calls"] += 1
            if outer:
                rec["ms"] += (t1 - t0) * 1e3
            rec["self_ms"] += (t1 - t0 - child_time[i]) * 1e3
        return out

    def children_of(self, parent_name, child_name):
        """Spans named child_name whose direct parent is named parent_name."""
        return sum(
            1
            for name, _t0, _t1, parent, _o in self.spans
            if name == child_name and parent >= 0 and self.spans[parent][0] == parent_name
        )

    def write_spans(self, path):
        """One line per span: index, name, start and duration in us, parent."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_us\tduration_us\tparent\n")
            for i, (name, t0, t1, parent, _o) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{(t0 - base) * 1e6:.1f}\t{(t1 - t0) * 1e6:.1f}\t{parent}\n")
