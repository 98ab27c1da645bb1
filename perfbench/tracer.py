"""Spans and counts at the public entry points of each ncfree module.

The tracer wraps functions and methods of the ncfree package from the
outside; the package itself carries no instrumentation.  A module-level
function is replaced in every ncfree module that binds it, because callers
look names up in their own module (cli imports names, reduction calls
nullspace through its globals).  Methods are replaced on their class.

Every wrapped call measures its duration and the part of it covered by
wrapped calls nested inside it; the difference is its self time.  Calls at
layer boundaries are also kept as spans (name, start, end, parent span,
job).  Calls made hundreds of thousands of times per job -- Scalar
arithmetic, NcPoly and tensor construction, moment lookups -- are only
counted and timed, so tracing costs memory per boundary crossing, not per
multiply.

A call counts once however deep it nests inside calls of the same probe:
Scalar.__sub__ adds through __add__, so one subtraction is one add call.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

#: methods whose calls are counted and timed but not kept as spans
HOT = "hot"
SPAN = "span"

TENSOR2_METHODS = (
    "__init__", "__add__", "__neg__", "__sub__", "__mul__", "__rmul__",
    "sharp", "flip", "star", "bimodule_mul", "collapse",
)
TENSOR3_METHODS = ("__init__", "__add__", "__neg__", "__sub__", "__mul__")


@dataclass
class PassStats:
    """What one traced pass over a job list recorded.

    `speed` converts the pass's raw times to reference seconds.
    """

    speed: float = 1.0
    calls: Counter = field(default_factory=Counter)
    self_ns: Counter = field(default_factory=Counter)
    sizes: Counter = field(default_factory=Counter)
    spans: list = field(default_factory=list)


def _relations_checked(args, result) -> int:
    n = args["cand"].spec.n
    return n * sum(n**length for length in range(args["degree"] + 1))


#: probe -> (count, its increment from the call's bound arguments and result)
SIZES = {
    "ncpoly.evaluate": ("ncpoly.evaluate_words", lambda args, result: len(args["self"].terms)),
    "derivations.d": ("derivations.d_terms_out", lambda args, result: len(result.terms)),
    "conjugate.check_conjugate": ("conjugate.relations_checked", _relations_checked),
    "reduction.gram": ("reduction.gram_entries", lambda args, result: len(args["words"]) ** 2),
    "reduction.nullspace": ("reduction.nullspace_n", lambda args, result: len(args["matrix"])),
    "reduction.relation_kernel": ("reduction.kernel_dim", lambda args, result: len(result)),
    "randmat.sample": (
        "randmat.matrices_sampled",
        lambda args, result: sum(len(mats) for mats in result),
    ),
}


class Tracer:
    """Installs wrappers on the ncfree modules and records one pass at a time."""

    def __init__(self, nc):
        self.stats = PassStats()
        self.job = None
        self.keep_spans = False
        self._stack: list[list] = []  # [start_ns, ns covered by nested calls]
        self._span_ids: list[int] = []
        self._depth: Counter = Counter()
        self._next_span = 0
        self._moment_words: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._patches: list[tuple[object, str, object, object]] = []
        self._plan(nc)

    # -- what to wrap ------------------------------------------------------

    def _plan(self, nc) -> None:
        scalar = nc.scalars.Scalar
        poly = nc.ncpoly.NcPoly
        functional = nc.trace.TraceFunctional
        methods = [
            ("scalars.add", HOT, scalar, "__add__"),
            ("scalars.add", HOT, scalar, "__radd__"),
            ("scalars.mul", HOT, scalar, "__mul__"),
            ("scalars.mul", HOT, scalar, "__rmul__"),
            ("scalars.div", HOT, scalar, "__truediv__"),
            ("ncpoly.init", HOT, poly, "__init__"),
            ("ncpoly.mul", HOT, poly, "__mul__"),
            ("ncpoly.mul", HOT, poly, "__rmul__"),
            ("ncpoly.evaluate", SPAN, poly, "evaluate"),
            *[("tensor", HOT, nc.tensor.TensorPoly2, m) for m in TENSOR2_METHODS],
            *[("tensor", HOT, nc.tensor.TensorPoly3, m) for m in TENSOR3_METHODS],
            ("trace.init", SPAN, functional, "__init__"),
            ("trace.moment", HOT, functional, "moment"),
            ("trace.trace_tensor", SPAN, functional, "trace_tensor"),
            ("trace.trace_poly", SPAN, functional, "trace_poly"),
            ("trace.partial_trace", SPAN, functional, "partial_trace"),
        ]
        functions = [
            ("derivations.d", nc.derivations.d),
            ("conjugate.check_conjugate", nc.conjugate.check_conjugate),
            ("conjugate.fisher", nc.conjugate.fisher),
            ("conjugate.duality", nc.conjugate.check_duality),
            ("reduction.gram", nc.reduction.gram_matrix),
            ("reduction.nullspace", nc.reduction.nullspace),
            ("reduction.relation_kernel", nc.reduction.relation_kernel),
            ("randmat.sample", nc.randmat.sample),
            ("randmat.spectrum", nc.randmat.spectrum),
            ("randmat.atom_scan", nc.randmat.atom_scan),
            ("randmat.max_window_mass", nc.randmat.max_window_mass),
            ("randmat.opnorm", nc.randmat.opnorm_estimate),
            ("randmat.margins", nc.randmat.empirical_margins),
            ("cli.load_spec", nc.cli.load_spec_file),
            ("cli.main", nc.cli.main),
            ("cli.emit", nc.cli.emit),
        ]
        for probe, kind, owner, attr in methods:
            original = owner.__dict__[attr]
            wrapper = self._wrap(probe, kind, original)
            self._patches.append((owner, attr, original, wrapper))
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "ncfree" or name.startswith("ncfree.")
        ]
        for probe, original in functions:
            wrapper = self._wrap(probe, SPAN, original)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    @contextmanager
    def installed(self):
        """Wrap ncfree for the duration of the block; restore it afterwards."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    # -- recording -----------------------------------------------------------

    def start_pass(self, keep_spans: bool) -> None:
        self.stats = PassStats()
        self.keep_spans = keep_spans
        self._next_span = 0
        self._moment_words = weakref.WeakKeyDictionary()

    def _wrap(self, probe: str, kind: str, fn):
        tracer = self
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter_ns
        size_name, size = SIZES.get(probe, (None, None))
        signature = inspect.signature(fn) if size else None
        moment = probe == "trace.moment"
        keeps_span = kind == SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = tracer.stats
            outer = depth[probe] == 0
            depth[probe] += 1
            if moment and outer:
                tracer._note_moment(args[0], args[1])
            span_id = None
            if keeps_span and tracer.keep_spans:
                span_id = tracer._next_span
                tracer._next_span += 1
                tracer._span_ids.append(span_id)
            frame = [clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[probe] -= 1
                elapsed = end - frame[0]
                own = elapsed - frame[1]
                stats.self_ns[probe] += own
                if stack:
                    stack[-1][1] += elapsed
                if outer:
                    stats.calls[probe] += 1
                if span_id is not None:
                    tracer._span_ids.pop()
                    parent = tracer._span_ids[-1] if tracer._span_ids else None
                    stats.spans.append((span_id, probe, frame[0], end, parent, tracer.job, own))
            if size is not None and outer:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                stats.sizes[size_name] += size(bound.arguments, result)
            return result

        return wrapper

    def _note_moment(self, functional, word) -> None:
        seen = self._moment_words.setdefault(functional, set())
        word = tuple(word)
        if word not in seen:
            seen.add(word)
            self.stats.sizes["trace.moment_distinct"] += 1


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _calls(probe):
    return lambda s: s.calls[probe]


def _size(key):
    return lambda s: s.sizes[key]


def _self_s(*probes):
    return lambda s: sum(s.self_ns[p] for p in probes) / 1e9


def _reuse_ratio(s: PassStats) -> float:
    calls = s.calls["trace.moment"]
    return 1.0 - s.sizes["trace.moment_distinct"] / calls if calls else 0.0


EXACT = "exact-conjugate, exact-relations"

#: metric -> (unit, value of one pass, end-to-end metric it should move,
#: workload where the layer dominates; its share elsewhere is near zero)
PER_LAYER = {
    "scalars.add_calls": ("count", _calls("scalars.add"), "jobs_per_s, job_s.p50", EXACT),
    "scalars.mul_calls": ("count", _calls("scalars.mul"), "jobs_per_s, job_s.p50", EXACT),
    "scalars.div_calls": ("count", _calls("scalars.div"), "jobs_per_s, job_s.p50", EXACT),
    "scalars.self_s": ("s", _self_s("scalars.add", "scalars.mul", "scalars.div"),
                       "jobs_per_s, job_s.p50", EXACT),
    "ncpoly.init_calls": ("count", _calls("ncpoly.init"), "jobs_per_s", "exact-conjugate"),
    "ncpoly.init_self_s": ("s", _self_s("ncpoly.init"), "jobs_per_s", "exact-conjugate"),
    "ncpoly.mul_calls": ("count", _calls("ncpoly.mul"), "jobs_per_s", "exact-conjugate"),
    "ncpoly.mul_self_s": ("s", _self_s("ncpoly.mul"), "jobs_per_s", "exact-conjugate"),
    "ncpoly.evaluate_calls": ("count", _calls("ncpoly.evaluate"), "jobs_per_s, job_s.p50", "matrix-lab"),
    "ncpoly.evaluate_words": ("count", _size("ncpoly.evaluate_words"), "jobs_per_s, job_s.p50", "matrix-lab"),
    "ncpoly.evaluate_self_s": ("s", _self_s("ncpoly.evaluate"), "jobs_per_s, job_s.p50", "matrix-lab"),
    "tensor.calls": ("count", _calls("tensor"), "jobs_per_s", "exact-conjugate"),
    "tensor.self_s": ("s", _self_s("tensor"), "jobs_per_s", "exact-conjugate"),
    "derivations.d_calls": ("count", _calls("derivations.d"), "job_s.p50", "exact-conjugate"),
    "derivations.d_terms_out": ("count", _size("derivations.d_terms_out"), "job_s.p50", "exact-conjugate"),
    "derivations.d_self_s": ("s", _self_s("derivations.d"), "job_s.p50", "exact-conjugate"),
    "trace.init_self_s": ("s", _self_s("trace.init"), "jobs_per_s", "exact-relations"),
    "trace.moment_calls": ("count", _calls("trace.moment"), "jobs_per_s", EXACT),
    "trace.moment_distinct": ("count", _size("trace.moment_distinct"), "jobs_per_s", EXACT),
    "trace.moment_reuse_ratio": ("ratio", _reuse_ratio, "jobs_per_s", EXACT),
    "trace.moment_self_s": ("s", _self_s("trace.moment"), "jobs_per_s", EXACT),
    "trace.trace_tensor_self_s": ("s", _self_s("trace.trace_tensor"), "jobs_per_s", "exact-conjugate"),
    "trace.trace_poly_self_s": ("s", _self_s("trace.trace_poly"), "jobs_per_s", "exact-conjugate"),
    "trace.partial_trace_self_s": ("s", _self_s("trace.partial_trace"), "jobs_per_s", "exact-conjugate"),
    "conjugate.check_conjugate_calls": ("count", _calls("conjugate.check_conjugate"), "job_s.p50", "exact-conjugate"),
    "conjugate.relations_checked": ("count", _size("conjugate.relations_checked"), "job_s.p50", "exact-conjugate"),
    "conjugate.check_conjugate_self_s": ("s", _self_s("conjugate.check_conjugate"), "job_s.p50", "exact-conjugate"),
    "conjugate.fisher_self_s": ("s", _self_s("conjugate.fisher"), "job_s.p50", "exact-conjugate"),
    "conjugate.duality_self_s": ("s", _self_s("conjugate.duality"), "job_s.p50", "exact-conjugate"),
    "reduction.gram_entries": ("count", _size("reduction.gram_entries"), "job_s.p90, jobs_per_s", "exact-relations"),
    "reduction.gram_self_s": ("s", _self_s("reduction.gram"), "job_s.p90, jobs_per_s", "exact-relations"),
    "reduction.nullspace_n": ("count", _size("reduction.nullspace_n"), "job_s.p90, jobs_per_s", "exact-relations"),
    "reduction.nullspace_self_s": ("s", _self_s("reduction.nullspace"), "job_s.p90, jobs_per_s", "exact-relations"),
    "reduction.kernel_dim": ("count", _size("reduction.kernel_dim"), "job_s.p90, jobs_per_s", "exact-relations"),
    "reduction.relation_kernel_self_s": ("s", _self_s("reduction.relation_kernel"),
                                         "job_s.p90, jobs_per_s", "exact-relations"),
    "randmat.matrices_sampled": ("count", _size("randmat.matrices_sampled"),
                                 "jobs_per_s, job_s.p90, peak_rss_mb", "matrix-lab"),
    "randmat.sample_self_s": ("s", _self_s("randmat.sample"), "jobs_per_s, job_s.p90", "matrix-lab"),
    "randmat.spectrum_self_s": ("s", _self_s("randmat.spectrum"), "jobs_per_s, job_s.p90", "matrix-lab"),
    "randmat.atom_scan_self_s": ("s", _self_s("randmat.atom_scan"), "jobs_per_s, job_s.p90", "matrix-lab"),
    "randmat.max_window_mass_self_s": ("s", _self_s("randmat.max_window_mass"),
                                       "jobs_per_s, job_s.p90", "matrix-lab"),
    "randmat.opnorm_self_s": ("s", _self_s("randmat.opnorm"), "jobs_per_s, job_s.p90", "matrix-lab"),
    "randmat.margins_self_s": ("s", _self_s("randmat.margins"), "jobs_per_s, job_s.p90", "matrix-lab"),
    "cli.load_spec_self_s": ("s", _self_s("cli.load_spec"), "job_s.p50", "matrix-lab"),
    "cli.main_self_s": ("s", _self_s("cli.main"), "job_s.p50", "matrix-lab"),
    "cli.emit_self_s": ("s", _self_s("cli.emit"), "job_s.p50", "matrix-lab"),
    # added by the job runner: the stdout payload is what emit wrote
    "cli.emit_bytes": ("count", _size("cli.emit_bytes"), "job_s.p50", "matrix-lab"),
}


def layer_metrics(passes: list[PassStats]) -> dict[str, float]:
    """Counts from the first pass; times at reference speed, median over all passes."""
    values = {}
    for name, (unit, value, _, _) in PER_LAYER.items():
        if unit == "s":
            values[name] = statistics.median(value(s) * s.speed for s in passes)
        else:
            values[name] = value(passes[0])
    return values
