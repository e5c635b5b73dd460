"""Per-layer spans and work counters, installed from outside the package.

`install(tracer)` wraps the public functions of each berger_lab module and
rebinds every module-level name that refers to one of them, including names
imported by value (`from .exactlin import sparse_nullspace`), the
`harness.ALL_CHECKS` table and class attributes.  A layer's self time is the
wall time of its spans minus the time of the spans they caused.  Counters
are exact integers, so two traced runs of one commit give equal counters.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute, span name); several attributes may share one span
SPANS = (
    ("quatspace", "build_space", "quatspace.build_space"),
    ("liealg", "algebra_by_name", "liealg.construct"),
    ("liealg", "build_sp", "liealg.construct"),
    ("liealg", "build_sp_parabolic", "liealg.construct"),
    ("liealg", "build_sp1", "liealg.construct"),
    ("liealg", "build_glq", "liealg.construct"),
    ("liealg", "build_h0", "liealg.construct"),
    ("liealg", "direct_sum", "liealg.construct"),
    ("liealg", "stabilizer_of_subspace", "liealg.stabilizer_of_subspace"),
    ("exactlin", "sparse_nullspace", "exactlin.sparse_nullspace"),
    ("exactlin", "canonical_rows", "exactlin.canonical_rows"),
    ("exactlin", "span_of", "exactlin.span_of"),
    ("curvature", "bianchi_kernel", "curvature.bianchi_kernel"),
    ("curvature", "CurvatureSpace.from_json", "curvature.CurvatureSpace.from_json"),
    ("curvature", "CurvatureSpace.coefficient_subspace",
     "curvature.coefficient_subspace"),
    ("curvature", "coefficients_over", "curvature.coefficients_over"),
    ("curvature", "pair_symmetry_all", "curvature.pair_symmetry_all"),
    ("curvature", "act", "curvature.act"),
    ("curvature", "build_r0", "curvature.build_r0"),
    ("curvature", "derivative_space", "curvature.derivative_space"),
    ("prolong", "first_prolongation", "prolong.first_prolongation"),
    ("prolong", "second_prolongation", "prolong.second_prolongation"),
    ("berger", "berger_report", "berger.berger_report"),
    ("berger", "holonomy_case_split", "berger.holonomy_case_split"),
    ("harness", "cache_get", "harness.cache_get"),
    ("harness", "cache_put", "harness.cache_put"),
    ("cli", "main", "cli.main"),
)

ROWS_SPAN = "exactlin.sparse_nullspace(rows)"  # pulls from the caller's row generator

COUNTERS = (
    "exactlin.sparse_nullspace.rows",
    "exactlin.sparse_nullspace.row_nnz",
    "exactlin.sparse_nullspace.ncols",
    "exactlin.sparse_nullspace.kernel_dim",
    "exactlin.sparse_nullspace.out_max_bits",
    "harness.cache_get.hits",
    "harness.cache_get.misses",
    "harness.cache_get.bytes",
    "harness.cache_put.bytes",
)


class Tracer:
    """Span stack, per-span self and total time, call counts and counters."""

    def __init__(self):
        self.stack = [[0.0]]  # one cell per open span: time of its children
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counters = Counter()

    def _close(self, name, frame, t0, t_end):
        dt = t_end - t0
        self.stack.pop()
        self.self_s[name] += dt - frame[0]
        self.total_s[name] += dt
        self.calls[name] += 1

    def wrap(self, fn, name, after=None, before=None):
        """`fn` inside a span.  `before(args, kwargs)` may replace the
        arguments; `after(args, kwargs, result)` updates counters.  Neither
        hook's time is charged to the span or to its parent."""

        def traced(*args, **kwargs):
            t_outer = time.perf_counter()
            if before is not None:
                args, kwargs = before(args, kwargs)
            frame = [0.0]
            self.stack.append(frame)
            returned = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                self._close(name, frame, t0, time.perf_counter())
                if returned and after is not None:
                    after(args, kwargs, result)
                self.stack[-1][0] += time.perf_counter() - t_outer
            return result

        return functools.wraps(fn)(traced)

    def timed_rows(self, rows):
        """Yield `rows`, timing each pull as a child span of the caller.
        The caller is credited up to just before each yield, so the
        bookkeeping between pulls is charged to no span."""
        it = iter(rows)
        while True:
            frame = [0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                row = next(it)
            except StopIteration:
                row = None
            finally:
                self._close(ROWS_SPAN, frame, t0, time.perf_counter())
            if row is not None:
                self.counters["exactlin.sparse_nullspace.rows"] += 1
                self.counters["exactlin.sparse_nullspace.row_nnz"] += len(row)
            self.stack[-1][0] += time.perf_counter() - t0
            if row is None:
                return
            yield row


def _max_bits(vectors) -> int:
    bits = 0
    for vec in vectors:
        for v in vec.values():
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return bits


def _hooks(tracer: Tracer, harness):
    counters = tracer.counters

    def nullspace_before(args, kwargs):
        rows, *rest = args
        return (tracer.timed_rows(rows), *rest), kwargs

    def nullspace_after(args, kwargs, result):
        counters["exactlin.sparse_nullspace.ncols"] += args[1]
        counters["exactlin.sparse_nullspace.kernel_dim"] += len(result)
        key = "exactlin.sparse_nullspace.out_max_bits"
        counters[key] = max(counters[key], _max_bits(result))

    def cache_path(args):
        cache_dir, space, name = args[:3]
        return Path(cache_dir) / (
            harness.cache_key(space.r, space.s, space.t, name) + ".json")

    def cache_get_after(args, kwargs, result):
        if args[0] is None:
            return
        if result is None:
            counters["harness.cache_get.misses"] += 1
        else:
            counters["harness.cache_get.hits"] += 1
            counters["harness.cache_get.bytes"] += cache_path(args).stat().st_size

    def cache_put_after(args, kwargs, result):
        if args[0] is not None:
            counters["harness.cache_put.bytes"] += cache_path(args).stat().st_size

    return {
        "exactlin.sparse_nullspace": (nullspace_before, nullspace_after),
        "harness.cache_get": (None, cache_get_after),
        "harness.cache_put": (None, cache_put_after),
    }


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "berger_lab" or n.startswith("berger_lab."))]


def install(tracer: Tracer) -> None:
    """Wrap every function in SPANS and each check in harness.ALL_CHECKS,
    rebinding all module-level and class-level references to them.  Raises
    if a listed function is missing.  References held elsewhere (in a dict,
    a closure or a default argument) are not rebound; the driver's check
    that every expected layer recorded calls is what catches those."""
    import berger_lab.cli  # noqa: F401  (loads every module of the package)
    from berger_lab import harness

    hooks = _hooks(tracer, harness)
    modules = _package_modules()
    replaced = {}  # id(original) -> (original, wrapper)
    for mod_name, attr, span in SPANS:
        module = sys.modules[f"berger_lab.{mod_name}"]
        before, after = hooks.get(span, (None, None))
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = tracer.wrap(raw.__func__, span, after, before)
                setattr(cls, meth, classmethod(wrapped))
            else:
                setattr(cls, meth, tracer.wrap(raw, span, after, before))
            continue
        original = getattr(module, attr)
        replaced[id(original)] = (original,
                                  tracer.wrap(original, span, after, before))
    for module in modules:
        for name, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, name, hit[1])
    harness.ALL_CHECKS = tuple(
        (check_id, tracer.wrap(fn, f"harness.check.{check_id}"))
        for check_id, fn in harness.ALL_CHECKS)
