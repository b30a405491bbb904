"""Span recording around calls into the program's modules.

The benchmark instruments ``likelymat`` from the outside: it replaces module
attributes with wrappers that record a span (name, start, end, parent) per
call, keyed by op id, and restores them afterwards.  Counters are recorded at
the same boundaries.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# span name -> per-layer metric holding its self time
SELF_TIME_METRICS = {
    "op": "trace.glue_s",
    "cli.main": "cli.emit_s",
    "cli.parse": "cli.parse_s",
    "constraints.validate": "constraints.validate_s",
    "constraints.classify": "constraints.classify_s",
    "solve": "solve.self_s",
    "symmetric": "symmetric.self_s",
    "symmetric.root": "symmetric.root_s",
    "rect": "rect.self_s",
    "waterfill": "waterfill.s",
    "counting.log10": "counting.log10_s",
    "counting.exact": "counting.exact_s",
    "counting.feasible": "counting.feasible_s",
    "oracle.maxent": "oracle.maxent_s",
    "oracle.kkt": "oracle.kkt_s",
    "oracle.brute": "oracle.brute_s",
}

# span name -> per-layer metric counting its calls
CALL_COUNT_METRICS = {
    "symmetric.root": "symmetric.root_calls",
    "waterfill": "waterfill.calls",
}

# Counters that must repeat exactly whenever the same ops run again.
EXACT_COUNTERS = (
    "symmetric.root_f_evals",
    "waterfill.calls",
    "counting.log10_cells",
    "cli.emit_bytes",
    "oracle.maxent_iterations",
    "oracle.brute_feasible",
    "startup.scipy_modules",
)

COUNT_METRICS = set(CALL_COUNT_METRICS.values()) | set(EXACT_COUNTERS)


@dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1

    def wrap(self, name, fn, on_result=None):
        """``fn`` recording a span per call; ``on_result(counts, args, result)``
        records counters from the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(self._op, len(self.spans), self._stack[-1] if self._stack else None,
                        name, perf_counter())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        return traced

    def counted(self, name, fn):
        """``fn`` counting its calls under ``name``, without spans."""

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def run_op(self, fn):
        """Run one op under a root span named ``op``."""
        self._op += 1
        return self.wrap("op", fn)()

    def to_json(self) -> list[dict]:
        return [vars(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    out = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def nesting_errors(spans: list[Span]) -> list[str]:
    """Spans that do not lie inside their parent or cross into another op."""
    by_id = {s.id: s for s in spans}
    errors = []
    for s in spans:
        if s.end < s.start:
            errors.append(f"span {s.id} ends before it starts")
        if s.parent is None:
            continue
        p = by_id[s.parent]
        if p.op != s.op or not p.start <= s.start <= s.end <= p.end:
            errors.append(f"span {s.id} ({s.name}) lies outside its parent {p.id} ({p.name})")
    return errors


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times and call counts, summed over every op."""
    out: dict[str, float] = defaultdict(float)
    for metric in SELF_TIME_METRICS.values():
        out[metric] = 0.0
    for metric in COUNT_METRICS - {"startup.scipy_modules"}:
        out[metric] = 0
    out["trace.op_s"] = 0.0
    selfs = self_times(tracer.spans)
    for s in tracer.spans:
        out[SELF_TIME_METRICS[s.name]] += selfs[s.id]
        if s.name in CALL_COUNT_METRICS:
            out[CALL_COUNT_METRICS[s.name]] += 1
        if s.name == "op":
            out["trace.op_s"] += s.end - s.start
    for name, value in tracer.counts.items():
        out[name] += value
    return dict(out)


# ----------------------------------------------------------------------
# Instrumentation of the program's modules
# ----------------------------------------------------------------------


def _cells(counts, args, result):
    counts["counting.log10_cells"] += getattr(args[0], "size", 0)


def _iterations(counts, args, result):
    counts["oracle.maxent_iterations"] += result.iterations


def _feasible(counts, args, result):
    counts["oracle.brute_feasible"] += result.n_feasible


RECT_SOLVERS = (
    "solve_gravity_partial_cols", "solve_row_bounds", "solve_total_row_bounds",
    "solve_bounded_total_row_bounds", "solve_row_col_bounds", "solve_row_bounds_elem_bounds",
)
SYM_SOLVERS = (
    "solve_sym_total_row_col_bounds", "solve_sym_fixed_diagonal",
    "solve_sym_3d_fixed_diagonal", "solve_sym_block_diagonal",
)


def _patch_plan():
    """(owner, attribute, span name or None for a call counter, on_result)."""
    pkg = sys.modules["likelymat"]
    cli = sys.modules["likelymat.cli"]
    solve = sys.modules["likelymat.solve"]
    sym = sys.modules["likelymat.symmetric"]
    rect = sys.modules["likelymat.rect"]
    oracle = sys.modules["likelymat.oracle"]
    plan = [
        (cli, "main", "cli.main", None),
        (cli, "load_problem", "cli.parse", None),
        (cli, "log10_realizations", "counting.log10", _cells),
        (cli, "exact_realizations", "counting.exact", None),
        (cli, "count_feasible_row_bounded", "counting.feasible", None),
        (pkg, "solve", "solve", None),
        (sym, "solve_root_lambda", "symmetric.root", None),
        (sym, "waterfill_bounded_sum", "waterfill", None),
        (rect, "waterfill_bounded_sum", "waterfill", None),
        (sym.RootProblem, "f", None, "symmetric.root_f_evals"),
    ]
    for owner in (cli, solve):
        plan.append((owner, "validate_spec", "constraints.validate", None))
        plan.append((owner, "classify", "constraints.classify", None))
    for owner in (cli, oracle):
        plan.append((owner, "numeric_maxent", "oracle.maxent", _iterations))
        plan.append((owner, "verify_kkt", "oracle.kkt", None))
        plan.append((owner, "brute_force_most_likely", "oracle.brute", _feasible))
    plan.append((cli, "solve", "solve", None))
    plan += [(solve, name, "rect", None) for name in RECT_SOLVERS]
    plan += [(solve, name, "symmetric", None) for name in SYM_SOLVERS]
    return plan


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap the program's module attributes for the duration of the block."""
    saved = []
    try:
        for owner, attr, span, extra in _patch_plan():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            if span is None:
                setattr(owner, attr, tracer.counted(extra, original))
            else:
                setattr(owner, attr, tracer.wrap(span, original, extra))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
