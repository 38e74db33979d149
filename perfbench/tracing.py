"""Span tracing of selfnorm's layers from outside the package.

``instrument`` replaces public functions with wrappers that record a span
(name, start, end, parent) and bump counters, and restores the originals on
exit.  Modules bind imported names at import time (``experiments`` calls its
own ``sample_batch``, not ``processes.sample_batch``), so each function is
patched under the name its caller looks it up by.

A span's name is the metric its self time is reported under.  The tracer
keeps one stack, so it is only valid for single-threaded runs (``jobs=1``).
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

BRACKET_METHODS = ("s", "sq_var", "cond_var", "b_n", "h_n", "g_n")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = Counter()
        self.bracket_keys = set()
        self.run_serial = 0
        self._stack = []

    def span(self, name, fn, on_return=None):
        """Wrap ``fn`` so each call records a span; ``on_return(args, result)`` counts work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def self_times(self) -> dict:
        """Per span name: summed duration minus the duration of direct children."""
        own = defaultdict(float)
        for name, start, end, parent in self.spans:
            own[name] += end - start
            if parent is not None:
                own[self.spans[parent][0]] -= end - start
        return own

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent is None)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install tracing wrappers on selfnorm for the duration of the block."""
    from selfnorm import experiments, montecarlo
    from selfnorm.applications import regression, tsp
    from selfnorm.processes import BatchStats

    counts = tracer.counts
    saved = []

    def patch(owner, attr, wrap):
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def span(name, on_return=None):
        return lambda fn: tracer.span(name, fn, on_return)

    def count(key, amount=lambda args, result: 1):
        def on_return(args, result):
            counts[key] += amount(args, result)
        return on_return

    def start_run(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            tracer.run_serial += 1
            return fn(*args, **kwargs)
        return run

    def bracket(method):
        def on_return(args, result):
            counts["processes.bracket_calls"] += 1
            tracer.bracket_keys.add((tracer.run_serial, method, args[1:]))
        return on_return

    def counted_golden(fn):
        @functools.wraps(fn)
        def golden(f, *args, **kwargs):
            def objective(t):
                counts["montecarlo.objective_evals"] += 1
                return f(t)
            return fn(objective, *args, **kwargs)
        return golden

    rows = lambda args, result: result.shape[0]
    paths = lambda args, result: 1 << args[0]

    patch(experiments, "load_spec", span("experiments.validate_s"))
    patch(experiments, "run_experiment",
          lambda fn: tracer.span("experiments.run_self_s", start_run(fn)))
    patch(experiments, "render_report", span(
        "experiments.render_s",
        count("experiments.report_bytes", lambda args, result: len(result.encode()))))
    patch(experiments, "sample_batch",
          span("processes.sample_s", count("processes.rows_sampled", rows)))
    patch(experiments, "estimate_tail_from", span("montecarlo.event_s"))
    patch(experiments, "optimize_over_p_from", span("montecarlo.optimize_s"))
    for attr in ("exact_tail_rademacher", "exact_optimized_bound_rademacher"):
        patch(experiments, attr,
              span("montecarlo.enumerate_s", count("montecarlo.paths_enumerated", paths)))
    patch(experiments, "verify_regression", span("applications.regression.verify_self_s"))
    patch(experiments, "verify_tsp", span("applications.tsp.verify_self_s"))
    patch(montecarlo, "evaluate_event", span("montecarlo.event_s", count("montecarlo.event_calls")))
    patch(montecarlo, "clopper_pearson", span("montecarlo.cp_s", count("montecarlo.cp_calls")))
    patch(montecarlo, "golden_section_min", counted_golden)
    patch(regression, "regression_batch", span(
        "applications.regression.batch_s",
        count("applications.regression.rows", lambda args, result: result.err.shape[0])))
    patch(tsp, "tsp_martingale_diffs", span("applications.tsp.instance_self_s"))
    patch(tsp, "held_karp_batch",
          span("applications.tsp.held_karp_s", count("applications.tsp.tours", rows)))
    patch(tsp, "held_karp", span("applications.tsp.held_karp_s", count("applications.tsp.tours")))
    patch(tsp, "dist_matrix_batch", span("applications.tsp.dist_s"))
    patch(tsp, "dist_matrix", span("applications.tsp.dist_s"))
    for owner in (montecarlo, regression):
        patch(owner, "optimize_expectation_values", span("montecarlo.optimize_s"))
    for owner in (experiments, regression, tsp):
        patch(owner, "evaluate_bound", span("bounds.eval_s", count("bounds.eval_calls")))
    for method in BRACKET_METHODS:
        patch(BatchStats, method, span("processes.bracket_s", bracket(method)))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
