"""Spans around the calls into satmargin's layers, recorded from outside.

``Tracer.installed`` rebinds satmargin's public functions, and the ``ExactSimplex``
class, in every module namespace that holds them, to wrappers that record
a span per call.  A call made inside the library (``solve_horn_margin``
calling ``ExactSimplex``, ``decision_margin`` calling ``fm_project``) looks
the name up in its own module at call time, so it is recorded too, nested
under its caller.  Counters are read from the public results only: the
elimination trace, the margin report, the Horn report and the tableau's
``m``, ``ncols`` and ``T.dtype``.  No private method is touched.

A binding that a later version of the library no longer has is skipped, so
the numbers of that layer then read 0 rather than the run failing.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "instance", "counts")

    def __init__(self, name, start, parent, instance):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.instance = instance
        self.counts = None

    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.instance = None
        self._bindings = _bindings(self)

    @contextmanager
    def span(self, name: str):
        s = Span(name, perf_counter(), self._stack[-1] if self._stack else None,
                 self.instance)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = perf_counter()

    @contextmanager
    def installed(self):
        """Rebind the traced names for the duration of the block."""
        for mod, name, _, traced in self._bindings:
            setattr(mod, name, traced)
        try:
            yield
        finally:
            for mod, name, original, _ in self._bindings:
                setattr(mod, name, original)


def _fm_counts(result):
    projected, trace = result
    return {"steps": len(trace.steps),
            "combinations": sum(len(s.combinations) for s in trace.steps),
            "trace_rows": len(trace.rows),
            "final_rows": len(projected.rows)}


def _margin_counts(report):
    return {"lines": len(report.per_line),
            "lines_empty": sum(1 for v in report.per_line.values() if v is None),
            "lines_containing": len(report.containing_lines())}


def _horn_counts(report):
    return {"solves": 1, "selected": len(report.selected),
            "agreed": int(report.agreed_with_unit_prop)}


# (function name, span name, counters read from its result); each is wrapped
# in every satmargin module that binds it.
FUNCTIONS = [
    ("parse_dimacs", "cnf.parse", None),
    ("classify", "cnf.classify", None),
    ("solve_horn_unit_prop", "cnf.unit_prop", None),
    ("cnf_to_system", "reduction.cnf_to_system", lambda s: {"rows": len(s.rows)}),
    ("synthesize_fragment_family", "chains.synthesize",
     lambda inst: {"clauses": len(inst.cnf.clauses)}),
    ("fm_project", "elimination.fm_project", _fm_counts),
    ("chain_aggregate", "elimination.chain_aggregate", None),
    ("number_system_report", "elimination.number_system", None),
    ("decision_margin", "margin.decision_margin", _margin_counts),
    ("decision_interval", "margin.line_scan", None),
    ("solve_horn_margin", "horn_lp.solve", _horn_counts),
]
MODULES = ["cnf", "reduction", "chains", "elimination", "simplex", "margin",
           "horn_lp"]


def _wrap(tracer: Tracer, fn, name: str, counts):
    from satmargin.elimination import RowBlowupError

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name
        if name == "elimination.fm_project" and kwargs.get("lp_redundancy"):
            span_name = "elimination.fm_project_lp"
        with tracer.span(span_name) as s:
            try:
                result = fn(*args, **kwargs)
            except RowBlowupError:
                s.counts = {"limit_hits": 1}
                raise
        if counts is not None:
            s.counts = counts(result)
        return result
    return wrapper


def _traced_simplex(tracer: Tracer, base):
    """ExactSimplex subclass that records build, phase 1 and each objective.
    Only the outermost public call on a tableau gets a span: ``minimize``
    calls ``feasible`` and ``maximize`` calls ``minimize`` internally."""

    def outermost(name):
        def decorate(method):
            @functools.wraps(method)
            def wrapper(self, *args, **kwargs):
                if self._bench_busy:
                    return method(self, *args, **kwargs)
                self._bench_busy = True
                try:
                    with tracer.span(name):
                        return method(self, *args, **kwargs)
                finally:
                    self._bench_busy = False
                    if self.T.dtype == object:
                        self._bench_build.counts["promoted"] = 1
            return wrapper
        return decorate

    class TracedExactSimplex(base):
        def __init__(self, system):
            self._bench_busy = True
            with tracer.span("simplex.build") as s:
                super().__init__(system)
            self._bench_busy = False
            s.counts = {"tableaux": 1, "tableau_rows": self.m,
                        "tableau_cols": self.ncols,
                        "promoted": int(self.T.dtype == object)}
            self._bench_build = s

        feasible = outermost("simplex.phase1")(base.feasible)
        minimize = outermost("simplex.objective")(base.minimize)
        maximize = outermost("simplex.objective")(base.maximize)

    TracedExactSimplex.__name__ = base.__name__
    TracedExactSimplex.__qualname__ = base.__qualname__
    return TracedExactSimplex


def _bindings(tracer: Tracer) -> list[tuple]:
    """(module, name, original, traced) for every traced name present."""
    out = []
    simplex_cls = importlib.import_module("satmargin.simplex").ExactSimplex
    traced_cls = _traced_simplex(tracer, simplex_cls)
    for mod in (importlib.import_module(f"satmargin.{m}") for m in MODULES):
        for fname, span_name, counts in FUNCTIONS:
            fn = getattr(mod, fname, None)
            if fn is not None:
                out.append((mod, fname, fn, _wrap(tracer, fn, span_name, counts)))
        if getattr(mod, "ExactSimplex", None) is simplex_cls:
            out.append((mod, "ExactSimplex", simplex_cls, traced_cls))
    return out


# --------------------------------------------------------------------------
# per-layer metrics of one traced pass
# --------------------------------------------------------------------------

TIMES = {  # metric -> span name whose durations are summed
    "simplex.build_s": "simplex.build",
    "simplex.phase1_s": "simplex.phase1",
    "simplex.objectives_s": "simplex.objective",
    "elimination.fm_project_s": "elimination.fm_project",
    "elimination.fm_project_lp_s": "elimination.fm_project_lp",
    "elimination.chain_aggregate_s": "elimination.chain_aggregate",
    "elimination.number_system_s": "elimination.number_system",
    "margin.decision_margin_s": "margin.decision_margin",
    "margin.line_scan_s": "margin.line_scan",
    "horn_lp.solve_s": "horn_lp.solve",
    "cnf.parse_s": "cnf.parse",
    "cnf.classify_s": "cnf.classify",
    "cnf.unit_prop_s": "cnf.unit_prop",
    "reduction.cnf_to_system_s": "reduction.cnf_to_system",
    "chains.synthesize_s": "chains.synthesize",
}
COUNTS = {  # metric -> counter summed over spans
    "simplex.tableaux": "tableaux",
    "simplex.tableau_rows": "tableau_rows",
    "simplex.tableau_cols": "tableau_cols",
    "elimination.steps": "steps",
    "elimination.combinations": "combinations",
    "elimination.trace_rows": "trace_rows",
    "elimination.final_rows": "final_rows",
    "elimination.limit_hits": "limit_hits",
    "margin.lines": "lines",
    "margin.lines_empty": "lines_empty",
    "margin.lines_containing": "lines_containing",
    "horn_lp.selected": "selected",
    "reduction.rows": "rows",
    "chains.clauses": "clauses",
}


def _ratio(num, den):
    return num / den if den else 0.0


def pass_metrics(spans: list[Span]) -> tuple[dict, dict]:
    """(times, counters) of one traced pass.  Counters repeat exactly for
    the same instances; times do not."""
    times = {m: 0.0 for m in TIMES}
    by_name = {v: k for k, v in TIMES.items()}
    counters = {m: 0 for m in COUNTS}
    by_key = {v: k for k, v in COUNTS.items()}
    child_time = [0.0] * len(spans)
    extra = {"promoted": 0, "solves": 0, "agreed": 0, "objectives": 0}
    for s in spans:
        d = s.duration()
        if s.name in by_name:
            times[by_name[s.name]] += d
        if s.parent is not None:
            child_time[s.parent] += d
        if s.name == "simplex.objective":
            extra["objectives"] += 1
        for key, value in (s.counts or {}).items():
            if key in by_key:
                counters[by_key[key]] += value
            else:
                extra[key] += value
    # the Horn solver's own work: its span minus the library calls inside it
    times["horn_lp.self_s"] = sum(s.duration() - child_time[i]
                                  for i, s in enumerate(spans)
                                  if s.name == "horn_lp.solve")
    counters["simplex.objectives"] = extra["objectives"]
    counters["simplex.promoted_frac"] = _ratio(extra["promoted"],
                                               counters["simplex.tableaux"])
    counters["horn_lp.agreed_frac"] = _ratio(extra["agreed"], extra["solves"])
    counters["trace.spans"] = len(spans)
    return times, counters
