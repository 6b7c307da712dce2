"""Spans around netdesign's layers, installed from the benchmark's own files.

Wrappers replace each traced function at every name that binds it inside
the `netdesign` package (a `from .criterion import evaluate` in another
module is one more binding), and traced methods on their class.  Spans
stay in memory, each with a link to the span that was open when it
began, and are turned into per-layer numbers after each operation.  A
name that no longer exists is skipped, so its layer reads zero calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

# (span name, module, attribute); "Class.method" patches the class itself.
TARGETS = (
    ("cli.main", "netdesign.cli", "main"),
    ("graph.load_edge_list", "netdesign.graph", "load_edge_list"),
    ("graph.load_covariates", "netdesign.graph", "load_covariates"),
    ("graph.generate_bernoulli_network", "netdesign.graph", "generate_bernoulli_network"),
    ("graph.generate_pm1_covariates", "netdesign.graph", "generate_pm1_covariates"),
    ("graph.subsample_network", "netdesign.graph", "subsample_network"),
    ("graph.repair_isolated", "netdesign.graph", "repair_isolated"),
    ("car.precision_matrix", "netdesign.car", "precision_matrix"),
    ("car.factor_precision", "netdesign.car", "factor_precision"),
    ("car.network_spectrum", "netdesign.car", "network_spectrum"),
    ("car.sample_noise", "netdesign.car", "sample_noise"),
    ("car.sample_outcomes", "netdesign.car", "sample_outcomes"),
    ("car.fit_profile_ml", "netdesign.car", "fit_profile_ml"),
    ("criterion.CriterionEvaluator", "netdesign.criterion", "CriterionEvaluator.__init__"),
    ("criterion.evaluate", "netdesign.criterion", "evaluate"),
    ("criterion.pip", "netdesign.criterion", "pip"),
    ("criterion.expected_breakdown", "netdesign.criterion", "expected_breakdown"),
    ("criterion.expected_precision", "netdesign.criterion", "expected_precision"),
    ("criterion.surrogate_gap_diagnostics", "netdesign.criterion", "surrogate_gap_diagnostics"),
    ("optimizer.hybrid_problem", "netdesign.optimizer", "hybrid_problem"),
    ("optimizer.no_network_problem", "netdesign.optimizer", "no_network_problem"),
    ("optimizer.solve", "netdesign.optimizer", "solve"),
    ("optimizer.solve_local", "netdesign.optimizer", "solve_local"),
    ("optimizer.solve_exact", "netdesign.optimizer", "solve_exact"),
    ("optimizer.solve_annealing", "netdesign.optimizer", "solve_annealing"),
    ("optimizer.solve_no_network", "netdesign.optimizer", "solve_no_network"),
    ("experiments.run_study", "netdesign.experiments", "run_study"),
    ("experiments.StudyResult.write", "netdesign.experiments", "StudyResult.write"),
)

SOLVES = frozenset(name for name, _, _ in TARGETS if name.startswith("optimizer.solve"))

# Layer metric -> span names it sums; nested spans of one group count once.
GROUPS = {
    "optimizer.solve": SOLVES,
    "optimizer.build": {"optimizer.hybrid_problem", "optimizer.no_network_problem"},
    "criterion.evaluator": {"criterion.CriterionEvaluator"},
    "criterion.evaluate": {"criterion.evaluate"},
    "criterion.pip": {"criterion.pip"},
    "criterion.expected": {"criterion.expected_breakdown", "criterion.expected_precision"},
    "car.precision_matrix": {"car.precision_matrix"},
    "car.fit_profile_ml": {"car.fit_profile_ml"},
    "car.factor": {"car.factor_precision"},
    "car.spectrum": {"car.network_spectrum"},
    "car.sample": {"car.sample_noise", "car.sample_outcomes"},
    "graph.load": {"graph.load_edge_list", "graph.load_covariates"},
    "graph.synth": {
        "graph.generate_bernoulli_network", "graph.generate_pm1_covariates",
        "graph.subsample_network", "graph.repair_isolated",
    },
    "experiments.write": {"experiments.StudyResult.write"},
}
TIMED = ("optimizer.solve", "optimizer.build", "criterion.evaluator", "criterion.evaluate",
         "criterion.pip", "criterion.expected", "car.precision_matrix",
         "car.fit_profile_ml", "car.factor", "car.spectrum", "car.sample",
         "graph.load", "graph.synth", "experiments.write")
COUNTED = ("optimizer.solve", "optimizer.build", "criterion.evaluator",
           "car.precision_matrix", "car.fit_profile_ml")
SELF_TIMED = {
    "cli.main.self_s": "cli.main",
    "criterion.gap_diag.self_s": "criterion.surrogate_gap_diagnostics",
    "experiments.run_study.self_s": "experiments.run_study",
}

# Per-layer metric -> (unit, better); the order is the order of the report.
LAYER_METRICS = {
    **{f"{g}.s": ("s", "lower") for g in TIMED},
    **{f"{g}.calls": ("count", "lower") for g in COUNTED},
    **{name: ("s", "lower") for name in SELF_TIMED},
    "optimizer.iterations": ("count", "lower"),
    "optimizer.relaxations": ("count", "lower"),
    "optimizer.feasible_ratio": ("ratio", "higher"),
    "experiments.overlap": ("ratio", "higher"),
    "experiments.cpu_per_wall": ("ratio", "higher"),
}
# Metrics that must read the same on every traced repetition.
EXACT = tuple(name for name in LAYER_METRICS if name.endswith(".calls")) + (
    "optimizer.iterations", "optimizer.relaxations", "optimizer.feasible_ratio")


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "cpu_start", "cpu_end", "result")

    def __init__(self, sid, name, parent, start, cpu_start):
        self.id, self.name, self.parent = sid, name, parent
        self.start, self.cpu_start = start, cpu_start
        self.end = self.cpu_end = None
        self.result = None


class Tracer:
    """Spans of one process.  A span opened on a worker thread with no open
    span of its own takes the innermost open span of the main thread as its
    parent, which is the call that started the thread pool."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        parent = stack[-1].id if stack else None
        if parent is None and stack is not self._main_stack:
            try:
                parent = self._main_stack[-1].id
            except IndexError:
                pass
        span = Span(len(self.spans), name, parent, time.perf_counter(), time.process_time())
        self.spans.append(span)  # list.append is atomic under the GIL
        stack.append(span)
        return span

    def close(self, span, result=None):
        span.end = time.perf_counter()
        span.cpu_end = time.process_time()
        span.result = result
        self._stack().pop()

    def take(self):
        spans, self.spans = self.spans, []
        return spans


def _wrap(tracer, name, fn):
    keep = name in SOLVES

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(span, result if keep else None)

    return traced


def install(tracer):
    """Wrap every target; return the undo list and the names not found."""
    undo, missing = [], []
    package = [m for k, m in sorted(sys.modules.items())
               if (k == "netdesign" or k.startswith("netdesign.")) and m is not None]
    for name, module_name, attr in TARGETS:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            missing.append(name)
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            original = None if cls is None else cls.__dict__.get(meth)
            if original is None:
                missing.append(name)
                continue
            undo.append((cls, meth, original))
            setattr(cls, meth, _wrap(tracer, name, original))
            continue
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(name)
            continue
        wrapped = _wrap(tracer, name, original)
        for module in package:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapped)
    return undo, missing


def uninstall(undo):
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Span id -> duration minus the part of its interval its children cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())]
        out[s.id] = (s.end - s.start) - covered([k for k in kids if k[1] > k[0]])
    return out


def _outermost(spans, names):
    """Spans named in `names` with no ancestor also named in `names`."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        if p is None:
            out.append(s)
    return out


def layer_metrics(spans):
    """Per-layer numbers for the spans of one operation."""
    out = {}
    for group, names in GROUPS.items():
        top = _outermost(spans, names)
        if group in TIMED:
            out[f"{group}.s"] = sum(s.end - s.start for s in top)
        if group in COUNTED:
            out[f"{group}.calls"] = len(top)
    selfs = self_times(spans)
    for metric, name in SELF_TIMED.items():
        out[metric] = sum(selfs[s.id] for s in spans if s.name == name)

    reports = [s.result for s in _outermost(spans, SOLVES) if s.result is not None]
    levels = sum(1 + len(r.relaxations_applied) for r in reports)
    out["optimizer.iterations"] = sum(r.iterations for r in reports)
    out["optimizer.relaxations"] = sum(len(r.relaxations_applied) for r in reports)
    out["optimizer.feasible_ratio"] = (
        sum(1 for r in reports if r.feasible) / levels if levels else 0.0)

    studies = [s for s in spans if s.name == "experiments.run_study"]
    wall = sum(s.end - s.start for s in studies)
    ids = {s.id for s in studies}
    child_time = sum(s.end - s.start for s in spans if s.parent in ids)
    cpu = sum(s.cpu_end - s.cpu_start for s in studies)
    out["experiments.overlap"] = child_time / wall if wall else 0.0
    out["experiments.cpu_per_wall"] = cpu / wall if wall else 0.0
    return out
