"""Spans around calls into greedycd's modules, installed from outside.

``installed(tracer)`` swaps a timing wrapper in for each callable listed in
``_targets`` and puts the originals back on exit; the package's own code is
not changed.  Spans are aggregated as they close, keyed by
(role, parent span, span name): call count, total time and self time (the
span's duration minus the time covered by its child spans).  The role is
whatever the benchmark set on the tracer before the call, for example
"greedy" while a greedy rule runs, so the spans of one rule run share it.
"""

import contextlib
import time
from collections import defaultdict

import greedycd._kernels as kernels
import greedycd.descent as descent
import greedycd.harness as harness
import greedycd.linalg as linalg
import greedycd.nns as nns
import greedycd.problems as problems
import greedycd.rules as rules
import greedycd.tracker as tracker


class Tracer:
    def __init__(self):
        self.role = "setup"
        self._stack = []
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)

    def wrap(self, name, fn, classify=None):
        """``fn`` timed as span ``name``.  ``classify(args, kwargs)``, when
        given, returns (span name, amount) per call; the amount is added to
        the span's counter."""
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = name
            if classify is not None:
                span, amount = classify(args, kwargs)
                self.counts[(self.role, span)] += amount
            frame = [span, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                key = (self.role, parent[0] if parent else "", span)
                self.calls[key] += 1
                self.total_ns[key] += dt
                self.self_ns[key] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def total(self, role, name, parent=None):
        """Summed duration of span ``name`` (under ``parent``, if given)."""
        return sum(v for (r, p, s), v in self.total_ns.items()
                   if r == role and s == name and parent in (None, p))

    def self_time(self, role, name):
        return sum(v for (r, _, s), v in self.self_ns.items()
                   if r == role and s == name)

    def ncalls(self, role, name):
        return sum(v for (r, _, s), v in self.calls.items()
                   if r == role and s == name)

    def dump(self):
        """Every aggregated span, as JSON-ready rows."""
        return [{"role": key[0], "parent": key[1], "name": key[2],
                 "calls": calls, "total_ns": self.total_ns[key],
                 "self_ns": self.self_ns[key]}
                for key, calls in sorted(self.calls.items())]


def _prox_kind(args, kwargs):
    """prox_steps(x, grad, L_used, idx=None): all coordinates or a subset."""
    idx = args[4] if len(args) > 4 else kwargs.get("idx")
    if idx is None:
        return "problems.prox_all", len(args[1])
    return "problems.prox", len(idx)


def _targets():
    """(owner, attribute, span name[, classify]) for every wrapped callable.

    Names bound by ``from x import y`` are patched where they are looked
    up: ``make_tracker`` both in tracker and in descent.
    """
    out = [
        (harness, "gen_experiment", "harness.gen"),
        (harness, "save_experiment", "harness.manifest"),
        (harness, "load_experiment", "harness.manifest"),
        (tracker, "make_tracker", "tracker.build"),
        (descent, "make_tracker", "tracker.build"),
        (nns.BallTreeIndex, "__init__", "nns.build"),
        (nns.BallTreeIndex, "select", "nns.select"),
        (descent, "run", "descent.run"),
        (descent.RunTrace, "append", "descent.trace"),
        (tracker._TrackerBase, "grad_inf_norm", "descent.resid"),
        (tracker._TrackerBase, "_rescore", "tracker.rescore"),
        (tracker.H1Tracker, "apply_update", "tracker.update"),
        (tracker.H2Tracker, "apply_update", "tracker.update"),
        (tracker.H1Tracker, "refresh", "tracker.refresh"),
        (tracker.H2Tracker, "refresh", "tracker.refresh"),
        (kernels, "col_axpy", "kernels.col_axpy"),
        (kernels, "scatter_row_deltas", "kernels.scatter"),
        (kernels, "heap_update", "kernels.heap_update"),
        (kernels, "graph_coord_update", "kernels.graph_move"),
        (linalg.IndexedMaxHeap, "__init__", "linalg.heap"),
        (linalg.IndexedMaxHeap, "update_key", "linalg.heap"),
        (linalg.IndexedMaxHeap, "peek", "linalg.heap"),
        (problems.CompositeProblem, "prox_steps", "problems.prox",
         _prox_kind),
    ]
    for cls in vars(rules).values():
        if (isinstance(cls, type) and issubclass(cls, rules.Rule)
                and "select" in vars(cls)):
            out.append((cls, "select", "rules.select"))
    return out


@contextlib.contextmanager
def installed(tracer):
    """Wrap every target for the duration of the block."""
    saved = []
    wrapped = {}
    try:
        for owner, attr, name, *classify in _targets():
            original = vars(owner)[attr]
            if id(original) not in wrapped:
                wrapped[id(original)] = tracer.wrap(name, original, *classify)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped[id(original)])
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
