"""The coordinate descent driver: runs, traces, and races.

A run wires a selection rule to an incremental tracker, applies one
coordinate update per iteration, and records a trace row per iterate.  One
runtime guard watches every iteration, a sufficient-decrease certificate:
the realised drop must cover the model decrease the step size promises, up
to float slack relative to the objective.  A change that breaks it aborts
the run as "diverging" when the objective rose (or the change is NaN) and
as a violated "descent certificate" when it fell short; a run also refuses
a starting point whose objective or gradient is not finite.  Traces
serialise to CSV with shortest-round-trip floats so a written file parses
back bit-for-bit (a NaN keeps its sign, "-nan", but not its payload).
"""

import math
import time
from array import array
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .problems import CompositeProblem
from .rules import Rule, make_rule
from .tracker import check_integer, make_tracker

# (name, type) of every trace column, in file order
TRACE_COLUMNS = (("k", int), ("objective", float), ("coord", int),
                 ("step", float), ("resid_inf", float), ("elapsed_ns", int),
                 ("touched_rows", int), ("touched_grads", int),
                 ("heap_ops", int))
TRACE_HEADER = ",".join(name for name, _ in TRACE_COLUMNS)

STEP_MODES = ("auto", "const", "const-coord", "exact")


def _float_text(v):
    """repr(v), but "-nan" for a NaN whose sign bit is set."""
    return "-nan" if v != v and np.signbit(v) else repr(v)


_TEXT = {int: str, float: _float_text}
# the array.array typecode each column type is stored as: 64-bit signed
# ints and doubles
_TYPECODE = {int: "q", float: "d"}


def _column(name):
    """A trace column's field: an empty ``array.array`` of the typecode
    its ``TRACE_COLUMNS`` type gives."""
    kind = dict(TRACE_COLUMNS)[name]
    return field(default_factory=partial(array, _TYPECODE[kind]))


@dataclass
class RunTrace:
    """One row per iterate, k = 0 being the starting point (coord -1).

    ``resid_inf`` is measured after every update, except for rules that do
    not read the gradient: they measure it once per epoch and repeat the
    last value in between (see ``run``).

    Each column is an ``array.array`` of its ``TRACE_COLUMNS`` type ('q',
    64-bit ints, for the int columns and 'd' for the float ones), so a row
    costs 72 bytes; boxed Python numbers in lists held 213 per row of a
    long uniform run (``tracemalloc``).  Indexing and iterating give Python
    ints and floats, and two columns compare with ``==``, but a column
    never equals a list: compare ``column.tolist()``.  An int column
    refuses a float (even 3.0) with TypeError instead of truncating it.
    The CSV text is the same whatever holds the columns.
    """

    k: array = _column("k")
    objective: array = _column("objective")
    coord: array = _column("coord")
    step: array = _column("step")
    resid_inf: array = _column("resid_inf")
    elapsed_ns: array = _column("elapsed_ns")
    touched_rows: array = _column("touched_rows")
    touched_grads: array = _column("touched_grads")
    heap_ops: array = _column("heap_ops")
    rule: str = field(default="", compare=False)
    converged: bool = field(default=False, compare=False)
    final_x: np.ndarray = field(default=None, compare=False, repr=False)

    def append(self, k, objective, coord, step, resid_inf, elapsed_ns,
               touched_rows, touched_grads, heap_ops):
        """Add one row; a value its column refuses (TypeError, or
        OverflowError beyond 64 bits) leaves the trace as it was."""
        try:
            self.k.append(k)
            self.objective.append(objective)
            self.coord.append(coord)
            self.step.append(step)
            self.resid_inf.append(resid_inf)
            self.elapsed_ns.append(elapsed_ns)
            self.touched_rows.append(touched_rows)
            self.touched_grads.append(touched_grads)
            self.heap_ops.append(heap_ops)
        except (TypeError, OverflowError):
            # heap_ops, the last column, counts the complete rows
            rows = len(self.heap_ops)
            for name, _ in TRACE_COLUMNS:
                del getattr(self, name)[rows:]
            raise

    def __len__(self):
        return len(self.k)

    def same_path(self, other):
        """Equality ignoring wall-clock times (for determinism checks)."""
        return all(getattr(self, name) == getattr(other, name)
                   for name, _ in TRACE_COLUMNS if name != "elapsed_ns")

    def to_csv(self):
        columns = [map(_TEXT[kind], getattr(self, name))
                   for name, kind in TRACE_COLUMNS]
        return "\n".join([TRACE_HEADER, *map(",".join, zip(*columns))]) + "\n"

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_csv())

    @classmethod
    def from_csv(cls, text):
        lines = [ln for ln in text.splitlines() if ln]
        if not lines or lines[0] != TRACE_HEADER:
            raise ValueError("not a trace file: bad or missing header")
        trace = cls()
        for ln in lines[1:]:
            f = ln.split(",")
            if len(f) != len(TRACE_COLUMNS):
                raise ValueError(f"bad trace row: {ln!r}")
            trace.append(*(kind(v) for (_, kind), v in zip(TRACE_COLUMNS, f)))
        return trace

    @classmethod
    def read_csv(cls, path):
        with open(path) as fh:
            return cls.from_csv(fh.read())


def _resolve_step(problem, rule, step):
    """The step mode the loop runs, checked against the problem: "auto"
    follows the rule, and "exact" on a quadratic smooth part is the 1/L_i
    step ("const-coord"), since L_i = H_ii there."""
    if step not in STEP_MODES:
        raise ValueError(f"unknown step mode {step!r}; expected one of {STEP_MODES}")
    composite = isinstance(problem, CompositeProblem)
    if step == "auto":
        step = ("const-coord" if getattr(rule, "per_coord", not composite)
                else "const")
    if step == "exact" and getattr(problem, "smooth", problem).is_quadratic:
        step = "const-coord"
    if step == "exact" and composite:
        raise ValueError("exact composite coordinate step needs a quadratic "
                         "smooth part")
    return step


def run(problem, rule, *, step="auto", x0=None, max_iters=None, tol=1e-8,
        backend="scan", refresh_every=10000, seed=None):
    """Minimise ``problem`` with one-coordinate updates; returns a RunTrace.

    ``rule`` is a rule name or Rule instance.  ``step`` picks the update:
    "const" moves -grad_i/L (prox under that curvature for composite
    problems), "const-coord" uses L_i instead, "exact" minimises the
    coordinate function, and "auto" follows the rule (per-coordinate for the
    per-coordinate prox rules and plain smooth problems, global L
    otherwise).  On a quadratic smooth part L_i = H_ii, so "exact" is
    "const-coord"; on logistic it is a safeguarded Newton step from the
    tracker's cached A x.  A composite step is one scalar prox
    (``coord_step``), so "exact" on a composite problem needs a quadratic
    smooth part and is refused up front otherwise.
    ``backend`` is the tracker's: "scan" (the default), "heap" (rebuilt by
    one sort at every build, refresh and whole-vector rescore) or "nns"
    (``gsl`` only, on the problems ``nns.BallTreeIndex`` serves).
    ``refresh_every``, the updates between cache rebuilds, and
    ``max_iters`` must be integers (a bool is not).  ``seed`` seeds a
    stochastic rule's PRNG (anything ``np.random.default_rng`` takes, such
    as a spawned SeedSequence): the rule makes its one Generator from it,
    and a greedy rule makes none.
    Stops when the residual (gradient sup-norm, or prox-step sup-norm for
    composite problems) drops to ``tol``, which must be finite, or after
    ``max_iters`` updates (default 50 n).

    The gradient and the stopping test are read only through the tracker
    (``grad_inf_norm``).  A non-lean tracker keeps the test's keys (|grad_i|,
    or |d_i| under the step curvature) and rewrites them for the
    coordinates each update touches, so every rule that reads the gradient
    tests after every update without a pass over all n.  A rule that never
    reads it (``rule.reads_gradient`` false: uniform, cyclic, lipschitz)
    pays only for its column, as the cost model of random selection says:
    its tracker is lean, with no keys and no scores.  On h1 it makes no
    row scatter into A^T grad (``touched_grads == 0``); least squares with
    n^2 <= nnz instead moves by its kept Hessian row, no longer than the
    mean column (``touched_rows == touched_grads == n - 1``).  It tests
    for convergence once per epoch: at x0, after every n updates and after
    the last one, each time from one rebuilt full gradient (one prox pass
    over all n for composite problems).  A trace row between two tests
    repeats the last measured ``resid_inf``, so such a run stops on an
    epoch boundary.

    The tracker also owns the objective, F = f + sum_i g_i on a composite
    problem, and refuses an x0 that is not finite or infeasible for the
    terms.  The trace's objective is ``tracker.objective()`` after each
    update, and the descent certificate checks the update's change,
    ``tracker.last_obj_delta``.

    A run's fixed cost, everything before its first iteration, is part of
    the benchmark's ``*_iter_us`` (perfbench's ``fastest_ns`` adds the time
    outside the loop), which a short budget spreads over few iterations.
    So a run pays only for what x0 changes: one A x0, from which the
    tracker builds the objective, its row derivatives and the gradient,
    the first scores and the term values.  What depends on the problem
    alone its first run builds, and the problem keeps it read-only for
    every later run and tracker (``problems.KeptConstants``): the step
    curvatures with their Python floats (``SmoothProblem.curvature``), the
    ``gsl`` weights, the Lipschitz CDF, least squares' dense Hessian, the
    ``nns`` index and a composite problem's full prox pass per curvature
    (``CompositeProblem.full_pass``).
    """
    composite = problem if isinstance(problem, CompositeProblem) else None
    smooth = problem.smooth if composite is not None else problem
    n = smooth.n
    if isinstance(rule, str):
        rule = make_rule(rule)
    elif not isinstance(rule, Rule):
        raise TypeError("rule must be a name or a Rule")
    max_iters = (50 * n if max_iters is None
                 else check_integer("max_iters", max_iters, 0))
    if not math.isfinite(tol):
        raise ValueError("tol must be finite")
    if x0 is None:
        x0 = np.zeros(n)
    mode = _resolve_step(problem, rule, step)

    # a stochastic rule makes its own stream from the seed; a greedy rule
    # makes none
    rule.prepare(problem, rng=seed)
    if backend == "nns" and rule.name != "gsl":
        raise ValueError("the nns backend serves the gsl rule only")
    lean = not rule.reads_gradient
    per_coord = mode in ("const-coord", "exact")
    curvature = smooth.curvature(per_coord)
    L_step, L_pos = curvature.steps, curvature.positive
    tracker = make_tracker(problem, x0, scorer=rule.scorer(problem),
                           backend=backend, refresh_every=refresh_every,
                           lean=lean, step_per_coord=per_coord)

    obj = tracker.objective()
    resid = tracker.grad_inf_norm()
    if not (math.isfinite(obj) and math.isfinite(resid)):
        raise ValueError("objective or gradient at x0 is not finite; "
                         "check the problem data for NaN or inf")
    trace = RunTrace(rule=rule.name)
    trace.append(0, obj, -1, 0.0, resid, 0, 0, 0, 0)
    t0 = time.perf_counter_ns()

    for t in range(max_iters):
        if resid <= tol:
            trace.converged = True
            break
        i, alpha = rule.select(tracker, t)
        g_i = tracker.grad_coord(i)
        xi_old = tracker.x.item(i)
        if composite is not None:
            d, promised = composite.coord_step(i, xi_old, g_i, L_step[i])
            if alpha is None:
                alpha = d
        else:
            if alpha is None:
                if mode == "exact":
                    alpha = (smooth.exact_coord_min(tracker.x, i, tracker.u)
                             - xi_old)
                else:
                    alpha = -g_i / L_step[i] if L_pos[i] else 0.0
            promised = -g_i * g_i / (2.0 * L_step[i]) if L_pos[i] else 0.0

        stats = tracker.apply_update(i, alpha)
        delta = tracker.last_obj_delta
        if not (delta <= promised + 1e-10 * max(1.0, abs(obj)) + 1e-14):
            if not delta <= 0:
                raise RuntimeError(
                    f"diverging: objective rose by {delta:.3e} at iteration "
                    f"{t + 1} (coordinate {i}, step {alpha:.3e})")
            raise RuntimeError(
                f"descent certificate violated at iteration {t + 1}: "
                f"drop {delta:.6e} exceeds promised {promised:.6e} "
                f"(coordinate {i}, step {alpha:.3e})")
        obj = tracker.objective()
        if not lean or (t + 1) % n == 0 or t + 1 == max_iters:
            resid = tracker.grad_inf_norm()
        trace.append(t + 1, obj, i, alpha, resid, time.perf_counter_ns() - t0,
                     stats.touched_rows, stats.touched_grads, stats.heap_ops)
    else:
        trace.converged = resid <= tol

    trace.final_x = tracker.x.copy()
    return trace


def race(problem, rules, iters, master_seed=0, **run_kwargs):
    """Run several rules on one problem with independent PRNG streams.

    Streams are spawned from a single SeedSequence so adding or reordering
    rules never changes another rule's draws, and the whole race replays
    from ``master_seed``.  Returns one trace per rule, in order.
    """
    streams = np.random.SeedSequence(master_seed).spawn(len(rules))
    traces = []
    for spec, stream in zip(rules, streams):
        rule = make_rule(spec) if isinstance(spec, str) else spec
        traces.append(run(problem, rule, max_iters=iters, seed=stream,
                          **run_kwargs))
    return traces
