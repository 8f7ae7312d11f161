#!/usr/bin/env python3
"""Time the ways a tracker renews its gradient on a matrix A, the h1 row
scatter of A^T dg into it, the h1 full compiled product and the h2 dense
Hessian row, the two ways a lean tracker moves, and one CSR Hessian row
of a graph.

    python3 tools/kernel_times.py

For each (family, m, n) in ``SIZES``, builds the experiment with
``harness.gen_experiment`` (seed ``SEED``) and, on its matrix A, reports:

* ``gather_frac``: the mean number of entries one update's row scatter
  gathers (``A.mean_gather``, sum_rows r_i^2 / n) over nnz, and ``path``,
  the update the tracker ``make_tracker`` builds takes there, for every
  rule: the product when gather_frac exceeds 1 / ``tracker.KAPPA``
  (``tracker.takes_product``), and "gram", the h2 tracker's dense Hessian
  row, where that product would be taken on a quadratic with n <= m
  (``tracker.takes_hessian_row``); a random rule's lean tracker moves
  through the column on h1 and by the row on h2;
* ``n2``, the entries of the n x n Hessian, next to ``m * n``, the
  entries of A held dense, and ``nnz``: the Hessian row reads n of them
  per update where the product reads nnz, and the guard n <= m keeps its
  matrix no larger than A held dense;
* two kernel calls: ``_kernels.scatter_row_deltas`` for the median column,
  the column whose rows hold the median number of stored entries
  (``touched``), and ``A.rmatvec(y)``, the full product;
* three whole updates of that column under ``gsl`` scores on the smooth
  part, whatever the rule picks and whatever the matrix:
  ``H1Tracker.apply_update`` with the tracker forced onto the scatter or
  the product (``scatter_update_us``, ``product_update_us``), and
  ``H2Tracker.apply_update`` on the dense Hessian (``gram_update_us``),
  timed only up to n = ``GRAM_MAX_N`` (null above it), since its matrix
  takes 8 n^2 bytes;
* two lean iterations' tracker work on that column, a ``grad_coord``
  read and an ``apply_update``, as a random rule pays it: through the
  column on a lean ``H1Tracker`` (``lean_column_update_us``) and by the
  dense Hessian row on a lean ``H2Tracker`` (``lean_row_update_us``, up to
  ``GRAM_MAX_N`` as above);
* on a composite family, the same updates under ``gs-q`` scores on the
  composite problem (``gsq_scatter_update_us``, ``gsq_product_update_us``,
  ``gsq_gram_update_us``), where the product and the Hessian row rescore
  all n coordinates by one full-vector prox pass and the scatter only
  the columns the update reaches.

The ``crossover`` entry reads KAPPA off the ``gsl`` updates: the largest
gather fraction where the scatter update is faster and the smallest where
the product update is, so 1 / KAPPA should lie between them
(``kappa_between``).  ``gsq_crossover`` does the same over the ``gs-q``
updates of the composite sizes.

On ``two_moons`` with ``GRAPH_N`` nodes (seed ``SEED``) it also times one
``_kernels.graph_coord_update``, the CSR Hessian row of an h2 update, for
the node of median degree, on the state of a fresh tracker
(``graph_move_us``), and one whole ``H2Tracker.apply_update`` of that node
on a lean tracker (``lean_update_us``, what a random rule pays) and on
``scan`` trackers under ``gs`` and ``gsl`` scores (``gs_update_us``,
``gsl_update_us``), whose moves also rewrite the keys and scores of the
entries they change.  ``gs_scoring_us`` and ``gsl_scoring_us`` are those
updates less the lean one: what greedy scoring adds to a move.

On ``l1_underdet_ls`` ``PROX_SIZE`` (``lasso-prox``'s size) it times the
composite path piece by piece, at the state of a fresh tracker, for the
median column j: the problem's kept ``ProxPass`` under L over all n
(``prox_pass_us``, the ``gs-q`` scorer's) and at the one index j (``at``,
``prox_one_us``, the call the scatter path's rescore of an identity-like
column makes), and whole updates of column j on a lean tracker
(``lean_update_us``, what uniform pays) and on the product path under
``gs-q`` and ``gsl-q`` scores (``gsq_update_us``, ``gslq_update_us``).

``trace_row`` gives what recording one trace row costs, the layer of an
iteration that stores it: ``append_us``, the probe-scaled time of one
``RunTrace.append`` of a row of Python numbers such as ``descent.run``
passes, as the least of batches of ``ROW_BATCH`` appends into a fresh
trace; and ``bytes_per_row``, the memory a finished trace holds per row
(``tracemalloc``), of a ``TRACE_ITERS``-iteration uniform run on
``two_moons`` with ``GRAPH_N`` nodes (seed ``SEED``), after one run that
builds what the problem keeps.

``run_setup`` gives the cost of ``descent.run(max_iters=0)`` for each
role of each benchmark workload (``WORKLOADS`` of perfbench's
``workloads.py``) on instance 0: a run's set-up alone, which each run of
the benchmark pays besides its iterations (``run_setup_us``).  The
first run on a problem builds what the problem keeps, so one run is
made before the timing; the roles of a workload are timed in
alternation.

The machine's speed wanders, by up to 1.6x on a shared 2-vCPU Xeon, in
stretches of seconds, so a raw minimum cannot compare two checkouts timed
minutes apart.  Every timed batch of ``NUMBER`` calls is therefore
bracketed by a probe, a fixed interpreted loop (``probe_ns``, the probe of
``perfbench/run.py``), and scaled to the speed at which the probe takes
``PROBE_REF_NS``; the callables of one group (a size, the graph move, the
composite path) are timed in alternation, one batch each per round, for
``REPEATS`` rounds, and a round's batches are scaled by its fastest
probe.  Each figure is the least scaled batch, divided by ``NUMBER`` (an
update pair, +d then -d, counts as two calls).  Prints one JSON line:
{"kappa", "sizes": [{family, m, n, nnz, n2, gather_frac, path, touched,
scatter_us, rmatvec_us, ratio, scatter_update_us, product_update_us,
gram_update_us, lean_column_update_us, lean_row_update_us[,
gsq_scatter_update_us, gsq_product_update_us, gsq_gram_update_us]}],
"crossover" and "gsq_crossover": {scatter_wins_to, product_wins_from,
kappa_between}, "graph_move": {family, n, node, degree, graph_move_us,
lean_update_us, gs_update_us, gsl_update_us, gs_scoring_us,
gsl_scoring_us}, "prox": {family, m, n, column, prox_pass_us,
prox_one_us, lean_update_us, gsq_update_us, gslq_update_us},
"trace_row": {family, n, iters, append_us, bytes_per_row},
"run_setup": {workload: {rule[/backend]: run_setup_us}},
"seed", "repeats", "number", "probe_ref_ns"}, where ratio is scatter_us /
rmatvec_us.
"""

import json
import os
import sys
import time
import tracemalloc

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS, rule_seed  # noqa: E402

from greedycd import _kernels, descent, harness  # noqa: E402
from greedycd.rules import make_rule  # noqa: E402
from greedycd.tracker import (KAPPA, H1Tracker, H2Tracker,  # noqa: E402
                              make_tracker)

PATHS = ("scatter", "product", "gram")

SIZES = (("sparse_ls", 200, 200), ("sparse_ls", 1000, 1000),
         ("sparse_ls", 2000, 2000),
         ("dense_overdet_ls", 60, 20), ("dense_overdet_ls", 300, 60),
         ("l1_underdet_ls", 50, 500), ("l1_underdet_ls", 500, 5000))
GRAPH_N = 2000
PROX_SIZE = (50, 500)
TRACE_ITERS = 34000
ROW_BATCH = 1000
SEED = 0
REPEATS = 200
NUMBER = 10
GRAM_MAX_N = 2000
PROBE_REF_NS = 1_000_000   # the probe's time at the reference speed

_PROBE_DATA = np.arange(4096, dtype=np.float64)
_PROBE_INDEX = _PROBE_DATA[::-1].astype(np.int64)


def probe_ns():
    """Time of a fixed interpreted loop over numpy scalars; it tracks how
    fast the processor runs now."""
    t0 = time.perf_counter_ns()
    acc = 0.0
    for i in range(4096):
        acc += _PROBE_DATA[_PROBE_INDEX[i]]
    return time.perf_counter_ns() - t0


def scaled_us(fns, per_call=1):
    """{label: least probe-scaled us per call} for the callables ``fns``
    ({label: fn}, None for one not timed), timed in alternation: each
    round times ``NUMBER`` calls of every callable in turn, with a probe
    before the first batch and after each, and scales the round's batches
    by its fastest probe (a probe that an interruption slowed would make
    a batch look fast).  A callable that makes ``per_call`` calls counts
    as that many."""
    best = {label: float("inf") for label, fn in fns.items() if fn}
    for _ in range(REPEATS):
        probes = [probe_ns()]
        took = {}
        for label in best:
            fn = fns[label]
            t0 = time.perf_counter_ns()
            for _ in range(NUMBER):
                fn()
            took[label] = time.perf_counter_ns() - t0
            probes.append(probe_ns())
        speed = PROBE_REF_NS / min(probes)
        for label, ns in took.items():
            best[label] = min(best[label], ns * speed)
    return {label: (round(best[label] / (NUMBER * per_call) / 1e3, 2)
                    if label in best else None) for label in fns}


def update_pair(tr, j):
    """Two calls, an update of coordinate j and its undoing."""
    def pair():
        tr.apply_update(j, 1e-3)
        tr.apply_update(j, -1e-3)
    return pair


def update_fn(problem, j, path, rule="gsl"):
    """An ``apply_update`` pair of column j on ``path``, under ``rule``'s
    scores: an h2 tracker for "gram" (None above ``GRAM_MAX_N``), else an
    h1 tracker put on the scatter or the product."""
    if path == "gram" and problem.n > GRAM_MAX_N:
        return None
    cls = H2Tracker if path == "gram" else H1Tracker
    tr = cls(problem, np.zeros(problem.n), make_rule(rule).scorer(problem),
             refresh_every=10**9)
    if path != "gram":
        tr.product = path == "product"
    return update_pair(tr, j)


def lean_fn(problem, j, cls):
    """A lean ``cls`` tracker's pair of random-rule iterations on column
    j: each reads g_j, which the update then reuses, and moves x_j (None
    for the dense Hessian row above ``GRAM_MAX_N``)."""
    if cls is H2Tracker and problem.n > GRAM_MAX_N:
        return None
    tr = cls(problem, np.zeros(problem.n), lean=True, refresh_every=10**9)

    def pair():
        tr.grad_coord(j)
        tr.apply_update(j, 1e-3)
        tr.grad_coord(j)
        tr.apply_update(j, -1e-3)
    return pair


def median_column(A):
    """The column whose rows hold the median number of stored entries."""
    return int(np.argsort(A.col_gather, kind="stable")[A.shape[1] // 2])


def measure(family, m, n):
    exp = harness.gen_experiment(family, m=m, n=n, seed=SEED)
    A = exp.matrix
    j = median_column(A)
    rows = A.column(j)[0]
    rng = np.random.default_rng(SEED)
    dg = rng.standard_normal(rows.shape[0])
    target = rng.standard_normal(n)
    y = rng.standard_normal(m)
    kernels = scaled_us({
        "scatter_us": lambda: _kernels.scatter_row_deltas(
            rows, dg, A.row_indptr, A.row_cols, A.row_vals, target),
        "rmatvec_us": lambda: A.rmatvec(y)})
    smooth = getattr(exp.problem, "smooth", exp.problem)
    tr = make_tracker(smooth, np.zeros(n))
    path = ("gram" if isinstance(tr, H2Tracker)
            else "product" if tr.product else "scatter")
    out = {"family": family, "m": m, "n": n, "nnz": A.nnz, "n2": n * n,
           "gather_frac": round(A.mean_gather / A.nnz, 4), "path": path,
           "touched": int(A.col_gather[j]), **kernels,
           "ratio": round(kernels["scatter_us"] / kernels["rmatvec_us"], 2)}
    updates = {f"{path}_update_us": update_fn(smooth, j, path)
               for path in PATHS}
    updates.update(lean_column_update_us=lean_fn(smooth, j, H1Tracker),
                   lean_row_update_us=lean_fn(smooth, j, H2Tracker))
    if smooth is not exp.problem:
        updates.update({f"gsq_{path}_update_us": update_fn(
            exp.problem, j, path, "gs-q") for path in PATHS})
    out.update(scaled_us(updates, per_call=2))
    return out


def crossover(sizes, prefix=""):
    """The largest gather fraction where the scatter update (the
    ``{prefix}scatter_update_us`` entry) wins, the smallest where the
    product update wins, and whether 1 / KAPPA lies between the two."""
    sizes = [s for s in sizes if prefix + "product_update_us" in s]
    wins = [s[prefix + "product_update_us"] < s[prefix + "scatter_update_us"]
            for s in sizes]
    fracs = [s["gather_frac"] for s in sizes]
    lo = max((f for f, w in zip(fracs, wins) if not w), default=None)
    hi = min((f for f, w in zip(fracs, wins) if w), default=None)
    # the tracker takes the product above a gather fraction of 1 / KAPPA
    return {"scatter_wins_to": lo, "product_wins_from": hi,
            "kappa_between": ((lo is None or lo <= 1 / KAPPA)
                              and (hi is None or hi > 1 / KAPPA))}


def measure_graph_move():
    p = harness.gen_experiment("two_moons", n=GRAPH_N, seed=SEED).problem
    H = p.H
    # each row of H holds the node's diagonal entry besides its edges
    degree = np.diff(H.indptr) - 1
    i = int(np.argsort(degree, kind="stable")[p.n // 2])
    tr = H2Tracker(p, np.zeros(p.n))
    out = {"family": "two_moons", "n": p.n, "node": i,
           "degree": int(degree[i])}
    # the move runs twice per timed call, to 0.5 and back, so it is timed
    # in the units of the update pairs
    moves = {"graph_move_us": lambda: (
        _kernels.graph_coord_update(i, 0.5, H.indptr, H.indices, H.data,
                                    tr.gradient),
        _kernels.graph_coord_update(i, -0.5, H.indptr, H.indices, H.data,
                                    tr.gradient))}
    for label, name in (("lean", "uniform"), ("gs", "gs"), ("gsl", "gsl")):
        rule = make_rule(name)
        moves[f"{label}_update_us"] = update_pair(
            H2Tracker(p, np.zeros(p.n), rule.scorer(p),
                      lean=not rule.reads_gradient, refresh_every=10**9), i)
    out.update(scaled_us(moves, per_call=2))
    for label in ("gs", "gsl"):
        out[f"{label}_scoring_us"] = round(
            out[f"{label}_update_us"] - out["lean_update_us"], 2)
    return out


def measure_prox():
    m, n = PROX_SIZE
    comp = harness.gen_experiment("l1_underdet_ls", m=m, n=n,
                                  seed=SEED).problem
    j = median_column(comp.smooth.A)
    lean = H1Tracker(comp, np.zeros(n), lean=True, refresh_every=10**9)
    trackers = {label: H1Tracker(comp, np.zeros(n),
                                 make_rule(rule).scorer(comp),
                                 refresh_every=10**9)
                for label, rule in (("gsq", "gs-q"), ("gslq", "gsl-q"))}
    tr = trackers["gsq"]
    full = comp.full_pass(False)
    one = np.array([j])
    out = {"family": "l1_underdet_ls", "m": m, "n": n, "column": j}
    out.update(scaled_us({
        "prox_pass_us": lambda: full(tr.x, tr.gradient, tr.term_vals),
        "prox_one_us": lambda: full.at(one, tr.x, tr.gradient,
                                       tr.term_vals)}))
    updates = {"lean_update_us": update_pair(lean, j)}
    for label, t in trackers.items():
        assert t.product
        updates[f"{label}_update_us"] = update_pair(t, j)
    out.update(scaled_us(updates, per_call=2))
    return out


def measure_trace_row():
    """{family, n, iters, append_us, bytes_per_row}: one trace row's time
    to record and the memory it holds."""
    row = (1, 0.5, 3, -0.25, 1.0, 1234, 2, 11, 0)

    def fill():
        trace = descent.RunTrace()
        for _ in range(ROW_BATCH):
            trace.append(*row)
    out = {"family": "two_moons", "n": GRAPH_N, "iters": TRACE_ITERS}
    out.update(scaled_us({"append_us": fill}, per_call=ROW_BATCH))
    p = harness.gen_experiment("two_moons", n=GRAPH_N, seed=SEED).problem
    descent.run(p, "uniform", max_iters=0, seed=SEED)
    tracemalloc.start()
    try:
        trace = descent.run(p, "uniform", max_iters=TRACE_ITERS, tol=0.0,
                            seed=SEED)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out["bytes_per_row"] = round(held / len(trace), 1)
    return out


def measure_run_setup():
    """{workload: {rule[/backend]: us}}: ``descent.run(max_iters=0)`` of
    each role of each benchmark workload, on instance 0 with the role's
    first stream, after one run that builds what the problem keeps."""
    out = {}
    for w in WORKLOADS.values():
        p = harness.gen_experiment(w.family, m=w.m, n=w.n, lam=w.lam,
                                   seed=0).problem
        runs = {}
        for role in w.roles:
            label = role.rule + (f"/{role.backend}" if role.backend else "")
            kwargs = {} if role.backend is None else {"backend": role.backend}
            seed = rule_seed(SEED, 0, role.name, 0)
            runs[label] = (lambda rule=role.rule, seed=seed, kwargs=kwargs:
                           descent.run(p, rule, max_iters=0, tol=0.0,
                                       seed=seed, **kwargs))
            runs[label]()
        out[w.name] = scaled_us(runs)
    return out


def main():
    sizes = [measure(*size) for size in SIZES]
    out = {"kappa": KAPPA, "sizes": sizes, "crossover": crossover(sizes),
           "gsq_crossover": crossover(sizes, "gsq_"),
           "graph_move": measure_graph_move(), "prox": measure_prox(),
           "trace_row": measure_trace_row(), "run_setup": measure_run_setup(),
           "seed": SEED, "repeats": REPEATS, "number": NUMBER,
           "probe_ref_ns": PROBE_REF_NS}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
