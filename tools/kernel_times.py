#!/usr/bin/env python3
"""Time the three ways an h1 tracker renews its gradient, the row scatter
of A^T dg into it, one full compiled product and one Gram column, and one
graph coordinate move.

    python3 tools/kernel_times.py

For each (family, m, n) in ``SIZES``, builds the experiment with
``harness.gen_experiment`` (seed ``SEED``) and, on its matrix A, reports:

* ``gather_frac``: the mean number of entries one update's row scatter
  gathers (``A.mean_gather``, sum_rows r_i^2 / n) over nnz, and ``path``,
  the update the tracker takes there (``tracker.takes_product``: the
  product when gather_frac exceeds 1 / ``tracker.KAPPA``; then the Gram
  column when ``tracker.takes_gram`` holds, a quadratic with n <= m);
* ``n2``, the entries of the n x n Gram matrix, next to ``m * n``, the
  entries of A held dense, and ``nnz``: the Gram path reads n of them per
  update where the product reads nnz, and the guard n <= m keeps its
  matrix no larger than A held dense;
* two kernel calls: ``_kernels.scatter_row_deltas`` for the median column,
  the column whose rows hold the median number of stored entries
  (``touched``), and ``A.rmatvec(y)``, the full product;
* three whole updates, ``H1Tracker.apply_update`` of that column under
  ``gsl`` scores on the smooth part, with the tracker forced onto each
  path whatever the matrix (``scatter_update_us``, ``product_update_us``,
  ``gram_update_us``), whatever the rule picks; the Gram update is timed
  only up to n = ``GRAM_MAX_N`` (null above it), since its matrix takes
  8 n^2 bytes;
* on a composite family, the same updates under ``gs-q`` scores on the
  composite problem (``gsq_scatter_update_us``, ``gsq_product_update_us``,
  ``gsq_gram_update_us``), where the product and Gram paths rescore all
  n coordinates by one full-vector prox pass and the scatter path only
  the columns the update reaches.

The ``crossover`` entry reads KAPPA off the ``gsl`` updates: the largest
gather fraction where the scatter update is faster and the smallest where
the product update is, so 1 / KAPPA should lie between them
(``kappa_between``).  ``gsq_crossover`` does the same over the ``gs-q``
updates of the composite sizes.

On ``two_moons`` with ``GRAPH_N`` nodes (seed ``SEED``) it also times one
``_kernels.graph_coord_update``, the whole per-edge work of an H2 update,
for the node of median degree, on the state of a fresh tracker
(``graph_move_us``), and one whole ``H2Tracker.apply_update`` of that node
on a lean tracker (``lean_update_us``, what a random rule pays) and on
``scan`` trackers under ``gs`` and ``gsl`` scores (``gs_update_us``,
``gsl_update_us``), whose moves also rewrite the keys and scores of the
entries they change.  ``gs_scoring_us`` and ``gsl_scoring_us`` are those
updates less the lean one: what greedy scoring adds to a move.

Each time is the least of ``REPEATS`` repeats of ``NUMBER`` calls, divided
by ``NUMBER`` (an update pair, +d then -d, counts as two calls).  Prints
one JSON line: {"kappa", "sizes": [{family, m, n, nnz, n2, gather_frac,
path, touched, scatter_us, rmatvec_us, ratio, scatter_update_us,
product_update_us, gram_update_us[, gsq_scatter_update_us,
gsq_product_update_us, gsq_gram_update_us]}],
"crossover" and "gsq_crossover": {scatter_wins_to, product_wins_from,
kappa_between}, "graph_move": {family, n, node, degree, graph_move_us,
lean_update_us, gs_update_us, gsl_update_us, gs_scoring_us,
gsl_scoring_us},
"seed", "repeats", "number"}, where ratio is scatter_us / rmatvec_us.
"""

import json
import os
import sys
import timeit

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from greedycd import _kernels, harness  # noqa: E402
from greedycd.rules import make_rule  # noqa: E402
from greedycd.tracker import (KAPPA, H1Tracker, H2Tracker,  # noqa: E402
                              takes_gram, takes_product)

PATHS = ("scatter", "product", "gram")

SIZES = (("sparse_ls", 200, 200), ("sparse_ls", 1000, 1000),
         ("sparse_ls", 2000, 2000),
         ("dense_overdet_ls", 60, 20), ("dense_overdet_ls", 300, 60),
         ("l1_underdet_ls", 50, 500), ("l1_underdet_ls", 500, 5000))
GRAPH_N = 2000
SEED = 0
REPEATS = 200
NUMBER = 10
GRAM_MAX_N = 2000


def least_us(fn):
    return min(timeit.repeat(fn, number=NUMBER, repeat=REPEATS)) / NUMBER * 1e6


def force_path(tr, path):
    """Put an eager h1 tracker on ``path``, with the caches that path
    reads: the Hessian for "gram", the row derivatives for the other
    two."""
    smooth = tr.problem
    tr.product, tr.gram = path != "scatter", path == "gram"
    if tr.gram:
        tr.G, tr.row_g = smooth.hessian(), None
    else:
        tr.row_g = smooth.row_grad(tr.u, np.arange(tr.A.shape[0]))


def update_us(problem, j, path, rule="gsl"):
    """One ``apply_update`` of column j on ``path``, under ``rule``'s
    scores; None for the Gram path above ``GRAM_MAX_N``."""
    if path == "gram" and problem.n > GRAM_MAX_N:
        return None
    tr = H1Tracker(problem, np.zeros(problem.n),
                   make_rule(rule).scorer(problem), refresh_every=10**9)
    force_path(tr, path)

    def pair():
        tr.apply_update(j, 1e-3)
        tr.apply_update(j, -1e-3)
    return round(least_us(pair) / 2, 1)


def measure(family, m, n):
    exp = harness.gen_experiment(family, m=m, n=n, seed=SEED)
    A = exp.matrix
    touched = A.col_gather
    j = int(np.argsort(touched, kind="stable")[n // 2])
    rows = A.column(j)[0]
    rng = np.random.default_rng(SEED)
    dg = rng.standard_normal(rows.shape[0])
    target = rng.standard_normal(n)
    y = rng.standard_normal(m)
    scatter_us = least_us(lambda: _kernels.scatter_row_deltas(
        rows, dg, A.row_indptr, A.row_cols, A.row_vals, target))
    rmatvec_us = least_us(lambda: A.rmatvec(y))
    smooth = getattr(exp.problem, "smooth", exp.problem)
    path = "scatter"
    if takes_product(A):
        path = "gram" if takes_gram(smooth) else "product"
    out = {"family": family, "m": m, "n": n, "nnz": A.nnz, "n2": n * n,
           "gather_frac": round(A.mean_gather / A.nnz, 4), "path": path,
           "touched": int(touched[j]), "scatter_us": round(scatter_us, 1),
           "rmatvec_us": round(rmatvec_us, 1),
           "ratio": round(scatter_us / rmatvec_us, 2)}
    for path in PATHS:
        out[f"{path}_update_us"] = update_us(smooth, j, path)
    if smooth is not exp.problem:
        for path in PATHS:
            out[f"gsq_{path}_update_us"] = update_us(exp.problem, j, path,
                                                     "gs-q")
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
    move_us = least_us(lambda: _kernels.graph_coord_update(
        i, 0.5, tr.x, H.indptr, H.indices, H.data, tr.gradient, p.node_quad,
        p.node_lin))
    out = {"family": "two_moons", "n": p.n, "node": i,
           "degree": int(degree[i]), "graph_move_us": round(move_us, 2)}
    for label, name in (("lean", "uniform"), ("gs", "gs"), ("gsl", "gsl")):
        rule = make_rule(name)
        tr = H2Tracker(p, np.zeros(p.n), rule.scorer(p),
                       lean=not rule.reads_gradient, refresh_every=10**9)

        def pair():
            tr.apply_update(i, 1e-3)
            tr.apply_update(i, -1e-3)
        out[f"{label}_update_us"] = round(least_us(pair) / 2, 2)
    for label in ("gs", "gsl"):
        out[f"{label}_scoring_us"] = round(
            out[f"{label}_update_us"] - out["lean_update_us"], 2)
    return out


def main():
    sizes = [measure(*size) for size in SIZES]
    out = {"kappa": KAPPA, "sizes": sizes, "crossover": crossover(sizes),
           "gsq_crossover": crossover(sizes, "gsq_"),
           "graph_move": measure_graph_move(), "seed": SEED,
           "repeats": REPEATS, "number": NUMBER}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
