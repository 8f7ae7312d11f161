#!/usr/bin/env python3
"""Time the two ways an h1 tracker renews A^T grad, the row scatter and one
full compiled product, and one graph coordinate move.

    python3 tools/kernel_times.py

For each (family, m, n) in ``SIZES``, builds the experiment with
``harness.gen_experiment`` (seed ``SEED``) and, on its matrix A, reports:

* ``gather_frac``: the mean number of entries one update's row scatter
  gathers (``A.mean_gather``, sum_rows r_i^2 / n) over nnz, and ``path``,
  the update the tracker takes there (``tracker.takes_product``: the
  product when gather_frac exceeds 1 / ``tracker.KAPPA``);
* two kernel calls: ``_kernels.scatter_row_deltas`` for the median column,
  the column whose rows hold the median number of stored entries
  (``touched``), and ``A.rmatvec(y)``, the full product;
* two whole updates, ``H1Tracker.apply_update`` of that column under
  ``gsl`` scores on the smooth part, once with the tracker's ``product``
  flag set (``product_update_us``) and once cleared
  (``scatter_update_us``), whatever the rule picks;
* on a composite family, the same two updates under ``gs-q`` scores on
  the composite problem (``gsq_product_update_us``,
  ``gsq_scatter_update_us``), where the product path rescores all n
  coordinates by one full-vector prox pass and the scatter path only the
  columns the update reaches.

The ``crossover`` entry reads KAPPA off the ``gsl`` updates: the largest
gather fraction where the scatter update is faster and the smallest where
the product update is, so 1 / KAPPA should lie between them
(``kappa_between``).  ``gsq_crossover`` does the same over the ``gs-q``
updates of the composite sizes.

On ``two_moons`` with ``GRAPH_N`` nodes (seed ``SEED``) it also times one
``_kernels.graph_coord_update``, the whole per-edge work of an H2 update,
for the node of median degree, on the state of a fresh tracker.

Each time is the least of ``REPEATS`` repeats of ``NUMBER`` calls, divided
by ``NUMBER`` (an update pair, +d then -d, counts as two calls).  Prints
one JSON line: {"kappa", "sizes": [{family, m, n, nnz, gather_frac, path,
touched, scatter_us, rmatvec_us, ratio, scatter_update_us,
product_update_us[, gsq_scatter_update_us, gsq_product_update_us]}],
"crossover" and "gsq_crossover": {scatter_wins_to, product_wins_from,
kappa_between}, "graph_move": {family, n, node, degree, graph_move_us},
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
                              takes_product)

SIZES = (("sparse_ls", 200, 200), ("sparse_ls", 1000, 1000),
         ("sparse_ls", 2000, 2000),
         ("dense_overdet_ls", 60, 20), ("dense_overdet_ls", 300, 60),
         ("l1_underdet_ls", 50, 500), ("l1_underdet_ls", 500, 5000))
GRAPH_N = 2000
SEED = 0
REPEATS = 200
NUMBER = 10


def least_us(fn):
    return min(timeit.repeat(fn, number=NUMBER, repeat=REPEATS)) / NUMBER * 1e6


def update_us(problem, j, product, rule="gsl"):
    """One ``apply_update`` of column j on the given path, under ``rule``'s
    scores."""
    tr = H1Tracker(problem, np.zeros(problem.n),
                   make_rule(rule).scorer(problem), refresh_every=10**9)
    tr.product = product

    def pair():
        tr.apply_update(j, 1e-3)
        tr.apply_update(j, -1e-3)
    return least_us(pair) / 2


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
    out = {"family": family, "m": m, "n": n, "nnz": A.nnz,
            "gather_frac": round(A.mean_gather / A.nnz, 4),
            "path": "product" if takes_product(A) else "scatter",
            "touched": int(touched[j]), "scatter_us": round(scatter_us, 1),
            "rmatvec_us": round(rmatvec_us, 1),
            "ratio": round(scatter_us / rmatvec_us, 2),
            "scatter_update_us": round(update_us(smooth, j, False), 1),
           "product_update_us": round(update_us(smooth, j, True), 1)}
    if smooth is not exp.problem:
        for path, product in (("scatter", False), ("product", True)):
            out[f"gsq_{path}_update_us"] = round(
                update_us(exp.problem, j, product, "gs-q"), 1)
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
    degree = np.diff(p.adj_indptr)
    i = int(np.argsort(degree, kind="stable")[p.n // 2])
    tr = H2Tracker(p, np.zeros(p.n))
    move_us = least_us(lambda: _kernels.graph_coord_update(
        i, 0.5, tr.x, p.adj_indptr, p.adj_nbr, p.adj_w, p.adj_rev, tr.part,
        tr.gradient, p.node_quad, p.node_lin))
    return {"family": "two_moons", "n": p.n, "node": i,
            "degree": int(degree[i]), "graph_move_us": round(move_us, 2)}


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
