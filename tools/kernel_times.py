#!/usr/bin/env python3
"""Time the incremental row scatter against one full compiled A^T product,
and one graph coordinate move.

    python3 tools/kernel_times.py

For each (family, m, n) in ``SIZES``, builds the experiment with
``harness.gen_experiment`` (seed ``SEED``) and times two calls on its
matrix A:

* ``_kernels.scatter_row_deltas`` for the median column: the column whose
  rows hold the median number of stored entries, which is the work one
  greedy update's scatter does (``touched`` below);
* ``A.rmatvec(y)``, the full product A^T y a non-incremental tracker would
  compute instead.

On ``two_moons`` with ``GRAPH_N`` nodes (seed ``SEED``) it also times one
``_kernels.graph_coord_update``, the whole per-edge work of an H2 update,
for the node of median degree, on the state of a fresh tracker.

Each time is the least of ``REPEATS`` repeats of ``NUMBER`` calls, divided
by ``NUMBER``.  Prints one JSON line: {"sizes": [{family, m, n, nnz,
touched, scatter_us, rmatvec_us, ratio}], "graph_move": {family, n, node,
degree, graph_move_us}, "seed", "repeats", "number"}, where ratio is
scatter_us / rmatvec_us.
"""

import json
import os
import sys
import timeit

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from greedycd import _kernels, harness  # noqa: E402
from greedycd.tracker import H2Tracker  # noqa: E402

SIZES = (("sparse_ls", 200, 200), ("sparse_ls", 2000, 2000),
         ("dense_overdet_ls", 60, 20), ("dense_overdet_ls", 300, 60),
         ("l1_underdet_ls", 50, 500), ("l1_underdet_ls", 500, 5000))
GRAPH_N = 2000
SEED = 0
REPEATS = 200
NUMBER = 10


def least_us(fn):
    return min(timeit.repeat(fn, number=NUMBER, repeat=REPEATS)) / NUMBER * 1e6


def measure(family, m, n):
    A = harness.gen_experiment(family, m=m, n=n, seed=SEED).matrix
    row_len = np.diff(A.row_indptr)
    touched = np.array([row_len[A.column(j)[0]].sum() for j in range(n)])
    j = int(np.argsort(touched, kind="stable")[n // 2])
    rows = A.column(j)[0]
    rng = np.random.default_rng(SEED)
    dg = rng.standard_normal(rows.shape[0])
    target = rng.standard_normal(n)
    y = rng.standard_normal(m)
    scatter_us = least_us(lambda: _kernels.scatter_row_deltas(
        rows, dg, A.row_indptr, A.row_cols, A.row_vals, target))
    rmatvec_us = least_us(lambda: A.rmatvec(y))
    return {"family": family, "m": m, "n": n, "nnz": A.nnz,
            "touched": int(touched[j]), "scatter_us": round(scatter_us, 1),
            "rmatvec_us": round(rmatvec_us, 1),
            "ratio": round(scatter_us / rmatvec_us, 2)}


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
    out = {"sizes": [measure(*size) for size in SIZES],
           "graph_move": measure_graph_move(), "seed": SEED,
           "repeats": REPEATS, "number": NUMBER}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
