#!/usr/bin/env python3
"""Time the heap and scan backends on degree-2 chains of growing length.

    PYTHONPATH=src python3 tools/chain_backends.py [--iters 1000]

Runs ``gs`` for a fixed number of iterations on a chain graph quadratic
(each update touches 3 scores) at n = 2e3, 2e4 and 2e5, on each backend,
and prints the best of three runs in microseconds per iteration.  The time
is read from the trace (first to last iteration), so the tracker's set-up,
which for the heap includes an interpreted O(n) heapify, is left out.
"""

import argparse

import numpy as np

from greedycd.descent import run
from greedycd.problems import GraphQuadraticProblem


def chain(n):
    edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    lin = np.random.default_rng(0).standard_normal(n)
    return GraphQuadraticProblem(n, edges, np.ones(n - 1),
                                 node_quad=np.full(n, 0.5), node_lin=lin)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--iters", type=int, default=1000)
    args = ap.parse_args()
    print("n heap_us scan_us")
    for n in (2_000, 20_000, 200_000):
        p = chain(n)
        row = [str(n)]
        for backend in ("heap", "scan"):
            best = np.inf
            for _ in range(3):
                tr = run(p, "gs", backend=backend, max_iters=args.iters,
                         tol=0.0)
                span = tr.elapsed_ns[-1] - tr.elapsed_ns[0]
                best = min(best, span * 1e-3 / (len(tr.elapsed_ns) - 1))
            row.append(f"{best:.1f}")
        print(" ".join(row))


if __name__ == "__main__":
    main()
