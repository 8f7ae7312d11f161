#!/usr/bin/env python3
"""Time the heap and scan backends on degree-2 chains of growing length.

    PYTHONPATH=src python3 tools/chain_backends.py [--iters 1000]

Runs ``gs`` on a chain graph quadratic (each update touches 3 scores) at
n = 2e3, 2e4 and 2e5, on each backend, and prints per n and backend:

* ``build_ms``: building the tracker (``make_tracker`` with the rule's
  scorer), best of three.  A refresh rebuilds the same caches and scores,
  so this is also what each refresh spends.
* ``iter_us``: microseconds per iteration of ``descent.run`` over
  ``--iters`` iterations, best of three, read from the trace (first to
  last iteration), so set-up is left out.
* ``amortised_us``: ``iter_us`` plus ``build_ms`` spread over the
  default refresh interval of ``run``, the per-iteration cost of a long
  run that refreshes on schedule.
"""

import argparse
import inspect
import time

import numpy as np

from greedycd.descent import run
from greedycd.problems import GraphQuadraticProblem
from greedycd.rules import make_rule
from greedycd.tracker import make_tracker

REFRESH_EVERY = inspect.signature(run).parameters["refresh_every"].default


def chain(n):
    edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    lin = np.random.default_rng(0).standard_normal(n)
    return GraphQuadraticProblem(n, edges, np.ones(n - 1),
                                 node_quad=np.full(n, 0.5), node_lin=lin)


def build_ms(p, backend):
    best = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        make_tracker(p, np.zeros(p.n), make_rule("gs").scorer(p),
                     backend=backend)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def iter_us(p, backend, iters):
    best = np.inf
    for _ in range(3):
        tr = run(p, "gs", backend=backend, max_iters=iters, tol=0.0)
        span = tr.elapsed_ns[-1] - tr.elapsed_ns[0]
        best = min(best, span * 1e-3 / (len(tr.elapsed_ns) - 1))
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--iters", type=int, default=1000)
    args = ap.parse_args()
    print(f"n backend build_ms iter_us amortised_us "
          f"(refresh_every={REFRESH_EVERY})")
    for n in (2_000, 20_000, 200_000):
        p = chain(n)
        for backend in ("heap", "scan"):
            build = build_ms(p, backend)
            it = iter_us(p, backend, args.iters)
            amortised = it + build * 1e3 / REFRESH_EVERY
            print(f"{n} {backend} {build:.2f} {it:.1f} {amortised:.1f}")


if __name__ == "__main__":
    main()
