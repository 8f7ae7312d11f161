#!/usr/bin/env python3
"""Time the graph family's set-up as n grows.

    python3 tools/gen_scale.py

For each size in ``SIZES``, builds ``two_moons`` with
``harness.gen_experiment`` (seed ``SEED``) and round-trips it through a
manifest (``save_experiment`` then ``load_experiment``, in a temporary
directory), as a run from a manifest would.  Each of the two builds folds
the labeled nodes into the problem once, through ``harness.build_problem``;
the script times one more such call on its own and reports the two folds'
share of the whole.  Each time is the least of ``REPEATS`` repeats.

Prints one JSON line: {"sizes": {n: {gen_s, manifest_s, fold_s,
fold_share}}, "seed", "repeats"}.
"""

import json
import os
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from greedycd import harness  # noqa: E402

SIZES = (2000, 10000, 100000)
SEED = 0
REPEATS = 5


def measure(n):
    """{gen_s, manifest_s, fold_s, fold_share}, each time the least of
    ``REPEATS`` repeats."""
    times = []
    for _ in range(REPEATS):
        with tempfile.TemporaryDirectory() as tmp:
            t0 = time.perf_counter()
            exp = harness.gen_experiment("two_moons", n=n, seed=SEED)
            t1 = time.perf_counter()
            harness.load_experiment(harness.save_experiment(exp, tmp))
            t2 = time.perf_counter()
        t3 = time.perf_counter()
        harness.build_problem(exp.kind, exp.matrix, exp.rhs, exp.labels,
                              exp.lam, exp.scale, exp.labeled_nodes)
        times.append((t1 - t0, t2 - t1, time.perf_counter() - t3))
    gen_s, manifest_s, fold_s = np.min(times, axis=0)
    return {"gen_s": round(gen_s, 4), "manifest_s": round(manifest_s, 4),
            "fold_s": round(fold_s, 4),
            "fold_share": round(2 * fold_s / (gen_s + manifest_s), 4)}


def main():
    out = {"sizes": {n: measure(n) for n in SIZES},
           "seed": SEED, "repeats": REPEATS}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
