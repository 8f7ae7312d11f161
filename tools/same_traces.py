#!/usr/bin/env python3
"""Check that two greedycd checkouts take the same paths.

    python3 tools/same_traces.py --baseline PATH/TO/OTHER/CHECKOUT

Runs the same set of cases once with the sources of this checkout and once
with the sources of the baseline checkout (each in its own process, with
that checkout's ``src`` first on the path), then compares every pair of
traces.  A rule that reads the gradient must give bit-identical trace
columns (every column ``RunTrace.same_path`` compares) and ``final_x``.  A
rule that does not (``reads_gradient`` false in this checkout: uniform,
cyclic, lipschitz) runs on a lean tracker that tests for convergence
once per epoch.  Over a matrix it reads each gradient entry off its column
and counts no A^T grad entries, except on least squares with n^2 <= nnz,
where it moves by its dense Hessian row and counts n - 1 in both
``touched_rows`` and ``touched_grads``.  So its ``step``, ``resid_inf``
and ``touched_grads`` may differ, and its ``touched_rows`` where either
checkout's lean tracker takes that row (``tracker.takes_hessian_row``);
it must pick the same coordinates with the same ``heap_ops``, and its
objectives and ``final_x`` must agree within 1e-12 relative to
max(1, |value|).  The
same limits hold for the ``NEAR`` cases, exact steps on smooth problems
and maximum improvement, whose steps a checkout may compute from the
tracker's gradient or A x where another recomputes them from x; the
largest difference of each is printed.

The cases are every rule, stream and instance that the benchmark's
workloads run (``perfbench/workloads.py``, seed 0), each rule on both the
heap and the scan backend (the ball tree where a workload uses it), plus
``gs`` and ``gsl`` on ``sparse_logistic``, ``cyclic`` and ``lipschitz`` on
three families, a few runs with a short refresh interval, so the rebuilt
caches are compared too (among them lean ``uniform`` and ``lipschitz`` runs
on the l1 family, whose objectives carry the terms across refreshes), and
composite rules under a step mode whose
curvature differs from the score's (``gs-q`` with L_i, ``gsl-q`` with L)
or whose score is not a prox step (``gs-s``), so the stopping test's
residual keys take their own prox call.  ``gs`` and ``gsl`` on the l1
family take that call too, and the rules without a score
(``gs-approx-mult`` and ``gs-approx-add`` on ``sparse_ls`` and
``two_moons``, ``mi`` on ``two_moons``) read their keys off the gradient.

Every experiment those cases run on, and every one the acceptance test
c11 ranks the rules on (seeds 0-9), is also compared byte for byte: the
CSC arrays, rhs, labels, labeled nodes, lambda and scale, and for a graph
the problem the labeled nodes fold into (node_quad, node_lin, the constant,
the kept edges and weights, and the free nodes).  A change to a generator
or to the fold then gets its own verdict, even where no trace reaches it.

Two cases, ``sparse_ls`` 2000^2 ``gsl`` and ``l1_underdet_ls`` 500 x 5000
``gs-q``, run on matrices whose updates renew A^T grad by the row scatter;
every workload matrix is dense enough for the full product
(``tracker.takes_product``), which an eager least-squares problem with
n <= m replaces by one row of its dense Hessian (the h2 tracker).  The
``MIXED`` cases run the prox-scored rules on that product path under
mixed terms (``mixed_terms``: zero, l1 and
boxes with finite, half-infinite and infinite ends), so the full-vector
prox pass's soft-threshold off the l1 terms and its clamp are compared as
well as its l1 arithmetic.

Prints one line per experiment and per case and a final count for each; a
case that is not bit-identical also gets its largest relative difference,
the number of iterations whose picked coordinate differs and the trace
columns (and ``final_x``) that are not bit-identical.  Exits 1 on any
difference.
"""

import argparse
import os
import pickle
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS, rule_seed  # noqa: E402

EXTRA = (
    # (label, family, m, n, lam, rule, budget, refresh_every, step)
    ("logistic", "sparse_logistic", 120, 80, 1.0, "gs", 300, 10000, "auto"),
    ("logistic", "sparse_logistic", 120, 80, 1.0, "gsl", 300, 10000, "auto"),
    ("logistic-refresh", "sparse_logistic", 120, 80, 1.0, "gs", 300, 37,
     "auto"),
    ("ls-refresh", "sparse_ls", 200, 200, 1.0, "uniform", 400, 53, "auto"),
    ("ls-refresh", "sparse_ls", 200, 200, 1.0, "gsl", 300, 41, "auto"),
    ("lasso-refresh", "l1_underdet_ls", 50, 500, 1.0, "gs-q", 200, 29,
     "auto"),
    ("graph-refresh", "two_moons", None, 300, 1.0, "gs", 400, 31, "auto"),
    ("ls-refresh", "sparse_ls", 200, 200, 1.0, "cyclic", 400, 53, "auto"),
    ("lasso-refresh", "l1_underdet_ls", 50, 500, 1.0, "lipschitz", 600, 29,
     "auto"),
    ("graph-refresh", "two_moons", None, 300, 1.0, "cyclic", 400, 31, "auto"),
    # lean composite runs whose term bookkeeping crosses refreshes, under
    # both step curvatures (lipschitz/auto above steps with L)
    ("lasso-refresh", "l1_underdet_ls", 50, 500, 1.0, "uniform", 600, 29,
     "auto"),
    ("lasso-refresh", "l1_underdet_ls", 50, 500, 1.0, "lipschitz", 600, 29,
     "const-coord"),
    ("logistic", "sparse_logistic", 120, 80, 1.0, "lipschitz", 300, 10000,
     "auto"),
    # composite rules whose stopping-test curvature differs from their
    # score's, so the residual keys come from a second prox call
    ("lasso", "l1_underdet_ls", 50, 500, 1.0, "gs-q", 200, 10000,
     "const-coord"),
    ("lasso", "l1_underdet_ls", 50, 500, 1.0, "gs-q", 200, 10000, "exact"),
    ("lasso", "l1_underdet_ls", 50, 500, 1.0, "gs-s", 200, 10000, "auto"),
    ("lasso", "l1_underdet_ls", 50, 500, 1.0, "gsl-r", 200, 10000, "auto"),
    ("lasso", "l1_underdet_ls", 50, 500, 1.0, "gsl-q", 200, 10000, "const"),
    ("lasso-refresh", "l1_underdet_ls", 50, 500, 1.0, "gsl-q", 200, 17,
     "auto"),
    # rules without a prox score on a composite problem, whose residual
    # keys take their own prox call over the touched set
    ("lasso", "l1_underdet_ls", 50, 500, 1.0, "gs", 200, 10000, "auto"),
    ("lasso", "l1_underdet_ls", 50, 500, 1.0, "gsl", 200, 10000, "auto"),
    ("lasso-refresh", "l1_underdet_ls", 50, 500, 1.0, "gs", 200, 29, "auto"),
    ("lasso-refresh", "l1_underdet_ls", 50, 500, 1.0, "gsl", 200, 29,
     "auto"),
    # rules without a score, whose residual keys come from the gradient
    ("ls", "sparse_ls", 200, 200, 1.0, "gs-approx-mult", 300, 10000, "auto"),
    ("ls", "sparse_ls", 200, 200, 1.0, "gs-approx-add", 300, 10000, "auto"),
    ("graph", "two_moons", None, 300, 1.0, "gs-approx-mult", 300, 10000,
     "auto"),
    ("graph", "two_moons", None, 300, 1.0, "gs-approx-add", 300, 10000,
     "auto"),
    ("graph", "two_moons", None, 300, 1.0, "mi", 60, 10000, "auto"),
    # matrices whose updates gather a small share of nnz, so the tracker
    # renews A^T grad by the row scatter rather than the full product
    ("ls-large", "sparse_ls", 2000, 2000, None, "gsl", 300, 10000, "auto"),
    ("lasso-large", "l1_underdet_ls", 500, 5000, None, "gs-q", 300, 10000,
     "auto"),
)

# prox-scored rules on the product path of l1_underdet_ls 50 x 500 under
# mixed terms (``mixed_terms``) instead of its l1 terms
MIXED = tuple(
    (label, "l1_underdet_ls", 50, 500, 1.0, rule, 300, every, "auto")
    for rule in ("gs-q", "gsl-q", "gs-r", "gsl-r")
    for label, every in (("mixed", 10000), ("mixed-refresh", 37)))

# exact steps on smooth problems and maximum improvement: the same steps
# in another rounding order, compared within 1e-12
NEAR = (
    ("ls", "sparse_ls", 200, 200, 1.0, "gs", 300, 10000, "exact"),
    ("dense", "dense_overdet_ls", 300, 60, None, "gsl", 300, 10000, "exact"),
    ("graph", "two_moons", None, 300, 1.0, "gs", 300, 10000, "exact"),
    ("logistic", "sparse_logistic", 120, 80, 1.0, "gs", 300, 10000, "exact"),
    ("ls", "sparse_ls", 200, 200, 1.0, "mi", 60, 10000, "auto"),
    ("logistic", "sparse_logistic", 120, 80, 1.0, "mi", 60, 10000, "auto"),
    ("lasso", "l1_underdet_ls", 50, 500, 1.0, "mi", 60, 10000, "auto"),
)

# the compared trace columns, in the order ``dump`` stores them
COLUMNS = ("k", "objective", "coord", "step", "resid_inf", "touched_rows",
           "touched_grads", "heap_ops")

# (family, m, n, lam) of the acceptance test c11, run there on seeds 0-9
C11 = (
    ("sparse_ls", 200, 200, None),
    ("sparse_logistic", 200, 150, None),
    ("dense_overdet_ls", 300, 60, None),
    ("l1_underdet_ls", 60, 300, None),
    ("two_moons", None, 300, 1e-3),
)


def extra_name(label, rule, step, backend):
    return (f"{label}/{rule}" + ("" if step == "auto" else f"/{step}")
            + f"/{backend}")


def cases():
    """(case name, family, m, n, lam, instance, rule, budget, seed,
    backend, refresh_every, step, mixed) for every compared run; ``mixed``
    runs on the experiment's smooth part under ``mixed_terms``."""
    out = []
    for w in WORKLOADS.values():
        for j in range(w.instances):
            for role in w.roles:
                backends = ((role.backend,) if role.backend
                            else ("heap", "scan"))
                for stream in range(role.streams):
                    seed = rule_seed(0, j, role.name, stream)
                    for backend in backends:
                        out.append((f"{w.name}/i{j}/{role.rule}/{backend}"
                                    f"/s{stream}", w.family, w.m, w.n, w.lam,
                                    j, role.rule, role.budget, seed, backend,
                                    10000, "auto", False))
    for spec in EXTRA + NEAR + MIXED:
        label, family, m, n, lam, rule, budget, every, step = spec
        for backend in ("heap", "scan"):
            out.append((extra_name(label, rule, step, backend), family, m, n,
                        lam, 0, rule, budget, 1, backend, every, step,
                        spec in MIXED))
    return out


def mixed_terms(problem):
    """The composite ``problem``'s smooth part under zero, l1 (the
    problem's own weight) and box terms in turn, the boxes cycling through
    [0, inf), (-inf, 0], [-0.25, 0.25] and (-inf, inf); each holds 0."""
    from greedycd.problems import BoxTerm, CompositeProblem, L1Term, ZeroTerm

    lam = problem.terms[0].p1
    boxes = [BoxTerm(0.0, np.inf), BoxTerm(-np.inf, 0.0),
             BoxTerm(-0.25, 0.25), BoxTerm(-np.inf, np.inf)]
    terms = [(ZeroTerm(), L1Term(lam), boxes[j // 3 % 4])[j % 3]
             for j in range(problem.n)]
    return CompositeProblem(problem.smooth, terms)


def experiments():
    """(family, m, n, lam, seed) of every compared experiment."""
    keys = {case[1:6] for case in cases()}
    keys |= {spec + (seed,) for spec in C11 for seed in range(10)}
    return sorted(keys, key=repr)


def experiment_bytes(exp):
    """The generated data of ``exp``, as bytes and exact reprs; for a graph
    also the problem its labeled nodes fold into."""
    arrays = [exp.matrix.col_indptr, exp.matrix.col_rows,
              exp.matrix.col_vals, exp.rhs, exp.labels]
    reprs = [exp.labeled_nodes, exp.lam, exp.scale]
    if exp.kind == "graph":
        p = exp.problem
        arrays += [p.node_quad, p.node_lin, p.edges, p.weights,
                   exp.free_nodes]
        reprs.append(p.const)
    return (tuple(None if a is None else (a.dtype.str, a.shape, a.tobytes())
                  for a in arrays), tuple(map(repr, reprs)))


def dump(src, path):
    """Generate every experiment and run every case with the greedycd found
    under ``src``; pickle ({experiment key: experiment_bytes}, {case name:
    (trace columns, final_x, whether a lean tracker on the case's problem
    takes the dense Hessian row)}) to ``path``."""
    sys.path.insert(0, src)
    import greedycd
    from greedycd import descent, harness, tracker

    if not os.path.abspath(greedycd.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"imported greedycd from {greedycd.__file__}")
    problems = {}
    exps = {}
    for key in experiments():
        family, m, n, lam, seed = key
        exp = harness.gen_experiment(family, m=m, n=n, lam=lam, seed=seed)
        exps[key] = experiment_bytes(exp)
        problems[key] = exp.problem
    # a checkout without ``takes_hessian_row`` moves every lean tracker over
    # a matrix through its column
    takes_row = getattr(tracker, "takes_hessian_row", None)
    out = {}
    for (name, family, m, n, lam, j, rule, budget, seed, backend, every,
         step, mixed) in cases():
        problem = problems[family, m, n, lam, j]
        if mixed:
            problem = mixed_terms(problem)
        trace = descent.run(problem, rule, step=step,
                            max_iters=budget, tol=0.0, seed=seed,
                            backend=backend, refresh_every=every)
        # as lists, so a checkout whose columns are arrays compares equal
        # to one whose columns are lists
        columns = tuple(list(getattr(trace, name)) for name in COLUMNS)
        smooth = getattr(problem, "smooth", problem)
        row = (takes_row is not None and smooth.tracker_kind == "h1"
               and takes_row(smooth, True))
        out[name] = (columns, trace.final_x, row)
    with open(path, "wb") as fh:
        pickle.dump((exps, out), fh)


def rel_diff(a, b):
    """Largest |a - b| / max(1, |a|); inf when the shapes differ."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return np.inf
    return float((np.abs(a - b) / np.maximum(1.0, np.abs(a))).max(initial=0))


def differing(cols, x, bcols, bx):
    """The names of the trace columns, and "final_x", that are not
    bit-identical."""
    names = [name for name, a, b in zip(COLUMNS, cols, bcols)
             if np.asarray(a).tobytes() != np.asarray(b).tobytes()]
    return names + ([] if x.tobytes() == bx.tobytes() else ["final_x"])


def compare(cols, x, bcols, bx, loose, row):
    """('same', 0, []), or ('close', largest objective or final_x
    difference, the names ``differing`` gives) for a case allowed to differ
    within 1e-12 (``loose``; a lean one whose tracker takes the dense
    Hessian row in either checkout, ``row``, may also count other
    ``touched_rows``), or ('DIFFERS', that difference, those names)."""
    names = differing(cols, x, bcols, bx)
    if not names:
        return "same", 0.0, names
    k, objective, coord, _, _, rows, _, heap_ops = cols
    diff = max(rel_diff(bcols[1], objective), rel_diff(bx, x))
    if (loose and (k, coord, heap_ops) == (bcols[0], bcols[2], bcols[7])
            and (row or rows == bcols[5]) and diff <= 1e-12):
        return "close", diff, names
    return "DIFFERS", diff, names


def run_tree(root, path):
    subprocess.run([sys.executable, os.path.abspath(__file__),
                    "--dump", path, "--src", os.path.join(root, "src")],
                   check=True)
    with open(path, "rb") as fh:
        return pickle.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--baseline", help="root of the checkout to compare with")
    ap.add_argument("--dump", help=argparse.SUPPRESS)
    ap.add_argument("--src", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.dump:
        dump(args.src, args.dump)
        return 0
    if not args.baseline:
        ap.error("--baseline is required")
    with tempfile.TemporaryDirectory() as tmp:
        base_exps, base = run_tree(args.baseline,
                                   os.path.join(tmp, "base.pkl"))
        here_exps, here = run_tree(ROOT, os.path.join(tmp, "here.pkl"))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from greedycd.rules import make_rule

    exp_verdicts = []
    for key, data in here_exps.items():
        exp_verdicts.append("same" if data == base_exps[key] else "DIFFERS")
        family, m, n, lam, seed = key
        print(f"{exp_verdicts[-1]}  experiment {family} m={m} n={n} "
              f"lam={lam} seed={seed}")
    rule_of = {case[0]: case[6] for case in cases()}
    near = {extra_name(c[0], c[5], c[8], backend)
            for c in NEAR for backend in ("heap", "scan")}
    verdicts = []
    for name, (cols, x, row) in here.items():
        bcols, bx, brow = base[name]
        lean = not make_rule(rule_of[name]).reads_gradient
        verdict, diff, names = compare(cols, x, bcols, bx,
                                       lean or name in near,
                                       lean and (row or brow))
        verdicts.append(verdict)
        picks = sum(a != b for a, b in zip(cols[2], bcols[2]))
        print(f"{verdict}  {name}  ({len(cols[0]) - 1} iterations"
              + (")" if verdict == "same" else
                 f", largest {diff:.2e}, {picks} picks changed; differs in "
                 f"{', '.join(names)})"))
    print(f"{verdicts.count('same')} of {len(here)} cases bit-identical, "
          f"{verdicts.count('close')} within 1e-12, "
          f"{verdicts.count('DIFFERS')} differ")
    print(f"{exp_verdicts.count('same')} of {len(here_exps)} experiments "
          f"byte-identical, {exp_verdicts.count('DIFFERS')} differ")
    return 1 if "DIFFERS" in verdicts + exp_verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
