"""Experiment generation, manifests, reference minima, and showcase cases.

The five experiment families are declared once, in ``FAMILIES``.  The
design-matrix families share one recipe: a standard-normal design shifted
by +1 (correlating the columns), per-column rescaling by |10 N(0,1)|
(spreading the coordinate curvatures), and optionally a Bernoulli sparsity
mask keeping ~10 ln(n)/n of the entries.  Labels for the classification
family are the noiseless signs with a 10% flip rate.  The graph family
builds two interleaved half-circles, joins symmetrised 5-nearest
neighbours (one ``cKDTree`` query, no n x n distances) with unit weights,
clamps a handful of labeled nodes, and folds them into node terms.

Every experiment serialises to a directory holding Matrix Market files plus
a manifest.json with the fixed key set {kind, matrix, rhs, labels, lambda,
scale, labeled_nodes, x0}; loading a manifest rebuilds the identical
problem, and refuses a malformed one with a ValueError naming the key.
"""

import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.optimize
from scipy.spatial import cKDTree

from .descent import run
from .linalg import SparseMatrix, load_dense_mtx, save_dense_mtx
from .problems import (
    ABS,
    BOX,
    CompositeProblem,
    GraphQuadraticProblem,
    L1Term,
    LeastSquaresProblem,
    LogisticProblem,
    sorted_pair_codes,
)

# name: (kind, default m, default n, default lambda, sparsified design)
FAMILIES = {
    "sparse_ls": ("ls", 1000, 1000, 1.0, True),
    "sparse_logistic": ("logistic", 1000, 1000, 1.0, True),
    "dense_overdet_ls": ("ls", 1000, 100, 0.0, False),
    "l1_underdet_ls": ("l1_ls", 1000, 10000, 1.0, True),
    "two_moons": ("graph", None, 500, 0.0, False),
}
GENERATORS = tuple(FAMILIES)

MANIFEST_KEYS = ("kind", "matrix", "rhs", "labels", "lambda", "scale",
                 "labeled_nodes", "x0")
# keys that may be null in general but that build_problem reads for a kind
KIND_KEYS = {"ls": ("rhs",), "l1_ls": ("rhs",), "logistic": ("labels",),
             "graph": ("labels", "labeled_nodes")}


@dataclass
class Experiment:
    """A problem plus everything needed to serialise and rebuild it."""

    kind: str                      # ls | logistic | l1_ls | graph
    matrix: SparseMatrix           # design matrix, or graph adjacency
    rhs: Optional[np.ndarray]      # right-hand side b (ls kinds)
    labels: Optional[np.ndarray]   # +-1 labels, or clamped node values
    lam: float                     # l2 weight / l1 weight / node regulariser
    scale: Optional[float]         # least-squares scaling
    labeled_nodes: Optional[list]  # graph only
    x0: Optional[np.ndarray]
    problem: object = field(repr=False)
    free_nodes: Optional[np.ndarray] = field(default=None, repr=False)


def _design_matrix(rng, m, n, sparsify):
    A = rng.standard_normal((m, n)) + 1.0
    A *= np.abs(10.0 * rng.standard_normal(n))
    if sparsify:
        keep_p = min(1.0, 10.0 * np.log(n) / n)
        A *= rng.random((m, n)) < keep_p
    return A


def _two_moons_points(rng, n_pts, noise, radius=1.0, offset=0.5):
    n1 = n_pts // 2
    n2 = n_pts - n1
    t1 = rng.random(n1) * np.pi
    t2 = rng.random(n2) * np.pi
    pts = np.concatenate([
        np.column_stack([radius * np.cos(t1), radius * np.sin(t1)]),
        np.column_stack([radius - radius * np.cos(t2),
                         offset - radius * np.sin(t2)]),
    ])
    pts += noise * rng.standard_normal(pts.shape)
    labels = np.concatenate([np.ones(n1), -np.ones(n2)])
    return pts, labels


def _knn_edges(pts, k):
    """Symmetrised k-nearest-neighbour edges (rows i < j, sorted) with unit
    weights; each point's k + 1 nearest include itself, which is dropped."""
    n = len(pts)
    nearest = cKDTree(pts).query(pts, min(k + 1, n))[1].reshape(n, -1)
    rows = np.repeat(np.arange(n), nearest.shape[1])
    cols = nearest.ravel()
    # sort + diff dedupes far faster than np.unique's int64 hash table
    keep = rows != cols
    code = sorted_pair_codes(n, rows[keep], cols[keep])
    code = code[np.diff(code, prepend=-1) != 0]
    return np.column_stack([code // n, code % n]), np.ones(len(code))


def _edges_from_adjacency(adj):
    coo = adj.to_scipy_csc().tocoo()
    keep = coo.row < coo.col
    edges = np.column_stack([coo.row[keep], coo.col[keep]]).astype(np.int64)
    return edges, coo.data[keep].astype(np.float64)


def build_problem(kind, matrix, rhs, labels, lam, scale, labeled_nodes):
    """(problem, free_nodes) from manifest-level pieces."""
    if kind == "ls":
        return LeastSquaresProblem(matrix, rhs, l2_reg=lam, scale=scale), None
    if kind == "logistic":
        return LogisticProblem(matrix, labels, l2_reg=lam), None
    if kind == "l1_ls":
        smooth = LeastSquaresProblem(matrix, rhs, scale=scale)
        return CompositeProblem(smooth, L1Term(lam)), None
    if kind == "graph":
        edges, weights = _edges_from_adjacency(matrix)
        clamped = {int(v): float(labels[int(v)]) for v in labeled_nodes}
        return GraphQuadraticProblem.from_labeled_graph(
            matrix.shape[0], edges, weights, clamped, node_reg=lam)
    raise ValueError(f"unknown problem kind {kind!r}")


def gen_experiment(name, m=None, n=None, lam=None, seed=0, noise=0.1):
    """Build one of the experiment families in ``FAMILIES``.

    m, n and lam default per family; pass smaller values for desk-scale
    runs.  The x0 of every experiment is the origin (left as None here and
    resolved by the driver).
    """
    if name not in FAMILIES:
        raise ValueError(
            f"unknown experiment {name!r}; expected one of {', '.join(GENERATORS)}")
    kind, m0, n0, lam0, sparsify = FAMILIES[name]
    m = m0 if m is None else m
    n = n0 if n is None else n
    lam = lam0 if lam is None else lam
    if kind != "graph" and m < 1:
        raise ValueError(f"{name} needs m >= 1, got m={m}")
    n_min = 5 if kind == "graph" else 1  # the graph clamps 5 labeled nodes
    if n < n_min:
        raise ValueError(f"{name} needs n >= {n_min}, got n={n}")
    rng = np.random.default_rng(seed)
    rhs = labels = scale = nodes = None
    if kind == "graph":
        pts, truth = _two_moons_points(rng, n, noise)
        edges, weights = _knn_edges(pts, 5)
        A = SparseMatrix.from_coo(n, n, edges[:, 0], edges[:, 1], weights)
        nodes = sorted(int(v) for v in rng.choice(n, size=5, replace=False))
        labels = np.zeros(n)
        labels[nodes] = truth[nodes]
    else:
        dense = _design_matrix(rng, m, n, sparsify)
        A = SparseMatrix.from_dense(dense)
        if kind == "logistic":
            labels = np.sign(dense @ rng.standard_normal(n))
            labels[labels == 0] = 1.0
            labels[rng.random(m) < 0.1] *= -1.0
        else:
            rhs = A.to_dense() @ rng.standard_normal(n) + rng.standard_normal(m)
            scale = 0.5 if kind == "l1_ls" else 1.0 / (2 * m)
    problem, free = build_problem(kind, A, rhs, labels, lam, scale, nodes)
    return Experiment(kind=kind, matrix=A, rhs=rhs, labels=labels,
                      lam=float(lam), scale=scale, labeled_nodes=nodes,
                      x0=None, problem=problem, free_nodes=free)


def save_experiment(exp, outdir):
    """Write the experiment directory; returns the manifest path."""
    os.makedirs(outdir, exist_ok=True)
    manifest = dict.fromkeys(MANIFEST_KEYS)
    manifest["kind"] = exp.kind
    manifest["lambda"] = exp.lam
    manifest["scale"] = exp.scale
    manifest["labeled_nodes"] = exp.labeled_nodes
    exp.matrix.save_mtx(os.path.join(outdir, "matrix.mtx"))
    manifest["matrix"] = "matrix.mtx"
    if exp.rhs is not None:
        save_dense_mtx(os.path.join(outdir, "rhs.mtx"), exp.rhs)
        manifest["rhs"] = "rhs.mtx"
    if exp.labels is not None:
        save_dense_mtx(os.path.join(outdir, "labels.mtx"), exp.labels)
        manifest["labels"] = "labels.mtx"
    if exp.x0 is not None:
        save_dense_mtx(os.path.join(outdir, "x0.mtx"), exp.x0)
        manifest["x0"] = "x0.mtx"
    path = os.path.join(outdir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _manifest_number(manifest, key, positive=False):
    """manifest[key], which must be a finite number (> 0 if ``positive``)."""
    v = manifest[key]
    if (type(v) not in (int, float) or not math.isfinite(v)
            or (positive and v <= 0)):
        raise ValueError(f"manifest key {key!r} must be a finite number"
                         f"{' > 0' if positive else ''}, got {v!r}")
    return float(v)


def load_experiment(manifest_path):
    """Rebuild a saved experiment; a ValueError names any malformed key."""
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    missing = [k for k in MANIFEST_KEYS if k not in manifest]
    if missing:
        raise ValueError(f"manifest is missing keys: {', '.join(missing)}")
    kind = manifest["kind"]
    if not isinstance(kind, str):
        raise ValueError(f"manifest key 'kind' must be a string, got {kind!r}")
    for key in ("matrix", "rhs", "labels", "x0"):
        # a file name; only the matrix may not be null
        v = manifest[key]
        if not (isinstance(v, str) or (v is None and key != "matrix")):
            raise ValueError(f"manifest key {key!r} must name a file, "
                             f"got {v!r}")
    for key in KIND_KEYS.get(kind, ()):
        if manifest[key] in (None, ""):
            raise ValueError(f"a {kind!r} manifest needs {key!r}, "
                             "which is empty")
    lam = _manifest_number(manifest, "lambda")
    scale = (_manifest_number(manifest, "scale", positive=True)
             if kind in ("ls", "l1_ls") else manifest["scale"])
    base = os.path.dirname(os.path.abspath(manifest_path))

    def _vec(key):
        return (load_dense_mtx(os.path.join(base, manifest[key]))
                if manifest[key] else None)

    matrix = SparseMatrix.load_mtx(os.path.join(base, manifest["matrix"]))
    rhs, labels, x0 = _vec("rhs"), _vec("labels"), _vec("x0")
    nodes = manifest["labeled_nodes"]
    if kind == "graph":
        n = matrix.shape[0]
        if not (isinstance(nodes, list) and all(
                type(v) is int and 0 <= v < n for v in nodes)):
            raise ValueError("manifest key 'labeled_nodes' must list "
                             f"integers in [0, {n}), got {nodes!r}")
        if labels.shape != (n,):
            raise ValueError("manifest key 'labels' must hold one value "
                             f"per node, shape ({n},), got {labels.shape}")
    problem, free = build_problem(kind, matrix, rhs, labels, lam, scale,
                                  nodes)
    return Experiment(kind=kind, matrix=matrix, rhs=rhs,
                      labels=labels, lam=lam, scale=scale,
                      labeled_nodes=nodes, x0=x0, problem=problem,
                      free_nodes=free)


def _composite_reference(comp, polish_passes=60):
    """Split |x_i| into positive/negative parts, hand boxes to the bounded
    quasi-Newton solver, then polish with exact coordinate steps (which snap
    the support) and report the polished point."""
    smooth = comp.smooth
    n = comp.n
    idx, sgn, weight, bounds = [], [], [], []
    for i in range(n):
        kind = comp.gkind[i]
        if kind == ABS and comp.p1[i] > 0:
            idx += [i, i]
            sgn += [1.0, -1.0]
            weight += [comp.p1[i]] * 2
            bounds += [(0.0, None)] * 2
        elif kind == BOX:
            idx.append(i)
            sgn.append(1.0)
            weight.append(0.0)
            bounds.append((comp.p1[i] if np.isfinite(comp.p1[i]) else None,
                           comp.p2[i] if np.isfinite(comp.p2[i]) else None))
        else:
            idx.append(i)
            sgn.append(1.0)
            weight.append(0.0)
            bounds.append((None, None))
    idx = np.array(idx)
    sgn = np.array(sgn)
    weight = np.array(weight)

    def to_x(z):
        x = np.zeros(n)
        np.add.at(x, idx, sgn * z)
        return x

    def fun(z):
        return smooth.eval(to_x(z)) + float(weight @ z)

    def jac(z):
        return smooth.full_grad(to_x(z))[idx] * sgn + weight

    z0 = np.zeros(len(idx))
    for j, (lo, hi) in enumerate(bounds):
        if lo is not None:
            z0[j] = max(z0[j], lo)
        if hi is not None:
            z0[j] = min(z0[j], hi)
    res = scipy.optimize.minimize(
        fun, z0, jac=jac, method="L-BFGS-B", bounds=bounds,
        options={"ftol": 1e-18, "gtol": 1e-12, "maxiter": 50000,
                 "maxfun": 200000})
    trace = run(comp, "cyclic", step="exact", x0=to_x(res.x), tol=1e-13,
                max_iters=polish_passes * n)
    return comp.eval(trace.final_x), trace.final_x


def reference_minimum(problem):
    """(f*, x*) to high accuracy, by the cheapest reliable route per kind."""
    if isinstance(problem, CompositeProblem):
        return _composite_reference(problem)
    if isinstance(problem, LeastSquaresProblem):
        H = problem.hessian()
        target = 2.0 * problem.scale * problem.A.rmatvec(problem.b)
        xstar = np.linalg.lstsq(H, target, rcond=None)[0]
        return problem.eval(xstar), xstar
    if isinstance(problem, GraphQuadraticProblem):
        xstar = np.linalg.lstsq(problem.hessian(), problem.node_lin,
                                rcond=None)[0]
        return problem.eval(xstar), xstar
    if isinstance(problem, LogisticProblem):
        res = scipy.optimize.minimize(
            problem.eval, np.zeros(problem.n), jac=problem.full_grad,
            method="L-BFGS-B",
            options={"gtol": 1e-12, "ftol": 1e-15, "maxiter": 20000})
        return float(res.fun), res.x
    raise ValueError(f"no reference strategy for {type(problem).__name__}")


# --- the two showcase problems for the proximal rules -----------------------

@dataclass
class CounterexampleCase:
    name: str
    f0: float
    fstar: float
    rho: float                     # the guaranteed model-decrease factor
    rows: list                     # (rule, coordinate, f1, ratio)


def _counterexample_smooth(b):
    A = SparseMatrix.from_dense(np.diag([1.0, 0.7]))
    return LeastSquaresProblem(A, np.asarray(b, dtype=np.float64), scale=0.5)


def run_counterexamples():
    """One proximal step of each greedy rule on the two showcase problems.

    Both share the Hessian diag(1, 0.49), whose 1-norm strong convexity
    0.49/1.49 makes the guaranteed factor 1/1.49 ~ 0.671.  The step-length
    and subgradient rules each get trapped by one of the cases (ratio well
    above the factor); the model-decrease rule meets it on both.
    """
    from .problems import BoxTerm  # local: avoids polluting module surface

    rho = 1.0 / 1.49
    cases = []
    specs = [
        ("nonnegative", _counterexample_smooth([-1.0, -3.0]),
         BoxTerm(0.0, np.inf), np.array([1.0, 0.1]), 5.0),
        ("l1", _counterexample_smooth([2.0, -1.0]),
         L1Term(1.0), np.array([0.4, 0.5]), 2.0),
    ]
    for name, smooth, term, x0, fstar in specs:
        comp = CompositeProblem(smooth, term)
        f0 = comp.eval(x0)
        rows = []
        for rule in ("gs-s", "gs-r", "gs-q"):
            trace = run(comp, rule, x0=x0, max_iters=1)
            f1 = trace.objective[1]
            rows.append((rule, trace.coord[1], f1,
                         (f1 - fstar) / (f0 - fstar)))
        cases.append(CounterexampleCase(name=name, f0=f0, fstar=fstar,
                                        rho=rho, rows=rows))
    return cases


def counterexample_text(cases):
    lines = []
    for case in cases:
        lines.append(f"case {case.name}: f0 = {case.f0:.6f}, "
                     f"f* = {case.fstar:.6f}, guaranteed factor = {case.rho:.6f}")
        for rule, coord, f1, ratio in case.rows:
            flag = "ok" if ratio <= case.rho + 1e-9 else "exceeds factor"
            lines.append(f"  {rule:<5} -> coordinate {coord}, "
                         f"f1 = {f1:.6f}, ratio = {ratio:.6f}  [{flag}]")
    return "\n".join(lines)
