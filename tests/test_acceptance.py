"""Acceptance battery: twelve numbered end-to-end criteria.

Each criterion is one test with its tolerances pinned inline; a criterion
prints a single machine-greppable line (``criterion NN <name>: PASS``) when
it holds, and fails the ordinary pytest way when it does not.  Run with
``pytest -v`` to see one line per criterion either way.
"""

import math
import time

import numpy as np
import pytest

from greedycd.analysis import (
    additive_gap_bound,
    hessian_constants,
    mu1_brute,
    mu1_diag,
    mu_ell2,
    muL_brute,
    muL_diag,
    rate_factor,
)
from greedycd.descent import race, run
from greedycd.harness import gen_experiment, reference_minimum, run_counterexamples
from greedycd.linalg import IndexedMaxHeap, SparseMatrix
from greedycd.nns import BallTreeIndex
from greedycd.problems import (
    BoxTerm,
    CompositeProblem,
    GraphQuadraticProblem,
    L1Term,
    LeastSquaresProblem,
    LogisticProblem,
    ZeroTerm,
    quadratic_problem,
)
from greedycd.rules import make_rule, max_improvement_select
from greedycd.tracker import GradScorer, make_tracker

from helpers import dense_select, random_sparse, random_spd


def _report(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: PASS{suffix}")


def diag_ls(a, b):
    """f(x) = 0.5 ||diag(a) x - b||^2: f* = 0, L_i = a_i^2."""
    return LeastSquaresProblem(np.diag(np.asarray(a, dtype=np.float64)),
                               np.asarray(b, dtype=np.float64), scale=0.5)


def contraction_ratios(gaps, floor):
    """Successive gap ratios while the gap is still meaningfully positive."""
    out = []
    for prev, cur in zip(gaps[:-1], gaps[1:]):
        if prev <= floor:
            break
        out.append(cur / prev)
    return out


# --- 1. one-step showcase ratios and bounds ---------------------------------

def test_c01_one_step_showcase_ratios_and_bounds():
    t0 = time.perf_counter()
    cases = {c.name: c for c in run_counterexamples()}
    ratio = {(case.name, rule): r
             for case in cases.values() for rule, _, _, r in case.rows}

    assert ratio[("nonnegative", "gs-s")] == pytest.approx(0.88, abs=0.02)
    assert ratio[("nonnegative", "gs-r")] == pytest.approx(0.12, abs=0.02)
    assert ratio[("nonnegative", "gs-q")] == pytest.approx(0.12, abs=0.02)
    assert ratio[("l1", "gs-r")] == pytest.approx(0.84, abs=0.02)
    assert ratio[("l1", "gs-q")] == pytest.approx(0.16, abs=0.02)

    consts = hessian_constants(np.diag([1.0, 0.49]))
    bound_uniform = rate_factor("uniform", consts)
    bound_greedy = rate_factor("gs", consts)
    assert bound_uniform == pytest.approx(0.755, abs=0.005)
    assert bound_greedy == pytest.approx(0.671, abs=0.005)

    # the subgradient and step-length rules each break both bounds on their
    # bad case; the model-decrease rule honours both bounds on both cases
    for bad in (ratio[("nonnegative", "gs-s")], ratio[("l1", "gs-r")]):
        assert bad > bound_uniform and bad > bound_greedy
    for case in cases.values():
        q = ratio[(case.name, "gs-q")]
        assert q <= bound_greedy and q <= bound_uniform

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "one-step-showcase-ratios-and-bounds",
            f"{elapsed * 1e3:.0f} ms")


# --- 2. closed-form 1-norm constant vs brute force ---------------------------

def test_c02_mu1_closed_form_vs_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(201)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        d = rng.uniform(0.05, 10.0, size=n)
        closed = mu1_diag(d)
        brute = mu1_brute(np.diag(d))
        assert abs(brute - closed) <= 1e-9 * closed

    for _ in range(100):
        n = int(rng.integers(2, 7))
        H = random_spd(rng, n, lam_lo=0.2, lam_hi=3.0)
        mu = mu_ell2(H)
        mu1 = mu1_brute(H)
        assert mu / n <= mu1 * (1 + 1e-9) + 1e-12
        assert mu1 <= mu * (1 + 1e-9) + 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(2, "mu1-closed-form-vs-brute-force", f"{elapsed:.1f} s")


# --- 3. closed-form weighted constant vs brute force --------------------------

def test_c03_muL_closed_form_vs_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(301)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        d = rng.uniform(0.05, 10.0, size=n)
        # half the instances use the natural curvature weights L = d, half a
        # perturbed weight vector
        L = d if trial % 2 == 0 else d * rng.uniform(0.5, 2.0, size=n)
        closed = muL_diag(d, L)
        brute = muL_brute(np.diag(d), L)
        assert abs(brute - closed) <= 1e-9 * closed

        mu = float(d.min())
        mu1 = mu1_diag(d)
        slack = 1e-12
        assert max(mu / (n * L.mean()), mu1 / L.max()) <= closed + slack
        assert closed <= mu1 / L.min() + slack

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(3, "muL-closed-form-vs-brute-force", f"{elapsed:.1f} s")


# --- 4. per-iteration rate certificates ---------------------------------------

def test_c04_per_iteration_rate_certificates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(401)
    n = 50
    first = None
    for _ in range(20):
        a = rng.uniform(0.4, 3.0, size=n)
        p = diag_ls(a, rng.standard_normal(n))
        if first is None:
            first = p
        x0 = rng.standard_normal(n)
        L_per = a * a
        mu1 = mu1_diag(L_per)
        muL = muL_diag(L_per, L_per)
        L = float(L_per.max())

        gaps = run(p, "gs", step="const", x0=x0, max_iters=200,
                   tol=0.0).objective
        floor = 1e-13 * max(1.0, gaps[0])
        for r in contraction_ratios(gaps, floor):
            assert r <= 1.0 - mu1 / L + 1e-10

        gaps = run(p, "gsl", step="const-coord", x0=x0, max_iters=200,
                   tol=0.0).objective
        for r in contraction_ratios(gaps, floor):
            assert r <= 1.0 - muL + 1e-10

    # single-step mean contraction of curvature-proportional sampling
    p = first
    a2 = p.L_per_coord
    mu, Lbar = float(a2.min()), float(a2.mean())
    x0 = np.random.default_rng(402).standard_normal(n)
    gap0 = p.eval(x0)
    trials = 10_000
    ratios = np.empty(trials)
    for t in range(trials):
        tr = run(p, "lipschitz", step="const-coord", x0=x0, max_iters=1,
                 tol=0.0, seed=t)
        ratios[t] = tr.objective[-1] / gap0
    mean = float(ratios.mean())
    se = float(ratios.std(ddof=1)) / math.sqrt(trials)
    assert mean <= 1.0 - mu / (n * Lbar) + 3 * se

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(4, "per-iteration-rate-certificates",
            f"{elapsed:.1f} s; sampling mean {mean:.6f} vs "
            f"{1.0 - mu / (n * Lbar):.6f} + 3se {3 * se:.1e}")


# --- 5. tracker vs dense recompute, within work budgets -----------------------

def bounded_degree_graph(rng, n, dmax, target_edges):
    deg = np.zeros(n, dtype=np.int64)
    edges = set()
    trials = 0
    while len(edges) < target_edges and trials < 50 * target_edges:
        trials += 1
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a == b or deg[a] >= dmax or deg[b] >= dmax:
            continue
        key = (min(a, b), max(a, b))
        if key in edges:
            continue
        edges.add(key)
        deg[a] += 1
        deg[b] += 1
    edges = np.array(sorted(edges), dtype=np.int64)
    return GraphQuadraticProblem(
        n, edges, rng.uniform(0.5, 2.0, size=len(edges)),
        node_quad=rng.uniform(0.1, 0.6, size=n),
        node_lin=rng.standard_normal(n))


def test_c05_tracker_matches_dense_recompute_within_budgets():
    t0 = time.perf_counter()
    rng = np.random.default_rng(501)
    steps = 10_000

    # separable-composition family: sparse 500 x 500 least squares
    A, dense = random_sparse(rng, 500, 500, density=0.02)
    p = LeastSquaresProblem(A, rng.standard_normal(500), l2_reg=0.3,
                            scale=1.0 / 1000)
    x = rng.standard_normal(500)
    tr = make_tracker(p, x, GradScorer(), backend="heap")
    c, r = A.max_col_nnz, A.max_row_nnz
    for _ in range(steps):
        i = int(rng.integers(500))
        delta = float(rng.standard_normal() * 0.3)
        stats = tr.apply_update(i, delta)
        x[i] += delta
        assert stats.touched_rows <= c
        assert stats.touched_grads <= c * r
        assert stats.heap_ops <= max(c * r, 1)
        g = 2 * p.scale * dense.T @ (dense @ x - p.b) + p.l2_reg * x
        scale = max(1.0, float(np.abs(g).max()))
        assert float(np.abs(tr.gradient - g).max()) <= 1e-8 * scale
        assert tr.peek() == int(np.argmax(np.abs(tr.gradient)))

    # graph family: 500 nodes, degree cap 5
    p2 = bounded_degree_graph(rng, 500, dmax=5, target_edges=1000)
    d = p2.max_degree
    assert d <= 5
    H = p2.hessian()
    x = rng.standard_normal(500)
    tr2 = make_tracker(p2, x, GradScorer(), backend="heap")
    for _ in range(steps):
        i = int(rng.integers(500))
        delta = float(rng.standard_normal() * 0.3)
        stats = tr2.apply_update(i, delta)
        x[i] += delta
        assert stats.touched_rows <= d
        assert stats.touched_grads <= d
        assert stats.heap_ops <= d + 1
        g = H @ x - p2.node_lin
        scale = max(1.0, float(np.abs(g).max()))
        assert float(np.abs(tr2.gradient - g).max()) <= 1e-8 * scale
        assert tr2.peek() == int(np.argmax(np.abs(tr2.gradient)))

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(5, "tracker-vs-dense-recompute-within-budgets",
            f"{elapsed:.1f} s; budgets c={c}, cr={c * r}, d={d}")


# --- 6. heap vs linear scan ---------------------------------------------------

def test_c06_heap_matches_linear_scan():
    t0 = time.perf_counter()
    rng = np.random.default_rng(601)
    n = 300
    # a small discrete key alphabet forces frequent exact ties
    keys = rng.integers(0, 10, size=n) / 8.0
    heap = IndexedMaxHeap(keys.copy())
    mirror = keys.copy()
    for _ in range(100_000):
        i = int(rng.integers(n))
        k = float(rng.integers(0, 10) / 8.0)
        heap.update_key(i, k)
        mirror[i] = k
        top = heap.peek()
        assert top == int(np.argmax(mirror))
        assert heap.peek_key() == mirror[top]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(6, "heap-matches-linear-scan", f"{elapsed:.1f} s")


# --- 7. tree selection vs dense selection --------------------------------------

def test_c07_tree_selection_matches_dense_selection():
    t0 = time.perf_counter()
    rng = np.random.default_rng(701)

    ls_instances = []
    for _ in range(50):
        m = int(rng.integers(20, 61))
        n = int(rng.integers(10, 41))
        A = rng.standard_normal((m, n)) * rng.uniform(0.3, 3.0, size=n)
        p = LeastSquaresProblem(A, rng.standard_normal(m), scale=0.5)
        ls_instances.append(p)
        a = run(p, "gsl", max_iters=100, tol=0.0, backend="scan")
        b = run(p, "gsl", max_iters=100, tol=0.0, backend="nns")
        assert a.coord == b.coord

    for _ in range(20):
        m = int(rng.integers(30, 61))
        n = int(rng.integers(10, 31))
        A = rng.standard_normal((m, n)) * rng.uniform(0.3, 3.0, size=n)
        y = np.where(rng.random(m) < 0.5, -1.0, 1.0)
        p = LogisticProblem(A, y)
        a = run(p, "gsl", max_iters=100, tol=0.0, backend="scan")
        b = run(p, "gsl", max_iters=100, tol=0.0, backend="nns")
        assert a.coord == b.coord

    # inner-product-biased mode: the tree answer equals the brute-force
    # argmax of |g_i| - 0.5 ||a_i||^2 at random states
    for p in ls_instances:
        index = BallTreeIndex(p, mode="biased")
        sq = np.asarray([float(v @ v) for v in p.A.to_dense().T])
        for _ in range(5):
            x = rng.standard_normal(p.n)
            q = 2 * p.scale * (p.A.matvec(x) - p.b)
            g = p.A.rmatvec(q)
            scores = np.abs(g) - 0.5 * sq
            assert index.query(q, g) == int(np.argmax(scores))
            assert dense_select(index, g) == int(np.argmax(scores))

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(7, "tree-selection-matches-dense-selection", f"{elapsed:.1f} s")


# --- 8. weighted greedy step is myopically optimal -----------------------------

def test_c08_weighted_greedy_step_is_myopically_optimal():
    t0 = time.perf_counter()
    rng = np.random.default_rng(801)
    for _ in range(100):
        H = random_spd(rng, 5, lam_lo=0.3, lam_hi=4.0)
        p = quadratic_problem(H, rng.standard_normal(5))
        x = rng.standard_normal(5)
        f0 = p.eval(x)
        g = p.full_grad(x)
        L = p.L_per_coord

        i = int(np.argmax(g * g / L))
        x_greedy = x.copy()
        x_greedy[i] -= g[i] / L[i]
        drop_greedy = f0 - p.eval(x_greedy)

        j, alpha = max_improvement_select(x, p)
        x_best = x.copy()
        x_best[j] += alpha
        drop_best = f0 - p.eval(x_best)

        assert abs(drop_greedy - drop_best) <= 1e-10 * max(1.0, abs(f0))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(8, "weighted-greedy-step-is-myopically-optimal",
            f"{elapsed:.1f} s")


# --- 9. exact steps never repeat on chains --------------------------------------

def test_c09_exact_steps_never_repeat_on_chains():
    t0 = time.perf_counter()
    rng = np.random.default_rng(901)
    for _ in range(20):
        n = int(rng.integers(5, 13))
        edges = np.column_stack([np.arange(n - 1), np.arange(1, n)])
        p = GraphQuadraticProblem(
            n, edges, rng.uniform(0.5, 2.0, size=n - 1),
            node_quad=rng.uniform(0.1, 1.0, size=n),
            node_lin=rng.standard_normal(n))
        trace = run(p, "gs", step="exact", x0=rng.standard_normal(n),
                    tol=1e-10, max_iters=2000)
        assert trace.converged
        coords = trace.coord[1:]
        assert len(coords) >= n  # the runs actually exercise the property

        for prev, cur in zip(coords[:-1], coords[1:]):
            assert cur != prev

        last_seen = {}
        for t, i in enumerate(coords):
            if i in last_seen:
                between = coords[last_seen[i] + 1:t]
                assert (i - 1 in between) or (i + 1 in between)
            last_seen[i] = t
    elapsed = time.perf_counter() - t0
    _report(9, "exact-steps-never-repeat-on-chains", f"{elapsed:.1f} s")


# --- 10. inexact greedy degradation bounds ---------------------------------------

def test_c10_inexact_greedy_degradation_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    n = 20
    for trial in range(10):
        a = rng.uniform(0.5, 2.5, size=n)
        p = diag_ls(a, rng.standard_normal(n))
        x0 = rng.standard_normal(n)
        L_per = a * a
        mu1 = mu1_diag(L_per)
        L = float(L_per.max())

        for eps in (0.0, 0.25, 0.5):
            rule = make_rule("gs-approx-mult", eps=eps)
            gaps = run(p, rule, step="const", x0=x0, max_iters=150,
                       tol=0.0).objective
            floor = 1e-13 * max(1.0, gaps[0])
            bound = 1.0 - mu1 * (1.0 - eps) ** 2 / L + 1e-10
            for r in contraction_ratios(gaps, floor):
                assert r <= bound

        # additive inexactness with a geometrically decaying budget
        decay = 0.8 * (1.0 - mu1 / L)
        rule = make_rule("gs-approx-add", eps=lambda k: decay**k)
        gaps = run(p, rule, step="const", x0=x0, max_iters=100,
                   tol=0.0).objective
        gap0 = gaps[0]
        for k in range(1, len(gaps)):
            eps_seq = decay ** np.arange(1, k + 1)
            _, bound = additive_gap_bound(gap0, eps_seq, mu1, L, L1=p.L1)
            assert gaps[k] <= bound * (1 + 1e-12) + 1e-12
    elapsed = time.perf_counter() - t0
    _report(10, "inexact-greedy-degradation-bounds", f"{elapsed:.1f} s")


# --- 11. rule rankings on the benchmark experiments -------------------------------

DESK = (
    ("sparse_ls", dict(m=200, n=200), ("uniform", "cyclic", "gs", "gsl")),
    ("sparse_logistic", dict(m=200, n=150), ("uniform", "cyclic", "gs", "gsl")),
    ("dense_overdet_ls", dict(m=300, n=60), ("uniform", "cyclic", "gs", "gsl")),
    ("l1_underdet_ls", dict(m=60, n=300),
     ("uniform", "cyclic", "gs-s", "gs-r", "gsl-q")),
    ("two_moons", dict(n=300, lam=1e-3), ("uniform", "cyclic", "gs", "gsl")),
)


def test_c11_rule_rankings_on_benchmark_experiments():
    t0 = time.perf_counter()
    summary = []
    for name, sizes, rules in DESK:
        gaps = {rule: [] for rule in rules}
        for seed in range(10):
            exp = gen_experiment(name, seed=seed, **sizes)
            fstar, _ = reference_minimum(exp.problem)
            iters = 5 * exp.problem.n
            traces = race(exp.problem, list(rules), iters, master_seed=seed,
                          backend="scan", tol=0.0)
            for rule, trace in zip(rules, traces):
                gap = trace.objective[-1] - fstar
                assert gap > -1e-8 * max(1.0, abs(fstar))
                gaps[rule].append(max(gap, 0.0))
        med = {rule: float(np.median(gaps[rule])) for rule in rules}
        summary.append(f"{name}: " + " ".join(f"{r}={med[r]:.3g}"
                                              for r in rules))
        if name == "l1_underdet_ls":
            for slower in ("uniform", "cyclic", "gs-s", "gs-r"):
                assert med["gsl-q"] < med[slower], (name, med)
        else:
            for fast in ("gs", "gsl"):
                for slower in ("uniform", "cyclic"):
                    assert med[fast] < med[slower], (name, med)

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(11, "rule-rankings-on-benchmark-experiments",
            f"{elapsed:.0f} s; " + "; ".join(summary))


# --- 12. model-decrease one-step bound with certificate ----------------------------

def random_composite(rng, n):
    A = rng.standard_normal((n + 2, n)) * rng.uniform(0.4, 2.0, size=n)
    smooth = LeastSquaresProblem(A, rng.standard_normal(n + 2), scale=0.5)
    terms = []
    for _ in range(n):
        kind = int(rng.integers(4))
        if kind == 0:
            terms.append(L1Term(float(rng.uniform(0.3, 2.0))))
        elif kind == 1:
            terms.append(BoxTerm(0.0, np.inf))
        elif kind == 2:
            terms.append(BoxTerm(-1.0, 1.0))
        else:
            terms.append(ZeroTerm())
    return CompositeProblem(smooth, terms)


def feasible_point(comp, rng):
    x = 0.8 * rng.standard_normal(comp.n)
    lo = np.where(np.isfinite(comp.p1) & (comp.gkind == 2), comp.p1, -np.inf)
    hi = np.where(np.isfinite(comp.p2) & (comp.gkind == 2), comp.p2, np.inf)
    return np.clip(x, lo, hi)


def test_c12_model_decrease_one_step_bound_certificate():
    t0 = time.perf_counter()
    from greedycd.analysis import gsq_certificate

    rng = np.random.default_rng(1201)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        comp = random_composite(rng, n)
        consts = hessian_constants(comp.smooth.hessian(),
                                   L_per=comp.L_per_coord)
        rho = 1.0 - consts.mu1 / consts.L
        fstar, _ = reference_minimum(comp)

        x0 = feasible_point(comp, rng)
        gap0 = comp.eval(x0) - fstar
        assert gap0 > -1e-10

        trace = run(comp, "gs-q", x0=x0, max_iters=1, tol=0.0)
        gap1 = trace.objective[-1] - fstar
        c = gsq_certificate(comp, x0)
        assert c >= -1e-12
        bound = rho * gap0 + (consts.mu1 / consts.L) * c
        assert bound - gap1 >= -1e-9

    elapsed = time.perf_counter() - t0
    _report(12, "model-decrease-one-step-bound-certificate",
            f"{elapsed:.1f} s")
