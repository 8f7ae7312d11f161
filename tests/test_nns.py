"""Nearest-neighbour greedy selection versus dense scans of the same scores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedycd.descent import run
from greedycd.linalg import SparseMatrix
from greedycd.nns import BallTreeIndex
from greedycd.problems import (
    CompositeProblem,
    GraphQuadraticProblem,
    L1Term,
    LeastSquaresProblem,
    LogisticProblem,
)
from greedycd.tracker import H1Tracker, make_tracker

from helpers import dense_select


def ls_problem(rng, m, n, scale=0.5):
    A = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    return LeastSquaresProblem(SparseMatrix.from_dense(A), b, scale=scale), A


def test_biased_query_matches_a_hand_rolled_scan():
    rng = np.random.default_rng(0)
    for trial in range(30):
        m = int(rng.integers(3, 12))
        n = int(rng.integers(1, 20))
        prob, A = ls_problem(rng, m, n)
        index = BallTreeIndex(prob, mode="biased")
        q = rng.normal(size=m)
        grad = A.T @ q
        oracle = int(np.argmax(np.abs(grad) - 0.5 * (A**2).sum(axis=0)))
        assert index.query(q, grad) == oracle, trial


def test_gsl_query_matches_the_weighted_gradient_argmax():
    rng = np.random.default_rng(1)
    for trial in range(30):
        m = int(rng.integers(3, 12))
        n = int(rng.integers(2, 20))
        prob, A = ls_problem(rng, m, n)
        index = BallTreeIndex(prob, mode="gsl")
        q = rng.normal(size=m)
        grad = A.T @ q
        oracle = int(np.argmax(np.abs(grad) / np.sqrt(prob.L_per_coord)))
        assert index.query(q, grad) == oracle, trial


def test_tree_and_dense_twin_agree_everywhere():
    rng = np.random.default_rng(2)
    for mode in ("biased", "gsl"):
        prob, A = ls_problem(rng, 8, 50)
        index = BallTreeIndex(prob, mode=mode)
        for _ in range(50):
            q = rng.normal(size=8)
            grad = A.T @ q
            assert index.query(q, grad) == dense_select(index, grad)


def test_zero_query_selects_the_shortest_column():
    A = np.array([[3.0, 1.0, 2.0, 1.0],
                  [0.0, 0.5, 1.0, 0.5]])
    prob = LeastSquaresProblem(SparseMatrix.from_dense(A), np.zeros(2))
    index = BallTreeIndex(prob, mode="biased")
    grad = np.zeros(4)
    # scores are -||a_i||^2/2; columns 1 and 3 tie, smallest index wins
    assert index.query(np.zeros(2), grad) == 1


def test_duplicate_columns_fold_to_the_first():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(6, 5))
    A[:, 4] = A[:, 2]
    prob = LeastSquaresProblem(SparseMatrix.from_dense(A), np.zeros(6))
    index = BallTreeIndex(prob, mode="gsl")
    q = A[:, 2] / np.linalg.norm(A[:, 2])  # aligned with the duplicated pair
    grad = A.T @ q
    assert index.query(q, grad) == 2


def test_index_validation():
    rng = np.random.default_rng(4)
    A = SparseMatrix.from_dense(rng.normal(size=(4, 3)))
    ridged = LeastSquaresProblem(A, np.zeros(4), l2_reg=0.5)
    with pytest.raises(ValueError, match="l2_reg"):
        BallTreeIndex(ridged)
    plain = LeastSquaresProblem(A, np.zeros(4))
    with pytest.raises(ValueError, match="unknown index mode"):
        BallTreeIndex(plain, mode="cosine")
    hollow = np.zeros((4, 3))
    hollow[:, :2] = rng.normal(size=(4, 2))
    empty_col = LeastSquaresProblem(SparseMatrix.from_dense(hollow), np.zeros(4))
    with pytest.raises(ValueError, match="empty column"):
        BallTreeIndex(empty_col, mode="gsl")
    graph = GraphQuadraticProblem(3, [(0, 1), (1, 2)], np.ones(2),
                                  node_quad=np.ones(3))
    with pytest.raises(ValueError, match="matrix"):
        BallTreeIndex(graph)


def test_underflowing_column_is_refused_before_any_build_work(monkeypatch):
    # column 1 is not empty, but its one entry squares to 0
    A = np.array([[1.0, 1.19e-195, 0.5],
                  [2.0, 0.0, -1.0]])
    prob = LeastSquaresProblem(SparseMatrix.from_dense(A), np.zeros(2))
    assert prob.L_per_coord[1] == 0.0
    refused = r"column 1\b.*empty column.*underflow"
    with pytest.raises(ValueError, match=refused):
        BallTreeIndex(prob, mode="gsl")

    def no_build(*args, **kwargs):
        raise AssertionError("build work before the column check")

    monkeypatch.setattr(SparseMatrix, "to_dense", no_build)
    monkeypatch.setattr(H1Tracker, "_rebuild_caches", no_build)
    with pytest.raises(ValueError, match=refused):
        make_tracker(prob, np.zeros(3), backend="nns")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_query_equals_the_dense_scan_at_every_scale(data):
    mode = data.draw(st.sampled_from(["biased", "gsl"]), label="mode")
    m = data.draw(st.integers(1, 6), label="m")
    n = data.draw(st.integers(1, 10), label="n")
    small = st.integers(-3, 3)
    A = np.array(data.draw(st.lists(small, min_size=m * n, max_size=m * n)),
                 dtype=np.float64).reshape(m, n)
    if mode == "gsl":
        for j in np.flatnonzero(~A.any(axis=0)):
            A[j % m, j] = 1.0
    exps = data.draw(st.lists(st.integers(-150, 150), min_size=n,
                              max_size=n), label="column scales")
    A *= 10.0 ** np.array(exps, dtype=np.float64)
    for src, dst in data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                 st.integers(0, n - 1)),
                                       max_size=3), label="duplicates"):
        A[:, dst] = A[:, src]
    prob = LeastSquaresProblem(SparseMatrix.from_dense(A), np.zeros(m))
    index = BallTreeIndex(prob, mode=mode)
    kind = data.draw(st.sampled_from(["zero", "column", "random"]),
                     label="q")
    if kind == "zero":
        q = np.zeros(m)
    elif kind == "column":
        # a signed copy of a stored point, at distance 0 from it
        j = data.draw(st.integers(0, n - 1), label="column")
        q = A[:, j].copy()
        if mode == "gsl" and q.any():
            q /= np.linalg.norm(q)
        q *= data.draw(st.sampled_from([-1.0, 1.0]), label="sign")
    else:
        q = np.array(data.draw(st.lists(small, min_size=m, max_size=m)),
                     dtype=np.float64)
        q *= 10.0 ** data.draw(st.integers(-150, 150), label="q scale")
    grad = A.T @ q
    assert index.query(q, grad) == dense_select(index, grad)


def test_run_with_nns_backend_replays_against_dense_scans():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(40, 25))
    b = rng.normal(size=40)
    prob = LeastSquaresProblem(SparseMatrix.from_dense(A), b)
    trace = run(prob, "gsl", backend="nns", max_iters=100, tol=0.0)
    index = BallTreeIndex(prob, mode="gsl")
    tracker = make_tracker(prob, np.zeros(25))
    for k in range(1, len(trace)):
        assert dense_select(index, tracker.gradient) == trace.coord[k]
        tracker.apply_update(trace.coord[k], trace.step[k])
    # the biased index ranks |g_i| - ||a_i||^2/2, which is not GS
    with pytest.raises(ValueError, match="gsl rule only"):
        run(prob, "gs", backend="nns", max_iters=1)


def test_gsl_nns_run_equals_the_dense_gsl_run():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(30, 20))
    b = rng.normal(size=30)
    prob = LeastSquaresProblem(SparseMatrix.from_dense(A), b)
    dense = run(prob, "gsl", backend="scan", max_iters=150, tol=0.0)
    tree = run(prob, "gsl", backend="nns", max_iters=150, tol=0.0)
    assert dense.coord == tree.coord
    assert dense.step == tree.step
    assert dense.objective == tree.objective


def test_gsl_nns_works_on_logistic_losses():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(50, 12))
    w = rng.normal(size=12)
    labels = np.sign(A @ w).astype(np.float64)
    prob = LogisticProblem(SparseMatrix.from_dense(A), labels)
    dense = run(prob, "gsl", backend="scan", max_iters=80, tol=0.0)
    tree = run(prob, "gsl", backend="nns", max_iters=80, tol=0.0)
    assert dense.coord == tree.coord
    assert dense.objective == tree.objective


def test_run_rejects_unsupported_nns_combinations():
    rng = np.random.default_rng(8)
    A = SparseMatrix.from_dense(rng.normal(size=(6, 4)))
    prob = LeastSquaresProblem(A, np.zeros(6))
    with pytest.raises(ValueError, match="gsl rule only"):
        run(prob, "uniform", backend="nns", max_iters=1)
    comp = CompositeProblem(prob, L1Term(0.1))
    with pytest.raises(ValueError, match="composite"):
        run(comp, "gsl", backend="nns", max_iters=1)
    graph = GraphQuadraticProblem(3, [(0, 1), (1, 2)], np.ones(2),
                                  node_quad=np.ones(3))
    with pytest.raises(ValueError, match="least-squares or"):
        run(graph, "gsl", backend="nns", max_iters=1)