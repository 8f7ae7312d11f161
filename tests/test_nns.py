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
)
from greedycd.tracker import H1Tracker, make_tracker

from helpers import dense_select


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
    with pytest.raises(ValueError, match="least-squares or"):
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
    # the pick is a dense scan's of the index's own scores, and it attains
    # the maximum of the mode's score computed from A alone
    mode = data.draw(st.sampled_from(["biased", "gsl"]), label="mode")
    grid = data.draw(st.booleans(), label="grid")
    m = data.draw(st.integers(1, 6 if grid else 12), label="m")
    n = data.draw(st.integers(1, 10 if grid else 50), label="n")
    small = st.integers(-3, 3)
    if grid:
        A = np.array(data.draw(st.lists(small, min_size=m * n,
                                        max_size=m * n)),
                     dtype=np.float64).reshape(m, n)
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                              label="seed"))
        A = rng.standard_normal((m, n))
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
        q = (np.array(data.draw(st.lists(small, min_size=m, max_size=m)),
                      dtype=np.float64) if grid else rng.standard_normal(m))
        q *= 10.0 ** data.draw(st.integers(-150, 150), label="q scale")
    grad = A.T @ q
    pick = index.query(q, grad)
    assert pick == dense_select(index, grad)
    # |A^T q| / sqrt(L_i) (L_i = ||a_i||^2 at scale 1/2) or
    # |A^T q| - ||a_i||^2 / 2; the tolerance covers a division against a
    # product with the reciprocal
    g, sq = np.abs(grad), (A * A).sum(axis=0)
    if mode == "gsl":
        assert index.weights is prob.gsl_weights()
        oracle = g / np.sqrt(sq)
        largest = oracle.max()
    else:
        oracle = g - 0.5 * sq
        largest = max(g.max(), 0.5 * sq.max())
    assert oracle.max() - oracle[pick] <= 1e-12 * largest


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