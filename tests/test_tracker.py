"""Tracker tests: every incremental quantity is compared against a fresh
dense recompute after each update, and work counters against the structural
budgets."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from greedycd import _kernels
from greedycd.descent import STEP_MODES, _resolve_step, run
from greedycd.harness import gen_experiment
from greedycd.linalg import SparseMatrix, column_sq_norms
from greedycd.nns import BallTreeIndex
from greedycd.problems import (BOX, BoxTerm, CompositeProblem,
                               GraphQuadraticProblem, L1Term,
                               LeastSquaresProblem, LogisticProblem,
                               ProxPass, ZeroTerm, safe_curvature)
from greedycd.rules import RULE_NAMES, ProxWorkRule, make_rule
from greedycd.tracker import (KAPPA, GradScorer, H1Tracker, H2Tracker,
                              ProxScorer, _TrackerBase, make_tracker,
                              takes_gram, takes_product)
from helpers import (EXTREME_FLOATS, draw_h1_problem, draw_triplet_matrix,
                     graph_move_loop, random_sparse, scan_argmax,
                     scatter_rows_loop)


def assert_tracker_matches(tr, problem, rtol=1e-9):
    assert np.allclose(tr.gradient, problem.full_grad(tr.x), rtol=rtol, atol=1e-12)
    assert np.isclose(tr.objective(), problem.eval(tr.x), rtol=rtol, atol=1e-12)


def assert_peek_near_max(tr):
    fresh = tr.scorer.compute(tr, np.arange(tr.n))[0]
    top = fresh.max()
    assert fresh[tr.peek()] >= top - 1e-12 * max(1.0, abs(top))


def random_bounded_degree_graph(rng, n, dmax):
    edges = set()
    deg = np.zeros(n, dtype=int)
    for _ in range(3 * n):
        a, b = rng.integers(n, size=2)
        if a == b or deg[a] >= dmax or deg[b] >= dmax:
            continue
        key = (min(a, b), max(a, b))
        if key in edges:
            continue
        edges.add(key)
        deg[a] += 1
        deg[b] += 1
    edges = np.array(sorted(edges), dtype=np.int64)
    w = rng.uniform(0.5, 2.0, size=len(edges))
    q = rng.uniform(0.1, 1.0, size=n)
    b = rng.standard_normal(n)
    return GraphQuadraticProblem(n, edges, w, node_quad=q, node_lin=b)


class TestH1Tracker:
    def test_init_matches_problem(self):
        rng = np.random.default_rng(0)
        A, _ = random_sparse(rng, 10, 6)
        p = LeastSquaresProblem(A, rng.standard_normal(10), l2_reg=0.3)
        tr = H1Tracker(p, rng.standard_normal(6), GradScorer())
        assert_tracker_matches(tr, p, rtol=1e-12)
        assert tr.peek() == scan_argmax(np.abs(tr.gradient))

    def test_identity_matrix_touches_one_of_everything(self):
        # one update gathers 1 entry of nnz = 16 > KAPPA: the scatter
        p = LeastSquaresProblem(np.eye(16), np.arange(16.0))
        for backend, heap_ops in (("heap", 1), ("scan", 0)):
            tr = H1Tracker(p, np.zeros(16), GradScorer(), backend=backend)
            assert not tr.product
            stats = tr.apply_update(2, 0.5)
            assert (stats.touched_rows, stats.touched_grads,
                    stats.heap_ops) == (1, 1, heap_ops)

    def test_small_identity_takes_the_product_and_counts_the_gather(self):
        # one update gathers 1 entry of nnz = 4 < KAPPA: the product, which
        # rekeys all 4 coordinates but reports the scatter's one entry
        p = LeastSquaresProblem(np.eye(4), np.arange(4.0))
        for backend, heap_ops in (("heap", 4), ("scan", 0)):
            tr = H1Tracker(p, np.zeros(4), GradScorer(), backend=backend)
            assert tr.product
            stats = tr.apply_update(2, 0.5)
            assert (stats.touched_rows, stats.touched_grads,
                    stats.heap_ops) == (1, 1, heap_ops)
            assert_tracker_matches(tr, p, rtol=1e-15)

    def test_zero_delta_still_touches(self):
        rng = np.random.default_rng(1)
        A, _ = random_sparse(rng, 8, 5)
        p = LeastSquaresProblem(A, rng.standard_normal(8))
        tr = H1Tracker(p, np.zeros(5), GradScorer())
        stats = tr.apply_update(1, 0.0)
        assert stats.touched_rows == A.column(1)[0].shape[0] > 0

    def test_random_updates_match_dense_oracle(self):
        rng = np.random.default_rng(2)
        # (m, n, density, every column nonempty): the base case, then
        # empty rows and columns, a single row, and a single column
        shapes = [(25, 12, 0.25, True), (25, 12, 0.05, False),
                  (1, 12, 0.5, True), (25, 1, 0.25, True)]
        for m, n, density, nonempty in shapes:
            A, _ = random_sparse(rng, m, n, density=density,
                                 ensure_nonempty_cols=nonempty)
            p = LeastSquaresProblem(A, rng.standard_normal(m), l2_reg=0.2,
                                    scale=1.0 / (2 * m))
            x0 = rng.standard_normal(n)
            trs = [H1Tracker(p, x0, GradScorer(), backend=backend)
                   for backend in ("heap", "scan")]
            c, r = A.max_col_nnz, A.max_row_nnz
            for _ in range(300):
                i = int(rng.integers(n))
                delta = float(rng.standard_normal() * 0.3)
                for tr in trs:
                    before = tr.objective()
                    stats = tr.apply_update(i, delta)
                    assert stats.touched_rows <= c
                    assert stats.touched_grads <= c * r
                    # the product path rekeys all n, the scatter the
                    # columns it hits
                    assert stats.heap_ops <= (n if tr.product
                                              else max(c * r, 1))
                    assert_tracker_matches(tr, p)
                    assert_peek_near_max(tr)
                    assert np.isclose(before + tr.last_obj_delta,
                                      tr.objective(), rtol=1e-12)
                assert np.array_equal(trs[0].gradient, trs[1].gradient)
                assert np.array_equal(trs[0].scores, trs[1].scores)
                assert trs[0].peek() == trs[1].peek()

    def test_logistic_updates_match_dense_oracle(self):
        rng = np.random.default_rng(3)
        A, _ = random_sparse(rng, 30, 8, density=0.3)
        y = np.sign(rng.standard_normal(30))
        y[y == 0] = 1.0
        p = LogisticProblem(A, y, l2_reg=0.1)
        tr = H1Tracker(p, np.zeros(8), GradScorer(weights=1 / np.sqrt(p.L_per_coord)))
        for _ in range(150):
            tr.apply_update(int(rng.integers(8)), float(rng.standard_normal() * 0.5))
            assert_tracker_matches(tr, p)
            assert_peek_near_max(tr)

    def test_gsl_score_example(self):
        # gradient exactly (2, 2.1) at x0 = (1, 0); weights 1/sqrt(L) turn it
        # into (2, 3), so the weighted pick differs from the plain greedy one
        p = LeastSquaresProblem(np.diag([1.0, 0.7]), [-1.0, -3.0], scale=0.5)
        tr = H1Tracker(p, np.array([1.0, 0.0]),
                       GradScorer(weights=1 / np.sqrt(p.L_per_coord)))
        assert np.allclose(tr.gradient, [2.0, 2.1], rtol=1e-12)
        assert np.allclose(tr.scores[[0, 1]], [2.0, 3.0], rtol=1e-12)
        assert tr.peek() == 1
        # at (1.2, 0) the gradient is (2.2, 2.1): plain greedy flips to 0
        # while the weighted score (2.2, 3.0) stays on 1
        tr2 = H1Tracker(p, np.array([1.2, 0.0]), GradScorer())
        assert tr2.peek() == 0
        tr3 = H1Tracker(p, np.array([1.2, 0.0]),
                        GradScorer(weights=1 / np.sqrt(p.L_per_coord)))
        assert tr3.peek() == 1

    def test_refresh_interval_keeps_oracle(self):
        rng = np.random.default_rng(4)
        A, _ = random_sparse(rng, 15, 7)
        p = LeastSquaresProblem(A, rng.standard_normal(15), l2_reg=0.05)
        tr = H1Tracker(p, rng.standard_normal(7), GradScorer(),
                       refresh_every=37)
        for k in range(200):
            tr.apply_update(int(rng.integers(7)), float(rng.standard_normal()))
            assert_tracker_matches(tr, p, rtol=1e-10)
            assert_peek_near_max(tr)

    def test_prox_scores_match_fresh_candidates(self):
        rng = np.random.default_rng(5)
        A, _ = random_sparse(rng, 12, 6)
        ls = LeastSquaresProblem(A, rng.standard_normal(12))
        comp = CompositeProblem(ls, L1Term(0.4))
        for mode, oracle in [
            ("r", lambda d, V, eta: np.abs(d)),
            ("q", lambda d, V, eta: -V),
            ("s", lambda d, V, eta: np.abs(eta)),
        ]:
            tr = H1Tracker(comp, rng.standard_normal(6),
                           ProxScorer(comp, ls.L, mode))
            for _ in range(60):
                tr.apply_update(int(rng.integers(6)), float(rng.standard_normal()))
                g = ls.full_grad(tr.x)
                d, V, _ = comp.prox_steps(tr.x, g, ls.L)
                eta = comp.min_subgradients(tr.x, g)
                assert np.allclose(np.sort(tr.scores), np.sort(oracle(d, V, eta)),
                                   rtol=1e-9, atol=1e-12)
                assert_peek_near_max(tr)

    def test_prox_scores_need_the_composite_problem(self):
        ls = LeastSquaresProblem(np.eye(2), np.zeros(2))
        comp = CompositeProblem(ls, L1Term(0.4))
        with pytest.raises(ValueError, match="composite problem"):
            H1Tracker(ls, np.zeros(2), ProxScorer(comp, ls.L, "q"))

    def test_backend_validation(self):
        p = LeastSquaresProblem(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            H1Tracker(p, np.zeros(2), GradScorer(), backend="tree")
        with pytest.raises(IndexError):
            H1Tracker(p, np.zeros(2)).apply_update(5, 1.0)

    def test_refresh_interval_must_be_positive(self):
        # 0 once divided by zero on the first update, and -1 rebuilt every
        # cache after every update
        ls = LeastSquaresProblem(np.eye(3), np.ones(3))
        graph = GraphQuadraticProblem(3, [(0, 1)], [1.0], node_quad=np.ones(3))
        for every in (0, -1):
            for p in (ls, graph):
                with pytest.raises(ValueError, match="refresh_every"):
                    make_tracker(p, np.zeros(3), refresh_every=every)
            with pytest.raises(ValueError, match="refresh_every"):
                run(ls, "gs", refresh_every=every)

    def test_scanless_tracker_peek_raises(self):
        p = LeastSquaresProblem(np.eye(2), np.zeros(2))
        tr = H1Tracker(p, np.zeros(2))
        with pytest.raises(ValueError):
            tr.peek()

    def test_sparse_kernels_equal_per_entry_loops(self):
        # the vectorized column and row updates must add in the loops' order
        rng = np.random.default_rng(11)
        A, _ = random_sparse(rng, 30, 20, density=0.1,
                             ensure_nonempty_cols=False)
        for j in range(20):
            a, b = A.col_indptr[j], A.col_indptr[j + 1]
            y = rng.standard_normal(30)
            want = y.copy()
            for t in range(a, b):
                want[A.col_rows[t]] += 0.7 * A.col_vals[t]
            _kernels.col_axpy(a, b, A.col_rows, A.col_vals, 0.7, y)
            assert np.array_equal(y, want)
        for rows in ([], [4], [0, 3, 4, 17, 29], list(range(30))):
            rows = np.array(rows, dtype=np.int64)
            dg = rng.standard_normal(rows.shape[0])
            target = rng.standard_normal(20)
            want = target.copy()
            hit, count = scatter_rows_loop(A, rows, dg, want)
            cols, got_count = _kernels.scatter_row_deltas(
                rows, dg, A.row_indptr, A.row_cols, A.row_vals, target)
            assert np.array_equal(target, want)
            assert cols.tolist() == hit
            assert got_count == count


class TestScatterKernel:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_scatter_equals_the_per_entry_loop_bit_for_bit(self, data):
        m = data.draw(st.integers(1, 7), label="m")
        n = data.draw(st.integers(1, 7), label="n")
        A = draw_triplet_matrix(data, m, n)
        # a column's rows are distinct and sorted; the kernel takes any list
        rows = data.draw(st.one_of(
            st.just([]), st.just(list(range(m))),
            st.lists(st.integers(0, m - 1), max_size=2 * m)), label="rows")
        rows = np.array(rows, dtype=np.int64)
        dg = np.array(data.draw(st.lists(
            EXTREME_FLOATS, min_size=len(rows), max_size=len(rows)),
            label="dg"), dtype=np.float64)
        target = np.array(data.draw(st.lists(
            EXTREME_FLOATS, min_size=n, max_size=n), label="target"))
        want = target.copy()
        # products of the extremes may overflow; both sides must agree anyway
        with np.errstate(over="ignore", invalid="ignore"):
            hit, count = scatter_rows_loop(A, rows, dg, want)
            cols, got_count = _kernels.scatter_row_deltas(
                rows, dg, A.row_indptr, A.row_cols, A.row_vals, target)
        assert np.array_equal(target.view(np.int64), want.view(np.int64))
        gathered = [c for r in rows for c in A.row(r)[0].tolist()]
        assert cols.dtype == np.int64
        assert cols.tolist() == hit == sorted(set(gathered))
        assert got_count == count == len(gathered)


def draw_graph(data, n, weight, node_term):
    """A GraphQuadraticProblem on n nodes: distinct edges drawn as pairs
    (so some nodes may stay isolated), weights from ``weight``, and node
    terms that are all zero or drawn from ``node_term``."""
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1)),
                               max_size=2 * n), label="pairs")
    edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    w = data.draw(st.lists(weight, min_size=len(edges),
                           max_size=len(edges)), label="weights")
    node = {}
    for name in ("node_quad", "node_lin"):
        if data.draw(st.booleans(), label=f"zero {name}"):
            node[name] = np.zeros(n)
        else:
            node[name] = np.array(data.draw(st.lists(
                node_term, min_size=n, max_size=n), label=name))
    return GraphQuadraticProblem(n, np.array(edges, dtype=np.int64)
                                 .reshape(-1, 2), w, **node)


# nonnegative edge weights: moderate ones, zeros of both signs, subnormals,
# magnitudes near 1e-300 and 1e300, and anything finite
EXTREME_WEIGHTS = st.one_of(
    st.floats(0.0, 2.0), st.sampled_from([0.0, -0.0, 5e-324]),
    st.floats(0.0, 2.2250738585072014e-308), st.floats(1e-301, 1e-299),
    st.floats(1e299, 1e301), st.floats(0.0, allow_infinity=False))


# values of one magnitude, whose sums round, and the extremes
MOVE_VALUES = st.one_of(st.floats(-2.0, 2.0), EXTREME_FLOATS)


class TestGraphMoveKernel:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_graph_move_equals_the_loop_bit_for_bit(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        with np.errstate(over="ignore"):  # L_per_coord may overflow
            p = draw_graph(data, n, EXTREME_WEIGHTS, MOVE_VALUES)
        H = p.H

        def floats(size, label):
            return np.array(data.draw(st.lists(
                MOVE_VALUES, min_size=size, max_size=size), label=label),
                dtype=np.float64)

        x, grad = floats(n, "x"), floats(n, "grad")
        i = data.draw(st.integers(0, n - 1), label="i")
        new_xi = data.draw(MOVE_VALUES, label="new_xi")
        # the move may also rescore what it changes: keys alone (no
        # scorer, or gs), or keys and weighted scores (gsl)
        rescore = data.draw(st.sampled_from(["none", "keys", "weighted"]),
                            label="rescore")
        keys, scores = floats(n, "keys"), floats(n, "scores")
        weights = np.array(data.draw(st.lists(
            EXTREME_WEIGHTS, min_size=n, max_size=n), label="weights"))
        want = [x.copy(), grad.copy(), keys.copy(), scores.copy()]
        # the extremes overflow to inf and nan; both sides must agree anyway
        with np.errstate(all="ignore"):
            want_dobj = graph_move_loop(
                i, new_xi, want[0], H.indptr, H.indices, H.data, want[1],
                p.node_quad, p.node_lin)
            # row i of H: i and its neighbours
            moved = H.indices[H.indptr[i]:H.indptr[i + 1]]
            args = {}
            if rescore != "none":
                args["keys"] = keys
                want[2][moved] = np.abs(want[1][moved])
            if rescore == "weighted":
                args.update(scores=scores, weights=weights)
                want[3][moved] = want[2][moved] * weights[moved]
        dobj = _kernels.graph_coord_update(
            i, new_xi, x, H.indptr, H.indices, H.data, grad, p.node_quad,
            p.node_lin, **args)
        assert type(dobj) is float
        assert (np.array([dobj]).view(np.int64)
                == np.array([want_dobj]).view(np.int64)).all()
        for got, exp in zip((x, grad, keys, scores), want):
            assert np.array_equal(got.view(np.int64), exp.view(np.int64))


class TestH2Tracker:
    def test_random_updates_match_dense_oracle(self):
        rng = np.random.default_rng(6)
        p = random_bounded_degree_graph(rng, 20, dmax=4)
        d = p.max_degree
        tr = H2Tracker(p, rng.standard_normal(20), GradScorer())
        for _ in range(300):
            stats = tr.apply_update(int(rng.integers(20)),
                                    float(rng.standard_normal()))
            assert stats.touched_rows <= d
            assert stats.touched_grads <= d
            assert stats.heap_ops <= d + 1
            assert_tracker_matches(tr, p)
            assert_peek_near_max(tr)

    def test_a_long_walk_without_refresh_keeps_the_gradient(self):
        # each move adds -w_ij * dx to the neighbours' entries; 1e5 random
        # moves with no refresh must not let those sums drift
        rng = np.random.default_rng(11)
        p = random_bounded_degree_graph(rng, 300, dmax=8)
        tr = H2Tracker(p, np.zeros(p.n), lean=True, refresh_every=10**6)
        moves = 10**5
        for i, delta in zip(rng.integers(p.n, size=moves).tolist(),
                            rng.standard_normal(moves).tolist()):
            tr.apply_update(i, delta)
        assert tr._updates == moves
        full = p.full_grad(tr.x)
        drift = np.abs(tr.gradient - full).max() / np.abs(full).max()
        assert drift <= 1e-12

    def test_chain_counts(self):
        p = GraphQuadraticProblem(3, [[0, 1], [1, 2]], [1.0, 1.0],
                                  node_quad=[0.5, 0.5, 0.5])
        for backend, heap_ops in (("heap", (3, 2)), ("scan", (0, 0))):
            tr = H2Tracker(p, np.zeros(3), GradScorer(), backend=backend)
            stats = tr.apply_update(1, 1.0)
            assert stats.touched_rows == 2 and stats.touched_grads == 2
            assert stats.heap_ops == heap_ops[0]
            stats = tr.apply_update(0, -0.5)
            assert stats.touched_rows == 1 and stats.heap_ops == heap_ops[1]


class TestEagerGraphTracker:
    """An h2 tracker against a dense recompute after every update."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_graph_tracker_matches_dense_recompute(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        p = draw_graph(data, n, st.floats(0.0, 2.0), st.floats(-2.0, 2.0))
        H = p.hessian()
        scorer = data.draw(st.sampled_from(["none", "plain", "weighted"]),
                           label="scorer")
        weights = (1 / np.sqrt(np.where(p.L_per_coord > 0,
                                        p.L_per_coord, 1.0))
                   if scorer == "weighted" else None)
        backend = data.draw(st.sampled_from(["scan", "heap"]),
                            label="backend")
        x0 = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n,
                                         max_size=n)))
        tr = H2Tracker(p, x0,
                       None if scorer == "none" else GradScorer(weights),
                       backend=backend,
                       refresh_every=data.draw(st.sampled_from([1, 3, 10000]),
                                               label="refresh_every"))
        # |x| stays below 12 over at most 10 steps of size <= 1, which
        # bounds every term the caches sum
        scale = (1.0 + 12.0 * (np.abs(H).sum()
                               + np.abs(p.node_lin).sum())) ** 2
        degree = np.bincount(p.edges.ravel(), minlength=n)

        def check():
            grad = H @ tr.x - p.node_lin
            assert np.allclose(tr.gradient, grad, rtol=0, atol=1e-12 * scale)
            assert abs(tr.objective() - p.eval(tr.x)) <= 1e-12 * scale
            assert tr.keys.tobytes() == np.abs(tr.gradient).tobytes()
            if scorer == "none":
                with pytest.raises(ValueError):
                    tr.scores
                return
            w = 1.0 if weights is None else weights
            assert np.array_equal(tr.scores, w * np.abs(tr.gradient))
            assert np.allclose(tr.scores, w * np.abs(grad), rtol=0,
                               atol=1e-12 * scale)
            assert tr.peek() == int(np.argmax(tr.scores))

        check()
        steps = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.floats(-1.0, 1.0)),
                                   max_size=10), label="steps")
        for i, delta in steps:
            stats = tr.apply_update(i, delta)
            assert stats.touched_rows == stats.touched_grads == degree[i]
            heaped = backend == "heap" and scorer != "none"
            assert stats.heap_ops == (degree[i] + 1 if heaped else 0)
            check()

    def test_scoreless_update_skips_the_rescore(self, monkeypatch):
        calls = []
        rescore = _TrackerBase._rescore

        def counting(self, idx):
            calls.append(idx.tolist())
            return rescore(self, idx)

        monkeypatch.setattr(_TrackerBase, "_rescore", counting)
        p = GraphQuadraticProblem(4, [[0, 1], [1, 2], [1, 3]], [1.0, 2.0, 0.5],
                                  node_quad=[0.5, 0.5, 0.5, 0.5])
        # a lean tracker keeps neither scores nor keys, so it skips the
        # rescore and keeps only the gradient
        for backend in ("scan", "heap"):
            tr = H2Tracker(p, np.zeros(4), backend=backend, lean=True)
            stats = tr.apply_update(1, 1.0)
            assert calls == []
            assert stats.touched_rows == stats.touched_grads == 3
            assert stats.heap_ops == 0
            assert_tracker_matches(tr, p)
            assert tr.grad_inf_norm() == np.abs(p.full_grad(tr.x)).max()
        # on the heap, a scoreless tracker that is not lean rekeys row 1 of
        # the Hessian, i and its neighbours in index order, as a scored one
        # rescores them
        for scorer in (None, GradScorer()):
            calls.clear()
            tr = H2Tracker(p, np.zeros(4), scorer, backend="heap")
            heap_ops = 0 if scorer is None else 4
            assert tr.apply_update(1, 1.0).heap_ops == heap_ops
            assert calls == [[0, 1, 2, 3]]
            assert tr.keys.tobytes() == np.abs(tr.gradient).tobytes()
        # on scan the move rewrites the keys and scores itself, the same
        # bits as a fresh |grad| and w |grad| on every entry
        w = 1 / np.sqrt(p.L_per_coord)
        for scorer in (None, GradScorer(), GradScorer(w)):
            calls.clear()
            tr = H2Tracker(p, np.zeros(4), scorer)
            assert tr.apply_update(1, 1.0).heap_ops == 0
            assert calls == []
            keys = np.abs(tr.gradient)
            assert tr.keys.tobytes() == keys.tobytes()
            if scorer is not None:
                ws = 1.0 if scorer.w is None else scorer.w
                assert tr.scores.tobytes() == (ws * keys).tobytes()
                assert tr.peek() == int(np.argmax(ws * keys))


class TestEagerTracker:
    """An eager h1 tracker against a dense recompute after every update."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_eager_matches_dense_recompute(self, data):
        m = data.draw(st.integers(1, 6), label="m")
        n = data.draw(st.integers(1, 6), label="n")
        A = draw_triplet_matrix(data, m, n)
        dense = A.to_dense()
        p = draw_h1_problem(data, A)
        lam = p.l2_reg
        weights = None
        if data.draw(st.booleans(), label="lipschitz weights"):
            weights = 1 / np.sqrt(np.where(p.L_per_coord > 0,
                                           p.L_per_coord, 1.0))
        x0 = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n,
                                         max_size=n)))
        tr = H1Tracker(p, x0, GradScorer(weights),
                       backend=data.draw(st.sampled_from(["scan", "heap"]),
                                         label="backend"),
                       refresh_every=data.draw(st.sampled_from([1, 3, 10000]),
                                               label="refresh_every"))
        # |x| stays below 12 over at most 10 steps of size <= 1, which
        # bounds every |u_j| and |b_j| and so every term the caches sum
        scale = (1.0 + 12.0 * np.abs(dense).sum()) ** 2
        allrows = np.arange(m)

        def check():
            u = dense @ tr.x
            row_v, row_g = p.row_link(u, allrows)
            grad = dense.T @ row_g + lam * tr.x
            obj = row_v.sum() + 0.5 * lam * tr.x @ tr.x
            assert np.allclose(tr.gradient, grad, rtol=0, atol=1e-12 * scale)
            assert abs(tr.objective() - obj) <= 1e-12 * scale
            w = 1.0 if weights is None else weights
            # the kept scores are the scorer's over the kept gradient, and
            # the dense gradient's within the same bound
            assert np.array_equal(tr.scores, w * np.abs(tr.gradient))
            assert np.allclose(tr.scores, w * np.abs(grad), rtol=0,
                               atol=1e-12 * scale)
            assert tr.peek() == int(np.argmax(tr.scores))

        check()
        steps = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.floats(-1.0, 1.0)),
                                   max_size=10), label="steps")
        for i, delta in steps:
            stats = tr.apply_update(i, delta)
            hit = dense[:, i] != 0
            assert stats.touched_rows == hit.sum()
            assert stats.touched_grads == (dense[hit] != 0).sum()
            check()


class TestUpdatePath:
    """The two ways an eager h1 update renews A^T grad: one full product or
    the row scatter, chosen once from the matrix.  Matrices are drawn on
    both sides of the rule, and every update is checked against a dense
    recompute.  A least-squares problem with n <= m on the product side
    takes the Gram path instead (``TestGramPath``)."""

    @pytest.mark.parametrize("product", [True, False])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_either_path_matches_dense_recompute(self, product, data):
        # dense-ish matrices gather most of nnz per update; long, sparse
        # rows gather little of it
        if product:
            m, n = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
            density = data.draw(st.floats(0.15, 1.0), label="density")
        else:
            m, n = data.draw(st.integers(1, 12)), data.draw(st.integers(30, 60))
            density = data.draw(st.floats(0.005, 0.05), label="density")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        dense = np.where(rng.random((m, n)) < density,
                         rng.standard_normal((m, n)), 0.0)
        nz = dense != 0
        # the rule, from the dense pattern: mean gather sum_i r_i^2 / n
        # against nnz / KAPPA
        rule = KAPPA * int((nz.sum(axis=1) ** 2).sum()) > n * int(nz.sum())
        assume(rule == product)
        A = SparseMatrix.from_dense(dense)
        p = draw_h1_problem(data, A)
        weights = None
        if data.draw(st.booleans(), label="lipschitz weights"):
            weights = 1 / np.sqrt(np.where(p.L_per_coord > 0,
                                           p.L_per_coord, 1.0))
        backend = data.draw(st.sampled_from(["scan", "heap"]), label="backend")
        tr = H1Tracker(p, rng.uniform(-1.0, 1.0, n), GradScorer(weights),
                       backend=backend)
        assert tr.product == rule
        w = 1.0 if weights is None else weights
        allrows = np.arange(m)

        def check():
            u = dense @ tr.x
            row_g = p.row_link(u, allrows)[1]
            grad = dense.T @ row_g + p.l2_reg * tr.x
            # each sum's rounding is bounded by the sum of its |terms|, and
            # u's by |A| |x| (+ |b| <= 2, or a logistic row_g <= 1)
            size = 1.0 + np.abs(dense).T @ (np.abs(dense) @ np.abs(tr.x) + 2.0)
            assert np.all(np.abs(tr.gradient - grad) <= 1e-12 * size)
            assert np.array_equal(tr.scores, w * np.abs(tr.gradient))
            assert tr.peek() == int(np.argmax(tr.scores))

        check()
        for _ in range(data.draw(st.integers(1, 8), label="updates")):
            i = int(rng.integers(n))
            stats = tr.apply_update(i, float(rng.uniform(-1.0, 1.0)))
            hit = nz[:, i]
            assert stats.touched_rows == hit.sum()
            assert stats.touched_grads == nz[hit].sum()
            if backend == "scan":
                assert stats.heap_ops == 0
            elif product:
                assert stats.heap_ops == n
            else:
                assert stats.heap_ops == max(nz[hit].any(axis=0).sum(), 1)
            check()


class TestGramPath:
    """The third way an eager h1 update renews its gradient: on a
    least-squares problem whose matrix takes the product and has n <= m,
    grad += delta * H[:, i], one column of the Hessian.  The tracker keeps
    A x and the row values for the objective, and no row derivatives."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_gram_path_matches_a_dense_recompute(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        m = data.draw(st.integers(n, 8), label="m")
        entries = data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), min_size=m * n,
            max_size=m * n), label="A")
        dense = np.array(entries).reshape(m, n)
        A = SparseMatrix.from_dense(dense)
        assume(takes_product(A))
        b = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=m,
                                        max_size=m), label="b"))
        lam = data.draw(st.one_of(st.sampled_from([0.0, 0.3]),
                                  st.floats(0.0, 2.0)), label="l2_reg")
        smooth = LeastSquaresProblem(A, b, l2_reg=lam)
        kind = data.draw(st.sampled_from(["smooth", "l1", "box", "mixed"]),
                         label="terms")
        if kind == "l1":
            terms = [L1Term(data.draw(st.sampled_from([0.0, 0.5, 3.0])))
                     for _ in range(n)]
        elif kind == "box":
            terms = [BoxTerm(-1.0, 1.0)] * n
        elif kind == "mixed":
            terms = [draw_term(data) for _ in range(n)]
        else:
            terms = [ZeroTerm()] * n
        problem = (smooth if kind == "smooth"
                   else CompositeProblem(smooth, terms))
        names = ["gs", "gsl"] + ([] if kind == "smooth" else
                                 ["gs-q", "gsl-q", "gs-r", "gsl-r", "gs-s"])
        rule = make_rule(data.draw(st.sampled_from(names), label="rule"))
        bounds = [(max(-1.0, t.p1), min(1.0, t.p2)) if t.kind == BOX
                  else (-1.0, 1.0) for t in terms]
        x0 = np.array([data.draw(st.floats(lo, hi), label="x0")
                       for lo, hi in bounds])
        tr = make_tracker(problem, x0, rule.scorer(problem),
                          refresh_every=data.draw(st.sampled_from(
                              [1, 3, 10000]), label="refresh_every"))
        assert tr.gram and tr.product
        assert tr.row_g is None
        assert tr.G is smooth.hessian()
        every = np.arange(n)
        # every iterate stays in [-1, 1]^n, which bounds each term of the
        # gradient's sums and of the objective's
        grad_size = 1.0 + (np.abs(dense).T @ (np.abs(dense).sum(axis=1)
                                              + 2.0) + lam)
        obj_size = ((1.0 + 2.0 * m + np.abs(dense).sum()) ** 2
                    + (lam + 3.0) * n)

        def check():
            grad = smooth.full_grad(tr.x)
            assert np.all(np.abs(tr.gradient - grad) <= 1e-12 * grad_size)
            keys = (np.abs(problem.prox_steps(tr.x, tr.gradient, tr.L_step,
                                              every)[0])
                    if kind != "smooth" else np.abs(tr.gradient))
            assert tr.keys.tobytes() == keys.tobytes()
            assert (tr.scores.tobytes()
                    == tr.scorer.compute(tr, every)[0].tobytes())
            assert abs(tr.objective() - problem.eval(tr.x)) <= 1e-12 * obj_size

        check()
        for _ in range(data.draw(st.integers(1, 8), label="moves")):
            i = data.draw(st.integers(0, n - 1), label="i")
            lo, hi = bounds[i]
            xi = tr.x.item(i)
            delta = data.draw(st.floats(lo, hi), label="target") - xi
            if not lo <= xi + delta <= hi:
                delta = 0.0
            stats = tr.apply_update(i, delta)
            hit = dense[:, i] != 0
            assert stats.touched_rows == hit.sum()
            assert stats.touched_grads == (dense[hit] != 0).sum()
            check()

    @pytest.mark.parametrize("case", ["ls", "composite", "logistic", "wide",
                                      "scatter", "lean"])
    def test_the_gram_path_is_taken_exactly_where_it_pays(self, case):
        # eager, quadratic, on the product and n <= m: the Gram path, alone
        rng = np.random.default_rng(18)
        m, n = (4, 6) if case == "wide" else (8, 6)
        A, _ = random_sparse(rng, m, n, density=0.6)
        if case == "scatter":
            A, _ = random_sparse(rng, 120, 60, density=0.02)
            m, n = A.shape
        if case == "logistic":
            smooth = LogisticProblem(A, np.where(rng.random(m) < 0.5, -1.0,
                                                 1.0))
        else:
            smooth = LeastSquaresProblem(A, rng.standard_normal(m),
                                         l2_reg=0.3)
        problem = (CompositeProblem(smooth, L1Term(0.2))
                   if case == "composite" else smooth)
        lean = case == "lean"
        tr = make_tracker(problem, np.zeros(n),
                          None if lean else GradScorer(), lean=lean)
        gram = case in ("ls", "composite")
        assert tr.product == (case not in ("scatter", "lean"))
        assert takes_gram(smooth) == (case != "logistic" and n <= m)
        assert tr.gram == gram
        assert (tr.row_g is None) == gram
        assert (tr.gradient is None) == lean
        tr.apply_update(2, 0.5)
        tr.refresh()
        assert tr.gram == gram

    def test_gram_path_update_makes_no_product_and_no_row_derivative(
            self, monkeypatch):
        rng = np.random.default_rng(19)
        A, dense = random_sparse(rng, 10, 5, density=0.7)
        p = LeastSquaresProblem(A, rng.standard_normal(10), l2_reg=0.1)
        tr = make_tracker(p, np.zeros(5), GradScorer())
        assert tr.gram

        def refused(*args, **kwargs):
            raise AssertionError("the Gram path renews no A^T grad_link")

        link = LeastSquaresProblem.row_link

        def values_only(self, ur, rows, ders=True):
            if ders:
                refused()
            return link(self, ur, rows, ders)

        monkeypatch.setattr(_kernels, "transpose_product", refused)
        monkeypatch.setattr(_kernels, "scatter_row_deltas", refused)
        monkeypatch.setattr(LeastSquaresProblem, "row_link", values_only)
        for i in (0, 3, 3, 1):
            tr.apply_update(i, 0.25)
        assert np.allclose(tr.gradient, dense.T @ (dense @ tr.x - p.b)
                           + 0.1 * tr.x, rtol=1e-12, atol=1e-12)

    def test_nns_and_scan_runs_agree_on_the_gram_path(self):
        rng = np.random.default_rng(20)
        A = rng.normal(size=(40, 12)) * rng.uniform(0.2, 3.0, size=12)
        p = LeastSquaresProblem(A, rng.standard_normal(40))
        assert make_tracker(p, np.zeros(12), backend="nns").gram
        scan = run(p, "gsl", backend="scan", max_iters=60, tol=0.0,
                   refresh_every=7)
        tree = run(p, "gsl", backend="nns", max_iters=60, tol=0.0,
                   refresh_every=7)
        assert np.array_equal(scan.coord, tree.coord)
        assert np.array_equal(scan.step, tree.step)


class TestLeanTracker:
    """A lean h1 tracker (no gradient, no scores) against an eager one fed
    the same updates."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_lean_matches_eager_on_random_problems(self, data):
        m = data.draw(st.integers(1, 6), label="m")
        n = data.draw(st.integers(1, 6), label="n")
        A = draw_triplet_matrix(data, m, n)
        p = draw_h1_problem(data, A)
        x0 = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n,
                                         max_size=n)))
        every = data.draw(st.sampled_from([1, 3, 10000]), label="refresh_every")
        eager = H1Tracker(p, x0, refresh_every=every)
        lean = H1Tracker(p, x0, refresh_every=every, lean=True)
        assert lean.gradient is None

        def check():
            assert lean.objective() == eager.objective()
            assert np.array_equal(lean.x, eager.x)
            g = eager.gradient
            scale = max(1.0, float(np.abs(g).max()))
            for i in range(n):
                assert abs(lean.grad_coord(i) - g[i]) <= 1e-12 * scale
            full = lean.full_gradient()
            assert np.allclose(full, p.full_grad(lean.x), rtol=1e-12,
                               atol=1e-12 * scale)
            assert lean.grad_inf_norm() == float(np.abs(full).max())

        check()
        steps = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.floats(-1.0, 1.0)),
                                   max_size=10), label="steps")
        for i, delta in steps:
            e = eager.apply_update(i, delta)
            le = lean.apply_update(i, delta)
            assert (le.touched_rows, le.touched_grads, le.heap_ops) == (
                e.touched_rows, 0, 0)
            assert lean.last_obj_delta == eager.last_obj_delta
            check()

    def test_lean_tracker_keeps_no_scores(self):
        p = LeastSquaresProblem(np.eye(3), np.ones(3))
        with pytest.raises(ValueError, match="lean"):
            H1Tracker(p, np.zeros(3), GradScorer(), lean=True)
        tr = make_tracker(p, np.zeros(3), lean=True)
        assert tr.lean and tr.gradient is None
        with pytest.raises(ValueError, match="without a score"):
            tr.peek()
        # a lean graph tracker keeps its gradient, which its update
        # maintains in O(d) anyway, but no scores and no keys
        g = GraphQuadraticProblem(3, [[0, 1]], [1.0], node_quad=[1, 1, 1],
                                  node_lin=[1.0, 0.0, -1.0])
        tr = make_tracker(g, np.zeros(3), lean=True)
        assert isinstance(tr, H2Tracker) and tr.lean and tr.keys is None
        assert tr.grad_coord(2) == 1.0
        assert tr.full_gradient() is tr.gradient
        with pytest.raises(ValueError, match="lean"):
            make_tracker(g, np.zeros(3), GradScorer(), lean=True)


def draw_term(data):
    """A zero, l1 or box term; the boxes include half-infinite, infinite
    and one-point ones."""
    kind = data.draw(st.sampled_from(["zero", "l1", "box"]), label="term")
    if kind == "zero":
        return ZeroTerm()
    if kind == "l1":
        return L1Term(data.draw(st.sampled_from([0.0, 0.5, 3.0])))
    return BoxTerm(*data.draw(st.sampled_from(
        [(-np.inf, np.inf), (-np.inf, 0.5), (-0.5, np.inf), (-1.0, 1.0),
         (0.0, 0.0)])))


def draw_run_tracker(data):
    """A problem and the tracker ``run`` would build on it for a drawn
    rule, backend, step mode and refresh interval: an h1 or h2 smooth part
    on at most 5 coordinates, alone or under drawn l1, box and zero terms,
    and a feasible x0 in [-1, 1]^n.  Returns (problem, tracker, L_safe,
    bounds), L_safe being the curvature ``run`` steps and stops with and
    bounds[i] the (lo, hi) interval of [-1, 1] that is feasible for x_i."""
    n = data.draw(st.integers(1, 5), label="n")
    if data.draw(st.booleans(), label="h1"):
        # the triplets may leave columns empty (L_i = 0)
        A = draw_triplet_matrix(data, data.draw(st.integers(1, 5),
                                                label="m"), n)
        smooth = draw_h1_problem(data, A)
    else:
        smooth = draw_graph(data, n, st.floats(0.0, 2.0),
                            st.floats(-2.0, 2.0))
    problem, x0, bounds = smooth, [], []
    composite = data.draw(st.booleans(), label="composite")
    terms = [draw_term(data) if composite else ZeroTerm() for _ in range(n)]
    for term in terms:
        lo, hi = -1.0, 1.0
        if term.kind == BOX:
            lo, hi = max(lo, term.p1), min(hi, term.p2)
        bounds.append((lo, hi))
        x0.append(data.draw(st.floats(lo, hi)))
    if composite:
        problem = CompositeProblem(smooth, terms)
    names = [r for r in RULE_NAMES
             if composite or not isinstance(make_rule(r), ProxWorkRule)]
    rule = make_rule(data.draw(st.sampled_from(names), label="rule"))
    backends = ["scan", "heap"]
    # the nearest-neighbour index normalises every column, so each needs a
    # squared norm that does not underflow to 0 (an entry of 1e-195 does)
    if (rule.name == "gsl" and not composite and smooth.tracker_kind == "h1"
            and smooth.l2_reg == 0 and column_sq_norms(smooth.A).all()):
        backends.append("nns")
    backend = data.draw(st.sampled_from(backends), label="backend")
    step = data.draw(st.sampled_from(list(STEP_MODES)), label="step")
    if step == "exact" and composite and not smooth.is_quadratic:
        step = "const"
    mode = _resolve_step(problem, rule, step)
    # the curvature run() steps and stops with
    L = (smooth.L_per_coord if mode in ("const-coord", "exact")
         else np.full(n, smooth.L))
    L_safe = np.where(L > 0, L, 1.0)
    tr = make_tracker(problem, np.array(x0), rule.scorer(problem),
                      backend=backend, lean=not rule.reads_gradient,
                      L_step=L_safe,
                      refresh_every=data.draw(st.sampled_from(
                          [1, 3, 10000]), label="refresh_every"))
    return problem, tr, L_safe, bounds


class TestResidualKeys:
    """The stopping test a tracker keeps (``grad_inf_norm``), against one
    fresh computation over every coordinate."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_residual_matches_a_full_recompute(self, data):
        problem, tr, L_safe, _ = draw_run_tracker(data)
        composite = tr.composite is not None

        def check():
            g = tr.full_gradient()
            keys = (np.abs(problem.prox_steps(tr.x, g, L_safe)[0])
                    if composite else np.abs(g))
            assert (np.float64(tr.grad_inf_norm()).tobytes()
                    == np.float64(keys.max()).tobytes())
            if not tr.lean:
                assert tr.keys.tobytes() == keys.tobytes()

        check()
        steps = data.draw(st.lists(st.tuples(st.integers(0, tr.n - 1),
                                             st.floats(-1.0, 1.0)),
                                   max_size=8), label="steps")
        for i, delta in steps:
            term = problem.terms[i] if composite else ZeroTerm()
            if (term.kind == BOX
                    and not term.p1 <= tr.x.item(i) + delta <= term.p2):
                # a move out of the box is refused and changes nothing
                with pytest.raises(ValueError, match="leaves its box"):
                    tr.apply_update(i, delta)
            else:
                tr.apply_update(i, delta)
            check()
        tr.refresh()
        check()


class TestTermValues:
    """A tracker over a composite problem keeps the term values g_i(x_i)
    that its objective sums and its full prox pass reads."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_kept_term_values_are_the_problems_after_every_change(self, data):
        problem, tr, _, bounds = draw_run_tracker(data)
        if tr.composite is None:
            assert tr.term_vals is None
            return

        def check():
            assert tr.term_vals.tobytes() == problem.g_values(tr.x).tobytes()

        check()
        for _ in range(data.draw(st.integers(0, 8), label="moves")):
            i = data.draw(st.integers(0, tr.n - 1), label="i")
            lo, hi = bounds[i]
            term = problem.terms[i]
            xi = tr.x.item(i)
            delta = data.draw(st.floats(-2.0, 2.0), label="delta")
            if term.kind == BOX and not term.p1 <= xi + delta <= term.p2:
                # a refused move leaves the values as they were
                with pytest.raises(ValueError, match="leaves its box"):
                    tr.apply_update(i, delta)
            else:
                tr.apply_update(i, delta)
            check()
            if data.draw(st.booleans(), label="refresh"):
                tr.refresh()
                check()


class TestTrackedObjective:
    """``objective()`` is F = f + sum_i g_i at the tracker's iterate, one
    running sum across updates and refreshes, against the problem's own
    evaluation."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_objective_matches_the_problem(self, data):
        problem, tr, _, bounds = draw_run_tracker(data)
        smooth = tr.problem
        n = tr.n
        # every move stays in [-1, 1]^n, which bounds each term the sums
        # add: |u_j| <= |A_j|_1 and |b_j| <= 2 on h1, |H| and |node_lin|
        # on h2, l2_reg <= 0.3 and l1 weights <= 3
        if smooth.tracker_kind == "h1":
            size = (1.0 + 2.0 * smooth.A.shape[0]
                    + np.abs(smooth.A.to_dense()).sum()) ** 2 + n
        else:
            size = (1.0 + np.abs(smooth.hessian()).sum()
                    + np.abs(smooth.node_lin).sum())
        size += 3.0 * n

        def check():
            assert abs(tr.objective() - problem.eval(tr.x)) <= 1e-12 * size

        check()
        for _ in range(data.draw(st.integers(0, 8), label="moves")):
            i = data.draw(st.integers(0, n - 1), label="i")
            lo, hi = bounds[i]
            xi = tr.x.item(i)
            delta = data.draw(st.floats(lo, hi), label="target") - xi
            # a move whose rounded end leaves its box would make F infinite
            if not lo <= xi + delta <= hi:
                delta = 0.0
            before = tr.objective()
            tr.apply_update(i, delta)
            check()
            # the change the descent certificate reads is F's too, also
            # where a refresh rebuilt the objective
            assert (abs(before + tr.last_obj_delta - tr.objective())
                    <= 1e-12 * size)
        tr.refresh()
        check()

    def test_make_tracker_refuses_a_bad_start(self):
        ls = LeastSquaresProblem(np.eye(3), np.ones(3))
        graph = GraphQuadraticProblem(3, [[0, 1]], [1.0], node_quad=[1, 1, 1])
        for smooth in (ls, graph):
            for lean in (False, True):
                for bad in (np.nan, np.inf, -np.inf):
                    x0 = np.zeros(3)
                    x0[1] = bad
                    with pytest.raises(ValueError, match="x0 must be finite"):
                        make_tracker(smooth, x0, lean=lean)
                with pytest.raises(ValueError, match="shape"):
                    make_tracker(smooth, np.zeros(4), lean=lean)
                box = CompositeProblem(smooth, BoxTerm(0.0, 1.0))
                with pytest.raises(ValueError, match="infeasible"):
                    make_tracker(box, np.array([0.5, 2.0, 0.5]), lean=lean)
                # F adds the terms' sum, 2 (|0| + |1| + |-0.5|) = 3
                tr = make_tracker(CompositeProblem(smooth, L1Term(2.0)),
                                  np.array([0.0, 1.0, -0.5]), lean=lean)
                assert tr.objective() == pytest.approx(
                    smooth.eval(tr.x) + 3.0, rel=1e-15)


def count_prox_passes(monkeypatch):
    """Record the length of every prox pass (``ProxPass.__call__``, which
    ``prox_steps`` and the tracker's full-vector rescore both go through)
    and whether it ran inside ``grad_inf_norm``: a list of (length,
    in the stopping test) pairs."""
    passes = []
    testing = []
    prox = ProxPass.__call__
    residual = _TrackerBase.grad_inf_norm

    def counted(self, x, grad, gx):
        passes.append((len(x), bool(testing)))
        return prox(self, x, grad, gx)

    def tested(self):
        testing.append(1)
        try:
            return residual(self)
        finally:
            testing.pop()

    monkeypatch.setattr(ProxPass, "__call__", counted)
    monkeypatch.setattr(_TrackerBase, "grad_inf_norm", tested)
    return passes


class TestProxResidualKeys:
    """How many prox passes the composite stopping test costs: one per
    curvature and update, over the coordinates the update rescores."""

    # (rule, L_step, passes per update); L_step None: the keys use the
    # score's own curvature, or L without a prox score
    CASES = (("gs-q", "L", 1), ("gsl-q", "L_coord", 1),
             ("gsl-r", "L_coord", 1), ("gs-q", "L_coord", 2),
             ("gs-s", "L", 1), ("gs-q", None, 1), ("gsl-q", None, 1),
             ("gs-s", None, 1), ("gs", None, 1), ("gsl", "L_coord", 1),
             ("mi", None, 1))

    def check_update_passes(self, monkeypatch, A, dense, product):
        """One update of coordinate 2 under every case: the passes cover
        the columns its rows touch on the scatter path, all n on the
        product path."""
        m, n = dense.shape
        rng = np.random.default_rng(15)
        comp = CompositeProblem(LeastSquaresProblem(A, rng.standard_normal(m)),
                                L1Term(0.3))
        L = {"L": np.full(n, comp.L), None: None,
             "L_coord": np.where(comp.L_per_coord > 0, comp.L_per_coord, 1.0)}
        touched = np.flatnonzero((dense[dense[:, 2] != 0] != 0).any(axis=0))
        passes = count_prox_passes(monkeypatch)
        for rule, L_step, per_update in self.CASES:
            tr = make_tracker(comp, np.zeros(n), make_rule(rule).scorer(comp),
                              L_step=L[L_step])
            assert tr.keys is not None and tr.product == product
            passes.clear()
            tr.apply_update(2, 0.5)
            assert passes == [(n if product else len(touched), False)
                              ] * per_update

    def test_keys_share_the_score_call_only_under_the_same_curvature(
            self, monkeypatch):
        # on the product path, where each pass covers all n
        rng = np.random.default_rng(15)
        A, dense = random_sparse(rng, 8, 6)
        assert takes_product(A)
        self.check_update_passes(monkeypatch, A, dense, product=True)

    def test_scatter_path_passes_cover_the_touched_set(self, monkeypatch):
        rng = np.random.default_rng(17)
        A, dense = random_sparse(rng, 60, 40, density=0.03)
        assert not takes_product(A)
        # the update reaches more than coordinate 2, and not every one
        touched = (dense[dense[:, 2] != 0] != 0).any(axis=0)
        assert 1 < touched.sum() < 40
        self.check_update_passes(monkeypatch, A, dense, product=False)

    def test_runs_read_the_keys_and_lean_runs_the_full_call(
            self, monkeypatch):
        rng = np.random.default_rng(16)
        A, _ = random_sparse(rng, 8, 6)
        comp = CompositeProblem(LeastSquaresProblem(A, rng.standard_normal(8)),
                                L1Term(0.3))
        passes = count_prox_passes(monkeypatch)
        for rule in ("gs-s", "gs-r", "gs-q", "gsl-r", "gsl-q", "gs", "gsl",
                     "gs-approx-mult", "gs-approx-add"):
            for step in ("auto", "const", "const-coord", "exact"):
                run(comp, rule, step=step, max_iters=10, tol=0.0)
                assert not any(in_test for _, in_test in passes)
        # a lean run tests at x0, after every n = 6 updates and at the
        # end, each time by one pass over all n
        passes.clear()
        run(comp, "uniform", max_iters=10, tol=0.0, seed=0)
        assert passes == [(6, True)] * 3


def into_boxes(comp, x):
    """x with every box coordinate clamped into its box, where the term
    values a tracker keeps are finite."""
    return np.where(comp.gkind == BOX, np.clip(x, comp.p1, comp.p2), x)


class TestProductPathGradient:
    """With l2_reg = 0 the product path adds no lam x: the gradient is the
    compiled product of the row derivatives itself."""

    @pytest.mark.parametrize("logistic", [False, True])
    @pytest.mark.parametrize("composite", [False, True])
    def test_gradient_is_the_transpose_product_bit_for_bit(self, logistic,
                                                          composite):
        rng = np.random.default_rng(23)
        A, _ = random_sparse(rng, 6, 14, density=0.6)
        if logistic:
            smooth = LogisticProblem(A, np.where(rng.random(6) < 0.5, -1, 1))
        else:
            smooth = LeastSquaresProblem(A, rng.standard_normal(6))
        problem = (CompositeProblem(smooth, L1Term(0.3)) if composite
                   else smooth)
        scorer = (ProxScorer(problem, smooth.L, "q") if composite
                  else GradScorer())
        tr = make_tracker(problem, rng.uniform(-1.0, 1.0, 14), scorer)
        assert tr.product and not tr.gram
        expected = np.empty(14)
        for _ in range(30):
            tr.apply_update(int(rng.integers(14)), float(rng.normal()))
            _kernels.transpose_product(A.col_indptr, A.col_rows, A.col_vals,
                                       tr.row_g, expected)
            assert tr.gradient.tobytes() == expected.tobytes()


class TestFullProxPass:
    """The product path rescores every coordinate by one full-vector prox
    pass (``ProxPass`` over all n, built once per curvature) that reads the
    tracker's term values, which must give the bits of ``prox_steps`` over
    ``np.arange(n)``."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_full_pass_equals_prox_steps_over_every_index(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        comp = CompositeProblem(LeastSquaresProblem(np.eye(n), np.zeros(n)),
                                [draw_term(data) for _ in range(n)])
        # signed zeros, extreme magnitudes and anything finite; the
        # curvature is scalar or per coordinate, with L_i = 0 among them
        vec = st.lists(EXTREME_FLOATS, min_size=n, max_size=n)
        x = into_boxes(comp, np.array(data.draw(vec, label="x"),
                                      dtype=np.float64))
        g = np.array(data.draw(vec, label="grad"), dtype=np.float64)
        curvature = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                              st.floats(0.0, 4.0))
        if data.draw(st.booleans(), label="scalar L"):
            L = data.draw(curvature, label="L")
        else:
            L = np.array(data.draw(st.lists(curvature, min_size=n,
                                            max_size=n), label="L"))
        every = np.arange(n)
        gx = comp.g_values(x)
        point = SimpleNamespace(x=x, gradient=g, term_vals=gx)
        with np.errstate(all="ignore"):  # extreme values overflow
            d, V, _ = comp.prox_steps(x, g, L, every)
            pd, pV = ProxPass(comp, L)(x, g, gx)
            # the scorer's full call against its call over every index:
            # the scores and the keys it hands the stopping test
            scored = [(ProxScorer(comp, L, mode).compute(point, None),
                       ProxScorer(comp, L, mode).compute(point, every))
                      for mode in ("r", "q")]
        assert pd.tobytes() == d.tobytes()
        assert pV.tobytes() == V.tobytes()
        for full, ref in scored:
            for a, b in zip(full, ref):
                assert a.tobytes() == b.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_product_path_rescore_equals_a_fresh_one(self, data):
        m = data.draw(st.integers(1, 5), label="m")
        n = data.draw(st.integers(1, 6), label="n")
        entries = data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), min_size=m * n,
            max_size=m * n), label="A")
        # zero columns give L_i = 0
        A = SparseMatrix.from_dense(np.array(entries).reshape(m, n))
        assume(takes_product(A))
        smooth = draw_h1_problem(data, A)
        composite = data.draw(st.booleans(), label="composite")
        terms = [draw_term(data) if composite else ZeroTerm()
                 for _ in range(n)]
        problem = CompositeProblem(smooth, terms) if composite else smooth
        names = ["gs", "gsl"] + (["gs-q", "gsl-q", "gs-r", "gsl-r", "gs-s"]
                                 if composite else [])
        rule = make_rule(data.draw(st.sampled_from(names), label="rule"))
        backend = data.draw(st.sampled_from(["scan", "heap"]),
                            label="backend")
        L_coord = np.where(smooth.L_per_coord > 0, smooth.L_per_coord, 1.0)
        L_step = data.draw(st.sampled_from(
            [None, np.full(n, smooth.L), L_coord]), label="L_step")
        bounds = [(max(-1.0, t.p1), min(1.0, t.p2)) if t.kind == BOX
                  else (-1.0, 1.0) for t in terms]
        x0 = np.array([data.draw(st.floats(lo, hi), label="x0")
                       for lo, hi in bounds])
        tr = make_tracker(problem, x0, rule.scorer(problem), backend=backend,
                          L_step=L_step,
                          refresh_every=data.draw(st.sampled_from(
                              [1, 3, 10000]), label="refresh_every"))
        assert tr.product
        every = np.arange(n)

        def check():
            vals = tr.scorer.compute(tr, every)[0]
            keys = (np.abs(problem.prox_steps(tr.x, tr.gradient, tr.L_step,
                                              every)[0])
                    if composite else np.abs(tr.gradient))
            assert tr.scores.tobytes() == vals.tobytes()
            assert tr.keys.tobytes() == keys.tobytes()

        check()
        for _ in range(data.draw(st.integers(0, 8), label="moves")):
            i = data.draw(st.integers(0, n - 1), label="i")
            lo, hi = bounds[i]
            xi = tr.x.item(i)
            delta = data.draw(st.floats(lo, hi), label="target") - xi
            if not lo <= xi + delta <= hi:
                delta = 0.0
            stats = tr.apply_update(i, delta)
            assert stats.heap_ops == (n if backend == "heap" else 0)
            check()

    def test_a_move_out_of_the_box_is_refused_and_changes_nothing(self):
        ls = LeastSquaresProblem(np.eye(3), np.ones(3))
        graph = GraphQuadraticProblem(3, [[0, 1]], [1.0], node_quad=[1, 1, 1])

        def state(tr):
            # x, the objective, the update count and every cache array
            arrays = {k: v.tobytes() for k, v in vars(tr).items()
                      if isinstance(v, np.ndarray)}
            heap = None if tr.heap is None else (tr.heap.keys.tobytes(),
                                                 tr.heap.order.tobytes())
            return (arrays, heap, tr.objective(), tr.last_obj_delta,
                    tr._updates)

        for smooth in (ls, graph):
            comp = CompositeProblem(smooth, [ZeroTerm(), BoxTerm(0.0, 1.0),
                                             L1Term(0.5)])
            for lean, backend in ((False, "scan"), (False, "heap"),
                                  (True, "scan")):
                scorer = None if lean else make_rule("gs-q").scorer(comp)
                tr = make_tracker(comp, np.zeros(3), scorer, backend=backend,
                                  lean=lean)
                tr.apply_update(0, 0.25)
                before = state(tr)
                for delta in (2.0, -0.5, np.inf, np.nan):
                    with pytest.raises(ValueError, match="leaves its box"):
                        tr.apply_update(1, delta)
                    assert state(tr) == before
                # onto the bound is inside the box
                tr.apply_update(1, 1.0)
                assert tr.objective() == pytest.approx(comp.eval(tr.x),
                                                       rel=1e-15)
                tr.apply_update(1, -1.0)
                assert np.isfinite(tr.objective())


    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_full_pass_equals_prox_steps_and_coord_step_at_signed_zeros(
            self, data):
        # x = -0 with grad = +0 gives y = -0, where copysign keeps the
        # sign that sign(y) t dropped
        n = data.draw(st.integers(1, 8), label="n")
        comp = CompositeProblem(LeastSquaresProblem(np.eye(n), np.zeros(n)),
                                [draw_term(data) for _ in range(n)])
        vec = st.lists(st.sampled_from([-0.0, 0.0, 0.25, -0.75, 2.0]),
                       min_size=n, max_size=n)
        x = into_boxes(comp, np.array(data.draw(vec, label="x")))
        g = np.array(data.draw(vec, label="grad"))
        L = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                                        min_size=n, max_size=n), label="L"))
        d, V = ProxPass(comp, L)(x, g, comp.g_values(x))
        L_safe = safe_curvature(L)
        for i in range(n):
            di, Vi, _ = comp.prox_steps(x, g, L, np.array([i]))
            cd, cV = comp.coord_step(i, x.item(i), g.item(i), L_safe.item(i))
            for got in (di, np.array([cd])):
                assert got.tobytes() == d[i:i + 1].tobytes()
            for got in (Vi, np.array([cV])):
                assert got.tobytes() == V[i:i + 1].tobytes()

class TestBackendEquivalence:
    def run_greedy(self, backend, problem, x0, steps=80):
        tr = make_tracker(problem, x0, GradScorer(), backend=backend,
                          refresh_every=29)
        seq = []
        for _ in range(steps):
            i = tr.peek()
            seq.append(i)
            tr.apply_update(i, -tr.gradient[i] / problem.L_per_coord[i])
        return seq, tr.x

    def test_heap_and_scan_produce_identical_runs(self):
        rng = np.random.default_rng(7)
        A, _ = random_sparse(rng, 18, 9)
        p = LeastSquaresProblem(A, rng.standard_normal(18), l2_reg=0.01)
        x0 = rng.standard_normal(9)
        seq_h, x_h = self.run_greedy("heap", p, x0)
        seq_s, x_s = self.run_greedy("scan", p, x0)
        assert seq_h == seq_s
        assert np.array_equal(x_h, x_s)

    def test_heap_and_scan_identical_on_graph(self):
        rng = np.random.default_rng(8)
        p = random_bounded_degree_graph(rng, 15, dmax=3)
        x0 = rng.standard_normal(15)
        seq_h, x_h = self.run_greedy("heap", p, x0)
        seq_s, x_s = self.run_greedy("scan", p, x0)
        assert seq_h == seq_s
        assert np.array_equal(x_h, x_s)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_heap_and_scan_agree_on_random_problems(self, data):
        # every number sits on a grid of halves (weights on powers of two),
        # so gradients and scores are exact and ties are frequent; with
        # ``zero`` the data and x0 are 0 and the first gradient is all zero
        def grid(size, lo=-1, hi=1):
            ks = data.draw(st.lists(st.integers(lo, hi), min_size=size,
                                    max_size=size))
            return 0.5 * np.array(ks, dtype=np.float64)

        n = data.draw(st.integers(1, 7), label="n")
        zero = data.draw(st.booleans(), label="zero")
        if data.draw(st.booleans(), label="h1"):
            m = data.draw(st.integers(1, 7), label="m")
            A = grid(m * n).reshape(m, n)
            b = np.zeros(m) if zero else grid(m)
            lam = data.draw(st.sampled_from([0.0, 0.5]), label="l2_reg")
            p = LeastSquaresProblem(A, b, l2_reg=lam, scale=0.5)
        else:
            pairs = [(a, c) for a in range(n) for c in range(a + 1, n)]
            edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                              if pairs else st.just([]), label="edges")
            w = 2.0 ** grid(len(edges), -1, 1)
            lin = np.zeros(n) if zero else grid(n)
            p = GraphQuadraticProblem(n, np.array(edges, dtype=np.int64)
                                      .reshape(-1, 2), w,
                                      node_quad=2.0 ** grid(n, -1, 0),
                                      node_lin=lin)
        x0 = np.zeros(n) if zero else grid(n)
        weights = (2.0 ** grid(n, -1, 1)
                   if data.draw(st.booleans(), label="weighted") else None)
        every = data.draw(st.sampled_from([3, 10000]), label="refresh_every")
        trs = [make_tracker(p, x0, GradScorer(weights), backend=backend,
                            refresh_every=every)
               for backend in ("heap", "scan")]
        heap, scan = trs

        def check():
            assert np.array_equal(heap.gradient, scan.gradient)
            assert np.array_equal(heap.scores, scan.scores)
            assert heap.peek() == scan.peek() == scan_argmax(scan.scores)

        if zero:
            assert not scan.gradient.any()
        check()
        steps = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(-1, 1)),
                                   max_size=12), label="steps")
        for i, half in steps:
            for tr in trs:
                tr.apply_update(i, 0.5 * half)
            check()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_nns_and_scan_agree_under_gsl(self, data):
        # the same grid of halves as above, on h1 problems the ball tree
        # serves: l2_reg = 0 and no empty column
        def grid(size, lo=-2, hi=2):
            ks = data.draw(st.lists(st.integers(lo, hi), min_size=size,
                                    max_size=size))
            return 0.5 * np.array(ks, dtype=np.float64)

        m = data.draw(st.integers(1, 7), label="m")
        n = data.draw(st.integers(1, 7), label="n")
        zero = data.draw(st.booleans(), label="zero")
        A = grid(m * n).reshape(m, n)
        for j in np.flatnonzero(~A.any(axis=0)):
            A[j % m, j] = 0.5
        b = np.zeros(m) if zero else grid(m)
        p = LeastSquaresProblem(A, b, scale=0.5)
        x0 = np.zeros(n) if zero else grid(n)
        every = data.draw(st.sampled_from([3, 10000]), label="refresh_every")
        scorer = make_rule("gsl").scorer(p)
        scan = make_tracker(p, x0, scorer, backend="scan", refresh_every=every)
        tree = make_tracker(p, x0, scorer, backend="nns", refresh_every=every)
        index = tree.index

        def check():
            assert np.array_equal(tree.gradient, scan.gradient)
            assert tree.peek() == scan.peek() == scan_argmax(scan.scores)
            assert tree.index is index

        if zero:
            assert not scan.gradient.any()
        check()
        steps = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(-2, 2)),
                                   max_size=12), label="steps")
        for i, half in steps:
            for tr in (scan, tree):
                tr.apply_update(i, 0.5 * half)
            check()

    def test_nns_builds_its_tree_once_per_tracker(self, monkeypatch):
        builds = []
        init = BallTreeIndex.__init__

        def counted(self, *args, **kwargs):
            builds.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(BallTreeIndex, "__init__", counted)
        rng = np.random.default_rng(13)
        A = rng.normal(size=(12, 8))
        p = LeastSquaresProblem(A, rng.standard_normal(12))
        tr = make_tracker(p, np.zeros(8), backend="nns", refresh_every=4)
        for _ in range(10):
            tr.apply_update(tr.peek(), 0.1)
        tr.refresh()
        assert builds == [tr.index]
        with pytest.raises(ValueError, match="keeps no scores"):
            tr.scores
        trace = run(p, "gsl", backend="nns", max_iters=30, tol=0.0,
                    refresh_every=7)
        assert len(builds) == 2 and len(trace) == 31

    def test_nns_needs_a_plain_h1_problem(self):
        rng = np.random.default_rng(14)
        ls = LeastSquaresProblem(rng.normal(size=(6, 4)), np.zeros(6))
        with pytest.raises(ValueError, match="composite"):
            make_tracker(CompositeProblem(ls, L1Term(0.1)), np.zeros(4),
                         backend="nns")
        g = GraphQuadraticProblem(3, [[0, 1]], [1.0], node_quad=[1, 1, 1])
        with pytest.raises(ValueError, match="least-squares or"):
            make_tracker(g, np.zeros(3), backend="nns")
        with pytest.raises(ValueError, match="lean"):
            make_tracker(ls, np.zeros(4), backend="nns", lean=True)

    def test_make_tracker_dispatch(self):
        rng = np.random.default_rng(9)
        A, _ = random_sparse(rng, 6, 4)
        ls = LeastSquaresProblem(A, rng.standard_normal(6))
        assert isinstance(make_tracker(ls, np.zeros(4)), H1Tracker)
        comp = CompositeProblem(ls, L1Term(1.0))
        assert isinstance(make_tracker(comp, np.zeros(4)), H1Tracker)
        g = GraphQuadraticProblem(3, [[0, 1]], [1.0], node_quad=[1, 1, 1])
        assert isinstance(make_tracker(g, np.zeros(3)), H2Tracker)
        with pytest.raises(ValueError):
            make_tracker(object(), np.zeros(2))


class TestSharedProblemConstants:
    """Trackers on one problem share what it keeps (its curvatures, the
    ``gsl`` weights, its prox passes), and interleaved updates on them
    take the same paths, bit for bit, as on separately generated copies
    of the problem."""

    @staticmethod
    def start(problem, name):
        """A rule and a tracker as ``run`` builds them, with the run's
        step curvature."""
        rule = make_rule(name)
        rule.prepare(problem, rng=0)
        mode = _resolve_step(problem, rule, "auto")
        smooth = getattr(problem, "smooth", problem)
        curvature = smooth.curvature(mode == "const-coord")
        tr = make_tracker(problem, np.zeros(problem.n), rule.scorer(problem),
                          lean=not rule.reads_gradient, L_step=curvature.L)
        return rule, tr, curvature

    @staticmethod
    def step(rule, tr, curvature, k):
        i = rule.select(tr, k)[0]
        g = tr.grad_coord(i)
        L_i = curvature.steps[i]
        if tr.composite is not None:
            alpha = tr.composite.coord_step(i, tr.x.item(i), g, L_i)[0]
        else:
            alpha = -g / L_i if curvature.positive[i] else 0.0
        tr.apply_update(i, alpha)
        return i

    @staticmethod
    def state(tr):
        arrays = [tr.x, tr.full_gradient()]
        if not tr.lean:
            arrays += [tr.scores, tr.keys]
        if tr.term_vals is not None:
            arrays.append(tr.term_vals)
        return [a.tobytes() for a in arrays] + [tr.objective(),
                                                tr.grad_inf_norm()]

    @pytest.mark.parametrize("family, m, n, rules", [
        ("l1_underdet_ls", 50, 500, ("gs-q", "gsl-q")),
        ("l1_underdet_ls", 50, 500, ("gs-s", "gs")),
        ("l1_underdet_ls", 50, 500, ("gsl-q", "uniform")),
        ("sparse_ls", 200, 200, ("gs", "gsl")),
        ("two_moons", None, 300, ("gs", "gsl")),
    ])
    def test_interleaved_trackers_match_separate_problems(self, family, m, n,
                                                          rules):
        shared = gen_experiment(family, m=m, n=n, seed=2).problem
        pairs = []
        for name in rules:
            alone = gen_experiment(family, m=m, n=n, seed=2).problem
            pairs.append((self.start(shared, name), self.start(alone, name)))
            tr = pairs[-1][0][1]
            if tr.composite is not None:
                # the full passes the tracker runs are the problem's own
                for step in (tr._step_pass, getattr(tr.scorer, "_pass", None)):
                    assert step is None or any(
                        step is shared.full_pass(shared.smooth.curvature(c).L)
                        for c in (False, True))
        for k in range(60):
            for (rule, tr, curv), (rule2, tr2, curv2) in pairs:
                assert (self.step(rule, tr, curv, k)
                        == self.step(rule2, tr2, curv2, k))
                assert self.state(tr) == self.state(tr2)
