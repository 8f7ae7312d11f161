"""Tracker tests.

One property test (``TestTrackerOracle``) holds the trackers' central
invariant on each update path (the h1 row scatter and full product, and
the h2 Hessian row, dense or CSR): after the build, after every update and
after a final refresh, each piece of state (the row derivatives, which
h1 alone keeps, and A x, which it keeps on logistic only, the gradient,
the objective and its last change,
the term values, the keys, the scores and the pick) equals a
fresh dense recompute from x (``DenseRecompute``), and each update's work
counters equal what the problem's structure implies.  One generator
draws the problem, terms, rule, backend, step curvature and refresh
interval; a lean tracker and one on the heap or nns are held against a
twin fed the same updates.  The other tests hold the kernels against
their loops bit for bit, hand-computed cases, input validation, call
counts and run-level agreement."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from greedycd import _kernels
from greedycd.descent import STEP_MODES, TRACE_COLUMNS, _resolve_step, run
from greedycd.harness import gen_experiment
from greedycd.linalg import IndexedMaxHeap, SparseMatrix
from greedycd.nns import BallTreeIndex
from greedycd.problems import (ABS, BOX, TINY_CURVATURE, ZERO,
                               BoxTerm, CompositeProblem,
                               GraphQuadraticProblem, L1Term,
                               LeastSquaresProblem, LogisticProblem,
                               ProxPass, ZeroTerm, safe_curvature)
from greedycd.rules import RULE_NAMES, ProxWorkRule, make_rule
from greedycd.tracker import (GradScorer, H1Tracker, H2Tracker, ProxScorer,
                              _TrackerBase, make_tracker, takes_hessian_row,
                              takes_product)
from helpers import (EXTREME_FLOATS, draw_triplet_matrix, hessian_row_loop,
                     random_sparse, scan_argmax, scatter_rows_loop,
                     tracker_path)


def assert_tracker_matches(tr, problem, rtol=1e-9):
    assert np.allclose(tr.gradient, problem.full_grad(tr.x), rtol=rtol, atol=1e-12)
    assert np.isclose(tr.objective(), problem.eval(tr.x), rtol=rtol, atol=1e-12)


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

    def test_prox_scores_need_the_composite_problem(self):
        ls = LeastSquaresProblem(np.eye(2), np.zeros(2))
        comp = CompositeProblem(ls, L1Term(0.4))
        with pytest.raises(ValueError, match="composite problem"):
            H1Tracker(ls, np.zeros(2), ProxScorer(comp, False, "q"))

    def test_backend_validation(self):
        p = LeastSquaresProblem(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            H1Tracker(p, np.zeros(2), GradScorer(), backend="tree")
        with pytest.raises(IndexError):
            H1Tracker(p, np.zeros(2)).apply_update(5, 1.0)

    @pytest.mark.parametrize("every, error", [
        (0, ValueError), (-1, ValueError), (2.5, TypeError),
        ("3", TypeError), (True, TypeError), (np.inf, TypeError)])
    def test_refresh_interval_must_be_a_positive_integer(self, every, error):
        # 0 once divided by zero on the first update, -1 rebuilt every
        # cache after every update, 2.5 ran with 2, "3" and True ran, and
        # inf overflowed in int()
        ls = LeastSquaresProblem(np.eye(3), np.ones(3))
        graph = GraphQuadraticProblem(3, [(0, 1)], [1.0], node_quad=np.ones(3))
        for p in (ls, graph):
            with pytest.raises(error, match="refresh_every must be"):
                make_tracker(p, np.zeros(3), refresh_every=every)
        with pytest.raises(error, match="refresh_every must be"):
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


def draw_graph(data, n, weight, node_term, node_quad=None):
    """A GraphQuadraticProblem on n nodes: distinct edges drawn as pairs
    (so some nodes may stay isolated), weights from ``weight``, and node
    terms that are all zero or drawn from ``node_term`` (the quadratic
    ones from ``node_quad`` if given)."""
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1)),
                               max_size=2 * n), label="pairs")
    edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    w = data.draw(st.lists(weight, min_size=len(edges),
                           max_size=len(edges)), label="weights")
    node = {}
    for name, term in (("node_quad", node_term if node_quad is None
                                     else node_quad),
                       ("node_lin", node_term)):
        if data.draw(st.booleans(), label=f"zero {name}"):
            node[name] = np.zeros(n)
        else:
            node[name] = np.array(data.draw(st.lists(
                term, min_size=n, max_size=n), label=name))
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

        grad = floats(n, "grad")
        i = data.draw(st.integers(0, n - 1), label="i")
        dx = data.draw(MOVE_VALUES, label="dx")
        # the move may also rescore what it changes: keys alone (no
        # scorer, or gs), or keys and weighted scores (gsl)
        rescore = data.draw(st.sampled_from(["none", "keys", "weighted"]),
                            label="rescore")
        keys, scores = floats(n, "keys"), floats(n, "scores")
        weights = np.array(data.draw(st.lists(
            EXTREME_WEIGHTS, min_size=n, max_size=n), label="weights"))
        want = [grad.copy(), keys.copy(), scores.copy()]
        # the extremes overflow to inf and nan; both sides must agree anyway
        with np.errstate(all="ignore"):
            hessian_row_loop(i, dx, H.indptr, H.indices, H.data, want[0])
            # row i of H: i and its neighbours
            moved = H.indices[H.indptr[i]:H.indptr[i + 1]]
            args = {}
            if rescore != "none":
                args["keys"] = keys
                want[1][moved] = np.abs(want[0][moved])
            if rescore == "weighted":
                args.update(scores=scores, weights=weights)
                want[2][moved] = want[1][moved] * weights[moved]
        assert _kernels.graph_coord_update(
            i, dx, H.indptr, H.indices, H.data, grad, **args) is None
        for got, exp in zip((grad, keys, scores), want):
            assert np.array_equal(got.view(np.int64), exp.view(np.int64))


class TestH2Tracker:
    @pytest.mark.parametrize("form, moves", [
        ("csr", 10**5), ("dense", 10**4), ("lean", 10**5),
        ("lean-dense", 10**4), ("product", 10**5)])
    def test_a_long_walk_without_refresh_keeps_the_gradient(self, form,
                                                            moves):
        # each move adds delta * H[i] to the gradient and delta g_i +
        # delta^2 H_ii / 2 to f, on the h2 Hessian row and the h1
        # least-squares column alike; random moves with no refresh must
        # not let those sums drift
        rng = np.random.default_rng(11)
        if form == "csr":
            p = random_bounded_degree_graph(rng, 300, dmax=8)
            tr = H2Tracker(p, np.zeros(p.n), lean=True, refresh_every=10**6)
        else:
            family, m, n = {"dense": ("dense_overdet_ls", 300, 60),
                            "lean": ("sparse_ls", 200, 200),
                            "lean-dense": ("dense_overdet_ls", 300, 60),
                            "product": ("l1_underdet_ls", 50, 500)}[form]
            p = gen_experiment(family, m=m, n=n, seed=0).problem
            p = getattr(p, "smooth", p)
            tr = make_tracker(p, np.zeros(p.n),
                              lean=form.startswith("lean"),
                              refresh_every=10**6)
        assert tr.lean == (form in ("csr", "lean", "lean-dense"))
        if form == "lean":
            assert isinstance(tr, H1Tracker)
        else:
            # a lean least-squares tracker with n^2 <= nnz moves by the
            # dense Hessian row, as the eager one does
            assert tracker_path(tr) == {"csr": "h2-csr", "dense": "h2-dense",
                                        "lean-dense": "h2-dense",
                                        "product": "h1-product"}[form]
        for i, delta in zip(rng.integers(p.n, size=moves).tolist(),
                            rng.standard_normal(moves).tolist()):
            tr.apply_update(i, delta)
        assert tr._updates == moves
        full = p.full_grad(tr.x)
        drift = np.abs(tr.full_gradient() - full).max() / np.abs(full).max()
        assert drift <= 1e-12
        f = p.eval(tr.x)
        assert abs(tr.objective() - f) <= 1e-12 * max(1.0, abs(f))

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
    """Which rescore an h2 update takes, by backend, score and leanness."""

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


class TestDenseHessianRow:
    """Where least squares takes the h2 update: on an eager problem whose
    h1 update would take the product and whose n <= m, grad += delta *
    H[i], one row of the kept dense Hessian.  The tracker keeps no A x and
    no rows."""

    @pytest.mark.parametrize("case", ["ls", "composite", "logistic", "wide",
                                      "scatter", "lean", "graph"])
    def test_h2_is_taken_exactly_where_a_dense_row_pays(self, case):
        # eager, quadratic, on the product and n <= m, or a graph: h2
        rng = np.random.default_rng(18)
        m, n = (4, 6) if case == "wide" else (8, 6)
        A, _ = random_sparse(rng, m, n, density=0.6)
        if case == "scatter":
            A, _ = random_sparse(rng, 120, 60, density=0.02)
            m, n = A.shape
        if case == "logistic":
            smooth = LogisticProblem(A, np.where(rng.random(m) < 0.5, -1.0,
                                                 1.0))
        elif case == "graph":
            smooth = random_bounded_degree_graph(rng, n, dmax=3)
        else:
            smooth = LeastSquaresProblem(A, rng.standard_normal(m),
                                         l2_reg=0.3)
        problem = (CompositeProblem(smooth, L1Term(0.2))
                   if case == "composite" else smooth)
        lean = case == "lean"
        tr = make_tracker(problem, np.zeros(n),
                          None if lean else GradScorer(), lean=lean)
        path = {"ls": "h2-dense", "composite": "h2-dense", "graph": "h2-csr",
                "scatter": "h1-scatter"}.get(case, "h1-product")
        if lean:
            assert isinstance(tr, H1Tracker) and tr.gradient is None
        else:
            assert tracker_path(tr) == path
        if path == "h2-dense":
            assert tr.H is smooth.hessian()
            assert not hasattr(tr, "u")
        tr.apply_update(2, 0.5)
        tr.refresh()
        if not lean:
            assert tracker_path(tr) == path

    @pytest.mark.parametrize("path", ["h2-dense", "lean", "h1-scatter",
                                      "h1-product"])
    def test_least_squares_update_links_no_row(self, monkeypatch, path):
        # between refreshes a least-squares update takes f's change from
        # g_i and H_ii, so it calls no row_link: the dense Hessian row
        # moves no row at all, an h1 update moves row_g by one column and
        # renews the gradient one way, and a lean one not at all
        rng = np.random.default_rng(19)
        m, n, density = {"h2-dense": (10, 5, 0.7),
                         "h1-scatter": (120, 60, 0.02)}.get(path,
                                                            (6, 12, 0.6))
        A, dense = random_sparse(rng, m, n, density=density)
        p = LeastSquaresProblem(A, rng.standard_normal(m), l2_reg=0.3,
                                scale=0.75)
        lean = path == "lean"
        tr = make_tracker(p, rng.uniform(-1.0, 1.0, n),
                          None if lean else GradScorer(), lean=lean)
        if lean:
            assert isinstance(tr, H1Tracker) and tr.lean
        else:
            assert tracker_path(tr) == path
        if isinstance(tr, H1Tracker):
            assert tr.u is None and tr.row_v is None

        def refused(*args, **kwargs):
            raise AssertionError(f"a least-squares {path} update makes "
                                 "no such call")

        for name in {"h2-dense": ("transpose_product", "scatter_row_deltas",
                                  "col_axpy"),
                     "h1-scatter": ("transpose_product",)}.get(
                         path, ("scatter_row_deltas",)):
            monkeypatch.setattr(_kernels, name, refused)
        monkeypatch.setattr(_kernels, "graph_coord_update", refused)
        monkeypatch.setattr(LeastSquaresProblem, "row_link", refused)
        if lean:
            # the update takes the g_i its run has just read, and pays for
            # no second column dot
            monkeypatch.setattr(tr, "grad_coord", refused)
        for i in (0, 3, 3, 1, n - 1):
            if lean:
                H1Tracker.grad_coord(tr, i)
            tr.apply_update(i, 0.25)
        r = dense @ tr.x - p.b
        assert np.allclose(tr.full_gradient(), 1.5 * dense.T @ r + 0.3 * tr.x,
                           rtol=1e-12, atol=1e-12)
        assert np.isclose(tr.objective(), p.eval(tr.x), rtol=1e-12)


class TestLeanTracker:
    """A lean tracker keeps no scores and no keys, and on h1 no gradient."""

    def test_lean_tracker_keeps_no_scores(self):
        # the identity's Hessian row (n = 3) is longer than its mean column
        # (nnz / n = 1), so a lean tracker moves through the column
        p = LeastSquaresProblem(np.eye(3), np.ones(3))
        assert not takes_hessian_row(p, True)
        with pytest.raises(ValueError, match="lean"):
            H1Tracker(p, np.zeros(3), GradScorer(), lean=True)
        tr = make_tracker(p, np.zeros(3), lean=True)
        assert isinstance(tr, H1Tracker)
        assert tr.lean and tr.gradient is None
        with pytest.raises(ValueError, match="without a score"):
            tr.peek()
        # a tall dense one (n^2 = 9 <= nnz = 15) moves by its kept Hessian
        # row and keeps the gradient, whose entries it reads, but still no
        # scores and no keys
        rng = np.random.default_rng(29)
        D = rng.uniform(1.0, 2.0, (5, 3))
        p = LeastSquaresProblem(D, rng.standard_normal(5), l2_reg=0.1)
        assert takes_hessian_row(p, True)
        tr = make_tracker(p, np.zeros(3), lean=True)
        assert isinstance(tr, H2Tracker) and tr.lean and tr.dense
        assert tr.H is p.hessian()
        assert tr.keys is None and tr.heap is None
        with pytest.raises(ValueError, match="keeps no scores"):
            tr.scores
        tr.apply_update(1, 0.5)
        assert tr.full_gradient() is tr.gradient
        for i in range(3):
            assert bits(tr.grad_coord(i)) == bits(tr.gradient.item(i))
        assert_tracker_matches(tr, p, rtol=1e-12)
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


def tracker_state(tr):
    """x, the objective, its last change, the update count, every cache
    array and the heap: what a refused update must leave as it was."""
    arrays = {k: v.tobytes() for k, v in vars(tr).items()
              if isinstance(v, np.ndarray)}
    heap = None if tr.heap is None else (tr.heap.keys.tobytes(),
                                         tr.heap.order.tobytes())
    return arrays, heap, tr.objective(), tr.last_obj_delta, tr._updates


def bits(v):
    return np.float64(v).tobytes()


# the update paths: the h1 row scatter and full product, and the h2
# Hessian row, dense (least squares) or CSR (a graph)
PATHS = ("h1-scatter", "h1-product", "h2-dense", "h2-csr")


def nns_serves(problem):
    """Whether the index serves ``problem``: a smooth h1 problem with
    l2_reg = 0 and every L_i > 0, since it normalises every column."""
    return (getattr(problem, "tracker_kind", None) == "h1"
            and problem.l2_reg == 0 and problem.L_per_coord.all())


def draw_smooth(data, path, grid, zero):
    """A smooth problem whose tracker takes ``path`` when eager.  The
    matrices are drawn on the path's side of KAPPA: long sparse rows for
    the scatter, dense-ish ones for the product and, for least squares,
    n > m there and n <= m on the dense Hessian row.  Zero columns or
    isolated nodes give L_i = 0.  On the ``grid`` every number is a
    multiple of 1/2 and every graph weight a power of two, so sums are
    exact and ties frequent; with ``zero`` as well, b or the node terms
    are 0."""
    if path == "h2-csr":
        n = data.draw(st.integers(1, 8), label="n")
        if not grid:
            # subnormal quadratic node terms among them: an isolated
            # node's L_i, under which a prox step overflows
            return draw_graph(data, n, st.floats(0.0, 2.0),
                              st.floats(-2.0, 2.0), st.one_of(
                                  st.floats(-2.0, 2.0),
                                  st.sampled_from([5e-324, 1e-310])))
        pairs = [(a, c) for a in range(n) for c in range(a + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                          if pairs else st.just([]), label="edges")

        def powers(size, lo, hi):
            return 2.0 ** np.array(data.draw(st.lists(
                st.integers(lo, hi), min_size=size, max_size=size)))

        lin = np.zeros(n) if zero else 0.5 * np.array(data.draw(st.lists(
            st.integers(-2, 2), min_size=n, max_size=n), label="node_lin"))
        return GraphQuadraticProblem(
            n, np.array(edges, dtype=np.int64).reshape(-1, 2),
            powers(len(edges), -1, 1), node_quad=powers(n, -1, 0),
            node_lin=lin)
    logistic = path != "h2-dense" and data.draw(st.booleans(),
                                                label="logistic")
    if path == "h2-dense":
        n = data.draw(st.integers(1, 6), label="n")
        m = data.draw(st.integers(n, 8), label="m")
    else:
        m = data.draw(st.integers(1, 12), label="m")
        n = data.draw(st.integers(30, 60) if path == "h1-scatter"
                      else st.integers(1, 12) if logistic
                      else st.integers(m + 1, 13), label="n")
    density = data.draw(st.floats(0.005, 0.05) if path == "h1-scatter"
                        else st.floats(0.15, 1.0), label="density")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    values = (0.5 * rng.integers(-2, 3, (m, n)) if grid
              else rng.standard_normal((m, n)))
    A = SparseMatrix.from_dense(np.where(rng.random((m, n)) < density,
                                         values, 0.0))
    assume(takes_product(A) == (path != "h1-scatter"))
    lam = data.draw(st.sampled_from([0.0, 0.5 if grid else 0.3]),
                    label="l2_reg")
    if logistic:
        return LogisticProblem(A, np.where(rng.random(m) < 0.5, -1.0, 1.0),
                               l2_reg=lam)
    b = (np.zeros(m) if zero else 0.5 * rng.integers(-2, 3, m) if grid
         else rng.uniform(-2.0, 2.0, m))
    return LeastSquaresProblem(A, b, l2_reg=lam)


class DenseRecompute:
    """Every piece of a tracker's state recomputed from its x alone, with
    dense algebra, and the work counters its problem's structure implies.
    Every iterate lies in [-1, 1]^n, which bounds each term the tracker's
    sums add: |u| <= |A| 1, a row derivative by |u| + |b| <= |u| + 2 (1
    on logistic), each gradient entry by |A|^T (|A| 1 + 2) + lam on h1 and
    |H| 1 + |b| on h2, and F by the sizes below (l1 weights <= 3)."""

    def __init__(self, problem):
        self.problem = problem
        self.smooth = s = getattr(problem, "smooth", problem)
        n = s.n
        if s.tracker_kind == "h1":
            self.dense = s.A.to_dense()
            self.nz = self.dense != 0
            size = np.abs(self.dense)
            self.u_size = 1.0 + size.sum(axis=1)
            self.grad_size = 1.0 + s.l2_reg + size.T @ (self.u_size + 1.0)
            self.obj_size = ((1.0 + 2.0 * len(size) + size.sum()) ** 2
                             + (s.l2_reg + 3.0) * n)
        else:
            size = np.abs(s.hessian())
            self.grad_size = 1.0 + size.sum(axis=1) + np.abs(s.node_lin)
            self.obj_size = (1.0 + size.sum() + np.abs(s.node_lin).sum()
                             + 3.0 * n)
            self.degree = np.bincount(s.edges.ravel(), minlength=n)

    def stats(self, tr, i):
        """(touched_rows, touched_grads, heap_ops) of an update of i."""
        if isinstance(tr, H2Tracker):
            # the off-diagonal entries of row i, all n - 1 of a dense row;
            # the heap rekeys the whole row
            d = (tr.n - 1 if self.smooth.tracker_kind == "h1"
                 else int(self.degree[i]))
            return d, d, 0 if tr.heap is None else d + 1
        hit = self.nz[:, i]
        rows, gather = int(hit.sum()), int(self.nz[hit].sum())
        if tr.lean:
            return rows, 0, 0
        if tr.heap is None:
            return rows, gather, 0
        # the product rekeys all n, the scatter the columns it hits, or i
        # alone from an empty column
        return rows, gather, (tr.n if tr.product
                              else max(int(self.nz[hit].any(axis=0).sum()),
                                       1))

    def check(self, tr, twin):
        """tr against the recompute; ``twin`` is an eager tracker fed the
        same updates when tr is lean, one on scan when tr is on the heap
        or nns, else None."""
        p, s, x = self.problem, self.smooth, tr.x
        every = np.arange(tr.n)
        if s.tracker_kind == "h1":
            u = self.dense @ x
            row_g = s.row_link(u, slice(None))[1]
            grad = self.dense.T @ row_g + s.l2_reg * x
            if isinstance(tr, H1Tracker):
                # least squares keeps the row derivatives alone
                if s.is_quadratic:
                    assert tr.u is None and tr.row_v is None
                else:
                    assert np.all(np.abs(tr.u - u) <= 1e-12 * self.u_size)
                assert np.all(np.abs(tr.row_g - row_g)
                              <= 1e-12 * self.u_size)
        else:
            grad = s.hessian() @ x - s.node_lin
        g = tr.full_gradient()
        assert np.all(np.abs(g - grad) <= 1e-12 * self.grad_size)
        assert abs(tr.objective() - p.eval(x)) <= 1e-12 * self.obj_size
        if s is p:
            assert tr.term_vals is None
            keys = np.abs(g)
        else:
            assert tr.term_vals.tobytes() == p.g_values(x).tobytes()
            keys = np.abs(p.prox_steps(
                x, g, s.curvature(tr.step_per_coord).L)[0])
        assert bits(tr.grad_inf_norm()) == bits(keys.max())
        if tr.lean:
            assert tr.keys is None
            if isinstance(s, LeastSquaresProblem):
                # f's change on least squares is delta g_i + delta^2 H_ii
                # / 2, g_i the eager twin's tracked entry and the lean
                # tracker's column dot; a lean logistic or graph tracker
                # takes it as its twin does
                assert (abs(twin.objective() - p.eval(x))
                        <= 1e-12 * self.obj_size)
                assert (abs(tr.last_obj_delta - twin.last_obj_delta)
                        <= 1e-12 * self.obj_size)
            else:
                assert bits(tr.objective()) == bits(twin.objective())
                assert bits(tr.last_obj_delta) == bits(twin.last_obj_delta)
            scale = max(1.0, float(np.abs(twin.gradient).max()))
            coords = np.array([tr.grad_coord(i) for i in every])
            assert np.all(np.abs(coords - twin.gradient) <= 1e-12 * scale)
            assert np.allclose(g, s.full_grad(x), rtol=1e-12,
                               atol=1e-12 * scale)
            return
        assert tr.keys.tobytes() == keys.tobytes()
        scorer = tr.scorer
        if scorer is not None:
            assert (tr.scores.tobytes()
                    == scorer.compute(tr, every)[0].tobytes())
            if getattr(scorer, "mode", None) == "q":
                # an infinite step (under a tiny L_i) scores +inf, and no
                # score is NaN, also where a box clamps an infinite step,
                # except on an l1 term under a tiny L_i (inf - inf)
                L = np.broadcast_to(s.curvature(scorer.per_coord).L, (s.n,))
                d = p.prox_steps(x, g, L)[0]
                event(f"q: infinite steps {bool(np.isinf(d).any())}")
                assert np.all(tr.scores[np.isinf(d)] == np.inf)
                known = (p.gkind == ABS) & (L < TINY_CURVATURE)
                assert not np.isnan(tr.scores[~known]).any()
            assert tr.peek() == scan_argmax(tr.scores)
            # |grad| and |eta| move by at most the gradient's error
            w = getattr(scorer, "w", None)
            if w is not None or getattr(scorer, "mode", "s") == "s":
                fresh = scorer.compute(SimpleNamespace(x=x, gradient=grad),
                                       every)[0]
                assert np.all(np.abs(tr.scores - fresh)
                              <= 1e-12 * (1.0 if w is None else w)
                              * self.grad_size)
        else:
            with pytest.raises(ValueError, match="keeps no scores"):
                tr.scores
            if tr.index is None:
                with pytest.raises(ValueError, match="without a score"):
                    tr.peek()
        if twin is not None:
            assert g.tobytes() == twin.gradient.tobytes()
            if tr.heap is not None:
                assert tr.scores.tobytes() == twin.scores.tobytes()
            if tr.heap is not None or tr.index is not None:
                assert tr.peek() == twin.peek()


class TestTrackerOracle:
    """Every update path against one dense recompute (``DenseRecompute``)
    after the build, after every update or refused update, and after a
    final refresh: a drawn problem, rule, backend, step curvature and
    refresh interval, and a drawn walk inside [-1, 1]^n."""

    # a subnormal L_i on a graph overflows the prox pass's steps
    @pytest.mark.filterwarnings("ignore:overflow encountered",
                                "ignore:invalid value encountered")
    @pytest.mark.parametrize("path", PATHS)
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_path_matches_a_fresh_recompute(self, path, data):
        grid = data.draw(st.booleans(), label="grid")
        zero = grid and data.draw(st.booleans(), label="zero")
        smooth = draw_smooth(data, path, grid, zero)
        n = smooth.n
        composite = data.draw(st.booleans(), label="composite")
        terms = [draw_term(data) if composite else ZeroTerm()
                 for _ in range(n)]
        problem = CompositeProblem(smooth, terms) if composite else smooth

        def value(lo, hi):
            if not grid:
                return st.floats(lo, hi)
            return st.integers(int(np.ceil(2 * lo)),
                               int(np.floor(2 * hi))).map(lambda k: k / 2)

        # a feasible x0 in [-1, 1]^n
        bounds = [(max(-1.0, t.p1), min(1.0, t.p2)) if t.kind == BOX
                  else (-1.0, 1.0) for t in terms]
        x0 = np.array([0.0 if zero else data.draw(value(lo, hi), label="x0")
                       for lo, hi in bounds])
        # half the draws take a rule that keeps scores, which the heap and
        # nns serve
        rules = [make_rule(r) for r in RULE_NAMES
                 if composite or not isinstance(make_rule(r), ProxWorkRule)]
        scoreless = data.draw(st.booleans(), label="scoreless")
        rule = data.draw(st.sampled_from([
            r for r in rules if (r.scorer(problem) is None) == scoreless]),
            label="rule")
        backends = ["heap", "scan"]
        if rule.name == "gsl" and nns_serves(problem):
            backends.insert(0, "nns")
        backend = data.draw(st.sampled_from(backends), label="backend")
        # a step curvature as given, or as ``run`` resolves a step mode
        step = data.draw(st.sampled_from([None, False, True, *STEP_MODES]),
                         label="step")
        if isinstance(step, str):
            if step == "exact" and composite and not smooth.is_quadratic:
                step = "const"
            step = _resolve_step(problem, rule, step) in ("const-coord",
                                                          "exact")
        every = data.draw(st.sampled_from([1, 3, 10000]),
                          label="refresh_every")
        lean = not rule.reads_gradient
        tr = make_tracker(problem, x0, rule.scorer(problem), backend=backend,
                          refresh_every=every, lean=lean, step_per_coord=step)
        twin = None
        if lean or backend != "scan":
            # an eager twin for a lean tracker, a scan one for heap and nns
            twin = make_tracker(problem, x0,
                                None if lean else rule.scorer(problem),
                                refresh_every=every, step_per_coord=step)
        if composite:
            assert tr.step_per_coord == (
                getattr(tr.scorer, "per_coord", False) if step is None
                else step)
        if path != "h2-csr":
            assert takes_product(smooth.A) == (path != "h1-scatter")
        if lean and path != "h2-csr":
            # a lean tracker over a matrix moves through its column, or on
            # least squares with n^2 <= nnz by its dense Hessian row
            row = smooth.is_quadratic and n * n <= smooth.A.nnz
            assert takes_hessian_row(smooth, True) == row
            if path == "h2-dense":
                event(f"lean {'h2-dense' if row else 'h1'}")
            if row:
                assert tracker_path(tr) == "h2-dense"
            else:
                assert isinstance(tr, H1Tracker) and not tr.product
        else:
            assert tracker_path(tr) == path
        oracle = DenseRecompute(problem)
        oracle.check(tr, twin)
        for _ in range(data.draw(st.integers(0, 8), label="moves")):
            i = data.draw(st.integers(0, n - 1), label="i")
            xi = tr.x.item(i)
            delta = data.draw(value(-1.0, 1.0), label="target") - xi
            term = terms[i]
            if term.kind == BOX and not term.p1 <= xi + delta <= term.p2:
                before = tracker_state(tr)
                with pytest.raises(ValueError, match="leaves its box"):
                    tr.apply_update(i, delta)
                assert tracker_state(tr) == before
            else:
                before = tr.objective()
                stats = tr.apply_update(i, delta)
                if twin is not None:
                    twin.apply_update(i, delta)
                assert tr.x.item(i) == xi + delta
                assert (stats.touched_rows, stats.touched_grads,
                        stats.heap_ops) == oracle.stats(tr, i)
                # F's change, also where a refresh rebuilt the objective
                assert (abs(before + tr.last_obj_delta - tr.objective())
                        <= 1e-12 * oracle.obj_size)
            oracle.check(tr, twin)
        for t in (tr, twin):
            if t is not None:
                t.refresh()
        oracle.check(tr, twin)

    # the subnormal L_0 overflows the prox pass's steps and thresholds
    @pytest.mark.filterwarnings("ignore:overflow encountered",
                                "ignore:invalid value encountered")
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_an_overflowing_prox_step_scores_inf(self, data):
        # node 0 is isolated, with a subnormal L_0 and a linear term, so
        # its prox step overflows to +inf wherever its term lets it (a
        # zero term or a box open above), and the recompute's check holds
        # its "q" score to +inf there; a bounded box clamps the step, and
        # its score is finite
        n = data.draw(st.integers(1, 6), label="n")
        pairs = [(a, c) for a in range(1, n) for c in range(a + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                          if pairs else st.just([]), label="edges")
        tiny = data.draw(st.sampled_from([5e-324, 1e-310]), label="L_0")
        smooth = GraphQuadraticProblem(
            n, np.array(edges, dtype=np.int64).reshape(-1, 2),
            np.ones(len(edges)), node_quad=[tiny] + [1.0] * (n - 1),
            node_lin=np.ones(n))
        terms = [draw_term(data) for _ in range(n)]
        problem = CompositeProblem(smooth, terms)
        x0 = into_boxes(problem, np.zeros(n))
        scorer = make_rule(data.draw(st.sampled_from(["gs-q", "gsl-q"]),
                                     label="rule")).scorer(problem)
        backend = data.draw(st.sampled_from(["scan", "heap"]),
                            label="backend")
        tr = make_tracker(problem, x0, scorer, backend=backend)
        twin = None if backend == "scan" else make_tracker(problem, x0,
                                                           scorer)
        oracle = DenseRecompute(problem)
        oracle.check(tr, twin)
        # gs-q steps under the largest L_i, gsl-q under L_0 itself
        L_0 = np.broadcast_to(smooth.curvature(scorer.per_coord).L, (n,))[0]
        overflow = L_0 == tiny and (terms[0].kind == ZERO
                                    or terms[0].p2 == np.inf)
        if overflow:
            assert tr.scores[0] == np.inf
        clamped = (L_0 == tiny and terms[0].kind == BOX
                   and terms[0].p2 < np.inf)
        if clamped:
            assert np.isfinite(tr.scores[0])
        for i in data.draw(st.lists(st.integers(0, n - 1), max_size=4),
                           label="moves"):
            t = terms[i]
            target = (0.0 if t.kind != BOX
                      else min(max(0.25, t.p1), t.p2))
            for r in (tr, twin):
                if r is not None:
                    r.apply_update(i, target - r.x.item(i))
            oracle.check(tr, twin)
        if overflow:
            assert tr.scores[0] == np.inf


class TestTrackedObjective:
    """``objective()`` is F = f + sum_i g_i, so a start where F is not
    finite is refused."""

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
    ``prox_steps``, the tracker's full-vector rescore and the one-off pass
    of ``ProxPass.at`` all go through) and whether it ran inside
    ``grad_inf_norm``: a list of (length, in the stopping test) pairs."""
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

    # (rule, step_per_coord, passes per update); None: the keys use the
    # score's own curvature, or L without a prox score
    CASES = (("gs-q", False, 1), ("gsl-q", True, 1), ("gsl-r", True, 1),
             ("gs-q", True, 2), ("gs-s", False, 1), ("gs-q", None, 1),
             ("gsl-q", None, 1), ("gs-s", None, 1), ("gs", None, 1),
             ("gsl", True, 1), ("mi", None, 1))

    def check_update_passes(self, monkeypatch, A, dense, product):
        """One update of coordinate 2 under every case: the passes cover
        the columns its rows touch on the scatter path, all n on a
        whole-vector one (``product``)."""
        m, n = dense.shape
        rng = np.random.default_rng(15)
        comp = CompositeProblem(LeastSquaresProblem(A, rng.standard_normal(m)),
                                L1Term(0.3))
        touched = np.flatnonzero((dense[dense[:, 2] != 0] != 0).any(axis=0))
        passes = count_prox_passes(monkeypatch)
        for rule, step_per_coord, per_update in self.CASES:
            tr = make_tracker(comp, np.zeros(n), make_rule(rule).scorer(comp),
                              step_per_coord=step_per_coord)
            assert tr.keys is not None
            assert (tracker_path(tr) != "h1-scatter") == product
            passes.clear()
            tr.apply_update(2, 0.5)
            assert passes == [(n if product else len(touched), False)
                              ] * per_update

    def test_keys_share_the_score_call_only_under_the_same_curvature(
            self, monkeypatch):
        # on a dense Hessian row (the product and n <= m), where each
        # pass covers all n
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


class TestScatterPathProxCalls:
    """On the scatter path a composite rescore reads the problem's kept
    pass over the touched coordinates (``ProxPass.at``) and calls no
    ``prox_steps``, whose entries its scores and keys still are, bit for
    bit, under the score's curvature and under the other one."""

    @pytest.mark.parametrize("backend", ["scan", "heap"])
    @pytest.mark.parametrize("rule, step_per_coord", [
        ("gs-q", None), ("gsl-q", None), ("gs-r", None), ("gs-q", True),
        ("gsl-q", False), ("gs-r", True), ("gs-s", True)])
    def test_updates_and_refreshes_call_no_prox_steps(
            self, monkeypatch, rule, step_per_coord, backend):
        rng = np.random.default_rng(17)
        A, _ = random_sparse(rng, 60, 40, density=0.03)
        assert not takes_product(A)
        terms = [(L1Term(0.3), BoxTerm(-1.0, 1.0), ZeroTerm())[j % 3]
                 for j in range(40)]
        comp = CompositeProblem(
            LeastSquaresProblem(A, rng.standard_normal(60)), terms)
        prox_steps = CompositeProblem.prox_steps
        calls = []
        monkeypatch.setattr(CompositeProblem, "prox_steps",
                            lambda *args: calls.append(args)
                            or prox_steps(*args))
        tr = make_tracker(comp, np.zeros(40), make_rule(rule).scorer(comp),
                          backend=backend, refresh_every=7,
                          step_per_coord=step_per_coord)
        # None takes the score's own curvature
        assert tr.step_per_coord == (rule.startswith("gsl")
                                     if step_per_coord is None
                                     else step_per_coord)
        every = np.arange(40)
        step = comp.smooth.curvature(tr.step_per_coord)
        score_L = comp.smooth.curvature(tr.scorer.per_coord).L
        for k in range(30):
            i = tr.peek()
            tr.apply_update(i, comp.coord_step(i, tr.x.item(i),
                                               tr.grad_coord(i),
                                               step.steps[i])[0])
            if k % 10 == 9:
                tr.refresh()
            assert not calls
            d = prox_steps(comp, tr.x, tr.gradient, step.L, every)[0]
            assert tr.keys.tobytes() == np.abs(d).tobytes()
            if tr.scorer.mode != "s":
                d, V, _ = prox_steps(comp, tr.x, tr.gradient, score_L, every)
                scores = np.abs(d) if tr.scorer.mode == "r" else -V
                assert tr.scores.tobytes() == scores.tobytes()


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
        scorer = (ProxScorer(problem, False, "q") if composite
                  else GradScorer())
        tr = make_tracker(problem, rng.uniform(-1.0, 1.0, 14), scorer)
        assert tracker_path(tr) == "h1-product"
        expected = np.empty(14)
        for _ in range(30):
            tr.apply_update(int(rng.integers(14)), float(rng.normal()))
            _kernels.transpose_product(A.col_indptr, A.col_rows, A.col_vals,
                                       tr.row_g, expected)
            assert tr.gradient.tobytes() == expected.tobytes()


def same_entries(a, b):
    """a and b bit for bit, except that a NaN matches any NaN: numpy does
    not give a NaN the same sign bit in arrays of different lengths (an
    l1 step at a tiny L and a huge gradient is inf - inf)."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


class TestFullProxPass:
    """The product path rescores every coordinate by one full-vector prox
    pass (``ProxPass`` over all n, built once per curvature) that reads the
    tracker's term values, which must give the bits of ``prox_steps`` over
    ``np.arange(n)``."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_full_pass_equals_prox_steps_over_every_index(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        # the smooth part's L_i = a_i^2 are the scorer's, 0 and a
        # subnormal 1e-320 among them
        diag = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0,
                                                   1e-160]),
                                  min_size=n, max_size=n), label="diag A")
        comp = CompositeProblem(
            LeastSquaresProblem(np.diag(diag), np.zeros(n)),
            [draw_term(data) for _ in range(n)])
        per_coord = data.draw(st.booleans(), label="per_coord")
        # signed zeros, extreme magnitudes and anything finite; the
        # curvature is scalar or per coordinate, with L_i = 0 and tiny
        # ones, where an ordinary gradient overflows the step, among them
        vec = st.lists(EXTREME_FLOATS, min_size=n, max_size=n)
        x = into_boxes(comp, np.array(data.draw(vec, label="x"),
                                      dtype=np.float64))
        g = np.array(data.draw(vec, label="grad"), dtype=np.float64)
        curvature = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0, 5e-324,
                                               1e-310, 1e-200]),
                              st.floats(0.0, 4.0))
        if data.draw(st.booleans(), label="scalar L"):
            L = data.draw(curvature, label="L")
        else:
            L = np.array(data.draw(st.lists(curvature, min_size=n,
                                            max_size=n), label="L"))
        every = np.arange(n)
        L_safe = np.broadcast_to(safe_curvature(L), (n,))
        with np.errstate(all="ignore"):  # extreme values overflow
            gx = comp.g_values(x)
            point = SimpleNamespace(x=x, gradient=g, term_vals=gx)
            d, V, _ = comp.prox_steps(x, g, L, every)
            kept = ProxPass(comp, L_safe)
            pd, pV = kept(x, g, gx)
            subsets = [kept.at(idx, x, g, gx) + (idx,)
                       for idx in (every, np.repeat(every[::-1], 2))]
            dc, Vc, _ = comp.prox_steps(
                x, g, comp.smooth.curvature(per_coord).L, every)
            # the scorer's full call and its call over every index against
            # prox_steps: the scores and the keys it hands the stopping test
            scored = [(ProxScorer(comp, per_coord, mode).compute(point, None),
                       ProxScorer(comp, per_coord, mode).compute(point, every),
                       (np.abs(dc) if mode == "r" else -Vc, np.abs(dc)))
                      for mode in ("r", "q")]
        assert pd.tobytes() == d.tobytes()
        assert pV.tobytes() == V.tobytes()
        for sd, sV, idx in subsets:
            assert same_entries(sd, d[idx]) and same_entries(sV, V[idx])
        # an infinite step, on a tiny L, decreases the model without bound:
        # V = -inf and the "q" score +inf, where g d + (L/2) d^2 is NaN
        tiny = L_safe < TINY_CURVATURE
        event(f"infinite steps on a tiny L: {bool(np.isinf(d[tiny]).any())}")
        assert np.all(V[tiny & np.isinf(d)] == -np.inf)
        # and V is not NaN there, also where a box clamps an infinite
        # x - g/L (lam |y| would be 0 * inf), except on an l1 term, whose
        # threshold lam/L overflows too
        assert not np.isnan(V[tiny & (comp.gkind != ABS)]).any()
        for full, part, ref in scored:
            for a, b, c in zip(full, part, ref):
                assert a.tobytes() == b.tobytes() == c.tobytes()

    @pytest.mark.parametrize("L_3", [5e-324, 1e-310])
    def test_an_infinite_step_decreases_the_model_without_bound(self, L_3):
        # node 3 is isolated with a subnormal L_3 and a linear term, so at
        # x = 0 its step is +inf; g d + (L/2) d^2 would be 0 * inf (L/2
        # underflows to 0 at 5e-324) or -inf + inf, both NaN, where the
        # model decrease is -inf: so in the kept pass, at the index and in
        # the scalar step, and gsl-q ranks the node first by +inf
        smooth = GraphQuadraticProblem(
            6, np.empty((0, 2), dtype=np.int64), np.empty(0),
            node_quad=[0.0, 0.0, 0.0, L_3, 0.0, 1.0],
            node_lin=[0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        comp = CompositeProblem(smooth, ZeroTerm())
        x = np.zeros(6)
        g = smooth.full_grad(x)
        gx = comp.g_values(x)
        full = comp.full_pass(True)
        assert [k for k, _ in full.tiny] == [3]
        with np.errstate(all="ignore"):
            d, V = full(x, g, gx)
            assert (d[3], V[3]) == (np.inf, -np.inf)
            assert not np.isnan(V).any()
            assert full.at(np.array([3]), x, g, gx)[1].tolist() == [-np.inf]
            assert comp.coord_step(3, 0.0, g.item(3), L_3) == (np.inf,
                                                               -np.inf)
            tr = make_tracker(comp, x, make_rule("gsl-q").scorer(comp))
        assert tr.peek() == 3 and tr.scores[3] == np.inf
        # an ordinary curvature patches nothing
        assert comp.full_pass(False).tiny is None
        # a box clamps the infinite x - g/L to its bound, d = 1, and V is
        # the finite g d = -1, where lam |x - g/L| would be 0 * inf
        boxed = CompositeProblem(smooth, [ZeroTerm()] * 3 + [BoxTerm(-1, 1)]
                                 + [ZeroTerm()] * 2)
        with np.errstate(all="ignore"):
            d, V = boxed.full_pass(True)(x, g, gx)
            assert (d[3], V[3]) == (1.0, -1.0)
            assert boxed.coord_step(3, 0.0, g.item(3), L_3) == (1.0, -1.0)

    def test_a_move_out_of_the_box_is_refused_and_changes_nothing(self):
        ls = LeastSquaresProblem(np.eye(3), np.ones(3))
        graph = GraphQuadraticProblem(3, [[0, 1]], [1.0], node_quad=[1, 1, 1])
        for smooth in (ls, graph):
            comp = CompositeProblem(smooth, [ZeroTerm(), BoxTerm(0.0, 1.0),
                                             L1Term(0.5)])
            for lean, backend in ((False, "scan"), (False, "heap"),
                                  (True, "scan")):
                scorer = None if lean else make_rule("gs-q").scorer(comp)
                tr = make_tracker(comp, np.zeros(3), scorer, backend=backend,
                                  lean=lean)
                tr.apply_update(0, 0.25)
                before = tracker_state(tr)
                for delta in (2.0, -0.5, np.inf, np.nan):
                    with pytest.raises(ValueError, match="leaves its box"):
                        tr.apply_update(1, delta)
                    assert tracker_state(tr) == before
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
        L_safe = safe_curvature(L)
        full = ProxPass(comp, L_safe)
        gx = comp.g_values(x)
        d, V = full(x, g, gx)
        for i in range(n):
            di, Vi, _ = comp.prox_steps(x, g, L, np.array([i]))
            ad, aV = full.at(np.array([i]), x, g, gx)
            cd, cV = comp.coord_step(i, x.item(i), g.item(i), L_safe.item(i))
            for got in (di, ad, np.array([cd])):
                assert got.tobytes() == d[i:i + 1].tobytes()
            for got in (Vi, aV, np.array([cV])):
                assert got.tobytes() == V[i:i + 1].tobytes()


class TestBackendEquivalence:
    """Every backend takes scan's path through whole runs, and the heap
    sifts only where an update rescores a subset."""

    # a subnormal L_i on a graph overflows the prox pass's steps
    @pytest.mark.filterwarnings("ignore:overflow encountered",
                                "ignore:invalid value encountered")
    @pytest.mark.parametrize("path", PATHS)
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_backend_takes_the_same_path(self, path, data):
        grid = data.draw(st.booleans(), label="grid")
        zero = grid and data.draw(st.booleans(), label="zero")
        smooth = draw_smooth(data, path, grid, zero)
        n = smooth.n
        # half the problems the index serves run gsl on it, so nns runs on
        # a visible share of the h1 examples
        on_nns = nns_serves(smooth) and data.draw(st.booleans(),
                                                  label="gsl on nns")
        composite = not on_nns and data.draw(st.booleans(),
                                             label="composite")
        terms = [draw_term(data) if composite else ZeroTerm()
                 for _ in range(n)]
        problem = CompositeProblem(smooth, terms) if composite else smooth
        # a feasible x0 in [-1, 1]^n, on the grid's halves there
        x0 = np.zeros(n) if zero else np.array(data.draw(st.lists(
            st.floats(-1.0, 1.0), min_size=n, max_size=n), label="x0"))
        x0 = np.round(2.0 * x0) / 2.0 if grid else x0
        if composite:
            x0 = into_boxes(problem, x0)
        # exact composite steps, as mi takes, need a quadratic
        names = [r for r in RULE_NAMES if make_rule(r).reads_gradient
                 and (composite or not isinstance(make_rule(r), ProxWorkRule))
                 and not (r == "mi" and composite and not smooth.is_quadratic)]
        name = "gsl" if on_nns else data.draw(st.sampled_from(names),
                                              label="rule")
        step = data.draw(st.sampled_from(STEP_MODES), label="step")
        if step == "exact" and composite and not smooth.is_quadratic:
            step = "const"
        every = data.draw(st.sampled_from([1, 7, 10000]),
                          label="refresh_every")
        iters = data.draw(st.integers(0, 60), label="iterations")
        backends = ["scan", "heap"] + (["nns"] if on_nns else [])
        event(f"{path}: {backends[-1]}")

        def outcome(backend):
            # a run the certificate or a guard stops must stop alike
            try:
                return run(problem, name, step=step, x0=x0, max_iters=iters,
                           tol=0.0, backend=backend, refresh_every=every)
            except (ValueError, RuntimeError) as e:
                return f"{type(e).__name__}: {e}"

        traces = {b: outcome(b) for b in backends}
        scan = traces["scan"]
        if isinstance(scan, str):
            event(f"{path}: stopped with an error")
            assert set(traces.values()) == {scan}
            return
        for b, trace in traces.items():
            for col, _ in TRACE_COLUMNS:
                if col not in ("elapsed_ns", "heap_ops"):
                    assert (getattr(trace, col).tobytes()
                            == getattr(scan, col).tobytes()), (b, col)
            assert trace.final_x.tobytes() == scan.final_x.tobytes(), b
            if b != "heap":
                assert not any(trace.heap_ops), b

    @pytest.mark.parametrize("path", PATHS)
    def test_a_whole_vector_rescore_sifts_nothing(self, monkeypatch, path):
        # the product and the dense Hessian row rebuild the heap by one
        # sort; the scatter and the CSR Hessian row sift each key they
        # rescore
        rng = np.random.default_rng(21)
        if path == "h2-csr":
            p = random_bounded_degree_graph(rng, 40, dmax=4)
        else:
            m, n, density = {"h1-scatter": (60, 40, 0.03),
                             "h1-product": (6, 12, 0.6),
                             "h2-dense": (10, 5, 0.7)}[path]
            p = LeastSquaresProblem(random_sparse(rng, m, n, density)[0],
                                    rng.standard_normal(m))
        # builds and sifts
        calls = {"__init__": 0, "update_key": 0}
        for name, real in [(k, getattr(IndexedMaxHeap, k)) for k in calls]:
            def counted(self, *args, name=name, real=real):
                calls[name] += 1
                real(self, *args)
            monkeypatch.setattr(IndexedMaxHeap, name, counted)
        tr = make_tracker(p, np.zeros(p.n), GradScorer(), backend="heap")
        assert tracker_path(tr) == path
        whole = path in ("h1-product", "h2-dense")
        for _ in range(12):
            before = list(calls.values())
            stats = tr.apply_update(tr.peek(), 0.25)
            done = tuple(np.subtract(list(calls.values()), before))
            if whole:
                assert done == (1, 0) and stats.heap_ops == p.n
            else:
                assert done == (0, stats.heap_ops) and stats.heap_ops > 0

    def test_nns_builds_its_index_once_per_problem(self, monkeypatch):
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
        with pytest.raises(ValueError, match="keeps no scores"):
            tr.scores
        # a second tracker and a run take the problem's index
        tr2 = make_tracker(p, np.ones(8), backend="nns")
        trace = run(p, "gsl", backend="nns", max_iters=30, tol=0.0,
                    refresh_every=7)
        assert builds == [tr.index] and tr2.index is tr.index
        assert len(trace) == 31
        # a second problem builds its own
        q = LeastSquaresProblem(A, rng.standard_normal(12))
        assert make_tracker(q, np.zeros(8), backend="nns").index is builds[1]
        assert len(builds) == 2

    def test_nns_needs_a_plain_h1_problem(self):
        rng = np.random.default_rng(14)
        ls = LeastSquaresProblem(rng.normal(size=(6, 4)), np.zeros(6))
        comp = CompositeProblem(ls, L1Term(0.1))
        # the index refuses it, and the refused build keeps nothing
        for _ in range(2):
            with pytest.raises(ValueError, match="composite"):
                make_tracker(comp, np.zeros(4), backend="nns")
        g = GraphQuadraticProblem(3, [[0, 1]], [1.0], node_quad=[1, 1, 1])
        with pytest.raises(ValueError, match="least-squares or"):
            make_tracker(g, np.zeros(3), backend="nns")
        with pytest.raises(ValueError, match="lean"):
            make_tracker(ls, np.zeros(4), backend="nns", lean=True)

    def test_make_tracker_dispatch(self):
        # ``TestDenseHessianRow`` holds where least squares goes
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
                          lean=not rule.reads_gradient,
                          step_per_coord=mode == "const-coord")
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
                        step is shared.full_pass(c) for c in (False, True))
        for k in range(60):
            for (rule, tr, curv), (rule2, tr2, curv2) in pairs:
                assert (self.step(rule, tr, curv, k)
                        == self.step(rule2, tr2, curv2, k))
                assert self.state(tr) == self.state(tr2)
