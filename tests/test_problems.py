"""Objective classes checked against finite differences, dense Hessian
oracles, and scipy 1-D minimisation."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from greedycd.problems import (BoxTerm, CompositeProblem,
                               GraphQuadraticProblem, L1Term,
                               LeastSquaresProblem, LogisticProblem, ZeroTerm,
                               prox_coordinate, quadratic_problem)
from greedycd.rules import make_rule
from helpers import fold_labeled_graph_loop, one_step, random_sparse, random_spd


def numeric_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


class TestProx:
    def test_soft_threshold(self):
        t = L1Term(1.0)
        assert prox_coordinate(t, 1.0, 2.0) == 1.0
        assert prox_coordinate(t, 1.0, 0.5) == 0.0
        assert prox_coordinate(t, 1.0, -2.0) == -1.0
        assert prox_coordinate(t, 2.0, 2.0) == 1.5

    def test_box_clamp(self):
        t = BoxTerm(0.0, np.inf)
        assert prox_coordinate(t, 1.0, -3.0) == 0.0
        assert prox_coordinate(t, 1.0 / 7.0, 5.0) == 5.0
        t = BoxTerm(-1.0, 1.0)
        assert prox_coordinate(t, 0.5, 4.0) == 1.0

    def test_zero_identity(self):
        assert prox_coordinate(ZeroTerm(), 1.0 / 3.0, -2.5) == -2.5

    def test_l1_term_rejects_non_finite_weight(self):
        for lam in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                L1Term(lam)

    def test_box_term_rejects_nan_and_inverted_infinite_bounds(self):
        for lo, hi in ((np.nan, 1.0), (0.0, np.nan), (np.inf, np.inf),
                       (-np.inf, -np.inf)):
            with pytest.raises(ValueError, match="bounds"):
                BoxTerm(lo, hi)
        # half-lines and the whole line stay valid boxes
        assert (BoxTerm(-np.inf, 0.0).p1, BoxTerm(0.0, np.inf).p2) == (
            -np.inf, np.inf)
        BoxTerm(-np.inf, np.inf)

    def test_bad_step_raises(self):
        with pytest.raises(ValueError):
            prox_coordinate(ZeroTerm(), 0.0, 1.0)

    def test_prox_minimizes_model(self):
        # oracle: dense grid search of (1/2a)(z-y)^2 + g(z)
        rng = np.random.default_rng(0)
        grid = np.linspace(-4, 4, 20001)
        for term in [L1Term(0.7), BoxTerm(-0.5, 1.5), ZeroTerm()]:
            for _ in range(20):
                y = float(rng.uniform(-3, 3))
                a = float(rng.uniform(0.1, 2.0))
                z = prox_coordinate(term, 1.0 / a, y)
                gv = np.abs(grid) * 0.7 if term.kind == 1 else np.zeros_like(grid)
                if term.kind == 2:
                    gv = np.where((grid < term.p1) | (grid > term.p2), np.inf, 0.0)
                vals = (grid - y) ** 2 / (2 * a) + gv
                best = grid[np.argmin(vals)]
                assert abs(z - best) < 1e-3


class TestLeastSquares:
    def setup_method(self):
        rng = np.random.default_rng(1)
        self.A, self.dense = random_sparse(rng, 12, 7)
        self.b = rng.standard_normal(12)
        self.x = rng.standard_normal(7)

    def test_eval_and_grad(self):
        p = LeastSquaresProblem(self.A, self.b, l2_reg=0.3, scale=0.5)
        r = self.dense @ self.x - self.b
        assert np.isclose(p.eval(self.x),
                          0.5 * r @ r + 0.15 * self.x @ self.x, rtol=1e-13)
        g = p.full_grad(self.x)
        assert np.allclose(g, numeric_grad(p.eval, self.x), atol=1e-5)

    def test_lipschitz_matches_hessian_diag(self):
        for scale in (0.5, 1.0 / (2 * 12)):
            p = LeastSquaresProblem(self.A, self.b, l2_reg=0.2, scale=scale)
            H = p.hessian()
            assert np.allclose(p.L_per_coord, np.diag(H), rtol=1e-12)
            assert p.L == pytest.approx(p.L_per_coord.max())
            assert p.L1 == pytest.approx(np.abs(H).max(), rel=1e-12)

    def test_exact_coord_min_zeroes_gradient(self):
        p = LeastSquaresProblem(self.A, self.b, l2_reg=0.1)
        x = one_step(p, self.x, 3).final_x
        assert abs(p.full_grad(x)[3]) < 1e-10

    def test_exact_coord_min_diagonal_case(self):
        # diag(1, 0.7), b = (-1, -3): along coordinate 1 the minimiser is
        # b_2 / a_22 = -3 / 0.7 regardless of the starting point
        p = LeastSquaresProblem(np.diag([1.0, 0.7]), [-1.0, -3.0], scale=0.5)
        new = one_step(p, np.array([1.0, 0.1]), 1).final_x[1]
        assert np.isclose(new, -3.0 / 0.7, rtol=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            LeastSquaresProblem(self.A, self.b[:-1])
        with pytest.raises(ValueError):
            LeastSquaresProblem(self.A, self.b, scale=0.0)
        with pytest.raises(ValueError):
            LeastSquaresProblem(self.A, self.b, l2_reg=-1.0)

    def test_rejects_non_finite_rhs(self):
        for bad in (np.nan, np.inf, -np.inf):
            b = self.b.copy()
            b[4] = bad
            with pytest.raises(ValueError, match="b must be finite"):
                LeastSquaresProblem(self.A, b)


class TestQuadraticHelper:
    def test_matches_target_quadratic(self):
        rng = np.random.default_rng(2)
        H = random_spd(rng, 6)
        b = rng.standard_normal(6)
        p = quadratic_problem(H, b)
        x, y = rng.standard_normal((2, 6))
        fq = lambda z: 0.5 * z @ H @ z - b @ z
        assert np.isclose(p.eval(x) - p.eval(y), fq(x) - fq(y), rtol=1e-9, atol=1e-12)
        assert np.allclose(p.full_grad(x), H @ x - b, rtol=1e-9, atol=1e-12)
        assert np.allclose(p.L_per_coord, np.diag(H), rtol=1e-9)


class TestLogistic:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.A, self.dense = random_sparse(rng, 20, 6)
        self.y = np.sign(rng.standard_normal(20))
        self.y[self.y == 0] = 1.0
        self.x = rng.standard_normal(6) * 0.5

    def test_eval_and_grad(self):
        p = LogisticProblem(self.A, self.y, l2_reg=0.2)
        u = self.dense @ self.x
        expected = np.log1p(np.exp(-self.y * u)).mean() + 0.1 * self.x @ self.x
        assert np.isclose(p.eval(self.x), expected, rtol=1e-12)
        g = p.full_grad(self.x)
        assert np.allclose(g, numeric_grad(p.eval, self.x), atol=1e-6)

    def test_eval_stable_for_large_margins(self):
        p = LogisticProblem(self.A, self.y)
        assert np.isfinite(p.eval(1e4 * np.ones(6)))
        assert np.all(np.isfinite(p.full_grad(1e4 * np.ones(6))))

    def test_curvature_below_L(self):
        # second derivative along each axis is at most 0.25/m ||col||^2 + lam
        rng = np.random.default_rng(4)
        p = LogisticProblem(self.A, self.y, l2_reg=0.1)
        for _ in range(50):
            x = rng.standard_normal(6)
            u = self.dense @ x
            sig = 1.0 / (1.0 + np.exp(-u * self.y))
            hdiag = (self.dense ** 2 * (sig * (1 - sig))[:, None]).mean(axis=0) + 0.1
            assert np.all(hdiag <= p.L_per_coord + 1e-12)

    def test_exact_coord_min_against_scipy(self):
        rng = np.random.default_rng(5)
        p = LogisticProblem(self.A, self.y, l2_reg=0.05)
        for _ in range(25):
            x = rng.standard_normal(6)
            i = int(rng.integers(6))
            new = p.exact_coord_min(x, i, self.dense @ x)
            phi = lambda a: p.eval(np.concatenate([x[:i], [a], x[i + 1:]]))
            ref = scipy.optimize.minimize_scalar(phi, bracket=(x[i] - 5, x[i] + 5))
            assert phi(new) <= ref.fun + 1e-12
            xi = x.copy()
            xi[i] = new
            assert abs(p.full_grad(xi)[i]) < 1e-10
            # the run's exact step is this one, from the tracker's A x
            assert np.isclose(one_step(p, x, i).final_x[i], new,
                              rtol=1e-12, atol=1e-12)

    def test_progress_bound_holds(self):
        # exact step never does worse than the 1/L_i step (Eq-style bound)
        rng = np.random.default_rng(6)
        p = LogisticProblem(self.A, self.y)
        for _ in range(25):
            x = rng.standard_normal(6)
            i = int(rng.integers(6))
            g = p.full_grad(x)[i]
            new = p.exact_coord_min(x, i, self.dense @ x)
            xi = x.copy()
            xi[i] = new
            assert p.eval(xi) <= p.eval(x) - g * g / (2 * p.L_per_coord[i]) + 1e-12

    def test_label_validation(self):
        with pytest.raises(ValueError):
            LogisticProblem(self.A, np.zeros(20))


class TestGraphQuadratic:
    def make_chain(self, rng, n=6):
        edges = np.column_stack([np.arange(n - 1), np.arange(1, n)])
        w = rng.uniform(0.5, 2.0, size=n - 1)
        q = rng.uniform(0.1, 1.0, size=n)
        b = rng.standard_normal(n)
        return GraphQuadraticProblem(n, edges, w, node_quad=q, node_lin=b)

    def test_eval_grad_against_dense(self):
        rng = np.random.default_rng(7)
        p = self.make_chain(rng)
        H = p.hessian()
        x = rng.standard_normal(p.n)
        assert np.isclose(p.eval(x), 0.5 * x @ H @ x - p.node_lin @ x, rtol=1e-12)
        assert np.allclose(p.full_grad(x), H @ x - p.node_lin, rtol=1e-12)
        assert np.allclose(p.L_per_coord, np.diag(H), rtol=1e-14)
        assert p.max_degree == 2

    def test_exact_coord_min(self):
        rng = np.random.default_rng(8)
        p = self.make_chain(rng)
        x = one_step(p, rng.standard_normal(p.n), 2).final_x
        assert abs(p.full_grad(x)[2]) < 1e-12

    def test_labeled_graph_matches_full_energy(self):
        rng = np.random.default_rng(9)
        n = 8
        edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6],
                          [6, 7], [0, 7], [2, 5]])
        w = rng.uniform(0.5, 1.5, size=len(edges))
        labeled = {1: 1.0, 6: -1.0}
        prob, free = GraphQuadraticProblem.from_labeled_graph(
            n, edges, w, labeled, node_reg=0.05)
        assert len(free) == 6 and 1 not in free and 6 not in free

        def full_energy(xfull):
            e = sum(0.5 * wi * (xfull[a] - xfull[b]) ** 2
                    for (a, b), wi in zip(edges, w))
            return e + 0.05 * (xfull[free] ** 2).sum() / 2

        for _ in range(5):
            xv = rng.standard_normal(len(free))
            xfull = np.zeros(n)
            xfull[free] = xv
            for node, val in labeled.items():
                xfull[node] = val
            assert np.isclose(prob.eval(xv), full_energy(xfull), rtol=1e-12)

    def test_edge_validation(self):
        with pytest.raises(ValueError):
            GraphQuadraticProblem(3, [[0, 0]], [1.0])
        with pytest.raises(ValueError):
            GraphQuadraticProblem(3, [[0, 1], [1, 0]], [1.0, 1.0])
        with pytest.raises(ValueError):
            GraphQuadraticProblem(3, [[0, 5]], [1.0])
        # pair codes lo * n + hi: a reversed duplicate at large n is caught,
        # and pairs sharing lo or hi are not mistaken for one
        n = 10**6
        with pytest.raises(ValueError, match="duplicate edges"):
            GraphQuadraticProblem(n, [[7, n - 1], [1, 2], [n - 1, 7]],
                                  [1.0] * 3)
        p = GraphQuadraticProblem(n, [[n - 1, 0], [1, 0], [0, n - 2]],
                                  [1.0] * 3)
        assert p.max_degree == 3

    @pytest.mark.parametrize("name", ["node_quad", "node_lin"])
    @pytest.mark.parametrize("value", [2.0, [2.0], [1.0, 2.0],
                                       [[1.0, 2.0, 3.0]], np.ones((3, 1))])
    def test_node_terms_must_have_one_entry_per_node(self, name, value):
        # a scalar or a length-1 array would broadcast into L_per_coord
        # and full_grad, and then fail in eval or in the move
        with pytest.raises(ValueError, match=name):
            GraphQuadraticProblem(3, [[0, 1]], [1.0], **{name: value})
        p = GraphQuadraticProblem(3, [[0, 1]], [1.0],
                                  **{name: [1.0, 2.0, 3.0]})
        assert getattr(p, name).shape == (3,)

    def test_hessian_stores_every_diagonal_entry(self):
        # node 2 is isolated and has no curvature: its diagonal entry is an
        # explicit 0, so row 2 of H still names node 2
        p = GraphQuadraticProblem(3, [[0, 1]], [1.5],
                                  node_quad=[0.5, 0.0, 0.0])
        H = p.H
        assert H.has_canonical_format
        assert H.indices[H.indptr[2]:H.indptr[3]].tolist() == [2]
        assert H.data[H.indptr[2]:H.indptr[3]].tolist() == [0.0]
        assert H.indices[H.indptr[0]:H.indptr[1]].tolist() == [0, 1]
        assert H.data[H.indptr[0]:H.indptr[1]].tolist() == [2.0, -1.5]
        assert H.nnz == 3 + 2 and p.max_degree == 1
        empty = GraphQuadraticProblem(0, np.zeros((0, 2)), [])
        assert empty.H.nnz == 0 and empty.max_degree == 0

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           density=st.sampled_from([0.0, 0.3, 1.0]),
           labels=st.sampled_from(["none", "some", "all"]),
           per_node_reg=st.booleans(), dyadic=st.booleans())
    def test_labeled_fold_matches_the_loop(self, n, seed, density, labels,
                                           per_node_reg, dyadic):
        rng = np.random.default_rng(seed)
        lo, hi = np.triu_indices(n, 1)
        pick = rng.random(lo.size) < density
        edges = np.column_stack([lo[pick], hi[pick]])
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip, ::-1]
        edges = edges[rng.permutation(len(edges))]
        w = rng.uniform(0.0, 3.0, len(edges)) * (rng.random(len(edges)) < 0.8)
        n_lab = {"none": 0, "some": int(rng.integers(1, n + 1)),
                 "all": n}[labels]
        ids = rng.permutation(n)[:n_lab]
        # labels in eighths square and subtract exactly; any other double
        # may square differently (below)
        vals = (rng.integers(-32, 33, n_lab) / 8.0 if dyadic
                else rng.standard_normal(n_lab))
        labeled = dict(zip(ids.tolist(), vals.tolist()))
        reg = rng.random(n) if per_node_reg else 0.25
        prob, free = GraphQuadraticProblem.from_labeled_graph(
            n, edges, w, labeled, node_reg=reg)
        want = fold_labeled_graph_loop(n, edges, w, labeled, node_reg=reg)
        got = (prob.edges, prob.weights, prob.node_quad, prob.node_lin,
               prob.const, free)
        for g, e in zip(got[:4] + got[5:], want[:4] + want[5:]):
            assert g.dtype == e.dtype and g.shape == e.shape
            assert g.tobytes() == e.tobytes()
        # the fold squares as d * d, correctly rounded, where the loop's
        # float ** 2 calls the C library's pow, which can be 1 ulp off; the
        # terms add in the same order, so the constants differ by at most
        # a few ulp per term
        if dyadic:
            assert repr(prob.const) == repr(want[4])
        else:
            eps = np.finfo(np.float64).eps
            assert abs(prob.const - want[4]) <= 4 * eps * len(w) * want[4]

    def test_labeled_fold_rejects_bad_labels_and_weight_counts(self):
        edges = [[0, 1], [1, 2]]
        for bad in (3, -1):
            with pytest.raises(ValueError, match="labeled node out of range"):
                GraphQuadraticProblem.from_labeled_graph(
                    3, edges, [1.0, 1.0], {0: 1.0, bad: -1.0})
        for w in ([1.0], [1.0, 1.0, 1.0]):
            with pytest.raises(ValueError, match="one weight per edge"):
                GraphQuadraticProblem.from_labeled_graph(3, edges, w,
                                                         {0: 1.0})
        for bad in ([[0, 3]], [[-1, 1]]):
            with pytest.raises(ValueError, match="edge endpoint out of range"):
                GraphQuadraticProblem.from_labeled_graph(3, bad, [1.0],
                                                         {0: 1.0})

    def test_rejects_non_finite_weights_and_node_terms(self):
        edges = [[0, 1], [1, 2]]
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="edge weights must be finite"):
                GraphQuadraticProblem(3, edges, [1.0, bad])
            for key in ("node_quad", "node_lin"):
                terms = {key: [1.0, bad, 1.0]}
                with pytest.raises(ValueError, match="node terms"):
                    GraphQuadraticProblem(3, edges, [1.0, 1.0], **terms)
            with pytest.raises(ValueError, match="node terms"):
                GraphQuadraticProblem(3, edges, [1.0, 1.0], const=bad)
        # a NaN label reaches the node terms through the labeled-graph fold
        with pytest.raises(ValueError, match="node terms"):
            GraphQuadraticProblem.from_labeled_graph(3, edges, [1.0, 1.0],
                                                     {0: np.nan})


class TestComposite:
    def setup_method(self):
        rng = np.random.default_rng(10)
        self.H = random_spd(rng, 5)
        self.bvec = rng.standard_normal(5)
        self.smooth = quadratic_problem(self.H, self.bvec)
        self.x = rng.standard_normal(5)

    def test_g_values_and_eval(self):
        comp = CompositeProblem(self.smooth, L1Term(0.8))
        assert np.isclose(comp.eval(self.x),
                          self.smooth.eval(self.x) + 0.8 * np.abs(self.x).sum(),
                          rtol=1e-13)
        box = CompositeProblem(self.smooth, BoxTerm(0.0, 1.0))
        assert box.eval(np.full(5, -1.0)) == np.inf

    def test_prox_steps_match_scalar_prox(self):
        comp = CompositeProblem(
            self.smooth,
            [L1Term(0.5), BoxTerm(-1, 1), ZeroTerm(), L1Term(1.5), BoxTerm(0, np.inf)])
        grad = self.smooth.full_grad(self.x)
        for L_used in (comp.L, comp.L_per_coord):
            d, V, s = comp.prox_steps(self.x, grad, L_used)
            Lv = np.broadcast_to(np.asarray(L_used, float), (5,))
            for i in range(5):
                zi = prox_coordinate(comp.terms[i], Lv[i],
                                     self.x[i] - grad[i] / Lv[i])
                assert np.isclose(d[i], zi - self.x[i], rtol=1e-13, atol=1e-15)
            assert np.all(V <= 1e-15)

    def test_s_is_subgradient_at_landing_point(self):
        comp = CompositeProblem(self.smooth, L1Term(0.5))
        grad = self.smooth.full_grad(self.x)
        d, V, s = comp.prox_steps(self.x, grad, comp.L)
        z = self.x + d
        for i in range(5):
            if z[i] != 0:
                assert np.isclose(s[i], 0.5 * np.sign(z[i]), atol=1e-12)
            else:
                assert abs(s[i]) <= 0.5 + 1e-12

    def test_V_definition(self):
        comp = CompositeProblem(self.smooth, L1Term(0.5))
        grad = self.smooth.full_grad(self.x)
        d, V, s = comp.prox_steps(self.x, grad, comp.L)
        z = self.x + d
        expected = (grad * d + 0.5 * comp.L * d * d
                    + 0.5 * (np.abs(z) - np.abs(self.x)))
        assert np.allclose(V, expected, rtol=1e-12, atol=1e-15)

    def test_min_subgradients(self):
        comp = CompositeProblem(
            self.smooth,
            [L1Term(1.0), L1Term(1.0), BoxTerm(0, 2), BoxTerm(0, 2), ZeroTerm()])
        x = np.array([0.5, 0.0, 0.0, 1.0, -0.3])
        grad = np.array([2.0, 0.6, -1.5, 1.2, 0.8])
        eta = comp.min_subgradients(x, grad)
        assert eta[0] == pytest.approx(3.0)        # grad + lam*sign(x)
        assert eta[1] == pytest.approx(0.0)        # |0.6| <= lam, shrunk to 0
        assert eta[2] == pytest.approx(-1.5)       # at lower bound, inward pull
        assert eta[3] == pytest.approx(1.2)        # interior
        assert eta[4] == pytest.approx(0.8)        # zero term
        grad2 = np.array([0.0, -1.4, 1.5, -1.2, 0.0])
        eta2 = comp.min_subgradients(x, grad2)
        assert eta2[1] == pytest.approx(-0.4)      # |grad|-lam past threshold
        assert eta2[2] == pytest.approx(0.0)       # outward-infeasible scores 0

    def test_exact_coord_min_optimality(self):
        comp = CompositeProblem(self.smooth, L1Term(0.7))
        x = self.x.copy()
        for i in range(5):
            new = one_step(comp, x, i).final_x[i]
            grid = new + np.linspace(-0.1, 0.1, 2001)
            vals = []
            for z in grid:
                xt = x.copy()
                xt[i] = z
                vals.append(comp.eval(xt))
            xt = x.copy()
            xt[i] = new
            assert comp.eval(xt) <= min(vals) + 1e-10


class TestProxSubset:
    """A prox call over ``idx`` returns the entries ``idx`` of the call over
    every coordinate, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_subset_call_equals_full_call_entries(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # empty columns give L_i = 0, which the prox treats as 1
        A, _ = random_sparse(rng, 4, n, density=0.4,
                             ensure_nonempty_cols=False)
        kinds = data.draw(st.lists(st.sampled_from(["zero", "l1", "box"]),
                                   min_size=n, max_size=n), label="kinds")
        terms = [ZeroTerm() if k == "zero" else L1Term(rng.uniform(0, 2))
                 if k == "l1" else BoxTerm(-np.inf if rng.random() < 0.3
                                           else -1.0, 1.5) for k in kinds]
        comp = CompositeProblem(LeastSquaresProblem(A, np.zeros(4)), terms)
        x = rng.standard_normal(n)
        g = rng.standard_normal(n)
        x[rng.random(n) < 0.3] = 0.0
        L_vec = rng.uniform(0.1, 3.0, n)
        L_vec[rng.random(n) < 0.3] = 0.0
        L = data.draw(st.sampled_from(
            [comp.L, 0.0, 2.5, L_vec, comp.L_per_coord]), label="L")
        idx = np.array(data.draw(st.lists(st.integers(0, n - 1),
                                          max_size=2 * n), label="idx"),
                       dtype=np.int64)
        full = comp.prox_steps(x, g, L)
        part = comp.prox_steps(x, g, L, idx)
        for whole, sub in zip(full, part):
            assert sub.shape == idx.shape
            assert sub.tobytes() == whole[idx].tobytes()


class TestCoordStep:
    """The scalar composite step against the vectorised prox candidates."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_coord_step_equals_prox_steps_bit_for_bit(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        coord = st.floats(-1e3, 1e3)              # includes -0.0 and 0.0
        magnitude = st.floats(1e-6, 1e6)
        signed = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda v: -v))
        terms, x = [], []
        for _ in range(n):
            kind = data.draw(st.sampled_from(["zero", "l1", "box"]))
            if kind == "zero":
                terms.append(ZeroTerm())
            elif kind == "l1":
                terms.append(L1Term(data.draw(st.one_of(st.just(0.0),
                                                        magnitude))))
            else:
                lo = data.draw(st.one_of(st.just(-np.inf), coord))
                hi = data.draw(st.one_of(
                    st.just(np.inf),
                    st.floats(-1e3 if lo == -np.inf else lo, 1e3)))
                terms.append(BoxTerm(lo, hi))
            t = terms[-1]
            if t.kind == 2:
                x.append(data.draw(st.floats(max(t.p1, -1e3), min(t.p2, 1e3))))
            else:
                x.append(data.draw(coord))
        x = np.array(x)
        g = np.array(data.draw(st.lists(signed, min_size=n, max_size=n)))
        L = np.array(data.draw(st.lists(magnitude, min_size=n, max_size=n)))
        comp = CompositeProblem(LeastSquaresProblem(np.eye(n), np.zeros(n)),
                                terms)
        d_all, V_all, _ = comp.prox_steps(x, g, L)
        for i, term in enumerate(terms):
            xi, gi, Li = float(x[i]), float(g[i]), float(L[i])
            d, V = comp.coord_step(i, xi, gi, Li)
            assert type(d) is float and type(V) is float
            assert np.array([d, V]).tobytes() == np.array(
                [d_all[i], V_all[i]]).tobytes()
            # V <= 0 and -(g + L d) lies in the subdifferential at x + d,
            # up to the rounding of the step itself
            w = xi + d
            s = -(gi + Li * d)
            lam = term.p1 if term.kind == 1 else 0.0
            assert V <= 1e-12 * (abs(gi * d) + Li * d * d
                                 + lam * (abs(xi) + abs(w)))
            tol = 1e-12 * (abs(gi) + Li * (abs(xi) + abs(d)) + lam)
            wtol = 1e-12 * (abs(xi) + abs(d))
            if term.kind == 0:
                assert abs(s) <= tol
            elif term.kind == 1:
                if abs(w) > wtol:
                    assert abs(s - term.p1 * np.sign(w)) <= tol
                else:
                    assert abs(s) <= term.p1 + tol
            else:
                assert term.p1 - wtol <= w <= term.p2 + wtol
                if w > term.p1 + wtol:
                    assert s >= -tol
                if w < term.p2 - wtol:
                    assert s <= tol

    def test_coord_step_keeps_a_nan_gradient(self):
        # a NaN step must reach the run's guards, as it does from prox_steps
        comp = CompositeProblem(LeastSquaresProblem(np.eye(3), np.zeros(3)),
                                [ZeroTerm(), L1Term(0.5), BoxTerm(-1.0, 1.0)])
        for i in range(3):
            d, V = comp.coord_step(i, 0.0, np.nan, 2.0)
            assert np.isnan(d) and np.isnan(V)
        d_all, V_all, _ = comp.prox_steps(np.zeros(3), np.full(3, np.nan), 2.0)
        assert np.isnan(d_all).all() and np.isnan(V_all).all()

    def test_coord_step_is_the_exact_step_under_a_quadratic(self):
        rng = np.random.default_rng(12)
        smooth = quadratic_problem(random_spd(rng, 5), rng.standard_normal(5))
        comp = CompositeProblem(smooth, [L1Term(0.4), BoxTerm(-0.2, 0.3),
                                         ZeroTerm(), L1Term(2.0),
                                         BoxTerm(0.0, np.inf)])
        x = np.array([0.5, 0.1, -1.0, 0.0, 2.0])
        # L_per_coord is H_ii, so the prox step is the exact step
        assert np.allclose(smooth.L_per_coord, np.diag(smooth.hessian()),
                           rtol=1e-14)
        for i in range(5):
            g = float(smooth.full_grad(x)[i])
            d, V = comp.coord_step(i, float(x[i]), g,
                                   float(smooth.L_per_coord[i]))
            assert d == one_step(comp, x, i).step[1]
            assert V <= 0.0


class TestKeptConstants:
    """What a problem keeps for every run (``KeptConstants.kept``) is built
    once and read-only, and so are the arrays it derives from: a write
    raises instead of leaving a stale constant behind."""

    @staticmethod
    def problems():
        rng = np.random.default_rng(3)
        A = random_sparse(rng, 6, 5)[0]
        ls = LeastSquaresProblem(A, rng.standard_normal(6))
        logistic = LogisticProblem(A, np.where(rng.random(6) < 0.5, -1, 1))
        graph = GraphQuadraticProblem(4, [(0, 1), (1, 2), (2, 3)],
                                      [1.0, 2.0, 0.5], node_quad=np.ones(4))
        return ls, logistic, graph

    @staticmethod
    def assert_read_only(a):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]
        with pytest.raises(ValueError, match="read-only"):
            a += a

    def test_the_arrays_constants_derive_from_are_read_only(self):
        ls, _, _ = problems = self.problems()
        for p in problems:
            self.assert_read_only(p.L_per_coord)
        comp = CompositeProblem(ls, [L1Term(0.5), BoxTerm(-1.0, 1.0),
                                     ZeroTerm(), L1Term(0.1), ZeroTerm()])
        for a in (comp.gkind, comp.p1, comp.p2, comp._l1w, comp._abs,
                  comp._box):
            self.assert_read_only(a)

    def test_kept_constants_are_built_once_and_read_only(self):
        ls, logistic, graph = self.problems()
        for p in (ls, logistic, graph):
            for per_coord in (False, True):
                c = p.curvature(per_coord)
                assert p.curvature(per_coord) is c
                assert p.kept_curvature(c.L) is per_coord
                assert p.safe_step_curvature(c.L) is c.L
                self.assert_read_only(c.L)
                assert isinstance(c.steps, tuple)
                assert isinstance(c.positive, tuple)
                assert c.steps == tuple(np.where(
                    c.L > 0, c.L, 1.0).tolist())
            assert p.kept_curvature(p.curvature(True).L.copy()) is None
            w = make_rule("gsl").scorer(p).w
            assert make_rule("gsl").scorer(p).w is w
            self.assert_read_only(w)
            rule = make_rule("lipschitz")
            rule.prepare(p, rng=0)
            self.assert_read_only(rule.cum)
        self.assert_read_only(ls.hessian())
        comp = CompositeProblem(ls, [L1Term(0.5), BoxTerm(-1.0, 1.0),
                                     ZeroTerm(), L1Term(0.1), ZeroTerm()])
        for per_coord in (False, True):
            L = ls.curvature(per_coord).L
            step = comp.full_pass(L)
            assert comp.full_pass(L) is step
            for a in (step.L, step.half, step.thr, step.zero, step.lam,
                      step.box, step.lo, step.hi):
                self.assert_read_only(a)
        # any other curvature gets a pass of its own
        other = ls.curvature(True).L.copy()
        assert comp.full_pass(other) is not comp.full_pass(other)

    def test_graph_value_and_gradient_from_one_product(self):
        _, _, graph = self.problems()
        x = np.random.default_rng(4).standard_normal(4)
        value, grad = graph.value_and_grad(x)
        assert value == graph.eval(x)
        assert grad.tobytes() == graph.full_grad(x).tobytes()
