"""Incremental gradient trackers with greedy selection over their scores.

A tracker owns the iterate x and keeps the full gradient of the smooth
objective exact (up to float drift) after every coordinate update, paying
only for the entries that can change:

* h1 ("linear composition" objectives, f(x) = sum_j phi_j(a_j^T x) + node
  terms): caches A x, the per-row link derivatives and values, and
  A^T grad_link.  A coordinate update touches the <= c rows of one column,
  and pushing the changed row derivatives back through those rows touches
  <= c*r entries of A^T grad_link.

* h2 (pairwise graph objectives): caches the directed per-edge partial
  derivatives.  A coordinate update recomputes grad[i] from its incident
  edges and differentially updates the <= d neighbour entries.

On top of the gradient sits an optional score (|grad| for greedy selection,
|grad|/sqrt(L) for its Lipschitz-weighted variant, or proximal-candidate
scores for composite problems).  Scores are recomputed only for touched
coordinates.  The default backend "scan" stores them in a flat array with
one vectorised store per update and peeks by ``np.argmax``.  Backend "heap"
keeps an IndexedMaxHeap instead (O(log n) per touched key, O(1) peek), but
each key update is an interpreted sift.  On a degree-2 chain running
``gs`` (tools/chain_backends.py, shared 2-vCPU Xeon, best of three) the
heap costs about 44-54 against 18-24 us per iteration at n = 2e3 and
63-85 against 31-64 us at n = 2e4, and wins at n = 2e5 (57-83 against
105-181 us), so it is the option for large sparse graphs.  With plain
greedy scores (|grad|), ``grad_inf_norm`` reads the stopping test's
||grad||_inf off the top score, O(1) on the heap.  Both backends see
identical score values, so they produce identical iterate sequences.

A rule that never reads the gradient (uniform, cyclic and Lipschitz
sampling) gets a lean h1 tracker (``lean=True``): it keeps A x, the row
derivatives and values and the objective, and skips the row scatter into
A^T grad_link, so an update costs O(c) and reports ``touched_grads == 0``.
It keeps no ``gradient`` array: ``grad_coord(i)`` computes one entry from
column i in O(c), and ``full_gradient()`` rebuilds all of it with one
A^T product when a stopping test asks.  The h2 update already maintains the
gradient in O(d), so h2 has no lean mode.

Caches are rebuilt from scratch every ``refresh_every`` updates (default
10000) to bound float drift.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .linalg import IndexedMaxHeap


@dataclass
class UpdateStats:
    """Exact work counters for one coordinate update.

    touched_rows: rows of A hit by the column update (h1), or incident
        edges (h2).
    touched_grads: differential entry updates pushed into A^T grad (h1,
        <= c*r; 0 on a lean tracker) or into neighbour gradient entries
        (h2, <= d); the updated coordinate's own recompute is not counted.
    heap_ops: heap key updates performed (0 for backend "scan").
    """
    touched_rows: int
    touched_grads: int
    heap_ops: int


class GradScorer:
    """score_i = w_i * |grad_i|; w = None means 1 (plain greedy), otherwise
    typically 1/sqrt(L_i)."""

    needs_x = False

    def __init__(self, weights=None):
        self.w = None if weights is None else np.asarray(weights, dtype=np.float64)

    def compute(self, tracker, idx):
        s = np.abs(tracker.gradient[idx])
        if self.w is not None:
            s = s * self.w[idx]
        return s


class ProxScorer:
    """Proximal-candidate scores for a composite problem.

    mode "r": |d_i| (longest prox step), mode "q": -V_i (largest model
    decrease), mode "s": |eta_i| (smallest attainable first-order residual).
    L_used is the curvature the candidates are built with (scalar or
    per-coordinate).
    """

    needs_x = True

    def __init__(self, composite, L_used, mode):
        if mode not in ("r", "q", "s"):
            raise ValueError(f"unknown prox score mode: {mode!r}")
        self.comp = composite
        self.L_used = L_used
        self.mode = mode

    def compute(self, tracker, idx):
        if self.mode == "s":
            eta = self.comp.min_subgradients(tracker.x, tracker.gradient, idx)
            return np.abs(eta)
        d, V, _ = self.comp.prox_steps(tracker.x, tracker.gradient,
                                       self.L_used, idx)
        return np.abs(d) if self.mode == "r" else -V


class _TrackerBase:
    lean = False

    def _init_scores(self, scorer, backend):
        if backend not in ("heap", "scan"):
            raise ValueError(f"unknown tracker backend: {backend!r}")
        self.scorer = scorer
        self.backend = backend
        self.heap = None
        self._scores = None
        # plain greedy scores are |grad| itself, so the top one is ||grad||_inf
        self._abs_scores = isinstance(scorer, GradScorer) and scorer.w is None
        if scorer is None:
            return
        vals = scorer.compute(self, np.arange(self.n))
        if backend == "heap":
            self.heap = IndexedMaxHeap(vals)
        else:
            self._scores = np.asarray(vals, dtype=np.float64).copy()

    @property
    def scores(self):
        if self.scorer is None:
            raise ValueError("tracker was built without a score")
        return self.heap.keys if self.backend == "heap" else self._scores

    def peek(self):
        """Coordinate with the top score (smallest index on exact ties)."""
        if self.scorer is None:
            raise ValueError("tracker was built without a score")
        if self.backend == "heap":
            return self.heap.peek()
        return int(np.argmax(self._scores))

    def _rescore(self, idx):
        if self.scorer is None:
            return 0
        vals = self.scorer.compute(self, idx)
        if self.backend == "heap":
            for j, v in zip(idx, vals):
                self.heap.update_key(int(j), float(v))
            return len(idx)
        self._scores[idx] = vals
        return 0

    def grad_coord(self, i):
        """The gradient entry of coordinate i."""
        return float(self.gradient[i])

    def full_gradient(self):
        """The whole gradient (a lean tracker rebuilds it)."""
        return self.gradient

    def grad_inf_norm(self):
        """||grad||_inf: the top score when the scores are |grad| (O(1) on
        the heap), otherwise a scan of the gradient."""
        if not self.n:
            return 0.0
        if self._abs_scores:
            return float(self.scores[self.peek()])
        g = self.full_gradient() if self.lean else self.gradient
        return float(np.abs(g).max())

    def _maybe_refresh(self):
        self._updates += 1
        if self._updates % self.refresh_every == 0:
            self.refresh()


class H1Tracker(_TrackerBase):
    """Tracker for objectives of the form sum_j phi_j(a_j^T x) + l2/2 ||x||^2.

    With ``lean=True`` it maintains no gradient and no scores (see the
    module docstring).
    """

    def __init__(self, problem, x0, scorer=None, backend="scan",
                 refresh_every=10000, lean=False):
        if lean and scorer is not None:
            raise ValueError("a lean tracker keeps no scores")
        self.lean = bool(lean)
        self.problem = problem
        self.A = problem.A
        self.n = problem.n
        self.m = self.A.shape[0]
        self.x = np.array(x0, dtype=np.float64, copy=True)
        if self.x.shape != (self.n,):
            raise ValueError("x0 has the wrong length")
        self.refresh_every = int(refresh_every)
        self._updates = 0
        self._rebuild_caches()
        self._init_scores(scorer, backend)
        self.last_obj_delta = 0.0

    def _rebuild_caches(self):
        allrows = np.arange(self.m)
        self.u = self.A.matvec(self.x)
        self.row_g = np.asarray(self.problem.row_grad(self.u, allrows), dtype=np.float64)
        self.row_v = np.asarray(self.problem.row_val(self.u, allrows), dtype=np.float64)
        lam = self.problem.l2_reg
        if self.lean:
            self.atg = self.gradient = None
        else:
            self.atg = self.A.rmatvec(self.row_g)
            self.gradient = self.atg + lam * self.x
        self._obj = float(self.row_v.sum() + 0.5 * lam * self.x @ self.x)

    def grad_coord(self, i):
        if not self.lean:
            return float(self.gradient[i])
        A = self.A
        a, b = A.col_indptr[i], A.col_indptr[i + 1]
        return float(A.col_vals[a:b] @ self.row_g[A.col_rows[a:b]]
                     + self.problem.l2_reg * self.x[i])

    def full_gradient(self):
        if not self.lean:
            return self.gradient
        return self.A.rmatvec(self.row_g) + self.problem.l2_reg * self.x

    def refresh(self):
        self._rebuild_caches()
        self._init_scores(self.scorer, self.backend)

    def objective(self):
        """Smooth objective at the current iterate, from the caches."""
        return self._obj

    def apply_update(self, i, delta):
        """x[i] += delta; refresh every cache entry that can change."""
        if not 0 <= i < self.n:
            raise IndexError(f"coordinate {i} out of range")
        A = self.A
        a, b = A.col_indptr[i], A.col_indptr[i + 1]
        rows = A.col_rows[a:b]
        _kernels.col_axpy(a, b, A.col_rows, A.col_vals, float(delta), self.u)
        lam = self.problem.l2_reg
        old_xi = self.x[i]
        new_xi = old_xi + delta
        self.x[i] = new_xi

        new_g = np.asarray(self.problem.row_grad(self.u, rows), dtype=np.float64)
        new_v = self.problem.row_val(self.u, rows)
        dg = new_g - self.row_g[rows]
        dobj = float(np.sum(new_v - self.row_v[rows]))
        dobj += 0.5 * lam * (new_xi * new_xi - old_xi * old_xi)
        self.row_g[rows] = new_g
        self.row_v[rows] = new_v
        self._obj += dobj
        self.last_obj_delta = dobj
        if self.lean:
            self._maybe_refresh()
            return UpdateStats(int(rows.shape[0]), 0, 0)

        cols = _kernels.scatter_row_deltas(
            rows, dg, A.row_indptr, A.row_cols, A.row_vals, self.atg)
        touched_grads = int((A.row_indptr[rows + 1] - A.row_indptr[rows]).sum())
        if a == b:
            # an empty column hits no row, but x[i] itself still moved
            cols = np.array([i], dtype=np.int64)
        self.gradient[cols] = self.atg[cols] + lam * self.x[cols]
        heap_ops = self._rescore(cols)
        self._maybe_refresh()
        return UpdateStats(int(rows.shape[0]), touched_grads, heap_ops)


class H2Tracker(_TrackerBase):
    """Tracker for pairwise graph-structured quadratics."""

    def __init__(self, problem, x0, scorer=None, backend="scan",
                 refresh_every=10000):
        self.problem = problem
        self.n = problem.n
        self.x = np.array(x0, dtype=np.float64, copy=True)
        if self.x.shape != (self.n,):
            raise ValueError("x0 has the wrong length")
        self.refresh_every = int(refresh_every)
        self._updates = 0
        self._rebuild_caches()
        self._init_scores(scorer, backend)
        self.last_obj_delta = 0.0

    def _rebuild_caches(self):
        p = self.problem
        heads = np.repeat(np.arange(self.n), np.diff(p.adj_indptr))
        self.part = p.adj_w * (self.x[heads] - self.x[p.adj_nbr])
        self.gradient = np.asarray(p.full_grad(self.x), dtype=np.float64)
        self._obj = float(p.eval(self.x))

    def refresh(self):
        self._rebuild_caches()
        self._init_scores(self.scorer, self.backend)

    def objective(self):
        return self._obj

    def apply_update(self, i, delta):
        if not 0 <= i < self.n:
            raise IndexError(f"coordinate {i} out of range")
        p = self.problem
        new_xi = self.x[i] + delta
        dobj = _kernels.graph_coord_update(
            i, float(new_xi), self.x, p.adj_indptr, p.adj_nbr, p.adj_w,
            p.adj_rev, self.part, self.gradient, p.node_quad, p.node_lin)
        nbr = p.adj_nbr[p.adj_indptr[i]:p.adj_indptr[i + 1]]
        cols = np.empty(nbr.shape[0] + 1, dtype=np.int64)
        cols[0] = i
        cols[1:] = nbr
        heap_ops = self._rescore(cols)
        self._obj += dobj
        self.last_obj_delta = float(dobj)
        self._maybe_refresh()
        return UpdateStats(int(nbr.shape[0]), int(nbr.shape[0]), heap_ops)


def make_tracker(problem, x0, scorer=None, backend="scan",
                 refresh_every=10000, lean=False):
    """Build the tracker matching the problem's structure (h1 or h2).

    ``lean`` asks for an h1 tracker without a gradient, for rules that
    never read it; h2 trackers ignore it (their update is O(d) anyway).
    """
    smooth = getattr(problem, "smooth", problem)
    kind = getattr(smooth, "tracker_kind", None)
    if kind == "h1":
        return H1Tracker(smooth, x0, scorer, backend, refresh_every, lean)
    if kind == "h2":
        return H2Tracker(smooth, x0, scorer, backend, refresh_every)
    raise ValueError(f"no tracker for problem type {type(smooth).__name__}")
