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
scores for composite problems), recomputed only for touched coordinates.
``peek()`` answers from one of three backends, which rank identical score
values with the same tie rule (smallest index) and so give identical
iterate sequences:

* "scan" (default): a flat array, one vectorised store per update, and
  ``np.argmax``, remembered until the scores change.
* "heap": an IndexedMaxHeap (O(log n) per touched key, O(1) peek); each
  key update is an interpreted sift, so it ties scan only at about
  n = 2e5 on a chain (tools/chain_backends.py).
* "nns": no scores; a ball tree over the normalised columns of A
  (``nns.BallTreeIndex``), built once and kept across refreshes, answers
  ``gsl`` from the row derivatives.  It needs an h1 problem with
  l2_reg = 0, no empty column and no composite terms.

With plain greedy scores (|grad|), ``grad_inf_norm`` reads the stopping
test's ||grad||_inf off the top score.  With proximal scores the tracker
also keeps the composite stopping test's keys |d_i|, the prox steps
under the run's step curvature (``prox_keys``, see ``ProxScorer``).  A key
changes only where x or the gradient does, so the update that rescores
the touched coordinates rewrites their keys from the same ``prox_steps``
call (or from a second one over the same coordinates when the step
curvature differs from the score's), and ``max(prox_keys)`` replaces a
prox call over all n.

A rule that never reads the gradient (uniform, cyclic and Lipschitz
sampling) gets a lean h1 tracker (``lean=True``): it keeps A x, the row
derivatives and values and the objective, and skips the row scatter into
A^T grad_link, so an update costs O(c) and reports ``touched_grads == 0``.
The driver reads the gradient only through ``grad_coord(i)`` and
``full_gradient()``, so a lean tracker keeps no ``gradient`` array: the
first computes one entry from column i in O(c), the second rebuilds all of
it with one A^T product when a stopping test asks (for a composite
problem, the once-per-epoch test then makes the one prox call over all n
that a greedy rule no longer makes).  The h2 update already maintains the
gradient in O(d), so h2 has no lean mode.

Caches are rebuilt from scratch every ``refresh_every`` updates (default
10000) to bound float drift.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .linalg import IndexedMaxHeap
from .nns import BallTreeIndex
from .problems import safe_curvature

BACKENDS = ("scan", "heap", "nns")


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
    per-coordinate), made safe once here (``safe_curvature``).

    The tracker also keeps the residual key |d_i|, the quantity the
    composite stopping test takes the maximum of, under the run's step
    curvature L_step (default: L_used).  When L_step equals L_used entry by
    entry, the prox call that gives the score gives the key too; otherwise
    (other step modes, and mode "s") a second ``prox_steps`` over the same
    coordinates does.
    """

    def __init__(self, composite, L_used, mode, L_step=None):
        if mode not in ("r", "q", "s"):
            raise ValueError(f"unknown prox score mode: {mode!r}")
        self.comp = composite
        self.L_used = safe_curvature(L_used)
        self.mode = mode
        L_key = self.L_used if L_step is None else safe_curvature(L_step)
        same = mode != "s" and np.array_equal(
            np.broadcast_to(self.L_used, np.shape(L_key)), L_key)
        # None: the score's own prox call gives the keys
        self.L_key = None if same else L_key

    def compute(self, tracker, idx):
        if self.mode == "s":
            eta = self.comp.min_subgradients(tracker.x, tracker.gradient, idx)
            return np.abs(eta)
        d, V, _ = self.comp.prox_steps(tracker.x, tracker.gradient,
                                       self.L_used, idx)
        return np.abs(d) if self.mode == "r" else -V

    def compute_with_keys(self, tracker, idx):
        """(scores, residual keys) at idx."""
        x, g = tracker.x, tracker.gradient
        if self.L_key is None:
            d, V, _ = self.comp.prox_steps(x, g, self.L_used, idx)
            keys = np.abs(d)
            return (keys if self.mode == "r" else -V), keys
        d = self.comp.prox_steps(x, g, self.L_key, idx)[0]
        return self.compute(tracker, idx), np.abs(d)


class _TrackerBase:
    """What the h1 and h2 trackers share; each supplies ``_rebuild_caches``,
    ``refresh`` and ``apply_update``."""

    lean = False

    def __init__(self, problem, x0, scorer=None, backend="scan",
                 refresh_every=10000):
        if backend not in BACKENDS:
            raise ValueError(f"unknown tracker backend: {backend!r}")
        self.problem = problem
        self.n = problem.n
        self.x = np.array(x0, dtype=np.float64, copy=True)
        if self.x.shape != (self.n,):
            raise ValueError("x0 has the wrong length")
        self.refresh_every = int(refresh_every)
        if self.refresh_every < 1:
            raise ValueError("refresh_every must be at least 1")
        self._updates = 0
        self.last_obj_delta = 0.0
        self.scorer = scorer
        self.backend = backend
        # the tree depends on A alone, so it outlives every refresh
        self.index = (BallTreeIndex(problem, mode="gsl") if backend == "nns"
                      else None)
        # plain greedy scores are |grad| itself, so the top one is ||grad||_inf
        self._abs_scores = (isinstance(scorer, GradScorer) and scorer.w is None
                            and self.index is None)
        self._rebuild_caches()
        self._init_scores()

    def _init_scores(self):
        self.heap = self._scores = self._top = self.prox_keys = None
        if self.scorer is None or self.index is not None:
            return
        if isinstance(self.scorer, ProxScorer):
            self.prox_keys = np.empty(self.n)
        vals = self._compute(np.arange(self.n))
        if self.backend == "heap":
            self.heap = IndexedMaxHeap(vals)
        else:
            self._scores = np.asarray(vals, dtype=np.float64).copy()

    def _compute(self, idx):
        """The scores at idx; a prox scorer also writes its residual keys
        there into ``prox_keys``."""
        if self.prox_keys is None:
            return self.scorer.compute(self, idx)
        vals, self.prox_keys[idx] = self.scorer.compute_with_keys(self, idx)
        return vals

    @property
    def scores(self):
        if self.heap is None and self._scores is None:
            raise ValueError("this tracker keeps no scores")
        return self._scores if self.heap is None else self.heap.keys

    def peek(self):
        """Coordinate with the top score (smallest index on exact ties)."""
        if self._scores is not None:
            if self._top is None:
                self._top = int(np.argmax(self._scores))
            return self._top
        if self.heap is not None:
            return self.heap.peek()
        if self.index is not None:
            return self.index.select(self)
        raise ValueError("tracker was built without a score")

    def _rescore(self, idx):
        if self.heap is not None:
            for j, v in zip(idx, self._compute(idx)):
                self.heap.update_key(int(j), float(v))
            return len(idx)
        if self._scores is not None:
            self._scores[idx] = self._compute(idx)
            self._top = None
        return 0

    def objective(self):
        """Smooth objective at the current iterate, from the caches."""
        return self._obj

    def grad_coord(self, i):
        """The gradient entry of coordinate i."""
        return self.gradient.item(i)

    def full_gradient(self):
        """The whole gradient (a lean tracker rebuilds it)."""
        return self.gradient

    def grad_inf_norm(self):
        """||grad||_inf: the top score when the scores are |grad| (O(1) on
        the heap, the remembered argmax on scan), otherwise a pass over the
        full gradient."""
        if not self.n:
            return 0.0
        if self._abs_scores:
            return float(self.scores[self.peek()])
        return float(np.abs(self.full_gradient()).max())

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
        if lean and (scorer is not None or backend == "nns"):
            raise ValueError("a lean tracker keeps no scores")
        self.lean = bool(lean)
        self.A = problem.A
        self.m = self.A.shape[0]
        super().__init__(problem, x0, scorer, backend, refresh_every)

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
            return self.gradient.item(i)
        A = self.A
        a, b = A.col_indptr.item(i), A.col_indptr.item(i + 1)
        return float(A.col_vals[a:b] @ self.row_g[A.col_rows[a:b]]
                     + self.problem.l2_reg * self.x.item(i))

    def full_gradient(self):
        if not self.lean:
            return self.gradient
        return self.A.rmatvec(self.row_g) + self.problem.l2_reg * self.x

    def refresh(self):
        self._rebuild_caches()
        self._init_scores()

    def apply_update(self, i, delta):
        """x[i] += delta; refresh every cache entry that can change."""
        if not 0 <= i < self.n:
            raise IndexError(f"coordinate {i} out of range")
        A = self.A
        a, b = A.col_indptr.item(i), A.col_indptr.item(i + 1)
        rows = A.col_rows[a:b]
        _kernels.col_axpy(a, b, A.col_rows, A.col_vals, float(delta), self.u)
        lam = self.problem.l2_reg
        old_xi = self.x.item(i)
        new_xi = old_xi + delta
        self.x[i] = new_xi

        new_g = np.asarray(self.problem.row_grad(self.u, rows), dtype=np.float64)
        new_v = self.problem.row_val(self.u, rows)
        dg = new_g - self.row_g[rows]
        dobj = float((new_v - self.row_v[rows]).sum())
        dobj += 0.5 * lam * (new_xi * new_xi - old_xi * old_xi)
        self.row_g[rows] = new_g
        self.row_v[rows] = new_v
        self._obj += dobj
        self.last_obj_delta = dobj
        if self.lean:
            self._maybe_refresh()
            return UpdateStats(int(rows.shape[0]), 0, 0)

        cols, touched_grads = _kernels.scatter_row_deltas(
            rows, dg, A.row_indptr, A.row_cols, A.row_vals, self.atg)
        if a == b:
            # an empty column hits no row, but x[i] itself still moved
            cols = np.array([i], dtype=np.int64)
        self.gradient[cols] = self.atg[cols] + lam * self.x[cols]
        heap_ops = self._rescore(cols)
        self._maybe_refresh()
        return UpdateStats(int(rows.shape[0]), touched_grads, heap_ops)


class H2Tracker(_TrackerBase):
    """Tracker for pairwise graph-structured quadratics."""

    def _rebuild_caches(self):
        p = self.problem
        heads = np.repeat(np.arange(self.n), np.diff(p.adj_indptr))
        self.part = p.adj_w * (self.x[heads] - self.x[p.adj_nbr])
        self.gradient = np.asarray(p.full_grad(self.x), dtype=np.float64)
        self._obj = float(p.eval(self.x))

    def refresh(self):
        self._rebuild_caches()
        self._init_scores()

    def apply_update(self, i, delta):
        if not 0 <= i < self.n:
            raise IndexError(f"coordinate {i} out of range")
        p = self.problem
        dobj = _kernels.graph_coord_update(
            i, float(self.x.item(i) + delta), self.x, p.adj_indptr,
            p.adj_nbr, p.adj_w, p.adj_rev, self.part, self.gradient,
            p.node_quad, p.node_lin)
        start, stop = p.adj_indptr.item(i), p.adj_indptr.item(i + 1)
        heap_ops = 0
        if self.heap is not None or self._scores is not None:
            # rescore i and its neighbours; a score-less tracker skips this
            cols = np.empty(stop - start + 1, dtype=np.int64)
            cols[0] = i
            cols[1:] = p.adj_nbr[start:stop]
            heap_ops = self._rescore(cols)
        self._obj += dobj
        self.last_obj_delta = dobj
        self._maybe_refresh()
        return UpdateStats(stop - start, stop - start, heap_ops)


def make_tracker(problem, x0, scorer=None, backend="scan",
                 refresh_every=10000, lean=False):
    """Build the tracker matching the problem's structure (h1 or h2).

    ``backend`` is "scan", "heap" or "nns" (see the module docstring).
    ``lean`` asks for an h1 tracker without a gradient, for rules that
    never read it; h2 trackers ignore it (their update is O(d) anyway).
    """
    smooth = getattr(problem, "smooth", problem)
    kind = getattr(smooth, "tracker_kind", None)
    if backend == "nns" and (smooth is not problem or kind != "h1"):
        raise ValueError("the nns backend needs a least-squares or "
                         "logistic problem without composite terms")
    if kind == "h1":
        return H1Tracker(smooth, x0, scorer, backend, refresh_every, lean)
    if kind == "h2":
        return H2Tracker(smooth, x0, scorer, backend, refresh_every)
    raise ValueError(f"no tracker for problem type {type(smooth).__name__}")
