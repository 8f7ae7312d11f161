"""Incremental gradient trackers with greedy selection over their scores.

A tracker owns the iterate x and keeps the full gradient of the smooth
objective exact (up to float drift) after every coordinate update, paying
only for the entries that can change:

* h1 ("linear composition" objectives, f(x) = sum_j phi_j(a_j^T x) + node
  terms): caches A x, the per-row link values and, off the Gram path, the
  link derivatives.  A coordinate update moves the <= c entries of A x at
  one column's rows (``_kernels.col_axpy``, which hands them back) and
  computes their row values and derivatives from that one gather and one
  residual (the problem's ``row_link``; values alone on the Gram path),
  then renews the gradient in one of three ways, chosen once per
  problem at build time.  The row scatter pushes the changed row
  derivatives back through those rows into the gradient, gathering
  <= c*r entries (``col_gather`` of the column), adds the l2 term's
  change lam * delta at i and rescores the columns it hit.  One compiled
  product rebuilds A^T grad_link whole for nnz entries, straight into the
  gradient, which then takes lam x unless lam = 0 (decided at build with
  the path, so an l2_reg = 0 gradient is the product's bits), and every
  coordinate is rescored.
  The product is taken when the mean gather, sum_rows r_i^2 / n, exceeds
  nnz / KAPPA (``takes_product``), so an update pays about min(c*r, nnz).
  Where the product is taken on a quadratic with n <= m (``takes_gram``),
  the Gram path replaces it: moving x_i by delta moves the gradient by
  delta * H[:, i], n entries of the Hessian (as in the paper's pairwise
  class h2, which includes quadratics), added with two numpy calls into
  a buffer the tracker owns.  It keeps no row derivatives (None), and
  the guard keeps the n x n matrix no larger than A held dense.  On
  ``sparse-ls`` (200^2, nnz = 10 673) this took the benchmark's
  ``greedy_iter_us`` from a median of 30.3 to 19.2 us over 10 alternated
  pairs (shared 2-vCPU Xeon).
  The ``touched_grads`` counter reports the column's gather on every
  path.  The product and Gram paths rescore as whole vectors
  (``_rescore(None)``): no index gathers and no fancy stores, and on
  ``scan`` the scorer's new arrays replace the old ones.

* h2 (pairwise graph objectives): keeps the gradient alone.  Moving x_i
  by dx moves each neighbour's entry by -w_ij dx, one column of the
  sparse Hessian, which the problem stores as CSR (``H``, the graph's one
  stored form); a coordinate update reads row i of it, adds that to the
  <= d neighbour entries and recomputes grad[i] from its incident edges.
  On ``scan``, a smooth problem's move (``_kernels.graph_coord_update``)
  also writes the keys and ``gs``/``gsl`` scores of those d + 1 entries
  from the Python floats it computes them in, the bits ``_rescore`` would
  store; the heap backend and a composite problem's prox keys still take
  ``_rescore``.  The path is fixed when the scores are built.

On top of the gradient sits an optional score (|grad| for greedy selection,
|grad|/sqrt(L) for its Lipschitz-weighted variant, or proximal-candidate
scores for composite problems), recomputed only for touched coordinates.
A prox score over every coordinate is one ``ProxPass``, which the
composite problem keeps per curvature (``CompositeProblem.full_pass``):
the safe curvature, L/2, the thresholds lam/L and the term kinds (any
box?) are computed once per problem and curvature, and each pass
computes d and V alone (no subgradient) into buffers it owns, reading
the kept term values g(x) (``term_vals``) instead of computing lam |x|.
It shares its arithmetic with ``prox_steps``, whose subset calls rescore
the scatter path, and gives the same bits.  On ``lasso-prox`` (50 x 500)
the pass over all n takes 11.5 us in its 14 ufunc calls, against
13.2 us when it also took lam |x|, |z| and sign(y) t in 18, and a
``gs-q`` update 28.3 against 32.5 us (``tools/kernel_times.py``,
probe-scaled, shared 2-vCPU Xeon); with the h1 update's single gather
of its column's A x entries (above), the benchmark's ``greedy_iter_us``
there went from a median of 40.1 to 33.8 us over 10 alternated pairs.
``peek()`` answers from one of three backends, which rank identical score
values with the same tie rule (smallest index) and so give identical
iterate sequences:

* "scan" (default): a flat array, one vectorised store per update, and
  ``ndarray.argmax``, remembered until the scores change (``np.argmax``
  adds about 1.2 us of Python-level dispatch in numpy 2.4, at n = 2000).
* "heap": an IndexedMaxHeap, built by one sort at every build and
  refresh (O(log n) per touched key, O(1) peek); each key update is an
  interpreted sift, so it ties scan only at about n = 2e5 on a chain
  (tools/chain_backends.py).
* "nns": no scores; a brute-force nearest-neighbour search over the
  normalised columns of A (``nns.BallTreeIndex``, one dense product per
  query), built once and kept across refreshes, answers ``gsl`` from the
  row derivatives, which it computes from A x.  It needs an h1 problem
  with l2_reg = 0, no column of squared norm 0 and no composite terms.

The tracker also owns the stopping test.  It keeps one array ``keys``, the
residual entries whose maximum the test reads: |grad_i| on a smooth
problem, and |d_i| on a composite one, d being the prox steps under the
run's step curvature ``L_step``.  A key changes only where x or the
gradient does, so the update that rescores the touched coordinates
rewrites their keys too.  Where the score computes the keys anyway, it
hands them back: for ``gs`` the keys are the score array itself, for
``gsl`` they are |grad| before weighting, and for the prox scores "r" and
"q" under the step curvature they come from the same prox pass.
Otherwise the tracker computes them over the coordinates the update
rescores, with the problem's ``ProxPass`` under ``L_step`` over all n.
``grad_inf_norm()`` then reads the test off the top score (keys that are
the scores) or takes the key at ``keys.argmax()``: one pass over n floats,
but it makes no |grad| over all n entries and no prox pass of its own (and
``ndarray.max`` would add about 0.8 us of Python-level dispatch).  An
iteration of ``gs``, ``gsl``, a prox rule or a random rule on ``scan``
enters no numpy function written in Python (tests/test_descent.py checks
it).

A rule that never reads the gradient (uniform, cyclic and Lipschitz
sampling) gets a lean tracker (``lean=True``): it keeps no scores and no
keys.  On h1 it keeps A x, the row derivatives and values and the
objective, and skips the row scatter into the gradient, so an update
costs O(c) and reports ``touched_grads == 0``; it keeps no ``gradient``
array either, and computes one entry from column i in O(c)
(``grad_coord``) or all of it with one A^T product (``full_gradient``).
The h2 update maintains the gradient in O(d) anyway, so a lean h2
tracker keeps it.  ``grad_inf_norm()`` on a lean tracker rebuilds the keys
from the full gradient, which the driver asks for once per epoch.

The tracker owns the objective too.  ``objective()`` is F at x: the smooth
objective, plus on a composite problem the terms' sum, kept as one running
sum.  Every update adds its change, with the moved coordinate's term change
(``last_obj_delta``, which ``run``'s descent certificate reads).  On a
composite problem the tracker keeps the term values g_i(x_i) too
(``term_vals``, n floats), rebuilt with the caches and rewritten at the
moved coordinate before the rescore; the term change and the full prox
pass read them.  The
tracker refuses a starting point that is not finite or at which a term is
infinite, and an update that would move a coordinate out of its box,
before it changes any state.

Caches, the objective included, are rebuilt from scratch every
``refresh_every`` updates (default 10000) to bound float drift.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .linalg import IndexedMaxHeap
from .nns import BallTreeIndex
from .problems import BOX, term_value

BACKENDS = ("scan", "heap", "nns")

# An h1 update rebuilds the gradient with one compiled product, instead of
# scattering the changed rows into it, when the scatter would gather more
# than nnz / KAPPA entries per update on average (``takes_product``).
# tools/kernel_times.py times both updates: the scatter wins up to a gather
# of 7% of nnz (sparse_ls 1000^2), the product from 13% (l1_underdet_ls
# 50 x 500), and 1/KAPPA sits near the geometric middle of the two.
KAPPA = 10


def takes_product(A):
    """Whether an h1 tracker over A renews its gradient by the full
    product: the mean entries one update's scatter gathers,
    sum_rows r_i^2 / n, exceed nnz / KAPPA."""
    return A.mean_gather * KAPPA > A.nnz


def takes_gram(problem):
    """Whether an h1 tracker that takes the product renews its gradient by
    one column of the Hessian instead: the smooth problem is quadratic
    and n <= m, so the n x n Gram matrix is no larger than A held dense."""
    m, n = problem.A.shape
    return problem.is_quadratic and n <= m


@dataclass
class UpdateStats:
    """Exact work counters for one coordinate update.

    touched_rows: rows of A hit by the column update (h1), or incident
        edges (h2).
    touched_grads: h1: the entries of A the row scatter into the gradient
        gathers for this column (<= c*r), also when the update renewed
        the gradient by the full product or by a Gram column instead; 0
        on a lean tracker.  h2: the differential updates of neighbour
        gradient entries (<= d).  The updated coordinate's own recompute
        is not counted.
    heap_ops: heap key updates performed (0 for backend "scan"): the
        coordinates rescored, n after a full product or a Gram column.
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
        """(scores, |grad|) at idx (every coordinate if None); one array
        for both when w is None."""
        if idx is None:
            keys = np.abs(tracker.gradient)
            return (keys if self.w is None else keys * self.w), keys
        keys = np.abs(tracker.gradient[idx])
        return (keys if self.w is None else keys * self.w[idx]), keys


class ProxScorer:
    """Proximal-candidate scores for a composite problem.

    mode "r": |d_i| (longest prox step), mode "q": -V_i (largest model
    decrease), mode "s": |eta_i| (smallest attainable first-order residual).
    L_used is the curvature the candidates are built with (scalar or
    per-coordinate), made safe (``safe_curvature``) unless it is a
    curvature the problem keeps, which is safe already; the full pass over
    every coordinate is the problem's (``CompositeProblem.full_pass``),
    kept with such a curvature.  A scorer holds nothing between calls, so
    trackers may share one.
    """

    def __init__(self, composite, L_used, mode):
        if mode not in ("r", "q", "s"):
            raise ValueError(f"unknown prox score mode: {mode!r}")
        self.comp = composite
        self.L_used = composite.smooth.safe_step_curvature(L_used)
        self.mode = mode
        self._pass = (None if mode == "s"
                      else composite.full_pass(self.L_used))

    def compute(self, tracker, idx):
        """(scores, |d| under L_used) at idx (every coordinate if None);
        mode "s" computes no d and gives None."""
        if self.mode == "s":
            eta = self.comp.min_subgradients(tracker.x, tracker.gradient, idx)
            return np.abs(eta), None
        if idx is None:
            d, V = self._pass(tracker.x, tracker.gradient, tracker.term_vals)
        else:
            d, V, _ = self.comp.prox_steps(tracker.x, tracker.gradient,
                                           self.L_used, idx)
        keys = np.abs(d)
        return (keys if self.mode == "r" else -V), keys


class _TrackerBase:
    """What the h1 and h2 trackers share; each supplies ``_rebuild_caches``
    (which sets the smooth objective), ``refresh`` (which calls
    ``_rebuild``) and ``apply_update`` (which ends in ``_finish_update``).
    ``problem`` is the smooth problem or a composite one; ``L_step``
    (default: the scorer's curvature, else L) is the curvature of a
    composite problem's keys.  A kept curvature's prox pass is the
    problem's own, built once and shared with every other tracker on it."""

    def __init__(self, problem, x0, scorer=None, backend="scan",
                 refresh_every=10000, lean=False, L_step=None):
        if backend not in BACKENDS:
            raise ValueError(f"unknown tracker backend: {backend!r}")
        if lean and (scorer is not None or backend == "nns"):
            raise ValueError("a lean tracker keeps no scores")
        smooth = getattr(problem, "smooth", problem)
        self.composite = None if smooth is problem else problem
        self.problem = smooth
        self.n = smooth.n
        self.x = np.array(x0, dtype=np.float64, copy=True)
        if self.x.shape != (self.n,):
            raise ValueError(f"x0 must have shape ({self.n},)")
        if not np.isfinite(self.x).all():
            raise ValueError("x0 must be finite")
        self.refresh_every = int(refresh_every)
        if self.refresh_every < 1:
            raise ValueError("refresh_every must be at least 1")
        self._updates = 0
        self.last_obj_delta = 0.0
        self.lean = bool(lean)
        self.backend = backend
        # the index depends on A alone, so it outlives every refresh; it
        # replaces the scores
        self.index = (BallTreeIndex(smooth, mode="gsl") if backend == "nns"
                      else None)
        self.scorer = s = None if self.index is not None else scorer
        if isinstance(s, ProxScorer) and self.composite is None:
            # its full pass reads the term values a composite tracker keeps
            raise ValueError("prox scores need a tracker over the "
                             "composite problem")
        # the scorer's own keys are the stopping test's when they are |grad|
        # on a smooth problem, or |d| under the step curvature on a
        # composite one
        self._shared_keys = isinstance(s, GradScorer)
        if self.composite is not None:
            L_used = getattr(s, "L_used", None)
            if L_step is None:
                L_step = (smooth.curvature(False).L if L_used is None
                          else L_used)
            self.L_step = smooth.safe_step_curvature(L_step)
            # a run hands the scorer's own kept curvature, so identity
            # decides without a pass over n
            self._shared_keys = (
                isinstance(s, ProxScorer) and s.mode != "s"
                and (L_used is self.L_step or np.array_equal(
                    *np.broadcast_arrays(L_used, self.L_step))))
            # the keys' own full pass, when the scorer does not hand them
            self._step_pass = (None if self._shared_keys
                               else problem.full_pass(self.L_step))
        if not math.isfinite(self._rebuild()):
            raise ValueError("x0 is infeasible for the composite terms")

    def _rebuild(self):
        """Rebuild the caches, scores and keys from x.  The objective is
        F's: on a composite problem the terms' sum at x, which this returns
        (0 on a smooth one), joins the smooth part's, and the term values
        g_i(x_i) it sums are kept (``term_vals``; None on a smooth
        problem)."""
        self._rebuild_caches()
        g_sum = 0.0
        self.term_vals = None
        if self.composite is not None:
            self.term_vals = self.composite.g_values(self.x)
            g_sum = float(self.term_vals.sum())
            self._obj += g_sum
        self._init_scores()
        return g_sum

    def _init_scores(self):
        """Score and key every coordinate (nothing on a lean tracker)."""
        self.heap = self._scores = self._top = self.keys = None
        self._keys_are_scores = False
        if self.lean:
            return
        vals, keys = self._compute(None)
        if vals is not None and self.backend == "heap":
            self.heap = IndexedMaxHeap(vals)
        elif vals is not None:
            # a scorer's arrays are new, so the tracker keeps them
            self._scores = vals
        # a scorer whose scores are its keys hands back one array for both
        self._keys_are_scores = keys is vals
        self.keys = self.scores if self._keys_are_scores else keys

    def _fresh_keys(self, g, idx=None):
        """The keys at idx (every coordinate if None) from the gradient g."""
        if self.composite is None:
            return np.abs(g if idx is None else g[idx])
        if idx is None:
            return np.abs(self._step_pass(self.x, g, self.term_vals)[0])
        return np.abs(self.composite.prox_steps(self.x, g, self.L_step,
                                                idx)[0])

    def _compute(self, idx):
        """(scores or None, keys) at idx (every coordinate if None)."""
        if self._shared_keys:
            return self.scorer.compute(self, idx)
        vals = None if self.scorer is None else self.scorer.compute(self, idx)[0]
        return vals, self._fresh_keys(self.gradient, idx)

    @property
    def scores(self):
        if self.heap is None and self._scores is None:
            raise ValueError("this tracker keeps no scores")
        return self._scores if self.heap is None else self.heap.keys

    def peek(self):
        """Coordinate with the top score (smallest index on exact ties)."""
        if self._scores is not None:
            if self._top is None:
                self._top = int(self._scores.argmax())
            return self._top
        if self.heap is not None:
            return self.heap.peek()
        if self.index is not None:
            return self.index.select(self)
        raise ValueError("tracker was built without a score")

    def _rescore(self, idx):
        """Rewrite the keys and scores at idx (every coordinate if None);
        returns the heap key updates.  A scorer returns new arrays, so a
        rescore of every coordinate off the heap keeps them instead of
        copying them."""
        vals, keys = self._compute(idx)
        if idx is None and self.heap is None:
            self._scores = vals
            self._top = None
            self.keys = vals if self._keys_are_scores else keys
            return 0
        at = slice(None) if idx is None else idx
        if not self._keys_are_scores:
            self.keys[at] = keys
        if self.heap is not None:
            js = range(self.n) if idx is None else idx.tolist()
            for j, v in zip(js, vals.tolist()):
                self.heap.update_key(j, v)
            return len(js)
        if self._scores is not None:
            self._scores[idx] = vals
            self._top = None
        return 0

    def objective(self):
        """F at the current iterate: the smooth objective plus, on a
        composite problem, the terms' sum.  Each update adds its change
        (``last_obj_delta``) and every refresh restarts the sum from the
        rebuilt caches, so its rounding lasts one ``refresh_every``
        interval at most."""
        return self._obj

    def grad_coord(self, i):
        """The gradient entry of coordinate i."""
        return self.gradient.item(i)

    def full_gradient(self):
        """The whole gradient (a lean h1 tracker rebuilds it)."""
        return self.gradient

    def grad_inf_norm(self):
        """The stopping test's residual, the largest key: ||grad||_inf on a
        smooth problem, max|d_i| on a composite one.  The top score when
        the keys are the scores (O(1) on the heap, the remembered argmax on
        scan); a lean tracker rebuilds the keys from its full gradient."""
        if not self.n:
            return 0.0
        if self._keys_are_scores:
            return self.keys.item(self.peek())
        if self.lean:
            return float(self._fresh_keys(self.full_gradient()).max())
        return self.keys.item(self.keys.argmax())

    def _move(self, i, delta):
        """(x_i, x_i + delta, the term change or None on a smooth problem)
        for an update of coordinate i, which it refuses before any state
        changes if i is out of range or the move leaves i's box (where F
        would be infinite).  On a composite problem it writes the new term
        value into ``term_vals``, which the rescore's prox pass reads."""
        if not 0 <= i < self.n:
            raise IndexError(f"coordinate {i} out of range")
        old_xi = self.x.item(i)
        new_xi = old_xi + delta
        if self.composite is None:
            return old_xi, new_xi, None
        term = self.composite.terms[i]
        if term.kind == BOX and not term.p1 <= new_xi <= term.p2:
            raise ValueError(f"moving coordinate {i} to {new_xi!r} "
                             f"leaves its box [{term.p1}, {term.p2}]")
        value = term_value(term, new_xi)
        dterm = value - self.term_vals.item(i)
        self.term_vals[i] = value
        return old_xi, new_xi, dterm

    def _finish_update(self, dobj, dterm):
        """The tail of every update: the smooth objective's change dobj,
        plus the moved coordinate's term change dterm (from ``_move``) on a
        composite problem, goes into the objective and ``last_obj_delta``,
        and every ``refresh_every``-th update rebuilds the caches."""
        if dterm is not None:
            dobj += dterm
        self._obj += dobj
        self.last_obj_delta = dobj
        self._updates += 1
        if self._updates % self.refresh_every == 0:
            self.refresh()


class H1Tracker(_TrackerBase):
    """Tracker for objectives of the form sum_j phi_j(a_j^T x) + l2/2 ||x||^2.

    With ``lean=True`` it maintains no gradient (see the module docstring).
    """

    def _rebuild_caches(self):
        p = self.problem
        A = self.A = p.A
        self.u = A.matvec(self.x)
        lam = p.l2_reg
        self.product = not self.lean and takes_product(A)
        self.gram = self.product and takes_gram(p)
        self.row_v, row_g = p.row_link(self.u, slice(None))
        self.gradient = (None if self.lean
                         else A.rmatvec(row_g) + lam * self.x)
        # the Gram path keeps no row derivatives, so a stale read fails
        self.row_g = None if self.gram else row_g
        # whether the product path adds lam x, fixed here with the path
        self._lam_x = lam != 0.0
        self._col = np.empty(self.n)
        if self.gram:
            self.G = p.hessian()
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
        """Rebuild every cache from x (``_rebuild``)."""
        self._rebuild()

    def apply_update(self, i, delta):
        """x[i] += delta; refresh every cache entry that can change."""
        old_xi, new_xi, dterm = self._move(i, delta)
        p, A = self.problem, self.A
        a, b = A.col_indptr.item(i), A.col_indptr.item(i + 1)
        rows = A.col_rows[a:b]
        delta = float(delta)
        ur = _kernels.col_axpy(a, b, A.col_rows, A.col_vals, delta, self.u)
        lam = p.l2_reg
        self.x[i] = new_xi

        new_v, new_g = p.row_link(ur, rows, not self.gram)
        dobj = float(np.add.reduce(new_v - self.row_v[rows]))
        dobj += 0.5 * lam * (new_xi * new_xi - old_xi * old_xi)
        self.row_v[rows] = new_v
        touched_grads = heap_ops = 0
        g = self.gradient
        if self.gram:
            # grad += delta * H[:, i], read as row i of the symmetric H
            np.multiply(self.G[i], delta, out=self._col)
            np.add(g, self._col, out=g)
        elif self.product or self.lean:
            self.row_g[rows] = new_g
            if self.product:
                # the refresh's own product, straight into the gradient,
                # then lam x through the tracker's buffer where lam != 0
                _kernels.transpose_product(A.col_indptr, A.col_rows,
                                           A.col_vals, self.row_g, g)
                if self._lam_x:
                    np.multiply(self.x, lam, out=self._col)
                    np.add(g, self._col, out=g)
        else:
            dg = new_g - self.row_g[rows]
            self.row_g[rows] = new_g
            cols, touched_grads = _kernels.scatter_row_deltas(
                rows, dg, A.row_indptr, A.row_cols, A.row_vals, g)
            # the l2 term moves grad_i alone, by lam * delta
            g[i] = g.item(i) + lam * delta
            if a == b:
                # an empty column hits no row, but x[i] itself still moved
                cols = np.array([i], dtype=np.int64)
            heap_ops = self._rescore(cols)
        if self.product:
            # the counter reports the entries the scatter would have
            # gathered
            heap_ops = self._rescore(None)
            touched_grads = A.col_gather.item(i)
        self._finish_update(dobj, dterm)
        return UpdateStats(int(rows.shape[0]), touched_grads, heap_ops)


class H2Tracker(_TrackerBase):
    """Tracker for pairwise graph-structured quadratics."""

    def _rebuild_caches(self):
        self._obj, self.gradient = self.problem.value_and_grad(self.x)

    def _init_scores(self):
        super()._init_scores()
        # on scan, the move itself rewrites the keys and |grad| scores of
        # the entries it changes; the heap and a composite problem's prox
        # keys take ``_rescore``, and a lean tracker keeps neither
        fused = (self.backend == "scan" and not self.lean
                 and self.composite is None
                 and (self.scorer is None
                      or isinstance(self.scorer, GradScorer)))
        self._move_keys = self.keys if fused else None
        self._move_weights = (self.scorer.w
                              if fused and self.scorer is not None else None)

    def refresh(self):
        """Rebuild every cache from x (``_rebuild``)."""
        self._rebuild()

    def apply_update(self, i, delta):
        """x[i] += delta; refresh every cache entry that can change."""
        _, new_xi, dterm = self._move(i, delta)
        p = self.problem
        H = p.H
        dobj = _kernels.graph_coord_update(
            i, float(new_xi), self.x, H.indptr, H.indices, H.data,
            self.gradient, p.node_quad, p.node_lin, self._move_keys,
            self._scores, self._move_weights)
        start, stop = H.indptr.item(i), H.indptr.item(i + 1)
        heap_ops = 0
        if self._move_keys is not None:
            self._top = None
        elif not self.lean:
            # rekey and rescore row i of H: i and its neighbours
            heap_ops = self._rescore(H.indices[start:stop])
        self._finish_update(dobj, dterm)
        # the row holds i's own diagonal entry besides its edges
        return UpdateStats(stop - start - 1, stop - start - 1, heap_ops)


def make_tracker(problem, x0, scorer=None, backend="scan",
                 refresh_every=10000, lean=False, L_step=None):
    """Build the tracker matching the problem's structure (h1 or h2).

    ``backend`` is "scan", "heap" or "nns" (see the module docstring).
    ``lean`` asks for a tracker without scores or keys, for rules that
    never read the gradient.  ``L_step`` is the step curvature of a
    composite problem's stopping test (scalar or per coordinate).
    """
    smooth = getattr(problem, "smooth", problem)
    kind = getattr(smooth, "tracker_kind", None)
    if backend == "nns" and (smooth is not problem or kind != "h1"):
        raise ValueError("the nns backend needs a least-squares or "
                         "logistic problem without composite terms")
    if kind not in ("h1", "h2"):
        raise ValueError(f"no tracker for problem type {type(smooth).__name__}")
    cls = H1Tracker if kind == "h1" else H2Tracker
    return cls(problem, x0, scorer, backend, refresh_every, lean, L_step)
