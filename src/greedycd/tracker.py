"""Incremental gradient trackers with greedy selection over their scores.

A tracker owns the iterate x and keeps the full gradient of the smooth
objective exact (up to float drift) after every coordinate update, paying
only for the entries that can change.  ``make_tracker`` picks one of two
ways, once per problem:

* h1 renews the gradient through A, for f(x) = sum_j phi_j(a_j^T x) +
  l2/2 ||x||^2.  It keeps the row derivatives ``row_g``, and an update
  moves the <= c of them at one column's rows.  Least squares keeps
  nothing else: ``row_g`` = 2s (A x - b) moves by 2s delta times the
  column (``_kernels.col_axpy``), and f by delta g_i + delta^2 H_ii / 2,
  from g_i before the move and H_ii = L_i (l2 included).  Logistic, whose
  Hessian moves with x, keeps A x (``u``, which exact steps read) and the
  row values ``row_v``: it moves u at the column's rows and recomputes
  their rows (``row_link``), and f by the change of their values.  The
  gradient then takes the change of the row derivatives by a row scatter
  that gathers <= c*r entries (``col_gather``) and rescores the columns
  hit, or, when the mean gather exceeds nnz / KAPPA (``takes_product``),
  by one compiled product A^T grad_link whole, after which every
  coordinate is rescored as whole vectors.  So an update pays about
  min(c*r, nnz).  The build and every refresh rebuild ``row_g`` and f
  from one A x through ``row_link``.
* h2 adds one Hessian row, for a quadratic that keeps its Hessian H: a
  graph's CSR ``H``, or least squares' kept dense ``hessian()`` where h1
  would take the product and n <= m (``takes_hessian_row``: H no larger
  than A held dense), for every rule alike.
  Moving x_i by delta adds delta * H[i] (H is symmetric) to the gradient,
  and delta g_i + delta^2 H_ii / 2, from g_i before the move, to f.  A
  dense row is two numpy calls and a whole-vector rescore; a CSR row is
  one loop (``_kernels.graph_coord_update``), which on ``scan`` for a
  smooth problem also writes the keys and ``gs``/``gsl`` scores it
  changes, the bits ``_rescore`` would store.

Scores (|grad|, |grad|/sqrt(L) or a composite problem's prox scores) are
recomputed for the coordinates an update touches, or as whole vectors
(``_rescore(None)``, then ``_install``).  A prox score over every
coordinate is the problem's kept ``ProxPass`` per step curvature
(``CompositeProblem.full_pass``), and over a subset its ``at``; both give
``prox_steps``' bits.  ``peek()`` answers from one of three backends,
which rank equal scores alike (smallest index) and so take the same path:

* "scan" (default): a flat array and ``ndarray.argmax``, remembered until
  the scores change.
* "heap": an IndexedMaxHeap, rebuilt by one sort at every build and
  whole-vector rescore, updated by an O(log n) sift per touched key.
* "nns": no scores; the problem's kept ``nns.BallTreeIndex`` answers
  ``gsl`` from the row derivatives at A x, for a problem with a matrix A,
  l2_reg = 0, every L_i > 0 and no composite terms.

The tracker owns the stopping test: ``keys`` holds |grad_i| on a smooth
problem and |d_i| on a composite one, d the prox steps under the run's
step curvature (``step_per_coord``).  A key changes only where x or the
gradient does, so the rescore rewrites it; where the score computes it
anyway (``gs``; |grad| before ``gsl``'s weights; the prox scores under
the step curvature) it is handed back.  ``grad_inf_norm()`` reads the top
score or ``keys.argmax()``.  An iteration of ``gs``, ``gsl``, a prox rule
or a random rule on ``scan`` enters no numpy function written in Python.

A rule that never reads the gradient gets a lean tracker (``lean=True``)
of the same class: no scores and no keys.  A lean h1 tracker skips the
row scatter and keeps no gradient, computing one entry from column i
(``grad_coord``, whose g_i a least-squares update then reuses) or all of
it by one product (``full_gradient``).  A lean h2 tracker keeps its
gradient, which its Hessian row moves, and rescores nothing; a dense row
reads n entries where a column holds nnz / n, in two numpy calls.
``grad_inf_norm()`` then rebuilds the keys from the full gradient, which
``run`` asks for once per epoch.

``objective()`` is F: the smooth part plus, on a composite problem, the
terms' sum (``term_vals``, rewritten at the moved coordinate).  Every
update adds its change (``last_obj_delta``, which ``run``'s descent
certificate reads).  The tracker refuses a start that is not finite or
where a term is infinite, and a move out of a coordinate's box, before it
changes any state.  Every ``refresh_every`` updates (default 10000) the
caches and the objective are rebuilt from x to bound float drift.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .linalg import IndexedMaxHeap
from .nns import BallTreeIndex
from .problems import BOX, GraphQuadraticProblem, term_value

BACKENDS = ("scan", "heap", "nns")

# An h1 update rebuilds the gradient with one compiled product, instead of
# scattering the changed rows into it, when the scatter would gather more
# than nnz / KAPPA entries per update on average (``takes_product``).
# tools/kernel_times.py times both updates: the scatter wins up to a gather
# of 7% of nnz (sparse_ls 1000^2), the product from 13% (l1_underdet_ls
# 50 x 500), and 1/KAPPA sits near the geometric middle of the two.
KAPPA = 10


def check_integer(name, value, least):
    """value as an int; TypeError unless it is an integer (a bool is not),
    ValueError if it is below ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return int(value)


def takes_product(A):
    """Whether an h1 tracker over A renews its gradient by the full
    product: the mean entries one update's scatter gathers,
    sum_rows r_i^2 / n, exceed nnz / KAPPA."""
    return A.mean_gather * KAPPA > A.nnz


def takes_hessian_row(problem):
    """Whether ``make_tracker`` moves the smooth problem with a matrix A by
    a row of its kept dense Hessian (h2) instead of through A (h1): only
    least squares, which keeps that Hessian, where the h1 update would
    take the product and n <= m (the n x n Hessian no larger than A held
    dense).  It reads the problem alone, so every rule on it moves alike."""
    return (problem.is_quadratic and takes_product(problem.A)
            and problem.n <= problem.A.shape[0])


@dataclass
class UpdateStats:
    """Exact work counters for one coordinate update.

    touched_rows: h1: the rows of the updated column, whose row
        derivatives (and on logistic A x and row values) move.  h2: the
        off-diagonal entries of Hessian row i the update moves, n - 1 on
        a dense row and the degree on a CSR one.
    touched_grads: h1: the entries of A the row scatter into the gradient
        gathers for this column (<= c*r), also when the update renewed
        the gradient by the full product instead; 0 on a lean tracker.
        h2, lean or not: the same entries as ``touched_rows``.
    heap_ops: heap keys set (0 for backend "scan"): the coordinates
        rescored, n after a full product or a dense Hessian row, which
        rebuild the heap by one sort.
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
    The candidates are built under the step curvature L_i (``per_coord``)
    or L, by the problem's kept pass over every coordinate
    (``CompositeProblem.full_pass``) and, over a subset, by its ``at``.
    A scorer holds nothing between calls, so trackers may share one.
    """

    def __init__(self, composite, per_coord, mode):
        if mode not in ("r", "q", "s"):
            raise ValueError(f"unknown prox score mode: {mode!r}")
        self.comp = composite
        self.per_coord = per_coord
        self.mode = mode
        self._pass = None if mode == "s" else composite.full_pass(per_coord)

    def compute(self, tracker, idx):
        """(scores, |d| under the scorer's curvature) at idx (every
        coordinate if None); mode "s" computes no d and gives None."""
        if self.mode == "s":
            eta = self.comp.min_subgradients(tracker.x, tracker.gradient, idx)
            return np.abs(eta), None
        if idx is None:
            d, V = self._pass(tracker.x, tracker.gradient, tracker.term_vals)
        else:
            d, V = self._pass.at(idx, tracker.x, tracker.gradient,
                                 tracker.term_vals)
        keys = np.abs(d)
        return (keys if self.mode == "r" else -V), keys


class _TrackerBase:
    """What the h1 and h2 trackers share; each supplies ``_rebuild_caches``
    (which sets the smooth objective), ``refresh`` (which calls
    ``_rebuild``) and ``apply_update`` (which ends in ``_finish_update``).
    ``problem`` is the smooth problem or a composite one; a composite
    problem's keys are its prox steps under the step curvature L_i
    (``step_per_coord``) or L, by default the scorer's own (L without a
    prox score), through the problem's kept pass for that curvature,
    built once and shared with every other tracker on it."""

    def __init__(self, problem, x0, scorer=None, backend="scan",
                 refresh_every=10000, lean=False, step_per_coord=None):
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
        self.refresh_every = check_integer("refresh_every", refresh_every, 1)
        self._updates = 0
        self.last_obj_delta = 0.0
        self.lean = bool(lean)
        self.backend = backend
        # the index depends on the problem alone, which keeps it for every
        # tracker and refresh; it replaces the scores, and refuses a
        # problem it cannot serve
        self.index = (problem.kept("nns-index", lambda: BallTreeIndex(
            problem, mode="gsl")) if backend == "nns" else None)
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
            if step_per_coord is None:
                step_per_coord = getattr(s, "per_coord", False)
            self.step_per_coord = step_per_coord
            self._shared_keys = (isinstance(s, ProxScorer) and s.mode != "s"
                                 and s.per_coord == step_per_coord)
            self._step_pass = problem.full_pass(step_per_coord)
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
        if not self.lean:
            vals, keys = self._compute(None)
            # a scorer whose scores are its keys returns one array for both
            self._keys_are_scores = keys is vals
            self._install(vals, keys)

    def _install(self, vals, keys):
        """Take the scores (None without a scorer) and keys of every
        coordinate; returns the heap keys set, n on the heap and 0 on scan.
        The heap is rebuilt by one sort, and on scan the scorer's arrays,
        which are new, are kept."""
        if vals is not None and self.backend == "heap":
            self.heap = IndexedMaxHeap(vals)
            self.keys = self.heap.keys if self._keys_are_scores else keys
            return self.n
        self._scores = vals
        self._top = None
        self.keys = vals if self._keys_are_scores else keys
        return 0

    def _fresh_keys(self, g, idx=None):
        """The keys at idx (every coordinate if None) from the gradient g."""
        if self.composite is None:
            return np.abs(g if idx is None else g[idx])
        if idx is None:
            return np.abs(self._step_pass(self.x, g, self.term_vals)[0])
        return np.abs(self._step_pass.at(idx, self.x, g,
                                         self.term_vals)[0])

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
        """Rewrite the keys and scores at idx (every coordinate if None,
        through ``_install``); returns the heap keys set."""
        vals, keys = self._compute(idx)
        if idx is None:
            return self._install(vals, keys)
        if not self._keys_are_scores:
            self.keys[idx] = keys
        if self.heap is not None:
            for j, v in zip(idx.tolist(), vals.tolist()):
                self.heap.update_key(j, v)
            return len(idx)
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
        lam = p.l2_reg
        self.product = not self.lean and takes_product(A)
        u = A.matvec(self.x)
        row_v, self.row_g = p.row_link(u, slice(None))
        # least squares keeps only row_g = 2 s (A x - b): its update takes
        # f's change from g_i and H_ii, so it needs no A x and no row values
        self.u, self.row_v = (None, None) if p.is_quadratic else (u, row_v)
        # (i, g_i) of the last lean ``grad_coord``, until x moves
        self._read = (-1, 0.0)
        self.gradient = (None if self.lean
                         else A.rmatvec(self.row_g) + lam * self.x)
        self._col = np.empty(self.n)
        self._obj = float(row_v.sum() + 0.5 * lam * self.x @ self.x)

    def grad_coord(self, i):
        if not self.lean:
            return self.gradient.item(i)
        A = self.A
        a, b = A.col_indptr.item(i), A.col_indptr.item(i + 1)
        self._read = (i, float(A.col_vals[a:b] @ self.row_g[A.col_rows[a:b]]
                               + self.problem.l2_reg * self.x.item(i)))
        return self._read[1]

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
        p, A, g, lam = self.problem, self.A, self.gradient, self.problem.l2_reg
        a, b = A.col_indptr.item(i), A.col_indptr.item(i + 1)
        rows = A.col_rows[a:b]
        delta = float(delta)
        scatter = not (self.product or self.lean)
        if self.u is None:
            # least squares: f moves by delta g_i + delta^2 H_ii / 2, from
            # g_i before the move (a lean run has just read it) and
            # H_ii = L_i, and row_g by 2 s delta times column i
            gi = self._read[1] if self._read[0] == i else self.grad_coord(i)
            self._read = (-1, 0.0)
            dobj = delta * gi + 0.5 * delta * delta * p.L_per_coord.item(i)
            step = 2.0 * p.scale * delta
            _kernels.col_axpy(a, b, A.col_rows, A.col_vals, step, self.row_g)
            dg = step * A.col_vals[a:b] if scatter else None
        else:
            ur = _kernels.col_axpy(a, b, A.col_rows, A.col_vals, delta,
                                   self.u)
            new_v, new_g = p.row_link(ur, rows)
            dobj = float(np.add.reduce(new_v - self.row_v[rows]))
            dobj += 0.5 * lam * (new_xi * new_xi - old_xi * old_xi)
            self.row_v[rows] = new_v
            dg = new_g - self.row_g[rows] if scatter else None
            self.row_g[rows] = new_g
        self.x[i] = new_xi
        touched_grads = heap_ops = 0
        if scatter:
            cols, touched_grads = _kernels.scatter_row_deltas(
                rows, dg, A.row_indptr, A.row_cols, A.row_vals, g)
            # the l2 term moves grad_i alone, by lam * delta
            g[i] = g.item(i) + lam * delta
            if a == b:
                # an empty column hits no row, but x[i] itself moved
                cols = np.array([i], dtype=np.int64)
            heap_ops = self._rescore(cols)
        if self.product:
            # the refresh's own product, straight into the gradient, then
            # lam x through the tracker's buffer where lam != 0; the
            # counter reports the entries the scatter would have gathered
            _kernels.transpose_product(A.col_indptr, A.col_rows, A.col_vals,
                                       self.row_g, g)
            if lam != 0.0:
                np.multiply(self.x, lam, out=self._col)
                np.add(g, self._col, out=g)
            heap_ops = self._rescore(None)
            touched_grads = A.col_gather.item(i)
        self._finish_update(dobj, dterm)
        return UpdateStats(b - a, touched_grads, heap_ops)


class H2Tracker(_TrackerBase):
    """Tracker for quadratics that keep their Hessian H: a graph's CSR
    ``H``, or least squares' kept dense ``hessian()``.  Moving x_i by
    delta adds delta * H[i] (H is symmetric) to the gradient and
    delta g_i + delta^2 H_ii / 2 to f."""

    def _rebuild_caches(self):
        p = self.problem
        H = self.H = (p.H if isinstance(p, GraphQuadraticProblem)
                      else p.hessian())
        self.dense = isinstance(H, np.ndarray)
        self._diag = H.diagonal()
        self._col = np.empty(self.n) if self.dense else None
        self._obj, self.gradient = p.value_and_grad(self.x)

    def _init_scores(self):
        super()._init_scores()
        # on scan, the CSR move itself rewrites the keys and |grad| scores
        # of the entries it changes; the heap and a composite problem's
        # prox keys take ``_rescore``, and a lean tracker keeps neither
        fused = (not self.dense and self.backend == "scan" and not self.lean
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
        H, g = self.H, self.gradient
        delta = float(delta)
        dobj = delta * g.item(i) + 0.5 * delta * delta * self._diag.item(i)
        self.x[i] = new_xi
        heap_ops = 0
        if self.dense:
            np.multiply(H[i], delta, out=self._col)
            np.add(g, self._col, out=g)
            moved = self.n - 1
            if not self.lean:
                heap_ops = self._rescore(None)
        else:
            start, stop = H.indptr.item(i), H.indptr.item(i + 1)
            _kernels.graph_coord_update(
                i, delta, H.indptr, H.indices, H.data, g, self._move_keys,
                self._scores, self._move_weights)
            # the row holds i's own diagonal entry besides the others
            moved = stop - start - 1
            if self._move_keys is not None:
                self._top = None
            elif not self.lean:
                heap_ops = self._rescore(H.indices[start:stop])
        self._finish_update(dobj, dterm)
        return UpdateStats(moved, moved, heap_ops)


def make_tracker(problem, x0, scorer=None, backend="scan",
                 refresh_every=10000, lean=False, step_per_coord=None):
    """Build the tracker matching the problem's structure, whatever the
    rule: h2 on a graph, and on least squares where ``takes_hessian_row``
    says its dense Hessian row pays; h1 on every other problem with a
    matrix A.

    ``backend`` is "scan", "heap" or "nns" (see the module docstring).
    ``lean`` asks for a tracker without scores or keys, for rules that
    never read the gradient.  ``step_per_coord`` names the step curvature
    of a composite problem's stopping test: L_i if true, L if false, and
    the scorer's own if None (L without a prox score).
    """
    smooth = getattr(problem, "smooth", problem)
    kind = getattr(smooth, "tracker_kind", None)
    if kind not in ("h1", "h2"):
        raise ValueError(f"no tracker for problem type {type(smooth).__name__}")
    cls = H2Tracker if kind == "h2" or takes_hessian_row(smooth) else H1Tracker
    return cls(problem, x0, scorer, backend, refresh_every, lean,
               step_per_coord)
