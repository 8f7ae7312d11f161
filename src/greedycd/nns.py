"""Greedy selection as a nearest-neighbour search.

For the linear-composition objectives the gradient is A^T q for a
row-weight vector q the tracker already maintains, so the greedy coordinate
is a maximum-inner-product query over the signed columns {+-a_i}.  Nearest
neighbour to q among the raw signed columns maximises a_i^T q - ||a_i||^2/2
("biased" mode: greedy discounted by column norms); among the normalised
signed columns it maximises |a_i^T q| / ||a_i||, which is exactly the
Lipschitz-weighted greedy rule ("gsl" mode).  Both identities need a zero
ridge term, so the index refuses problems with l2_reg > 0.

A query is a brute-force search: one dense product P q over the stored
points p_i (the columns of A, normalised in "gsl" mode).  The sign folds
analytically, since the nearer of +-p_i lies at squared distance
||p_i||^2 - 2 |p_i^T q| + ||q||^2, and ||q||^2 is the same for every point.
Every point whose distance lies within a rounding band of the best one (a
1e-9 relative band on the terms of that sum) goes to the same score
comparator a dense scan would use, so search and scan agree exactly,
including on tie-breaks.  The tracker's "nns" backend answers ``peek()``
with one index in "gsl" mode, which the problem keeps (``"nns-index"``).
"""

import numpy as np

from .linalg import column_sq_norms

REL_BAND = 1e-9


class BallTreeIndex:
    """Nearest-neighbour index over the signed (optionally normalised)
    columns of A, searched by brute force.

    It holds A dense, and normalised in "gsl" mode, so a problem keeps it
    only once a tracker has asked for the "nns" backend, and then for
    every later tracker, run and refresh.  The index alone decides which
    problems it serves: it refuses one without a matrix A (a composite or
    graph problem), one with l2_reg > 0 and, in "gsl" mode, one with an
    L_i of 0.  Its "gsl" weights are the problem's kept ones
    (``gsl_weights``).

    The name is that of the ball tree this class used to hold; the
    benchmark and the acceptance tests import it under that name.  The tree
    lost to the one product a query now takes at every size measured.
    """

    def __init__(self, problem, mode="biased"):
        if mode not in ("biased", "gsl"):
            raise ValueError(f"unknown index mode: {mode!r}")
        if not hasattr(problem, "A"):
            raise ValueError("the nns backend needs a least-squares or "
                             "logistic problem without composite terms")
        if problem.l2_reg != 0.0:
            raise ValueError("nearest-neighbour selection needs l2_reg = 0")
        self.mode = mode
        self.sqnorms = sq = column_sq_norms(problem.A)
        if mode == "gsl":
            # with l2_reg = 0, L_i is 0 wherever ||a_i||^2 is
            zero = np.flatnonzero(problem.L_per_coord == 0.0)
            if zero.size:
                raise ValueError(
                    f"cannot normalise column {zero[0]}: its L_i is 0, "
                    "because it is an empty column or its entries "
                    "underflow when squared or scaled")
            # every L_i > 0, so the safe curvature is L itself
            self.weights = problem.gsl_weights()
            self.points = problem.A.to_dense().T / np.sqrt(sq)[:, None]
            self._half_sq, self._norms = 0.5, 1.0
        else:
            self.weights = None
            self.points = problem.A.to_dense().T
            self._half_sq, self._norms = 0.5 * sq, np.sqrt(sq)

    def query(self, q, gradient):
        """Column index of the greedy pick for row weights q.

        ``gradient`` supplies the score values the final comparison uses,
        so the answer is bit-identical to a dense scan of the same scores.
        """
        q = np.asarray(q, dtype=np.float64)
        # (||p_i||^2 + ||q||^2 - d_i^2) / 2, d_i the distance from q to the
        # nearer of +-p_i: the largest is the nearest neighbour
        near = np.abs(self.points @ q) - self._half_sq
        band = REL_BAND * (self._half_sq + self._norms * np.sqrt(q @ q))
        idx = np.flatnonzero(near + band >= (near - band).max())
        return self._compare(idx, gradient)

    def _compare(self, idx, gradient):
        scores = self.scores(gradient, idx)
        order = np.lexsort((idx, -scores))
        return int(idx[order[0]])

    def scores(self, gradient, idx=None):
        """The selection scores a dense scan of this mode would rank."""
        if idx is None:
            idx = slice(None)
        g = np.abs(np.asarray(gradient)[idx])
        if self.mode == "gsl":
            return g * self.weights[idx]
        return g - 0.5 * self.sqnorms[idx]

    def select(self, tracker):
        """The pick at a tracker's current iterate; ``peek()`` of a
        tracker on the "nns" backend.  The row weights are the row
        derivatives at A x, computed from x: an h2 tracker keeps no A x."""
        p = tracker.problem
        q = p.row_link(p.A.matvec(tracker.x), slice(None))[1]
        return self.query(q, tracker.gradient)
