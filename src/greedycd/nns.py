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
including on tie-breaks.  The tracker's "nns" backend builds one index in
"gsl" mode and answers ``peek()`` with it.
"""

import numpy as np

from .linalg import column_sq_norms

REL_BAND = 1e-9


class BallTreeIndex:
    """Nearest-neighbour index over the signed (optionally normalised)
    columns of A, searched by brute force.

    The name is that of the ball tree this class used to hold; the
    benchmark and the acceptance tests import it under that name.  The tree
    lost to the one product a query now takes at every size measured.
    """

    def __init__(self, problem, mode="biased"):
        if mode not in ("biased", "gsl"):
            raise ValueError(f"unknown index mode: {mode!r}")
        if not hasattr(problem, "A"):
            raise ValueError("the index needs a problem built on a matrix A")
        if problem.l2_reg != 0.0:
            raise ValueError("nearest-neighbour selection needs l2_reg = 0")
        self.mode = mode
        self.sqnorms = sq = column_sq_norms(problem.A)
        if mode == "gsl":
            zero = np.flatnonzero(sq == 0.0)
            if zero.size:
                raise ValueError(
                    f"cannot normalise column {zero[0]}: its squared norm is "
                    "0, because it is an empty column or its entries "
                    "underflow when squared")
            self.weights = 1.0 / np.sqrt(problem.L_per_coord)
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
        """The pick for an h1 tracker's current iterate; ``peek()`` of a
        tracker on the "nns" backend.  The row weights are the row
        derivatives at the tracker's A x, which a tracker on the Gram path
        does not keep."""
        q = tracker.problem.row_link(tracker.u, slice(None))[1]
        return self.query(q, tracker.gradient)
