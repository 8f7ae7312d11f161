"""Greedy selection as a nearest-neighbour search.

For the linear-composition objectives the gradient is A^T q for a
row-weight vector q the tracker already maintains, so the greedy coordinate
is a maximum-inner-product query over the signed columns {+-a_i}.  Nearest
neighbour to q among the raw signed columns maximises a_i^T q - ||a_i||^2/2
("biased" mode: greedy discounted by column norms); among the normalised
signed columns it maximises |a_i^T q| / ||a_i||, which is exactly the
Lipschitz-weighted greedy rule ("gsl" mode).  Both identities need a zero
ridge term, so the index refuses problems with l2_reg > 0.

Queries descend a ball tree, collect every point within a 1e-9 relative
band of the best distance found, and hand the folded candidate set to the
same score comparator a dense scan would use — so tree and scan agree
exactly, including on tie-breaks.  The tracker's "nns" backend builds one
index in "gsl" mode and answers ``peek()`` with it.
"""

import numpy as np

from .linalg import column_sq_norms

REL_BAND = 1e-9


class _Ball:
    __slots__ = ("lo", "hi", "center", "radius", "left", "right")

    def __init__(self, lo, hi, center, radius):
        self.lo = lo
        self.hi = hi
        self.center = center
        self.radius = radius
        self.left = None
        self.right = None


class BallTreeIndex:
    """Ball tree over the signed (optionally normalised) columns of A."""

    def __init__(self, problem, mode="biased", leaf_size=16):
        if mode not in ("biased", "gsl"):
            raise ValueError(f"unknown index mode: {mode!r}")
        if not hasattr(problem, "A"):
            raise ValueError("the index needs a problem built on a matrix A")
        if problem.l2_reg != 0.0:
            raise ValueError("nearest-neighbour selection needs l2_reg = 0")
        self.mode = mode
        self.n = problem.A.shape[1]
        self.sqnorms = column_sq_norms(problem.A)
        cols = problem.A.to_dense().T.copy()
        if mode == "gsl":
            if (self.sqnorms == 0.0).any():
                raise ValueError("cannot normalise an empty column")
            self.weights = 1.0 / np.sqrt(problem.L_per_coord)
            pts = cols / np.sqrt(self.sqnorms)[:, None]
        else:
            self.weights = None
            pts = cols
        self.points = np.vstack([pts, -pts])
        self.perm = np.arange(2 * self.n)
        self.leaf_size = int(leaf_size)
        self.root = self._build(0, 2 * self.n)

    def _build(self, lo, hi):
        pts = self.points[self.perm[lo:hi]]
        center = pts.mean(axis=0)
        dist = np.sqrt(((pts - center) ** 2).sum(axis=1))
        node = _Ball(lo, hi, center, float(dist.max()))
        if hi - lo > self.leaf_size:
            j = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
            order = np.argsort(pts[:, j], kind="stable")
            self.perm[lo:hi] = self.perm[lo:hi][order]
            mid = (lo + hi) // 2
            node.left = self._build(lo, mid)
            node.right = self._build(mid, hi)
        return node

    def query(self, q, gradient):
        """Folded column index of the greedy pick for row weights q.

        ``gradient`` supplies the score values the final comparison uses,
        so the answer is bit-identical to a dense scan of the same scores.
        """
        q = np.asarray(q, dtype=np.float64)
        best = np.inf
        hits = []

        def visit(node):
            nonlocal best
            gap = float(np.sqrt(((q - node.center) ** 2).sum())) - node.radius
            if gap > best * (1.0 + REL_BAND):
                return
            if node.left is None:
                ids = self.perm[node.lo:node.hi]
                d = np.sqrt(((self.points[ids] - q) ** 2).sum(axis=1))
                lo = float(d.min())
                if lo < best:
                    best = lo
                hits.append((ids, d))
                return
            d_left = ((q - node.left.center) ** 2).sum()
            first, second = node.left, node.right
            if ((q - node.right.center) ** 2).sum() < d_left:
                first, second = second, first
            visit(first)
            visit(second)

        visit(self.root)
        cut = best * (1.0 + REL_BAND)
        cands = np.concatenate([ids[d <= cut] for ids, d in hits])
        folded = np.unique(np.where(cands >= self.n, cands - self.n, cands))
        return self._compare(folded, gradient)

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
        tracker on the "nns" backend."""
        return self.query(tracker.row_g, tracker.gradient)


def dense_select(index, gradient):
    """Linear-scan twin of ``index.query`` (for verification)."""
    return int(np.argmax(index.scores(gradient)))
