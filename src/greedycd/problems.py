"""Objectives with coordinate-wise structure.

Smooth problems expose the pieces coordinate descent needs: per-coordinate
Lipschitz constants L_i (from curvature along each axis), the objective and
its full gradient; a run reads gradient entries off its tracker.  The two
"linear composition" classes (least squares, logistic) additionally expose
the per-row link values and derivatives (``row_link``), from which the
incremental tracker builds the row sum and its gradient A^T phi'(A x)
(and on logistic renews them at the rows an update moves).
Composite problems add a separable term g_i per coordinate, one of
lam*|x_i|, a box indicator, or zero, together with proximal steps, the
model decrease V_i, and minimal subgradients.  Constructors reject NaN and
infinite data (a box may still end at -inf or +inf).

A problem keeps what depends on it alone (``KeptConstants.kept``): built
on first use, then shared read-only by every later run and tracker, so a
run's set-up pays only for what its x0 changes.  A smooth problem keeps
its two step curvatures (``curvature``: L_i, and L at every coordinate),
the ``gsl`` weights 1/sqrt(L_i) (``gsl_weights``), the Lipschitz sampling
CDF, for least squares the dense Hessian and, once a tracker asks for the
``nns`` backend, its index; a composite problem keeps one
full-vector ``ProxPass`` per step curvature (``full_pass(per_coord)``).
The arrays they derive from, ``L_per_coord`` and the term arrays
``gkind``, ``p1``, ``p2`` and the l1 weights, are read-only like
``SparseMatrix``'s, and so is every kept array, so a stale constant
cannot come about silently: a write raises.
"""

import math
import weakref
from typing import NamedTuple

import numpy as np
import scipy.sparse
from scipy.special import expit

from .linalg import SparseMatrix, column_sq_norms

ZERO, ABS, BOX = 0, 1, 2

# y = x - g/L overflows to +-inf once |g| > L * 1.8e308, at |g| of order 1
# on a subnormal L, but only past 1.8e158 on an L above this; on the
# coordinates whose L is below it ``prox_step`` computes d and V without
# the NaN the formula gives there, and ``ProxPass`` takes both from it
TINY_CURVATURE = 1e-150


class ZeroTerm:
    """g(x) = 0."""
    kind = ZERO
    p1 = 0.0
    p2 = 0.0


class L1Term:
    """g(x) = lam * |x|."""
    kind = ABS

    def __init__(self, lam):
        if not np.isfinite(lam):
            raise ValueError("l1 weight must be finite")
        if lam < 0:
            raise ValueError("l1 weight must be nonnegative")
        self.p1 = float(lam)
        self.p2 = 0.0


class BoxTerm:
    """g(x) = 0 on [lo, hi], +inf outside; lo may be -inf and hi +inf."""
    kind = BOX

    def __init__(self, lo, hi):
        if np.isnan(lo) or np.isnan(hi) or lo == np.inf or hi == -np.inf:
            raise ValueError("box bounds must not be NaN, and only "
                             "lo = -inf or hi = +inf may be infinite")
        if lo > hi:
            raise ValueError("empty box")
        self.p1 = float(lo)
        self.p2 = float(hi)


def term_value(term, v):
    """g(v) for a single coordinate."""
    if term.kind == ABS:
        return term.p1 * abs(v)
    if term.kind == BOX:
        return 0.0 if term.p1 <= v <= term.p2 else np.inf
    return 0.0


def read_only(a):
    """The array a, made read-only (a kept constant, or one that kept
    constants derive from)."""
    a.flags.writeable = False
    return a


class KeptConstants:
    """A problem's constants that depend on it alone: each is built by its
    first caller and kept for every later one (``kept``)."""

    def kept(self, key, build):
        """The constant ``key``, from ``build()`` the first time it is
        asked for (a build that raises keeps nothing)."""
        kept = self.__dict__.setdefault("_kept", {})
        value = kept.get(key)
        if value is None:
            value = kept[key] = build()
        return value


class Curvature(NamedTuple):
    """One step curvature over the n coordinates, as a smooth problem keeps
    it (``SmoothProblem.curvature``): ``L``, the curvature made safe
    (``safe_curvature``), a read-only array; ``steps``, its entries as
    Python floats; and ``positive``, whether each raw entry is > 0.  The
    tuples serve the driver's scalar step."""

    L: np.ndarray
    steps: tuple
    positive: tuple


def safe_curvature(L):
    """The curvature a coordinate step divides by: L with every entry that
    is not positive (the L_i = 0 of an empty column) read as 1.  A scalar
    comes back as a float, anything else as a float array."""
    L = np.asarray(L, dtype=np.float64)
    if not L.ndim:
        L = float(L)
        return L if L > 0 else 1.0
    return np.where(L > 0, L, 1.0)


def prox_coordinate(term, L, y):
    """argmin_z  (L/2) (z - y)^2 + term(z), for one coordinate and a
    curvature L > 0: the entry ``prox_steps`` computes, bit for bit (the l1
    threshold is p1/L; the clamp keeps numpy's ``clip`` tie rules)."""
    if not L > 0:
        raise ValueError("prox curvature must be positive")
    if term.kind == ZERO:
        return y
    if term.kind == ABS:
        m = max(abs(y) - term.p1 / L, 0.0)
        # np.sign(y) * m: +0.0 at y = +-0, NaN at y = NaN
        return m if y > 0 else -m if y < 0 else 0.0 * m
    z = term.p1 if y <= term.p1 else y
    return term.p2 if z >= term.p2 else z


def prox_step(term, L, x, g, gx):
    """(d, V) of one coordinate on Python floats, for a curvature L > 0 and
    the term value gx = term(x): d = prox(x - g/L) - x and the model
    decrease V = g d + (L/2) d^2 + term(x + d) - gx, the bits of a
    ``ProxPass`` entry.

    Where L is tiny (below ``TINY_CURVATURE``) an ordinary g takes x - g/L
    to +-inf, and the formula's NaN is replaced.  An l1 term, whose
    threshold lam/L overflows too (|y| - lam/L would be inf - inf),
    soft-thresholds w = x L - g by lam and divides by L, and takes V at
    the minimiser, where g + L d = -lam sign(w), as a sum of two terms
    that are not positive: -(L/2) d^2 - |x| (lam - sign(x) c), c being w
    clipped to [-lam, lam].  On any other term an infinite d gets
    V = -inf (not -inf + inf, or 0 * inf where L/2 underflows to 0), and
    a finite one, which a box may clamp from an infinite x - g/L, takes
    d (g + (L/2) d) + term(x + d) - gx, which no finite d, g and gx make
    NaN (g d + (L/2) d^2 can be -inf + inf, and lam |x - g/L| 0 * inf)."""
    if term.kind == ABS and 0 < L < TINY_CURVATURE:
        w = x * L - g
        d = prox_coordinate(term, 1.0, w) / L - x
        c = math.copysign(1.0, x) * min(max(w, -term.p1), term.p1)
        return d, -0.5 * (L * d * d) - abs(x) * (term.p1 - c)
    z = prox_coordinate(term, L, x - g / L)
    d = z - x
    if L < TINY_CURVATURE:
        if abs(d) == math.inf:
            return d, -math.inf
        return d, d * (g + 0.5 * L * d) + term_value(term, z) - gx
    return d, g * d + 0.5 * L * d * d + term_value(term, z) - gx


class SmoothProblem(KeptConstants):
    """Interface shared by the smooth objectives.

    Subclasses set ``n``, ``L_per_coord`` (positive where the coordinate
    matters, read-only), and ``is_quadratic``, and implement ``eval``,
    ``full_grad`` and, unless quadratic (L_i = H_ii makes the 1/L_i step
    exact), ``exact_coord_min(x, i, u)`` from u = A x.  ``L1``, the
    Lipschitz constant of the gradient in the 1-norm, is only available
    for quadratics (max |H_ij|) and is None otherwise.
    """

    is_quadratic = False
    L1 = None

    @property
    def L(self):
        return float(self.L_per_coord.max())

    def curvature(self, per_coord):
        """The kept ``Curvature`` of a coordinate step: L_i (``per_coord``)
        or the global L at every coordinate (the same bits a scalar L
        gives wherever it is spread over the coordinates)."""
        def build():
            raw = self.L_per_coord if per_coord else np.full(self.n, self.L)
            L = read_only(safe_curvature(raw))
            return Curvature(L, tuple(L.tolist()), tuple((raw > 0).tolist()))
        return self.kept(("curvature", per_coord), build)

    def gsl_weights(self):
        """The kept ``gsl`` weights 1/sqrt(L_i), under the safe curvature
        (an L_i = 0 reads as 1)."""
        return self.kept("gsl-weights", lambda: read_only(
            1.0 / np.sqrt(self.curvature(True).L)))


class LeastSquaresProblem(SmoothProblem):
    """f(x) = scale * ||A x - b||^2 + (l2_reg / 2) ||x||^2.

    ``scale`` is the factor on the squared residual itself, e.g. 0.5 for the
    plain half-squared loss or 1/(2 m) for the mean version.
    """

    is_quadratic = True
    tracker_kind = "h1"

    def __init__(self, A, b, l2_reg=0.0, scale=0.5):
        if not isinstance(A, SparseMatrix):
            A = SparseMatrix.from_dense(np.asarray(A, dtype=np.float64))
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (A.shape[0],):
            raise ValueError("b must have one entry per row of A")
        if not np.isfinite(b).all():
            raise ValueError("b must be finite")
        if not 0 < scale < np.inf:
            raise ValueError("scale must be positive and finite")
        if not 0 <= l2_reg < np.inf:
            raise ValueError("l2_reg must be nonnegative and finite")
        self.A = A
        self.b = b
        self.l2_reg = float(l2_reg)
        self.scale = float(scale)
        self.n = A.shape[1]
        self.L_per_coord = read_only(2.0 * self.scale * column_sq_norms(A)
                                     + self.l2_reg)

    def eval(self, x):
        r = self.A.matvec(x) - self.b
        return float(self.scale * r @ r + 0.5 * self.l2_reg * x @ x)

    def full_grad(self, x):
        r = self.A.matvec(x) - self.b
        return 2.0 * self.scale * self.A.rmatvec(r) + self.l2_reg * x

    def value_and_grad(self, x):
        """(f(x), grad f(x)) from one A x: the sum of ``row_link``'s row
        values and A^T of its row derivatives, as the h1 tracker's rebuild
        sums them."""
        v, d = self.row_link(self.A.matvec(x), slice(None))
        return (float(v.sum() + 0.5 * self.l2_reg * x @ x),
                self.A.rmatvec(d) + self.l2_reg * x)

    def hessian(self):
        """Dense Hessian 2*scale*A^T A + l2_reg*I, built once and kept
        read-only (one copy, shared with every h2 tracker on it).  One
        compiled sparse-dense product, A^T times A held dense: entry (i, j)
        sums the products A_ki A_kj in row order k, whichever side of the
        diagonal it is on, so H equals its transpose.  It is faster than
        the sparse product A^T A.  A dense BLAS product would be faster
        still, but runs on OpenBLAS's threads, which keep spinning after
        the call and slow the code that runs next on a machine with few
        cores.  Intended for small n."""
        def build():
            H = self.A.to_scipy_csc().T @ self.A.to_dense()
            H *= 2.0 * self.scale
            H[np.diag_indices_from(H)] += self.l2_reg
            return read_only(H)
        return self.kept("hessian", build)

    @property
    def L1(self):
        def build():
            # H's diagonal is G's plus l2_reg >= 0, so G's own diagonal
            # entries, also in G.data, never exceed it
            sp = self.A.to_scipy_csc()
            G = (2.0 * self.scale) * (sp.T @ sp)
            return float(max(np.abs(G.data).max(initial=0.0),
                             (G.diagonal() + self.l2_reg).max(initial=0.0)))
        return self.kept("L1", build)

    def row_link(self, ur, rows):
        """(phi_j(u_j), phi_j'(u_j)) for the rows ``rows`` (an index array
        or a slice), from their entries ``ur`` of u = A x: one gather of b
        and one residual serve both."""
        r = ur - self.b[rows]
        return self.scale * r * r, 2.0 * self.scale * r


# LogisticProblem.exact_coord_min: 1-D Newton tolerance and iteration cap
NEWTON_TOL, NEWTON_MAX_ITER = 1e-12, 50


class LogisticProblem(SmoothProblem):
    """f(x) = (1/m) sum_j log(1 + exp(-y_j a_j^T x)) + (l2_reg / 2) ||x||^2."""

    tracker_kind = "h1"

    def __init__(self, A, labels, l2_reg=0.0):
        if not isinstance(A, SparseMatrix):
            A = SparseMatrix.from_dense(np.asarray(A, dtype=np.float64))
        y = np.asarray(labels, dtype=np.float64)
        if y.shape != (A.shape[0],):
            raise ValueError("labels must have one entry per row of A")
        if not np.all(np.abs(y) == 1.0):
            raise ValueError("labels must be +/-1")
        if not 0 <= l2_reg < np.inf:
            raise ValueError("l2_reg must be nonnegative and finite")
        self.A = A
        self.y = y
        self.l2_reg = float(l2_reg)
        self.n = A.shape[1]
        self.m = A.shape[0]
        self.L_per_coord = read_only((0.25 / self.m) * column_sq_norms(A)
                                     + self.l2_reg)

    def eval(self, x):
        u = self.A.matvec(x)
        return float(np.logaddexp(0.0, -self.y * u).sum() / self.m
                     + 0.5 * self.l2_reg * x @ x)

    def full_grad(self, x):
        u = self.A.matvec(x)
        s = -self.y * expit(-self.y * u) / self.m
        return self.A.rmatvec(s) + self.l2_reg * x

    def row_link(self, ur, rows):
        """(phi_j(u_j), phi_j'(u_j)) for the rows ``rows``, from their
        entries ``ur`` of u = A x; the margins -y_j u_j are computed once
        for both (see ``LeastSquaresProblem.row_link``)."""
        nyr = -self.y[rows]
        t = nyr * ur
        return np.logaddexp(0.0, t) / self.m, nyr * expit(t) / self.m

    def exact_coord_min(self, x, i, u):
        """Safeguarded 1-D Newton along coordinate i, from u = A x (a run
        passes its tracker's cached product).

        Brackets a sign change of the directional derivative and runs Newton
        clipped to the bracket with bisection as fallback.  A converged
        Newton point minimises the coordinate; otherwise the plain 1/L_i
        step is kept if its objective is no higher, so the standard
        per-step progress bound always holds.
        """
        rows, vals = self.A.column(i)
        yr = self.y[rows]
        ur = u[rows]
        xi = float(x[i])
        lam = self.l2_reg
        Li = self.L_per_coord[i]

        def dphi(a):
            t = yr * (ur + a * vals)
            return float((-yr * expit(-t) / self.m) @ vals + lam * (xi + a))

        def d2phi(a):
            t = yr * (ur + a * vals)
            sig = expit(t)
            return float((sig * (1.0 - sig) / self.m) @ (vals * vals) + lam)

        def phi(a):
            t = -yr * (ur + a * vals)
            return float(np.logaddexp(0.0, t).sum() / self.m
                         + 0.5 * lam * (xi + a) ** 2)

        g0 = dphi(0.0)
        if Li == 0.0 or g0 == 0.0:
            return xi
        fallback = -g0 / Li

        # bracket [lo, hi] with dphi(lo) <= 0 <= dphi(hi)
        if g0 > 0:
            hi, lo = 0.0, fallback
            for _ in range(60):
                if dphi(lo) <= 0:
                    break
                lo *= 2.0
            else:
                return xi + fallback
        else:
            lo, hi = 0.0, fallback
            for _ in range(60):
                if dphi(hi) >= 0:
                    break
                hi *= 2.0
            else:
                return xi + fallback

        a = 0.0
        g = g0
        converged = False
        for _ in range(NEWTON_MAX_ITER):
            if abs(g) <= NEWTON_TOL:
                converged = True
                break
            h = d2phi(a)
            step = a - g / h if h > 0 else 0.5 * (lo + hi)
            if not lo <= step <= hi:
                step = 0.5 * (lo + hi)
            a = step
            g = dphi(a)
            if g > 0:
                hi = a
            else:
                lo = a
        if not converged and abs(g) > NEWTON_TOL:
            a = fallback if phi(fallback) <= phi(a) else a
        return xi + a


def sorted_pair_codes(n, a, b):
    """Sorted int64 codes min * n + max of the pairs (a_k, b_k); they sort
    as the rows (min, max) would."""
    return np.sort(np.minimum(a, b) * int(n) + np.maximum(a, b))


def _edge_arrays(n, edges, weights):
    """(edges, weights) as int64 (E, 2) and float64 (E,), with one weight
    per edge and every endpoint in [0, n)."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (edges.shape[0],):
        raise ValueError("one weight per edge required")
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise ValueError("edge endpoint out of range")
    return edges, weights


def _node_terms(n, values, name):
    """A copy of one node term's values as float64 of shape (n,), zeros if
    None; anything else, a scalar or a length-1 array included, is
    refused."""
    values = np.zeros(n) if values is None else np.array(values, np.float64)
    if values.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {values.shape}")
    return values


class GraphQuadraticProblem(SmoothProblem):
    """f(x) = sum_i (q_i/2 x_i^2 - b_i x_i) + sum_(u,v) (w/2)(x_u - x_v)^2 + c0.

    Pairwise terms live on an undirected graph; the node terms absorb any
    per-node quadratic penalty and the pull of clamped (labeled) neighbours.

    The graph is stored once, as the Hessian ``H`` (scipy CSR, columns
    sorted): row i holds -w_ij for each neighbour j and the diagonal entry
    q_i + sum_j w_ij, stored even when it is 0, so the row's columns are i
    and its neighbours.  The h2 tracker's move reads that row.
    """

    is_quadratic = True
    tracker_kind = "h2"

    def __init__(self, n, edges, weights, node_quad=None, node_lin=None,
                 const=0.0):
        edges, weights = _edge_arrays(n, edges, weights)
        if np.any(edges[:, 0] == edges[:, 1]):
            raise ValueError("self-loops are not allowed")
        if np.any(np.diff(sorted_pair_codes(n, *edges.T)) == 0):
            raise ValueError("duplicate edges are not allowed")
        if not np.isfinite(weights).all():
            raise ValueError("edge weights must be finite")
        if np.any(weights < 0):
            raise ValueError("edge weights must be nonnegative")
        self.n = int(n)
        self.edges = edges
        self.weights = weights
        self.node_quad = _node_terms(n, node_quad, "node_quad")
        self.node_lin = _node_terms(n, node_lin, "node_lin")
        self.const = float(const)
        if not (np.isfinite(self.node_quad).all()
                and np.isfinite(self.node_lin).all()
                and np.isfinite(self.const)):
            raise ValueError("node terms must be finite")

        heads = np.concatenate([edges[:, 0], edges[:, 1]])
        tails = np.concatenate([edges[:, 1], edges[:, 0]])
        wdir = np.concatenate([weights, weights])
        self.L_per_coord = read_only(
            self.node_quad + np.bincount(heads, wdir, minlength=n))
        # the conversion from triplets keeps the diagonal's explicit zeros
        self.H = scipy.sparse.csr_matrix(
            (np.concatenate([self.L_per_coord, -wdir]),
             (np.concatenate([np.arange(n), heads]),
              np.concatenate([np.arange(n), tails]))), shape=(n, n))
        self.max_degree = int(np.diff(self.H.indptr).max(initial=1)) - 1

    @classmethod
    def from_labeled_graph(cls, n_nodes, edges, weights, labeled,
                           node_reg=0.0):
        """Label-propagation energy over the unlabeled nodes.

        ``labeled`` maps node id in [0, n_nodes) -> clamped value.  Edges
        touching a labeled node become quadratic pulls on the free endpoint;
        edges between two labeled nodes only shift the constant.  Returns
        (problem, free_nodes), free_nodes[i] the original id of variable i.
        ``node_reg`` (one value, or one per node) adds reg_i/2 x_i^2 at
        every free node; a negative entry, which can make the Hessian
        indefinite and the energy unbounded below, is refused.
        """
        n = int(n_nodes)
        edges, w = _edge_arrays(n, edges, weights)
        node_reg = np.broadcast_to(np.asarray(node_reg, np.float64), (n,))
        if np.any(node_reg < 0):
            raise ValueError("node_reg must be nonnegative")
        ids = np.array(list(labeled), dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise ValueError(f"labeled node out of range [0, {n})")
        is_lab = np.zeros(n, dtype=bool)
        is_lab[ids] = True
        value = np.zeros(n)
        value[ids] = list(labeled.values())
        free = np.flatnonzero(~is_lab)
        var_of = np.cumsum(~is_lab) - 1
        a, b = edges.T
        la, lb = is_lab[a], is_lab[b]
        touch, pull = la | lb, la ^ lb
        # sums run in edge order: a pull adds w to q and w * label to b at
        # its free endpoint; each edge touching a label adds
        # (w/2)(value_a - value_b)^2 to the constant (free nodes hold 0)
        at = var_of[np.where(la, b, a)[pull]]
        node_quad = node_reg[free]
        node_lin = np.zeros(free.size)
        np.add.at(node_quad, at, w[pull])
        np.add.at(node_lin, at, (w * np.where(la, value[a], value[b]))[pull])
        d = value[a] - value[b]
        const = np.add.accumulate(
            np.concatenate(([0.0], (0.5 * w * (d * d))[touch])))[-1]
        prob = cls(free.size, var_of[edges[~touch]], w[~touch],
                   node_quad=node_quad, node_lin=node_lin, const=const)
        return prob, free

    def eval(self, x):
        return self._value(x, self.H @ x)

    def _value(self, x, Hx):
        return 0.5 * float(x @ Hx) - float(self.node_lin @ x) + self.const

    def full_grad(self, x):
        return self.H @ x - self.node_lin

    def value_and_grad(self, x):
        """(``eval(x)``, ``full_grad(x)``), the same bits, from one product
        H x."""
        Hx = self.H @ x
        return self._value(x, Hx), Hx - self.node_lin

    def hessian(self):
        return self.H.toarray()

    @property
    def L1(self):
        return self.kept("L1", lambda: float(
            np.abs(self.H.data).max(initial=0.0)))

class CompositeProblem(KeptConstants):
    """F(x) = smooth.eval(x) + sum_i g_i(x_i), g_i separable and convex.

    ``terms`` is one term applied to every coordinate, or a length-n list.
    The term arrays (kinds ``gkind``, parameters ``p1`` and ``p2``, and the
    masks and l1 weights derived from them) are read-only.
    """

    def __init__(self, smooth, terms):
        self.smooth = smooth
        n = smooth.n
        if not isinstance(terms, (list, tuple)):
            terms = [terms] * n
        if len(terms) != n:
            raise ValueError("need one separable term per coordinate")
        self.terms = list(terms)
        self.gkind = read_only(np.array([t.kind for t in self.terms],
                                        dtype=np.int8))
        self.p1 = read_only(np.array([t.p1 for t in self.terms]))
        self.p2 = read_only(np.array([t.p2 for t in self.terms]))
        self.n = n
        # built once rather than on every prox or subgradient call: the
        # term masks, the l1 weights and whether any term is a box
        self._abs = read_only(self.gkind == ABS)
        self._box = read_only(self.gkind == BOX)
        self._l1w = read_only(np.where(self._abs, self.p1, 0.0))
        self._any_box = bool(self._box.any())

    @property
    def L_per_coord(self):
        return self.smooth.L_per_coord

    @property
    def L(self):
        return self.smooth.L

    def full_pass(self, per_coord):
        """The kept ``ProxPass`` over every coordinate under the step
        curvature L_i (``per_coord``) or L, the smooth part's kept
        ``curvature``.  Callers share it, since its buffers hold nothing
        from one call to the next."""
        return self.kept(("pass", per_coord), lambda: ProxPass(
            self, self.smooth.curvature(per_coord).L))

    def g_values(self, x):
        # lam |x_i| on the l1 terms alone, in one call with no index
        # gathers, and inf outside a box, where there is a box
        out = np.zeros(self.n)
        np.multiply(self.p1, np.abs(x), out=out, where=self._abs)
        if self._any_box:
            out[self._box & ((x < self.p1) | (x > self.p2))] = np.inf
        return out

    def eval(self, x):
        return float(self.smooth.eval(x) + self.g_values(x).sum())

    def prox_steps(self, x, grad, L_used, idx=None):
        """Candidate moves under curvature L_used, for all coordinates or
        for the subset ``idx`` (x and grad are always full-length).

        Returns (d, V, s): the prox step d_i, the model decrease
        V_i = grad_i d_i + (L_i/2) d_i^2 + g_i(x_i+d_i) - g_i(x_i) <= 0, and
        the subgradient s_i = -(grad_i + L_i d_i), the element of
        dg_i(x_i + d_i) picked out by the prox optimality condition.
        L_used may be scalar or length n; an entry that is not positive
        counts as 1 (``safe_curvature``).  Every output entry depends on its
        own coordinate alone, so a call over ``idx`` returns, bit for bit,
        the entries ``idx`` of the call over all coordinates.  d and V come
        from a one-off ``ProxPass``; a caller that needs them at many
        points under a step curvature reads the kept pass instead
        (``full_pass``, and ``ProxPass.at`` over a subset).
        """
        # a scalar curvature is spread over the coordinates: the same bits
        # as a vector of copies
        L = np.broadcast_to(safe_curvature(L_used), (self.n,))
        step = ProxPass(self, L, idx)
        if idx is not None:
            x = x[idx]
            grad = grad[idx]
        # lam |x| is g(x) wherever x is feasible
        d, V = step(x, grad, step.lam * np.abs(x))
        return d, V, -(grad + step.L * d)

    def min_subgradients(self, x, grad, idx=None):
        """eta_i = argmin_{s in dg_i(x_i)} |grad_i + s|, the first-order
        residual GS-s scores |eta_i| are built from."""
        if idx is None:
            idx = slice(None)
        x = x[idx]
        grad = grad[idx]
        p1 = self.p1[idx]
        p2 = self.p2[idx]
        eta = grad.copy()
        a = self._abs[idx]
        nz = a & (x != 0)
        eta[nz] = grad[nz] + p1[nz] * np.sign(x[nz])
        z0 = a & (x == 0)
        eta[z0] = np.sign(grad[z0]) * np.maximum(np.abs(grad[z0]) - p1[z0], 0.0)
        b = self._box[idx]
        at_lo = b & (x <= p1)
        eta[at_lo] = np.minimum(grad[at_lo], 0.0)
        at_hi = b & (x >= p2)
        eta[at_hi] = np.maximum(grad[at_hi], 0.0)
        eta[at_lo & at_hi] = 0.0
        return eta

    def coord_step(self, i, x_i, g_i, L_i):
        """Entry i of ``prox_steps`` on Python floats, bit for bit and at a
        fraction of the cost: (d, V) with d = prox(x_i - g_i/L_i) - x_i and
        V = g_i d + (L_i/2) d^2 + term_i(x_i + d) - term_i(x_i) <= 0.  With
        L_i = H_ii under a quadratic smooth part, d is the exact step."""
        term = self.terms[i]
        return prox_step(term, L_i, x_i, g_i, term_value(term, x_i))


class ProxPass:
    """d and V of ``CompositeProblem.prox_steps`` over a fixed set of
    coordinates (``idx``, or every one) under one curvature L, already
    safe (``safe_curvature``) and given over every coordinate (n floats):
    the one place the prox formula is written over arrays (``prox_step``
    writes it on Python floats, bit for bit).

    What depends on the terms and the curvature alone is computed once,
    here: the curvature at idx, L/2 and the l1 thresholds lam/L, each as an
    array (numpy converts a Python scalar operand on every call, which
    costs more than reading an array), and where the boxes are (no clamp
    without one).  A call reads the term values g(x) instead of computing
    lam |x| (a tracker keeps them, rewriting one entry per update), and
    pays for 14 ufunc calls of the formula's arithmetic, written into
    buffers the pass owns, so it overwrites the arrays the previous call
    returned: no caller may keep d or V past the next call.  A pass over
    every coordinate can then be kept per problem and curvature
    (``CompositeProblem.full_pass``) and shared by every tracker on it;
    its constants are read-only.  Its buffers are four arrays with their
    views made once, and only two of the 14 calls write into one of their
    own operands, since numpy is slower at such a call on a short array
    than at one into another buffer.
    """

    def __init__(self, composite, L, idx=None):
        at = slice(None) if idx is None else idx
        self.lam = composite._l1w[at]
        k = self.lam.shape[0]
        self.L = L[at]
        self.half = 0.5 * self.L
        self.thr = self.lam / self.L
        self.zero = np.zeros(k)
        self.box = None
        if composite._any_box:
            box = composite._box[at]
            if np.count_nonzero(box):
                self.box = np.flatnonzero(box)
                self.lo = composite.p1[at][box]
                self.hi = composite.p2[at][box]
        # where L is tiny (subnormal, say) an ordinary gradient takes y to
        # +-inf, and the formula's d and V can be NaN (``prox_step``).
        # Such coordinates depend on L alone, so they are found here, as
        # (position, term) pairs, and take d and V from ``prox_step`` after
        # a call, as the boxes are clamped
        tiny = np.flatnonzero(self.L < TINY_CURVATURE)
        self.tiny = None
        if tiny.shape[0]:
            where = tiny if idx is None else np.asarray(idx)[tiny]
            self.tiny = tuple(zip(tiny.tolist(),
                                  [composite.terms[j] for j in where.tolist()]))
        if idx is None:
            # a pass over every coordinate may be kept, by the problem it
            # refers to (weakly, so that no cycle outlives the problem); a
            # subset's pass is one call's, and marking costs 0.4 us an array
            self._comp = weakref.ref(composite)
            for name in ("L", "half", "thr", "zero", "box", "lo", "hi"):
                if getattr(self, name, None) is not None:
                    read_only(getattr(self, name))
        # the six roles of the formula in four buffers: z takes a's once a
        # is spent and v takes y's, so only the sums z + v and a + y
        # write into an operand
        buf = np.empty((4, k))
        self._buf = (buf[0], buf[1], buf[2], buf[0], buf[3], buf[1])

    def __call__(self, x, grad, gx):
        """(d, V) at x and grad, given the term values gx = g(x), all three
        already restricted to the pass's coordinates."""
        a, y, t, z, d, v = self._buf
        # y = x - grad/L
        np.divide(grad, self.L, out=a)
        np.subtract(x, a, out=y)
        # soft-threshold every entry (a box is clamped below): off the l1
        # terms lam = 0, so the threshold is 0 and sign(y) max(|y|, 0) is
        # y, except that y = -0 gives -0 or +0, and y = -0 only where
        # x = -0, so d = z - x is +0 either way; so no pick of y there is
        # needed for finite x and grad
        np.abs(y, out=t)
        np.subtract(t, self.thr, out=a)
        np.maximum(a, self.zero, out=t)
        np.copysign(t, y, out=z)
        if self.box is not None:
            z[self.box] = np.clip(y[self.box], self.lo, self.hi)
        np.subtract(z, x, out=d)
        # V = ((grad d + (L/2) d d) + lam |z|) - g(x), in this order; off
        # the boxes |z| is t, and on them lam = 0, so lam |z| is lam t
        np.multiply(self.half, d, out=a)
        np.multiply(a, d, out=v)
        np.multiply(grad, d, out=z)
        np.add(z, v, out=a)
        np.multiply(self.lam, t, out=y)
        np.add(a, y, out=v)
        np.subtract(v, gx, out=z)
        if self.tiny is not None:
            for k, term in self.tiny:
                d[k], z[k] = prox_step(term, self.L.item(k), x.item(k),
                                       grad.item(k), gx.item(k))
        return d, z

    def at(self, idx, x, grad, gx):
        """(d, V) at the coordinates idx, from a pass over every coordinate
        of a problem that is still alive: a one-off pass at idx under this
        pass's curvature, given x, grad and the term values gx over every
        coordinate.  The bits are this pass's entries idx, and no
        subgradient is computed.  Its callers in the benchmark's runs, the
        row scatter's rescores, pass hundreds of indices, where the one-off
        constants are a small share of the call."""
        return ProxPass(self._comp(), self.L, idx)(x[idx], grad[idx], gx[idx])


def quadratic_problem(H, b):
    """General strongly convex quadratic 0.5 x^T H x - b^T x (+ const >= 0),
    realised as a least-squares problem through a Cholesky factor so all the
    sparse machinery applies.  H must be symmetric positive definite."""
    H = np.asarray(H, dtype=np.float64)
    C = np.linalg.cholesky(H).T
    d = np.linalg.solve(C.T, np.asarray(b, dtype=np.float64))
    return LeastSquaresProblem(SparseMatrix.from_dense(C), d, scale=0.5)
