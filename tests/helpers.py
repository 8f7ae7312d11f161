"""Shared test utilities: random instance generators and small oracles."""

import numpy as np
from hypothesis import strategies as st

from greedycd.descent import run
from greedycd.linalg import SparseMatrix
from greedycd.rules import Rule


class FixedStepRule(Rule):
    """Test-only rule that always proposes the same (coordinate, step); a
    step of None leaves it to ``run``."""

    name = "fixed"

    def __init__(self, i, alpha):
        self.i = i
        self.alpha = alpha

    def select(self, tracker, k):
        return self.i, self.alpha


def one_step(problem, x, i, step="exact"):
    """The trace of one ``run`` iteration from x that moves coordinate i
    with ``step``."""
    return run(problem, FixedStepRule(i, None), step=step, x0=x,
               max_iters=1, tol=0.0)


def random_sparse(rng, m, n, density=0.3, ensure_nonempty_cols=True):
    """Random sparse matrix plus its dense mirror."""
    dense = rng.standard_normal((m, n))
    mask = rng.random((m, n)) < density
    if ensure_nonempty_cols:
        for j in range(n):
            if not mask[:, j].any():
                mask[rng.integers(m), j] = True
    dense = np.where(mask, dense, 0.0)
    return SparseMatrix.from_dense(dense), dense


# signed zeros, subnormals, magnitudes near 1e-300 and 1e300, and anything
# finite: the values the bit-for-bit kernel properties draw
EXTREME_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.floats(1e-301, 1e-299), st.floats(-1e-299, -1e-301),
    st.floats(1e299, 1e301), st.floats(-1e301, -1e299),
    st.floats(allow_nan=False, allow_infinity=False))


def draw_triplet_matrix(data, m, n):
    """An m x n SparseMatrix drawn as COO triplets that may repeat a position
    (summed), store an explicit zero, and leave rows and columns empty."""
    value = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    triplets = data.draw(st.lists(
        st.tuples(st.integers(0, m - 1), st.integers(0, n - 1), value),
        max_size=2 * m * n), label="triplets")
    t = np.array(triplets, dtype=np.float64).reshape(-1, 3)
    return SparseMatrix.from_coo(m, n, t[:, 0].astype(np.int64),
                                 t[:, 1].astype(np.int64), t[:, 2])


def scatter_rows_loop(A, rows, dg, target):
    """The per-entry loop ``_kernels.scatter_row_deltas`` must equal bit for
    bit: target[c] += dg[k] * A[rows[k], c] over the rows in order and each
    row's entries in column order.  Returns (sorted distinct columns hit,
    number of entries visited)."""
    hit = set()
    count = 0
    for r, d in zip(rows, dg):
        for t in range(A.row_indptr[r], A.row_indptr[r + 1]):
            target[A.row_cols[t]] += d * A.row_vals[t]
            hit.add(int(A.row_cols[t]))
            count += 1
    return sorted(hit), count


def hessian_row_loop(i, dx, indptr, indices, data, grad):
    """The loop ``_kernels.graph_coord_update`` must equal bit for bit,
    written with numpy-scalar indexing and in-place adds: grad[j] +=
    H_ij * dx over row i of the CSR Hessian, its diagonal included."""
    for k in range(indptr[i], indptr[i + 1]):
        grad[indices[k]] += data[k] * dx


def tracker_path(tr):
    """The update path an eager tracker takes: the h1 row scatter or full
    product, or the h2 Hessian row, dense or CSR."""
    if hasattr(tr, "H"):
        return "h2-dense" if tr.dense else "h2-csr"
    return "h1-product" if tr.product else "h1-scatter"


def random_spd(rng, n, lam_lo=0.3, lam_hi=2.0):
    """Random dense SPD matrix with eigenvalues in [lam_lo, lam_hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(lam_lo, lam_hi, size=n)
    return (q * lam) @ q.T


def dense_select(index, gradient):
    """The pick ``index.query`` must return: the first maximum of the
    scores a dense scan of the index's mode ranks."""
    return int(np.argmax(index.scores(gradient)))


def scan_argmax(keys):
    """First index attaining the maximum — the heap-peek oracle."""
    return int(np.argmax(keys))


def brute_knn_edges(pts, k):
    """Symmetrised k-nearest-neighbour edges from every pairwise distance:
    the reference for ``harness._knn_edges`` (O(n^2) memory)."""
    n = pts.shape[0]
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    nearest = np.argsort(d2, axis=1)[:, :k]
    pairs = set()
    for i in range(n):
        for j in nearest[i]:
            pairs.add((min(i, int(j)), max(i, int(j))))
    return np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)


def fold_labeled_graph_loop(n_nodes, edges, weights, labeled, node_reg=0.0):
    """The per-edge loop ``GraphQuadraticProblem.from_labeled_graph`` once
    ran, kept as its reference: (kept edges, kept weights, node_quad,
    node_lin, const, free_nodes)."""
    labeled = dict(labeled)
    free = [v for v in range(n_nodes) if v not in labeled]
    var_of = {v: i for i, v in enumerate(free)}
    reg = np.broadcast_to(np.asarray(node_reg, dtype=np.float64),
                          (n_nodes,))
    node_quad = np.array([reg[v] for v in free])
    node_lin = np.zeros(len(free))
    const = 0.0
    keep_edges, keep_w = [], []
    for (a, b), w in zip(np.asarray(edges).reshape(-1, 2),
                         np.asarray(weights, dtype=np.float64)):
        a, b = int(a), int(b)
        if a in labeled and b in labeled:
            const += 0.5 * w * (labeled[a] - labeled[b]) ** 2
        elif a in labeled:
            i = var_of[b]
            node_quad[i] += w
            node_lin[i] += w * labeled[a]
            const += 0.5 * w * labeled[a] ** 2
        elif b in labeled:
            i = var_of[a]
            node_quad[i] += w
            node_lin[i] += w * labeled[b]
            const += 0.5 * w * labeled[b] ** 2
        else:
            keep_edges.append((var_of[a], var_of[b]))
            keep_w.append(w)
    return (np.array(keep_edges, dtype=np.int64).reshape(-1, 2),
            np.array(keep_w), node_quad, node_lin,
            float(const), np.array(free, dtype=np.int64))
