"""Shared test utilities: random instance generators and small oracles."""

import numpy as np

from greedycd.linalg import SparseMatrix


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


def random_spd(rng, n, lam_lo=0.3, lam_hi=2.0):
    """Random dense SPD matrix with eigenvalues in [lam_lo, lam_hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(lam_lo, lam_hi, size=n)
    return (q * lam) @ q.T


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
