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
