"""Inner-loop kernels shared by the heap, the trackers, and sparse updates.

The heap and graph kernels are plain Python loops over flat numpy arrays:
each step depends on the one before (a sift walks one path of the heap), or
touches too few entries (about a dozen edges per graph move) for a numpy
call to pay off.  The sparse column and row updates are numpy expressions
over whole CSC/CSR slices.

Index arrays are int64 and value arrays float64 throughout.
"""

import numpy as np


def heap_build(keys, order, pos):
    """Heapify ``order``/``pos`` in place for a max-heap over (keys[i], -i).

    ``order[k]`` is the element stored at heap slot k and ``pos[i]`` the slot
    of element i; the caller passes both filled with 0..n-1.  Key ties favour
    the smaller element index, so slot 0 always agrees with the first argmax
    of a fresh linear scan.
    """
    n = order.shape[0]
    for root in range(n // 2 - 1, -1, -1):
        k = root
        i = order[k]
        while True:
            c = 2 * k + 1
            if c >= n:
                break
            j = order[c]
            if c + 1 < n:
                j2 = order[c + 1]
                if (keys[j2] > keys[j]) or (keys[j2] == keys[j] and j2 < j):
                    c += 1
                    j = j2
            if (keys[j] > keys[i]) or (keys[j] == keys[i] and j < i):
                order[k] = j
                pos[j] = k
                k = c
            else:
                break
        order[k] = i
        pos[i] = k


def heap_update(keys, order, pos, i, new_key):
    """Set keys[i] = new_key and restore the heap in O(log n)."""
    keys[i] = new_key
    n = order.shape[0]
    k = pos[i]
    while k > 0:
        p = (k - 1) // 2
        j = order[p]
        if (new_key > keys[j]) or (new_key == keys[j] and i < j):
            order[k] = j
            pos[j] = k
            k = p
        else:
            break
    while True:
        c = 2 * k + 1
        if c >= n:
            break
        j = order[c]
        if c + 1 < n:
            j2 = order[c + 1]
            if (keys[j2] > keys[j]) or (keys[j2] == keys[j] and j2 < j):
                c += 1
                j = j2
        if (keys[j] > new_key) or (keys[j] == new_key and j < i):
            order[k] = j
            pos[j] = k
            k = c
        else:
            break
    order[k] = i
    pos[i] = k


def col_axpy(start, end, rows, vals, delta, y):
    """y += delta * (sparse column), the column given as rows/vals[start:end].

    The rows of a column are distinct, so one fancy-indexed add suffices.
    """
    y[rows[start:end]] += delta * vals[start:end]


def scatter_row_deltas(rows, dg, row_indptr, row_cols, row_vals, target):
    """target[c] += dg[r] * A[rows[r], c] for every stored entry of each row.

    The CSR slices of the touched rows are gathered with one index array, in
    row order and then column order, and ``np.add.at`` adds them in that
    order, so every entry of ``target`` is summed as a loop over the rows
    would sum it.  Returns the distinct columns hit, sorted; they are read
    off a boolean mask over all n columns, which costs O(n) like the argmax
    and the residual an iteration already pays, where sorting the hits
    costs several times more.
    """
    starts = row_indptr[rows]
    lens = row_indptr[rows + 1] - starts
    t = np.arange(int(lens.sum())) + np.repeat(starts - np.cumsum(lens) + lens,
                                               lens)
    cols = row_cols[t]
    np.add.at(target, cols, np.repeat(dg, lens) * row_vals[t])
    hit = np.zeros(target.shape[0], dtype=bool)
    hit[cols] = True
    return np.flatnonzero(hit)


def graph_coord_update(i, new_xi, x, indptr, nbr, w, rev, part, grad, q, b):
    """Move x[i] to new_xi on a pairwise-quadratic graph objective.

    ``part[k]`` caches w_k * (x[u] - x[v]) for the directed edge slot k
    (u -> v); ``rev[k]`` is the opposite slot.  Refreshes the partials of the
    edges incident to i, differentially updates each neighbour's gradient
    entry, recomputes grad[i] outright, and returns the objective change
    computed from the touched terms only (node term q/2 x^2 - b x plus the
    incident edge energies).
    """
    old = x[i]
    x[i] = new_xi
    dobj = 0.5 * q[i] * (new_xi * new_xi - old * old) - b[i] * (new_xi - old)
    s = q[i] * new_xi - b[i]
    for k in range(indptr[i], indptr[i + 1]):
        j = nbr[k]
        xj = x[j]
        a_new = new_xi - xj
        a_old = old - xj
        dobj += 0.5 * w[k] * (a_new * a_new - a_old * a_old)
        pik = w[k] * a_new
        part[k] = pik
        s += pik
        kr = rev[k]
        grad[j] += -pik - part[kr]
        part[kr] = -pik
    grad[i] = s
    return dobj
