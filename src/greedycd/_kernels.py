"""Inner-loop kernels shared by the heap, the trackers, and sparse updates.

The heap key update and the graph move are plain Python loops over flat
numpy arrays: each step depends on the one before (a sift walks one path
of the heap), or touches too few entries (about a dozen edges per graph
move) for a numpy call to pay off.  The heap itself is built by one sort
(``IndexedMaxHeap``), not here.  The sparse column update is one numpy
expression over a CSC slice.  The row scatter of A^T dg into the
gradient is two of scipy's compiled sparse kernels
(``scipy.sparse._sparsetools``), which add in the same order as a loop
over the rows, so its sums are bit-identical to that loop's; see
``scatter_row_deltas``.  The full product A^T y is scipy's compiled
``csr_matvec`` (``transpose_product``), shared by ``SparseMatrix.rmatvec``
and the tracker update that rebuilds the gradient whole.

The graph move reads every scalar through ``ndarray.item()``, which gives
a Python int or float.  Indexing (``x[j]``) boxes a numpy scalar instead,
and numpy-scalar arithmetic pays numpy's dispatch on every operation.  Both
are the same IEEE double operations in the same order, so the results are
bit-identical; on the median node of ``two_moons`` n=2000 (degree 6) one
move takes 3.7-4.0 us against 7.5-13.7 us for the numpy-scalar loop of
``tests/helpers.py`` (least of 200-300 repeats of 10 calls, shared 2-vCPU
Xeon; ``tools/kernel_times.py`` times the move).  Numpy slices over the
incident edges, with the two running sums kept in edge order, stay
bit-identical too but took 5.9-6.4 us when measured: a dozen slices, gathers and vector expressions at a few
hundred ns each cost more than six edges of Python-float arithmetic.  For
the same reason the move rescores the entries it changes itself when the
tracker hands it its keys and scores (the ``scan`` backend on a smooth
problem): it writes |g| and w |g| from the Python floats it already holds,
where the tracker's ``_rescore`` would spend 6-9 numpy calls on seven or
so entries.

The compiled kernels take int64 index arrays and float64 value arrays and
check neither the dtypes nor any index bound, so their arrays come from a
``SparseMatrix``, whose arrays are read-only after construction.  The graph
move reads the Hessian's scipy CSR arrays through ``.item()``, whatever
their index dtype.
"""

import numpy as np
from scipy.sparse import _sparsetools


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
    """y += delta * (sparse column), the column given as rows/vals[start:end];
    returns the moved entries of y, in the column's row order.

    The rows of a column are distinct, so one gather, one add and one
    store suffice, the bits of ``y[r] += delta * v``.  The moved entries
    are handed back, so the h1 update computes its row values and
    derivatives from them (``row_link``) instead of gathering u at the
    column's rows again.
    """
    r = rows[start:end]
    y[r] = moved = y[r] + delta * vals[start:end]
    return moved


def scatter_row_deltas(rows, dg, row_indptr, row_cols, row_vals, target):
    """target[c] += dg[r] * A[rows[r], c] for every stored entry of each row.

    Two compiled calls from scipy's ``_sparsetools`` do the work.
    ``csr_row_index`` copies the CSR slices of the touched rows, in row
    order, into ``bj``/``bx``; read under the pointer array ``bp`` (the
    cumulative row lengths), those are the columns of an n x len(rows) CSC
    matrix, so ``csc_matvec`` adds ``bx[t] * dg[r]`` into ``target[bj[t]]``
    row by row, and within a row in column order.  That is the order of a
    loop over the rows and their entries, so every entry of ``target`` is
    summed as that loop would sum it, bit for bit.

    The kernels check neither bounds nor dtypes: ``rows``, ``row_indptr``
    and ``row_cols`` must be int64 and ``dg``, ``row_vals`` and ``target``
    float64 and C-contiguous, with the row arrays taken from a
    ``SparseMatrix`` (whose arrays are read-only, so their indices stay in
    range).

    Returns (the distinct columns hit, sorted; the number of entries
    gathered).  The columns are read off a boolean mask over all n columns,
    which costs O(n) like the argmax and the residual an iteration already
    pays, where sorting the hits costs several times more.
    """
    k = rows.shape[0]
    bp = np.zeros(k + 1, dtype=np.int64)
    (row_indptr[rows + 1] - row_indptr[rows]).cumsum(out=bp[1:])
    count = int(bp[-1])
    bj = np.empty(count, dtype=np.int64)
    bx = np.empty(count, dtype=np.float64)
    _sparsetools.csr_row_index(k, rows, row_indptr, row_cols, row_vals,
                               bj, bx)
    _sparsetools.csc_matvec(target.shape[0], k, bp, bj, bx, dg, target)
    hit = np.zeros(target.shape[0], dtype=bool)
    hit[bj] = True
    return hit.nonzero()[0], count


def transpose_product(col_indptr, col_rows, col_vals, y, out):
    """out = A^T y, overwriting ``out``, for the A whose CSC arrays are
    given: they are the CSR arrays of A^T, so scipy's compiled
    ``csr_matvec`` (the kernel ``A.T @ y`` ends in) sums each entry of
    ``out`` over its column of A in stored order.  Same dtype and bound
    rules as ``scatter_row_deltas``; ``out`` has one entry per column."""
    out.fill(0.0)
    _sparsetools.csr_matvec(out.shape[0], y.shape[0], col_indptr, col_rows,
                            col_vals, y, out)


def graph_coord_update(i, new_xi, x, indptr, indices, data, grad, q, b,
                       keys=None, scores=None, weights=None):
    """Move x[i] to new_xi on a pairwise-quadratic graph objective.

    ``indptr``/``indices``/``data`` are the CSR arrays of the objective's
    Hessian, whose row i holds the diagonal entry and -w_ij for each
    neighbour j.  Moving x[i] by dx moves each neighbour's gradient entry
    by -w_ij * dx, one column of the Hessian; the move skips the diagonal
    entry, recomputes grad[i] outright from its incident edges, and returns
    the objective change computed from the touched terms only (node term
    q/2 x^2 - b x plus the incident edge energies).

    With ``keys`` given, the move also rescores the d + 1 entries it
    changes: keys[j] = |grad_j| for i and each neighbour j, and with
    ``weights`` given, scores[j] = |grad_j| * weights[j] too (``gsl``;
    under ``gs`` the keys are the scores).  Each new gradient entry is a
    Python float here already, so its key and score cost two float
    operations and a store or two.  Gathering, taking |.|, weighting and
    storing the same seven or so entries by numpy calls (the tracker's
    ``_rescore``) cost more: on the median node of ``two_moons`` n=2000 a
    whole ``gs`` update took 1.8 us more than a lean one that way, and
    0.4 us more this way (2.6 and 1.2 us under ``gsl``; least of 300
    repeats, shared 2-vCPU Xeon; ``tools/kernel_times.py`` prints the
    difference).  They are the same IEEE operations as
    ``GradScorer.compute``'s, so the keys and scores are its bits.
    """
    old = x.item(i)
    x[i] = new_xi
    dx = new_xi - old
    qi = q.item(i)
    bi = b.item(i)
    dobj = 0.5 * qi * (new_xi * new_xi - old * old) - bi * dx
    s = qi * new_xi - bi
    for k in range(indptr.item(i), indptr.item(i + 1)):
        j = indices.item(k)
        if j == i:
            continue
        xj = x.item(j)
        wk = -data.item(k)
        a_new = new_xi - xj
        a_old = old - xj
        dobj += 0.5 * wk * (a_new * a_new - a_old * a_old)
        s += wk * a_new
        gj = grad.item(j) - wk * dx
        grad[j] = gj
        if keys is not None:
            keys[j] = ag = abs(gj)
            if weights is not None:
                scores[j] = ag * weights.item(j)
    grad[i] = s
    if keys is not None:
        keys[i] = ag = abs(s)
        if weights is not None:
            scores[i] = ag * weights.item(i)
    return dobj
