"""Flat-array sparse matrices and an index-addressable max-heap.

The sparse container keeps both a compressed-column and a compressed-row
view of the same matrix: the incremental gradient trackers walk columns (to
update A x after a coordinate step) and rows (to push residual-gradient
changes back into A^T grad).  Construction canonicalises once through a
scipy CSR matrix, so duplicates are summed (three or more copies of one
entry in an order scipy's index sort picks, not always the input order),
explicit zeros dropped, and indices sorted; index arrays are int64 and
values float64, as the kernels expect.  A NaN or infinite entry, or a sum
of duplicates that overflows, is rejected there.  All six arrays are
read-only once built: the compiled row scatter and the products
``matvec`` and ``rmatvec`` (scipy's ``csc_matvec``/``csr_matvec`` on the
CSC arrays) trust their indices without a bounds check.
"""

import numpy as np
import scipy.io
import scipy.sparse
from scipy.sparse import _sparsetools

from . import _kernels


def _float_vector(v, size):
    """v as a C-contiguous float64 vector of length ``size``; the compiled
    kernels read exactly that many entries, so any other shape is refused."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (size,):
        raise ValueError(f"expected a vector of length {size}, "
                         f"got shape {v.shape}")
    return np.ascontiguousarray(v)


class SparseMatrix:
    """Immutable sparse matrix stored in both CSC and CSR layouts.

    Attributes
    ----------
    shape : (m, n)
    col_indptr, col_rows, col_vals : CSC arrays
    row_indptr, row_cols, row_vals : CSR arrays
    nnz : stored entries (z)
    max_col_nnz : densest column (c)
    max_row_nnz : densest row (r)
    col_gather : per column j, the entries the rows of column j hold, which
        the row scatter of one update of x_j gathers (read-only)
    mean_gather : col_gather averaged over the columns, sum_rows r_i^2 / n

    ``ARRAYS`` names the six CSC/CSR arrays, read-only once built.
    """

    ARRAYS = ("col_indptr", "col_rows", "col_vals",
              "row_indptr", "row_cols", "row_vals")

    def __init__(self, scipy_matrix):
        # one canonical CSR (duplicates summed, each row's indices sorted,
        # zeros dropped), whose conversion gives sorted CSC indices; a CSR
        # input is copied, since both steps work in place
        csr = scipy.sparse.csr_matrix(scipy_matrix, copy=True)
        if not np.isfinite(csr.data).all():
            raise ValueError("matrix entries must be finite")
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csc = csr.tocsc()
        self.shape = csc.shape
        self.col_indptr = np.asarray(csc.indptr, dtype=np.int64)
        self.col_rows = np.asarray(csc.indices, dtype=np.int64)
        self.col_vals = np.asarray(csc.data, dtype=np.float64)
        self.row_indptr = np.asarray(csr.indptr, dtype=np.int64)
        self.row_cols = np.asarray(csr.indices, dtype=np.int64)
        self.row_vals = np.asarray(csr.data, dtype=np.float64)
        for name in self.ARRAYS:
            getattr(self, name).flags.writeable = False
        self.nnz = int(self.col_vals.shape[0])
        self.max_col_nnz = int(np.diff(self.col_indptr).max(initial=0))
        row_len = np.diff(self.row_indptr)
        self.max_row_nnz = int(row_len.max(initial=0))
        # entries the row scatter of one update of column j gathers: the
        # lengths of the rows of column j, summed
        ends = np.zeros(self.nnz + 1, dtype=np.int64)
        np.cumsum(row_len[self.col_rows], out=ends[1:])
        self.col_gather = ends[self.col_indptr[1:]] - ends[self.col_indptr[:-1]]
        self.col_gather.flags.writeable = False
        self.mean_gather = (float(row_len @ row_len) / self.shape[1]
                            if self.shape[1] else 0.0)
        self._csc = scipy.sparse.csc_matrix(
            (self.col_vals, self.col_rows, self.col_indptr), shape=self.shape)

    @classmethod
    def from_dense(cls, arr):
        return cls(np.asarray(arr, dtype=np.float64))

    @classmethod
    def from_coo(cls, m, n, rows, cols, vals):
        """Build from triplets; duplicate (row, col) pairs are summed."""
        coo = scipy.sparse.coo_matrix(
            (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(m, n))
        return cls(coo)

    def column(self, j):
        """(row indices, values) of column j, as views."""
        a, b = self.col_indptr[j], self.col_indptr[j + 1]
        return self.col_rows[a:b], self.col_vals[a:b]

    def row(self, i):
        """(column indices, values) of row i, as views."""
        a, b = self.row_indptr[i], self.row_indptr[i + 1]
        return self.row_cols[a:b], self.row_vals[a:b]

    def to_scipy_csc(self):
        """The scipy CSC view built once at construction; do not modify."""
        return self._csc

    def to_dense(self):
        return self._csc.toarray()

    def matvec(self, x):
        """A x, from scipy's compiled ``csc_matvec`` on the stored arrays."""
        m, n = self.shape
        x = _float_vector(x, n)
        out = np.zeros(m)
        _sparsetools.csc_matvec(m, n, self.col_indptr, self.col_rows,
                                self.col_vals, x, out)
        return out

    def rmatvec(self, y):
        """A^T y, through ``_kernels.transpose_product`` on the CSC arrays,
        without building the transposed scipy matrix on every call."""
        m, n = self.shape
        out = np.empty(n)
        _kernels.transpose_product(self.col_indptr, self.col_rows,
                                   self.col_vals, _float_vector(y, m), out)
        return out

    def save_mtx(self, path):
        """Write as 1-based Matrix Market coordinate format."""
        scipy.io.mmwrite(str(path), self._csc)

    @classmethod
    def load_mtx(cls, path):
        return cls(scipy.io.mmread(str(path)))


def column_sq_norms(A):
    """||a_j||_2^2 for every column, as a dense vector."""
    m, n = A.shape
    out = np.zeros(n)
    cols = np.repeat(np.arange(n), np.diff(A.col_indptr))
    np.add.at(out, cols, A.col_vals ** 2)
    return out


def save_dense_mtx(path, arr):
    """Write a dense vector/matrix in Matrix Market array format."""
    arr = np.asarray(arr, dtype=np.float64)
    scipy.io.mmwrite(str(path), arr.reshape(-1, 1) if arr.ndim == 1 else arr)


def load_dense_mtx(path):
    out = np.asarray(scipy.io.mmread(str(path)), dtype=np.float64)
    if out.ndim == 2 and out.shape[1] == 1:
        return out.ravel()
    return out


class IndexedMaxHeap:
    """Max-heap over n float keys addressable by element index.

    Supports O(1) peek of the argmax, O(log n) key updates for arbitrary
    elements, and construction by one sort.  Ties on key resolve to the
    smallest element index, and a NaN key ranks above every other key,
    exactly matching the first argmax of a linear scan.
    """

    def __init__(self, keys):
        self.keys = np.array(keys, dtype=np.float64, copy=True)
        if self.keys.ndim != 1:
            raise ValueError("keys must be 1-D")
        self.n = self.keys.shape[0]
        # sorted by (NaN first, key descending, index ascending), every
        # slot outranks its children 2k+1 and 2k+2, so the sorted order is
        # a heap
        self.order = np.lexsort((np.arange(self.n), -self.keys,
                                 ~np.isnan(self.keys)))
        self.pos = np.empty(self.n, dtype=np.int64)
        self.pos[self.order] = np.arange(self.n)

    def __len__(self):
        return self.n

    def peek(self):
        """Element index holding the largest key (smallest index on ties)."""
        if self.n == 0:
            raise ValueError("peek on empty heap")
        return int(self.order[0])

    def peek_key(self):
        if self.n == 0:
            raise ValueError("peek on empty heap")
        return float(self.keys[self.order[0]])

    def update_key(self, i, key):
        """Replace the key of element i and restore heap order."""
        if not 0 <= i < self.n:
            raise IndexError(f"element index {i} out of range for heap of size {self.n}")
        _kernels.heap_update(self.keys, self.order, self.pos, i, float(key))
