"""Heap and sparse-container tests, checked against linear-scan and dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedycd.harness import gen_experiment, load_experiment, save_experiment
from greedycd.linalg import (IndexedMaxHeap, SparseMatrix, column_sq_norms,
                             load_dense_mtx, save_dense_mtx)
from helpers import (EXTREME_FLOATS, draw_triplet_matrix, random_sparse,
                     scan_argmax)


def heap_is_valid(h):
    """Structural invariant: every parent beats both children on (NaN, key,
    -index), and ``pos`` inverts ``order``."""
    k = np.arange(1, h.n)
    i, j = h.order[(k - 1) // 2], h.order[k]
    a, b = h.keys[i], h.keys[j]
    beats = ((a > b) | ((a == b) & (i < j))
             | (np.isnan(a) & (~np.isnan(b) | (i < j))))
    return bool(beats.all()) and np.array_equal(h.pos[h.order], np.arange(h.n))


class TestIndexedMaxHeap:
    def test_empty_heap_raises(self):
        h = IndexedMaxHeap([])
        with pytest.raises(ValueError):
            h.peek()

    def test_bad_index_raises(self):
        h = IndexedMaxHeap([1.0, 2.0])
        with pytest.raises(IndexError):
            h.update_key(2, 0.0)
        with pytest.raises(IndexError):
            h.update_key(-1, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_sorted_build_is_a_heap_under_heavy_ties(self, data):
        # a small alphabet, so most keys tie, plus signed zeros,
        # infinities and NaN, or that alphabet mixed with any finite float;
        # the build and every update must rank as a scan's argmax does (a
        # NaN first, ties by index)
        alphabet = st.sampled_from([-1.0, 0.0, -0.0, 1.0, 2.0,
                                    np.inf, -np.inf, np.nan])
        if data.draw(st.booleans(), label="finite floats"):
            alphabet = st.one_of(alphabet, st.floats(allow_nan=False,
                                                     allow_infinity=False))
        n = data.draw(st.integers(0, 300), label="n")
        keys = np.array(data.draw(st.lists(alphabet, min_size=n, max_size=n),
                                  label="keys"), dtype=np.float64)
        h = IndexedMaxHeap(keys)
        assert heap_is_valid(h)
        if n == 0:
            return
        updates = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                               alphabet), max_size=200),
                            label="updates")
        for i, k in [(None, None)] + updates:
            if i is not None:
                keys[i] = k
                h.update_key(i, k)
            assert h.peek() == scan_argmax(keys)
            assert np.array_equal(h.peek_key(), keys.max(), equal_nan=True)
            assert heap_is_valid(h)

    def test_copies_input_keys(self):
        keys = np.array([1.0, 2.0])
        h = IndexedMaxHeap(keys)
        keys[0] = 99.0
        assert h.peek() == 1


class TestSparseMatrix:
    def test_duplicates_summed_and_zeros_dropped(self):
        A = SparseMatrix.from_coo(2, 2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 0.0])
        assert A.nnz == 1
        assert A.to_dense()[0, 1] == 5.0

    def test_rejects_non_finite_entries(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                SparseMatrix.from_dense([[1.0, 0.0], [bad, 2.0]])
            # also where duplicate triplets are summed
            with pytest.raises(ValueError, match="finite"):
                SparseMatrix.from_coo(2, 2, [0, 0], [1, 1], [bad, 1.0])
        # finite triplets whose sum overflows
        with pytest.raises(ValueError, match="finite"):
            SparseMatrix.from_coo(2, 2, [0, 0], [1, 1], [1e308, 1e308])

    def test_dual_index_consistency(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m, n = rng.integers(1, 30, size=2)
            A, dense = random_sparse(rng, m, n, density=0.4,
                                     ensure_nonempty_cols=False)
            csr_dense = np.zeros((m, n))
            for i in range(m):
                cols, vals = A.row(i)
                csr_dense[i, cols] = vals
            assert np.array_equal(csr_dense, dense)
            assert np.array_equal(A.to_dense(), dense)

    def test_views_and_counts(self):
        dense = np.array([[1.0, 0.0, 2.0],
                          [0.0, 0.0, 3.0],
                          [4.0, 5.0, 6.0]])
        A = SparseMatrix.from_dense(dense)
        rows, vals = A.column(2)
        assert rows.tolist() == [0, 1, 2]
        assert vals.tolist() == [2.0, 3.0, 6.0]
        cols, vals = A.row(2)
        assert cols.tolist() == [0, 1, 2]
        assert A.nnz == 6
        assert A.max_col_nnz == 3
        assert A.max_row_nnz == 3

    def test_column_sq_norms(self):
        rng = np.random.default_rng(4)
        A, dense = random_sparse(rng, 12, 7)
        assert np.allclose(column_sq_norms(A), (dense ** 2).sum(axis=0),
                           rtol=1e-14, atol=0)

    def test_matrix_market_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        A, dense = random_sparse(rng, 9, 11)
        path = tmp_path / "A.mtx"
        A.save_mtx(path)
        B = SparseMatrix.load_mtx(path)
        assert B.shape == A.shape
        assert np.array_equal(B.to_dense(), dense)
        header = path.read_text().splitlines()[0]
        assert header.startswith("%%MatrixMarket matrix coordinate real")

    def test_arrays_are_read_only_and_still_work(self, tmp_path):
        rng = np.random.default_rng(7)
        A, dense = random_sparse(rng, 9, 11)
        for name in SparseMatrix.ARRAYS:
            arr = getattr(A, name)
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 10 ** 9
            with pytest.raises(ValueError, match="read-only"):
                arr[:] += 1
        x, y = rng.standard_normal(11), rng.standard_normal(9)
        assert np.allclose(A.matvec(x), dense @ x, rtol=1e-14, atol=1e-14)
        assert np.allclose(A.rmatvec(y), dense.T @ y, rtol=1e-14, atol=1e-14)
        assert np.array_equal(A.to_dense(), dense)
        A.save_mtx(tmp_path / "A.mtx")
        B = SparseMatrix.load_mtx(tmp_path / "A.mtx")
        assert np.array_equal(B.to_dense(), dense)
        assert not any(getattr(B, name).flags.writeable
                       for name in SparseMatrix.ARRAYS)
        exp = gen_experiment("sparse_ls", m=20, n=15, seed=3)
        loaded = load_experiment(save_experiment(exp, tmp_path / "exp"))
        for name in SparseMatrix.ARRAYS:
            got = getattr(loaded.matrix, name)
            assert not got.flags.writeable
            assert np.array_equal(got, getattr(exp.matrix, name))
        z = rng.standard_normal(15)
        assert loaded.problem.eval(z) == exp.problem.eval(z)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_products_equal_scipys_bit_for_bit(self, data):
        m = data.draw(st.integers(1, 7), label="m")
        n = data.draw(st.integers(1, 7), label="n")
        A = draw_triplet_matrix(data, m, n)
        values = st.one_of(st.floats(-2.0, 2.0), EXTREME_FLOATS)
        x = np.array(data.draw(st.lists(values, min_size=n, max_size=n),
                               label="x"))
        y = np.array(data.draw(st.lists(values, min_size=m, max_size=m),
                               label="y"))
        csc = A.to_scipy_csc()
        # the extremes overflow to inf and nan; both sides must agree anyway
        with np.errstate(all="ignore"):
            pairs = ((A.matvec(x), csc @ x), (A.rmatvec(y), csc.T @ y))
        for got, want in pairs:
            assert got.dtype == np.float64 and got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_products_convert_and_check_their_input(self):
        A = SparseMatrix.from_dense([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
        assert A.matvec([1, 2, 3]).tolist() == [7.0, 6.0]
        assert A.rmatvec(np.array([1, -1], dtype=np.int32)).tolist() == [
            1.0, -3.0, 2.0]
        assert A.rmatvec(np.arange(4.0)[::2]).tolist() == [0.0, 6.0, 0.0]
        for bad in ([1.0, 2.0], np.ones(4), np.ones((3, 1)), 1.0):
            with pytest.raises(ValueError, match="length 3"):
                A.matvec(bad)
        with pytest.raises(ValueError, match="length 2"):
            A.rmatvec(np.ones(3))

    def test_dense_vector_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        v = rng.standard_normal(17)
        path = tmp_path / "v.mtx"
        save_dense_mtx(path, v)
        assert np.array_equal(load_dense_mtx(path), v)
