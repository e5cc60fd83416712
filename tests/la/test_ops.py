"""Tests for the uniform LA primitives in :mod:`repro.la.ops`."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import ShapeError
from repro.la import ops


def _dense(rows: int, cols: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((rows, cols))


class TestAggregations:
    def test_rowsums_dense(self):
        x = _dense(5, 3)
        assert np.allclose(ops.rowsums(x).ravel(), x.sum(axis=1))

    def test_rowsums_sparse(self):
        x = sp.random(6, 4, density=0.5, random_state=1, format="csr")
        assert np.allclose(ops.rowsums(x).ravel(), np.asarray(x.sum(axis=1)).ravel())

    def test_rowsums_shape_is_column(self):
        assert ops.rowsums(_dense(4, 2)).shape == (4, 1)

    def test_colsums_dense(self):
        x = _dense(5, 3)
        assert np.allclose(ops.colsums(x).ravel(), x.sum(axis=0))

    def test_colsums_sparse(self):
        x = sp.random(6, 4, density=0.5, random_state=2, format="csc")
        assert np.allclose(ops.colsums(x).ravel(), np.asarray(x.sum(axis=0)).ravel())

    def test_colsums_shape_is_row(self):
        assert ops.colsums(_dense(4, 2)).shape == (1, 2)

    def test_total_sum_matches_numpy(self):
        x = _dense(7, 2)
        assert np.isclose(ops.total_sum(x), x.sum())

    def test_total_sum_sparse(self):
        x = sp.random(5, 5, density=0.4, random_state=3)
        assert np.isclose(ops.total_sum(x), x.sum())

    def test_row_min(self):
        x = np.array([[3.0, 1.0], [0.0, -2.0]])
        assert np.array_equal(ops.row_min(x).ravel(), [1.0, -2.0])

    def test_nnz_dense(self):
        assert ops.nnz(np.array([[0.0, 1.0], [2.0, 0.0]])) == 2

    def test_nnz_sparse(self):
        assert ops.nnz(sp.eye(4, format="csr")) == 4


class TestProducts:
    def test_matmul_dense_dense(self):
        a, b = _dense(3, 4), _dense(4, 2, seed=1)
        assert np.allclose(ops.matmul(a, b), a @ b)

    def test_matmul_sparse_dense_returns_dense(self):
        a = sp.random(3, 4, density=0.5, random_state=1, format="csr")
        b = _dense(4, 2, seed=2)
        out = ops.matmul(a, b)
        assert isinstance(out, np.ndarray)
        assert np.allclose(out, a.toarray() @ b)

    def test_matmul_dense_sparse_returns_dense(self):
        a = _dense(3, 4, seed=3)
        b = sp.random(4, 2, density=0.5, random_state=4, format="csr")
        out = ops.matmul(a, b)
        assert isinstance(out, np.ndarray)
        assert np.allclose(out, a @ b.toarray())

    def test_matmul_sparse_sparse_stays_sparse(self):
        a = sp.eye(3, format="csr")
        b = sp.eye(3, format="csr")
        assert sp.issparse(ops.matmul(a, b))

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ops.matmul(_dense(3, 4), _dense(3, 4))

    def test_crossprod_dense(self):
        x = _dense(6, 3)
        assert np.allclose(ops.crossprod(x), x.T @ x)

    def test_crossprod_sparse_is_dense_array(self):
        x = sp.random(8, 3, density=0.6, random_state=5, format="csr")
        out = ops.crossprod(x)
        assert isinstance(out, np.ndarray)
        assert np.allclose(out, x.toarray().T @ x.toarray())

    def test_transpose(self):
        x = _dense(3, 5)
        assert np.array_equal(ops.transpose(x), x.T)

    def test_ginv_pseudo_inverse_property(self):
        x = _dense(8, 3)
        g = ops.ginv(x)
        assert np.allclose(x @ g @ x, x, atol=1e-8)

    def test_ginv_sparse_input(self):
        x = sp.random(6, 3, density=0.8, random_state=6, format="csr")
        g = ops.ginv(x)
        dense = x.toarray()
        assert np.allclose(dense @ g @ dense, dense, atol=1e-8)

    def test_solve_regularized_exact(self):
        gram = np.array([[2.0, 0.0], [0.0, 4.0]])
        rhs = np.array([[2.0], [8.0]])
        assert np.allclose(ops.solve_regularized(gram, rhs), [[1.0], [2.0]])

    def test_solve_regularized_singular_falls_back(self):
        gram = np.zeros((2, 2))
        rhs = np.array([[1.0], [1.0]])
        out = ops.solve_regularized(gram, rhs)
        assert out.shape == (2, 1)
        assert np.all(np.isfinite(out))


class TestStructuralHelpers:
    def test_sparse_diag(self):
        d = ops.sparse_diag(np.array([1.0, 2.0, 3.0]))
        assert sp.issparse(d)
        assert np.allclose(d.toarray(), np.diag([1.0, 2.0, 3.0]))

    def test_diag_scale_rows_dense(self):
        x = _dense(3, 2)
        values = np.array([1.0, 2.0, 3.0])
        assert np.allclose(ops.diag_scale_rows(values, x), np.diag(values) @ x)

    def test_diag_scale_rows_sparse(self):
        x = sp.random(3, 4, density=0.9, random_state=7, format="csr")
        values = np.array([2.0, 0.5, 1.0])
        out = ops.diag_scale_rows(values, x)
        assert np.allclose(np.asarray(out.todense()), np.diag(values) @ x.toarray())

    def test_diag_scale_rows_mismatch(self):
        with pytest.raises(ShapeError):
            ops.diag_scale_rows(np.ones(2), _dense(3, 3))

    def test_hstack_dense(self):
        a, b = np.ones((2, 1)), np.zeros((2, 2))
        assert ops.hstack([a, b]).shape == (2, 3)

    def test_hstack_all_sparse_stays_sparse(self):
        out = ops.hstack([sp.eye(2, format="csr"), sp.eye(2, format="csr")])
        assert sp.issparse(out)

    def test_hstack_mixed_densifies(self):
        out = ops.hstack([sp.eye(2, format="csr"), np.ones((2, 1))])
        assert isinstance(out, np.ndarray)

    def test_hstack_empty_raises(self):
        with pytest.raises(ShapeError):
            ops.hstack([])

    def test_vstack_dense(self):
        assert ops.vstack([np.ones((1, 3)), np.zeros((2, 3))]).shape == (3, 3)

    def test_vstack_all_sparse(self):
        out = ops.vstack([sp.eye(2, format="csr"), sp.eye(2, format="csr")])
        assert sp.issparse(out)
        assert out.shape == (4, 2)

    def test_block_2x2(self):
        out = ops.block_2x2(np.ones((1, 1)), np.zeros((1, 2)),
                            np.zeros((2, 1)), np.eye(2))
        assert out.shape == (3, 3)
        assert out[0, 0] == 1.0

    def test_block_grid(self):
        grid = [[np.ones((1, 1)), np.zeros((1, 1))], [np.zeros((1, 1)), np.ones((1, 1))]]
        assert np.allclose(ops.block_grid(grid), np.eye(2))


class TestIndicatorFromLabels:
    def test_basic_construction(self):
        k = ops.indicator_from_labels(np.array([0, 2, 1, 0]))
        assert k.shape == (4, 3)
        assert np.allclose(k.toarray(), [[1, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]])

    def test_one_nonzero_per_row(self):
        k = ops.indicator_from_labels(np.array([1, 1, 1, 0])).tocsr()
        assert np.all(np.diff(k.indptr) == 1)

    def test_num_columns_padding(self):
        k = ops.indicator_from_labels(np.array([0, 1]), num_columns=5)
        assert k.shape == (2, 5)

    def test_num_columns_too_small(self):
        with pytest.raises(ShapeError):
            ops.indicator_from_labels(np.array([0, 4]), num_columns=3)

    def test_negative_labels_rejected(self):
        with pytest.raises(ShapeError, match="non-negative"):
            ops.indicator_from_labels(np.array([0, -1]))
        # Float labels are keys too: 1.7 must not truncate to column 1, and
        # NaN must be named as such, not reported as a negative label.
        with pytest.raises(ShapeError, match="non-integral"):
            ops.indicator_from_labels(np.array([0, 1.7, 2]))
        with pytest.raises(ShapeError, match="NaN"):
            ops.indicator_from_labels(np.array([0, np.nan, 2]))
        assert ops.indicator_from_labels(np.array([0.0, 2.0])).shape == (2, 3)

    def test_expansion_recovers_rows(self):
        labels = np.array([2, 0, 1, 2, 2])
        values = np.array([[10.0], [20.0], [30.0]])
        k = ops.indicator_from_labels(labels)
        assert np.allclose(np.asarray((k @ values)), values[labels])

    @pytest.mark.parametrize("labels, num_columns", [
        (np.random.default_rng(0).integers(0, 50, size=300), None),
        (np.array([], dtype=np.int64), None),
        (np.array([], dtype=np.int64), 4),
        (np.array([3, 0, 3, 1]), 9),
    ], ids=["random", "empty", "empty-padded", "padded"])
    def test_csr_arrays_equal_coo_construction(self, labels, num_columns):
        """Built straight from the codes, the CSR matches the COO round trip."""
        k = ops.indicator_from_labels(labels, num_columns).tocsr()
        n = labels.size
        n_cols = num_columns if num_columns is not None else (labels.max() + 1 if n else 0)
        ref = sp.csr_matrix((np.ones(n), (np.arange(n), labels)), shape=(n, n_cols))
        assert k.shape == ref.shape
        for name in ("data", "indices", "indptr"):
            actual, expected = getattr(k, name), getattr(ref, name)
            assert actual.dtype == expected.dtype, name
            assert np.array_equal(actual, expected), name
        assert k.has_canonical_format == ref.has_canonical_format


class TestScalarOps:
    @pytest.mark.parametrize("op,expected", [
        ("+", lambda x: x + 2.0),
        ("-", lambda x: x - 2.0),
        ("*", lambda x: x * 2.0),
        ("/", lambda x: x / 2.0),
        ("**", lambda x: x ** 2.0),
    ])
    def test_forward_ops_dense(self, op, expected):
        x = _dense(4, 3, seed=11)
        assert np.allclose(ops.scalar_op(x, op, 2.0), expected(x))

    @pytest.mark.parametrize("op,expected", [
        ("-", lambda x: 2.0 - x),
        ("/", lambda x: 2.0 / x),
    ])
    def test_reverse_ops_dense(self, op, expected):
        x = np.abs(_dense(4, 3, seed=12)) + 1.0
        assert np.allclose(ops.scalar_op(x, op, 2.0, reverse=True), expected(x))

    def test_sparse_multiplication_stays_sparse(self):
        x = sp.random(5, 5, density=0.4, random_state=8, format="csr")
        out = ops.scalar_op(x, "*", 3.0)
        assert sp.issparse(out)
        assert np.allclose(out.toarray(), 3.0 * x.toarray())

    def test_sparse_power_stays_sparse(self):
        x = sp.random(5, 5, density=0.4, random_state=9, format="csr")
        out = ops.scalar_op(x, "**", 2.0)
        assert sp.issparse(out)
        assert np.allclose(out.toarray(), x.toarray() ** 2)

    def test_sparse_addition_densifies(self):
        x = sp.random(5, 5, density=0.4, random_state=10, format="csr")
        out = ops.scalar_op(x, "+", 1.0)
        assert isinstance(out, np.ndarray)
        assert np.allclose(out, x.toarray() + 1.0)

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError):
            ops.scalar_op(np.ones((2, 2)), "%", 2.0)


class TestElementwise:
    def test_dense_function(self):
        x = _dense(3, 3, seed=13)
        assert np.allclose(ops.elementwise(x, np.exp), np.exp(x))

    def test_sparse_zero_preserving_function(self):
        x = sp.random(6, 6, density=0.3, random_state=11, format="csr")
        out = ops.elementwise(x, np.square)
        assert sp.issparse(out)
        assert np.allclose(out.toarray(), x.toarray() ** 2)

    def test_sparse_non_zero_preserving_densifies(self):
        x = sp.random(6, 6, density=0.3, random_state=12, format="csr")
        out = ops.elementwise(x, np.exp)
        assert isinstance(out, np.ndarray)
        assert np.allclose(out, np.exp(x.toarray()))

    def test_allclose_true(self):
        x = _dense(3, 3, seed=14)
        assert ops.allclose(x, sp.csr_matrix(x))

    def test_allclose_shape_mismatch(self):
        assert not ops.allclose(np.ones((2, 2)), np.ones((3, 2)))

    def test_allclose_value_mismatch(self):
        assert not ops.allclose(np.ones((2, 2)), np.zeros((2, 2)))


class TestOpsProperties:
    @given(arrays(np.float64, (4, 3), elements=st.floats(-10, 10)))
    @settings(max_examples=25, deadline=None)
    def test_rowsums_colsums_consistent_with_total(self, x):
        assert np.isclose(ops.rowsums(x).sum(), ops.total_sum(x))
        assert np.isclose(ops.colsums(x).sum(), ops.total_sum(x))

    @given(arrays(np.float64, (5, 2), elements=st.floats(-5, 5)))
    @settings(max_examples=25, deadline=None)
    def test_crossprod_is_symmetric_psd(self, x):
        gram = ops.crossprod(x)
        assert np.allclose(gram, gram.T)
        eigenvalues = np.linalg.eigvalsh(gram)
        assert np.all(eigenvalues >= -1e-8)
