"""Tests for the ORE-style chunked preset of :class:`repro.core.partitioned.Partitioned`."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ShapeError
from repro.core.partitioned import Partitioned, row_apply


@pytest.fixture
def dense_matrix():
    return np.random.default_rng(42).standard_normal((23, 5))


@pytest.fixture
def chunked(dense_matrix):
    return Partitioned.chunked(dense_matrix, chunk_rows=6)


class TestConstruction:
    def test_from_matrix_chunk_count(self, chunked):
        assert chunked.num_chunks == 4

    def test_from_matrix_shape(self, chunked, dense_matrix):
        assert chunked.shape == dense_matrix.shape

    def test_from_matrix_roundtrip(self, chunked, dense_matrix):
        assert np.allclose(chunked.to_dense(), dense_matrix)

    def test_uneven_last_chunk(self, chunked):
        assert chunked.chunks[-1].shape[0] == 23 - 3 * 6

    def test_sparse_chunks(self):
        x = sp.random(20, 4, density=0.3, random_state=1, format="csr")
        chunked = Partitioned.chunked(x, 7)
        assert sp.issparse(chunked.to_matrix())
        assert np.allclose(chunked.to_dense(), x.toarray())

    def test_empty_chunk_list_rejected(self):
        with pytest.raises(ShapeError):
            Partitioned([])

    def test_inconsistent_widths_rejected(self):
        with pytest.raises(ShapeError):
            Partitioned([np.ones((2, 3)), np.ones((2, 4))])

    def test_invalid_chunk_rows(self, dense_matrix):
        with pytest.raises(ValueError):
            Partitioned.chunked(dense_matrix, 0)

    def test_iteration_yields_chunks(self, chunked):
        assert sum(c.shape[0] for c in chunked) == 23


class TestAggregations:
    def test_rowsums(self, chunked, dense_matrix):
        assert np.allclose(chunked.rowsums().ravel(), dense_matrix.sum(axis=1))

    def test_colsums(self, chunked, dense_matrix):
        assert np.allclose(chunked.colsums().ravel(), dense_matrix.sum(axis=0))

    def test_total_sum(self, chunked, dense_matrix):
        assert np.isclose(chunked.total_sum(), dense_matrix.sum())


class TestProducts:
    def test_matmul_matches_dense(self, chunked, dense_matrix):
        x = np.random.default_rng(1).standard_normal((5, 3))
        assert np.allclose((chunked @ x).to_dense(), dense_matrix @ x)

    def test_matmul_result_stays_chunked(self, chunked):
        out = chunked @ np.ones((5, 2))
        assert isinstance(out, Partitioned)

    def test_matmul_shape_mismatch(self, chunked):
        with pytest.raises(ShapeError):
            chunked.matmul(np.ones((4, 2)))

    def test_rmatmul_matches_dense(self, chunked, dense_matrix):
        x = np.random.default_rng(2).standard_normal((3, 23))
        assert np.allclose(x @ chunked, x @ dense_matrix)

    def test_rmatmul_shape_mismatch(self, chunked):
        with pytest.raises(ShapeError):
            chunked.rmatmul(np.ones((2, 10)))

    def test_crossprod(self, chunked, dense_matrix):
        assert np.allclose(chunked.crossprod(), dense_matrix.T @ dense_matrix)

    def test_transpose_matmul(self, chunked, dense_matrix):
        other = np.random.default_rng(3).standard_normal((23, 4))
        assert np.allclose(chunked.transpose_matmul(other), dense_matrix.T @ other)

    def test_transpose_matmul_shape_mismatch(self, chunked):
        with pytest.raises(ShapeError):
            chunked.transpose_matmul(np.ones((10, 2)))


class TestElementwise:
    def test_scalar_multiplication(self, chunked, dense_matrix):
        assert np.allclose((chunked * 2.5).to_dense(), dense_matrix * 2.5)

    def test_right_scalar_multiplication(self, chunked, dense_matrix):
        assert np.allclose((3 * chunked).to_dense(), 3 * dense_matrix)

    def test_scalar_addition(self, chunked, dense_matrix):
        assert np.allclose((chunked + 1.0).to_dense(), dense_matrix + 1.0)

    def test_scalar_subtraction(self, chunked, dense_matrix):
        assert np.allclose((chunked - 1.0).to_dense(), dense_matrix - 1.0)

    def test_reverse_subtraction(self, chunked, dense_matrix):
        assert np.allclose((1.0 - chunked).to_dense(), 1.0 - dense_matrix)

    def test_division(self, chunked, dense_matrix):
        assert np.allclose((chunked / 4.0).to_dense(), dense_matrix / 4.0)

    def test_power(self, chunked, dense_matrix):
        assert np.allclose((chunked ** 2).to_dense(), dense_matrix ** 2)

    def test_elementwise_function(self, chunked, dense_matrix):
        assert np.allclose(chunked.apply(np.exp).to_dense(), np.exp(dense_matrix))


class TestRowApply:
    def test_row_apply_visits_every_chunk(self, chunked):
        sizes = row_apply(chunked, lambda c: c.shape[0])
        assert sizes == [6, 6, 6, 5]

    def test_row_apply_results_concatenate(self, chunked, dense_matrix):
        pieces = row_apply(chunked, lambda c: np.asarray(c).sum(axis=1, keepdims=True))
        assert np.allclose(np.vstack(pieces).ravel(), dense_matrix.sum(axis=1))
