"""Tests for the backend abstraction in :mod:`repro.la.backend`."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import NotSupportedError
from repro.la.backend import ChunkedBackend, DenseBackend, SparseBackend, get_backend
from repro.core.partitioned import Partitioned


class TestDenseBackend:
    def test_from_dense_returns_float64(self):
        out = DenseBackend().from_dense(np.arange(6).reshape(2, 3))
        assert out.dtype == np.float64

    def test_from_sparse_densifies(self):
        out = DenseBackend().from_sparse(sp.eye(3, format="csr"))
        assert isinstance(out, np.ndarray)
        assert np.allclose(out, np.eye(3))

    def test_zeros(self):
        assert DenseBackend().zeros((2, 4)).shape == (2, 4)

    def test_describe_mentions_name(self):
        assert "dense" in DenseBackend().describe()


class TestSparseBackend:
    def test_from_dense_returns_csr(self):
        out = SparseBackend().from_dense(np.eye(3))
        assert sp.issparse(out)
        assert out.format == "csr"

    def test_from_sparse_converts_format(self):
        out = SparseBackend().from_sparse(sp.eye(3, format="coo"))
        assert out.format == "csr"

    def test_roundtrip_values(self):
        x = np.array([[0.0, 1.5], [2.0, 0.0]])
        assert np.allclose(SparseBackend().from_dense(x).toarray(), x)


class TestChunkedBackend:
    def test_from_dense_returns_chunked(self):
        backend = ChunkedBackend(chunk_rows=4)
        out = backend.from_dense(np.ones((10, 2)))
        assert isinstance(out, Partitioned)
        assert out.num_chunks == 3

    def test_from_sparse_returns_chunked(self):
        backend = ChunkedBackend(chunk_rows=5)
        out = backend.from_sparse(sp.eye(12, format="csr"))
        assert isinstance(out, Partitioned)
        assert out.shape == (12, 12)

    def test_invalid_chunk_rows(self):
        with pytest.raises(ValueError):
            ChunkedBackend(chunk_rows=0)

    def test_describe_mentions_chunk_rows(self):
        assert "chunk_rows=7" in ChunkedBackend(chunk_rows=7).describe()


class TestRegistry:
    @pytest.mark.parametrize("name,cls", [
        ("dense", DenseBackend), ("sparse", SparseBackend), ("chunked", ChunkedBackend),
    ])
    def test_get_backend_by_name(self, name, cls):
        assert isinstance(get_backend(name), cls)

    def test_get_backend_case_insensitive(self):
        assert isinstance(get_backend("DENSE"), DenseBackend)

    def test_get_backend_chunk_rows_passthrough(self):
        backend = get_backend("chunked", chunk_rows=128)
        assert backend.chunk_rows == 128
        assert get_backend("sharded", n_shards=3).n_shards == 3
        # An explicit zero is passed through (and rejected), not replaced
        # by the default.
        with pytest.raises(ValueError):
            get_backend("chunked", chunk_rows=0)
        with pytest.raises(ValueError):
            get_backend("sharded", n_shards=0)

    def test_get_backend_unknown(self):
        with pytest.raises(NotSupportedError):
            get_backend("gpu")
