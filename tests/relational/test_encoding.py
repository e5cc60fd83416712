"""Tests for feature encoding in :mod:`repro.relational.encoding`."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import SchemaError
from repro.relational.encoding import FeatureMatrix, OneHotEncoder, encode_features
from repro.relational.schema import Column, ColumnType, TableSchema
from repro.relational.table import Table


class TestOneHotEncoder:
    def test_fit_learns_sorted_categories(self):
        encoder = OneHotEncoder().fit(["b", "a", "b", "c"])
        assert encoder.categories_ == ["a", "b", "c"]

    def test_transform_shape_and_values(self):
        encoder = OneHotEncoder().fit(["a", "b"])
        out = encoder.transform(["b", "a", "b"])
        assert out.shape == (3, 2)
        assert np.allclose(out.toarray(), [[0, 1], [1, 0], [0, 1]])

    def test_transform_is_sparse(self):
        out = OneHotEncoder().fit_transform(["x", "y", "x"])
        assert sp.issparse(out)
        assert out.nnz == 3

    def test_transform_before_fit_raises(self):
        with pytest.raises(SchemaError):
            OneHotEncoder().transform(["a"])

    def test_unknown_category_error(self):
        encoder = OneHotEncoder().fit(["a"])
        with pytest.raises(SchemaError):
            encoder.transform(["b"])

    def test_unknown_category_ignore(self):
        encoder = OneHotEncoder(handle_unknown="ignore").fit(["a"])
        out = encoder.transform(["b", "a"])
        assert out.shape == (2, 1)
        assert out.nnz == 1

    def test_invalid_handle_unknown(self):
        with pytest.raises(ValueError):
            OneHotEncoder(handle_unknown="skip")

    def test_feature_names(self):
        encoder = OneHotEncoder().fit(["us", "uk"])
        assert encoder.feature_names("country") == ["country=uk", "country=us"]

    def test_feature_names_before_fit(self):
        with pytest.raises(SchemaError):
            OneHotEncoder().feature_names("c")

    def test_numeric_categories(self):
        encoder = OneHotEncoder().fit([3, 1, 2])
        out = encoder.transform([1, 3])
        assert out.shape == (2, 3)


class TestEncodeFeatures:
    @pytest.fixture
    def table(self) -> Table:
        schema = TableSchema("t", [
            Column("id", ColumnType.KEY),
            Column("age", ColumnType.NUMERIC),
            Column("country", ColumnType.CATEGORICAL),
        ], primary_key="id")
        return Table("t", {
            "id": np.arange(4),
            "age": np.array([20.0, 30.0, 40.0, 50.0]),
            "country": np.array(["us", "uk", "us", "de"]),
        }, schema=schema)

    def test_default_skips_key_columns(self, table):
        features = encode_features(table)
        assert features.num_features == 1 + 3  # age + 3 country categories

    def test_feature_names(self, table):
        features = encode_features(table)
        assert features.feature_names[0] == "age"
        assert "country=us" in features.feature_names

    def test_sparse_output(self, table):
        features = encode_features(table)
        assert sp.issparse(features.matrix)

    def test_dense_output(self, table):
        features = encode_features(table, sparse=False)
        assert isinstance(features.matrix, np.ndarray)
        assert features.shape == (4, 4)

    def test_numeric_values_preserved(self, table):
        features = encode_features(table, sparse=False)
        assert np.allclose(features.matrix[:, 0], table.column("age"))

    def test_onehot_rows_sum_to_one(self, table):
        features = encode_features(table, columns=["country"], sparse=False)
        assert np.allclose(features.matrix.sum(axis=1), 1.0)

    def test_explicit_column_selection(self, table):
        features = encode_features(table, columns=["age"])
        assert features.num_features == 1

    def test_no_feature_columns(self):
        table = Table("t", {"id": np.arange(3)},
                      schema=TableSchema("t", [Column("id", ColumnType.KEY)], primary_key="id"))
        features = encode_features(table)
        assert features.num_features == 0
        assert features.shape == (3, 0)

    def test_feature_matrix_dataclass(self):
        fm = FeatureMatrix(np.zeros((2, 3)), ["a", "b", "c"])
        assert fm.shape == (2, 3)
        assert fm.num_features == 3


class TestMissingValues:
    """NaN/None categoricals canonicalize to one shared missing category."""

    def test_nan_values_become_single_category(self):
        encoder = OneHotEncoder()
        encoder.fit([np.nan, "a", float("nan"), None, "b"])
        # Without canonicalization each NaN would be its own category
        # (NaN != NaN) and transform would fail on the fitted data itself.
        assert encoder.categories_ == ["<missing>", "a", "b"]

    def test_fit_transform_round_trips_on_nan_data(self):
        values = ["a", np.nan, "b", None, np.nan]
        encoded = OneHotEncoder().fit_transform(values)
        assert encoded.shape == (5, 3)
        np.testing.assert_array_equal(
            np.asarray(encoded.sum(axis=1)).ravel(), np.ones(5))
        # Both NaN and None land in the same column.
        missing_col = np.asarray(encoded[:, 0].todense()).ravel()
        np.testing.assert_array_equal(missing_col, [0, 1, 0, 1, 1])

    def test_feature_names_include_missing(self):
        encoder = OneHotEncoder()
        encoder.fit(["x", np.nan])
        assert encoder.feature_names("c") == ["c=<missing>", "c=x"]

    def test_missing_error_mode_raises(self):
        encoder = OneHotEncoder(missing="error")
        with pytest.raises(SchemaError, match="missing value .* at row 1"):
            encoder.fit(["a", np.nan])

    def test_missing_error_mode_at_transform(self):
        encoder = OneHotEncoder(missing="error")
        encoder.fit(["a", "b"])
        with pytest.raises(SchemaError, match="during transform"):
            encoder.transform(["a", None])

    def test_invalid_missing_mode(self):
        with pytest.raises(ValueError, match="missing must be"):
            OneHotEncoder(missing="drop")

    def test_encode_features_handles_nan_column(self):
        table = Table("t", {"city": np.array(["sf", np.nan, "la"], dtype=object)})
        encoded = encode_features(table, columns=["city"])
        assert encoded.feature_names == ["city=<missing>", "city=la", "city=sf"]
        np.testing.assert_array_equal(
            np.asarray(encoded.matrix.sum(axis=1)).ravel(), np.ones(3))


def hstack_reference(table: Table, columns) -> np.ndarray:
    """The dense encoding as per-column float64 blocks joined by ``np.hstack``."""
    blocks = []
    for name in columns:
        values = table.column(name)
        numeric = (np.issubdtype(values.dtype, np.number)
                   and table.schema.column(name).ctype is not ColumnType.CATEGORICAL)
        if numeric:
            blocks.append(values.astype(np.float64).reshape(-1, 1))
        else:
            blocks.append(np.asarray(OneHotEncoder().fit_transform(values).todense()))
    return np.hstack(blocks)


class TestDenseAssembly:
    """``encode_features(sparse=False)`` fills one matrix in row tiles."""

    def _table(self, rows: int) -> Table:
        rng = np.random.default_rng(rows)
        return Table("t", {
            "i": rng.integers(-5, 5, size=rows),
            "u": rng.integers(0, 9, size=rows).astype(np.uint16),
            "f": rng.standard_normal(rows),
            "flag": rng.random(rows) < 0.5,
            "city": rng.choice(np.array(["ams", "ber", "cph"]), size=rows),
            "code": rng.integers(0, 4, size=rows),
        }, schema=TableSchema("t", [
            Column("i", ColumnType.NUMERIC), Column("u", ColumnType.NUMERIC),
            Column("f", ColumnType.NUMERIC), Column("flag", ColumnType.CATEGORICAL),
            Column("city", ColumnType.CATEGORICAL), Column("code", ColumnType.CATEGORICAL),
        ]))

    @pytest.mark.parametrize("rows", [0, 1, 7, 100_000])
    @pytest.mark.parametrize("columns", [
        ["f"], ["i"], ["flag"], ["city"],
        ["i", "u", "f"], ["f", "city", "i", "flag", "code", "u"],
    ])
    def test_equals_hstack_reference(self, rows, columns):
        table = self._table(rows)
        if rows == 0 and set(columns) & {"flag", "city", "code"}:
            pytest.skip("np.hstack cannot join a (0, 0) one-hot block")
        dense = encode_features(table, columns=columns, sparse=False).matrix
        reference = hstack_reference(table, columns)
        assert dense.dtype == np.float64 and dense.flags.c_contiguous
        assert dense.shape == reference.shape
        assert np.array_equal(dense, reference)

    def test_dense_matches_sparse_values(self):
        table = self._table(500)
        columns = ["f", "city", "i", "code"]
        dense = encode_features(table, columns=columns, sparse=False)
        sparse = encode_features(table, columns=columns, sparse=True)
        assert dense.feature_names == sparse.feature_names
        assert np.array_equal(dense.matrix, sparse.matrix.toarray())

    def test_no_columns(self):
        dense = encode_features(self._table(5), columns=[], sparse=False).matrix
        assert dense.shape == (5, 0) and dense.dtype == np.float64

    @pytest.mark.parametrize("rows", [0, 3, 50_000])
    def test_numeric_matrix_equals_column_stack(self, rows):
        table = self._table(rows)
        names = ["i", "u", "f"]
        stacked = np.column_stack([table.column(n).astype(np.float64) for n in names])
        matrix = table.numeric_matrix(names)
        assert matrix.dtype == np.float64 and matrix.flags.c_contiguous
        assert np.array_equal(matrix, stacked)
