"""Tests for the column-oriented table in :mod:`repro.relational.table`."""

import numpy as np
import pytest

from repro.exceptions import SchemaError
from repro.relational.schema import Column, ColumnType, TableSchema
from repro.relational.table import Table


@pytest.fixture
def customers() -> Table:
    return Table("customers", {
        "customer_id": np.arange(5),
        "age": np.array([25.0, 40.0, 31.0, 58.0, 47.0]),
        "income": np.array([30.0, 80.0, 55.0, 120.0, 95.0]),
        "country": np.array(["us", "uk", "us", "de", "uk"]),
        "employer_id": np.array([0, 1, 1, 2, 0]),
    })


class TestConstruction:
    def test_row_and_column_counts(self, customers):
        assert customers.num_rows == 5
        assert customers.num_columns == 5
        assert len(customers) == 5

    def test_column_names_preserved(self, customers):
        assert customers.column_names[0] == "customer_id"

    def test_inferred_schema_types(self, customers):
        assert customers.schema.column("age").ctype is ColumnType.NUMERIC
        assert customers.schema.column("country").ctype is ColumnType.CATEGORICAL

    def test_explicit_schema_respected(self):
        schema = TableSchema("t", [Column("a", ColumnType.NUMERIC)])
        table = Table("t", {"a": np.array([1.0, 2.0])}, schema=schema)
        assert table.schema is schema

    def test_schema_missing_column_rejected(self):
        schema = TableSchema("t", [Column("a"), Column("b")])
        with pytest.raises(SchemaError):
            Table("t", {"a": np.array([1.0])}, schema=schema)

    def test_unequal_column_lengths_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", {"a": np.array([1, 2]), "b": np.array([1])})

    def test_empty_column_set_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", {})

    def test_two_dimensional_column_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", {"a": np.ones((2, 2))})

    def test_from_records(self):
        table = Table.from_records("t", [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        assert table.num_rows == 2
        assert list(table.column("b")) == ["x", "y"]

    def test_from_records_empty_rejected(self):
        with pytest.raises(SchemaError):
            Table.from_records("t", [])


class TestAccess:
    def test_column_access(self, customers):
        assert customers.column("age")[1] == 40.0

    def test_missing_column(self, customers):
        with pytest.raises(SchemaError):
            customers.column("salary")

    def test_contains(self, customers):
        assert "age" in customers
        assert "salary" not in customers

    def test_row_as_dict(self, customers):
        row = customers.row(2)
        assert row["age"] == 31.0
        assert row["country"] == "us"

    def test_row_out_of_range(self, customers):
        with pytest.raises(IndexError):
            customers.row(5)


class TestRelationalOperations:
    def test_project(self, customers):
        projected = customers.project(["age", "income"])
        assert projected.column_names == ["age", "income"]
        assert projected.num_rows == 5

    def test_project_missing_column(self, customers):
        with pytest.raises(SchemaError):
            customers.project(["age", "salary"])

    def test_select_rows(self, customers):
        subset = customers.select_rows([0, 3])
        assert subset.num_rows == 2
        assert subset.column("age")[1] == 58.0

    def test_with_column_adds(self, customers):
        extended = customers.with_column("bonus", np.zeros(5))
        assert "bonus" in extended
        assert "bonus" not in customers

    def test_with_column_replaces(self, customers):
        replaced = customers.with_column("age", np.zeros(5))
        assert replaced.column("age").sum() == 0.0


class TestKeyUtilities:
    def test_key_position_index(self, customers):
        index = customers.key_position_index("customer_id")
        assert index[3] == 3

    def test_key_position_index_duplicates(self):
        table = Table("t", {"k": np.array([1, 1])})
        with pytest.raises(SchemaError):
            table.key_position_index("k")

    def test_positions_for_keys_batch_lookup(self):
        table = Table("products", {
            "sku": np.array(["p9", "p2", "p5"]),
            "price": np.array([9.0, 2.0, 5.0]),
        })
        positions = table.positions_for_keys("sku", ["p5", "p9", "p5"])
        np.testing.assert_array_equal(positions, [2, 0, 2])
        assert positions.dtype == np.int64

    def test_positions_for_keys_unknown_key(self, customers):
        with pytest.raises(SchemaError, match="unknown key"):
            customers.positions_for_keys("customer_id", [0, 99])

    def test_positions_for_keys_caches_index(self, customers):
        customers.positions_for_keys("customer_id", [1])
        index = customers._key_indexes["customer_id"]
        customers.positions_for_keys("customer_id", [2])
        assert customers._key_indexes["customer_id"] is index

    def test_positions_for_keys_duplicate_key_column(self):
        table = Table("t", {"k": np.array([1, 1])})
        with pytest.raises(SchemaError):
            table.positions_for_keys("k", [1])


class TestMatrixConversion:
    def test_numeric_matrix_default_columns(self, customers):
        matrix = customers.numeric_matrix(["age", "income"])
        assert matrix.shape == (5, 2)
        assert matrix.dtype == np.float64

    def test_numeric_matrix_infers_numeric_schema_columns(self, customers):
        matrix = customers.numeric_matrix()
        # customer_id, age, income, employer_id are numeric by dtype inference.
        assert matrix.shape[1] == 4

    def test_numeric_matrix_rejects_categorical(self, customers):
        with pytest.raises(SchemaError):
            customers.numeric_matrix(["country"])

    def test_numeric_matrix_empty_selection(self):
        table = Table("t", {"c": np.array(["a", "b"])})
        assert table.numeric_matrix().shape == (2, 0)


class TestSchemaPreservation:
    """Derived tables must keep declared column types and key metadata."""

    @pytest.fixture
    def declared(self) -> Table:
        schema = TableSchema(
            "sales",
            [
                Column("sale_id", ColumnType.KEY),
                Column("store_id", ColumnType.KEY),
                Column("channel", ColumnType.CATEGORICAL),  # numeric codes!
                Column("amount", ColumnType.NUMERIC),
            ],
            primary_key="sale_id",
        )
        return Table("sales", {
            "sale_id": np.arange(4),
            "store_id": np.array([0, 1, 1, 0]),
            "channel": np.array([0, 1, 2, 1]),  # integer-coded categories
            "amount": np.array([9.0, 2.0, 5.0, 7.0]),
        }, schema=schema)

    def test_with_column_keeps_declared_types(self, declared):
        extended = declared.with_column("amount", np.zeros(4))
        # The regression: replacing a column used to re-infer the whole
        # schema, silently flipping integer-coded categoricals to NUMERIC.
        assert extended.schema.column("channel").ctype is ColumnType.CATEGORICAL
        assert extended.schema.column("store_id").ctype is ColumnType.KEY
        assert extended.schema.primary_key == "sale_id"

    def test_with_column_new_column_appended_as_inferred(self, declared):
        extended = declared.with_column("note", np.array(["a", "b", "c", "d"]))
        assert extended.schema.column("note").ctype is ColumnType.CATEGORICAL
        assert extended.schema.column("channel").ctype is ColumnType.CATEGORICAL
        assert extended.schema.primary_key == "sale_id"

    def test_project_keeps_types_and_keys(self, declared):
        projected = declared.project(["sale_id", "channel", "store_id"])
        assert projected.schema.column("channel").ctype is ColumnType.CATEGORICAL
        assert projected.schema.primary_key == "sale_id"

    def test_project_drops_keys_not_projected(self, declared):
        projected = declared.project(["channel", "amount"])
        assert projected.schema.primary_key is None


class TestVectorizedKeyLookup:
    def test_searchsorted_path_matches_dict_path(self):
        rng = np.random.default_rng(7)
        keys = rng.permutation(1000)
        table = Table("t", {"k": keys})
        queries = rng.choice(keys, size=500)
        fast = table.positions_for_keys("k", queries)
        slow = np.array([table.key_position_index("k")[q] for q in queries])
        np.testing.assert_array_equal(fast, slow)

    def test_float_queries_against_int_keys(self):
        table = Table("t", {"k": np.array([10, 20, 30])})
        positions = table.positions_for_keys("k", np.array([30.0, 10.0]))
        np.testing.assert_array_equal(positions, [2, 0])

    def test_unknown_key_error_names_value_and_carries_key(self):
        table = Table("t", {"k": np.array([10, 20, 30])})
        with pytest.raises(SchemaError, match="unknown key 99") as excinfo:
            table.positions_for_keys("k", [10, 99])
        assert excinfo.value.key == 99

    def test_object_dtype_unknown_key_carries_key(self):
        table = Table("t", {"k": np.array(["a", "b"])})
        with pytest.raises(SchemaError, match="unknown key 'z'") as excinfo:
            table.positions_for_keys("k", ["a", "z"])
        assert excinfo.value.key == "z"

    def test_nan_query_is_unknown_not_matched(self):
        # NaN compares unequal to everything; the searchsorted fast path must
        # report it as unknown instead of silently matching a neighbour.
        table = Table("t", {"k": np.array([1.0, 2.0, 3.0])})
        with pytest.raises(SchemaError, match="unknown key"):
            table.positions_for_keys("k", np.array([2.0, np.nan]))

    def test_empty_query_batch(self):
        table = Table("t", {"k": np.array([1, 2, 3])})
        positions = table.positions_for_keys("k", np.array([], dtype=np.int64))
        assert positions.shape == (0,)
        assert positions.dtype == np.int64
