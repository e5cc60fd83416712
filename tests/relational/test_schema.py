"""Tests for schema metadata in :mod:`repro.relational.schema`."""

import pytest

from repro.exceptions import SchemaError
from repro.relational.schema import (
    Column,
    ColumnType,
    TableSchema,
)


def customers_schema() -> TableSchema:
    return TableSchema(
        name="customers",
        columns=[
            Column("customer_id", ColumnType.KEY),
            Column("churn", ColumnType.TARGET),
            Column("age", ColumnType.NUMERIC),
            Column("income", ColumnType.NUMERIC),
            Column("employer_id", ColumnType.KEY),
        ],
        primary_key="customer_id",
    )


def employers_schema() -> TableSchema:
    return TableSchema(
        name="employers",
        columns=[
            Column("employer_id", ColumnType.KEY),
            Column("revenue", ColumnType.NUMERIC),
            Column("country", ColumnType.CATEGORICAL),
        ],
        primary_key="employer_id",
    )


class TestColumn:
    def test_default_type_is_numeric(self):
        assert Column("x").ctype is ColumnType.NUMERIC

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("")


class TestTableSchema:
    def test_column_names_order(self):
        schema = customers_schema()
        assert schema.column_names[:2] == ["customer_id", "churn"]

    def test_column_lookup(self):
        assert customers_schema().column("age").ctype is ColumnType.NUMERIC

    def test_column_lookup_missing(self):
        with pytest.raises(SchemaError):
            customers_schema().column("missing")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a"), Column("a")])

    def test_primary_key_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a")], primary_key="b")

    def test_empty_table_name_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("", [Column("a")])

    def test_feature_columns_excludes_keys_and_target(self):
        names = [c.name for c in customers_schema().feature_columns()]
        assert names == ["age", "income"]

    def test_target_column(self):
        assert customers_schema().target_column().name == "churn"

    def test_target_column_absent(self):
        assert employers_schema().target_column() is None

    def test_multiple_targets_rejected(self):
        schema = TableSchema("t", [Column("a", ColumnType.TARGET), Column("b", ColumnType.TARGET)])
        with pytest.raises(SchemaError):
            schema.target_column()
