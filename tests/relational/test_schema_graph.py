"""Tests for the declarative snowflake frontend: Mapping, Join, SchemaGraph."""

import numpy as np
import pytest

from repro.exceptions import SchemaError
from repro.relational import Join, Mapping, SchemaGraph, Table, to_mapping


# -- Mapping / to_mapping ------------------------------------------------------


def test_to_mapping_accepts_all_spellings():
    expected = Mapping("orders", "cust_id")
    assert to_mapping(expected) is expected
    assert to_mapping("orders.cust_id") == expected
    assert to_mapping(("orders", "cust_id")) == expected
    assert to_mapping(["orders", "cust_id"]) == expected
    assert to_mapping({"table": "orders", "column": "cust_id"}) == expected


def test_to_mapping_dotted_string_splits_on_first_dot_only():
    assert to_mapping("t.a.b") == Mapping("t", "a.b")


def test_to_mapping_errors():
    with pytest.raises(SchemaError, match="form 'table.column'"):
        to_mapping("no_dot_here")
    with pytest.raises(SchemaError, match="'table' and 'column' keys"):
        to_mapping({"table": "t"})
    with pytest.raises(SchemaError, match="cannot interpret"):
        to_mapping(42)
    with pytest.raises(SchemaError, match="both a table/alias and a column"):
        Mapping("", "c")


def test_mapping_str():
    assert str(Mapping("orders", "cust_id")) == "orders.cust_id"


# -- Join ----------------------------------------------------------------------


def test_join_coerces_mappings_and_defaults_alias():
    join = Join("orders.cust_id", "customers.id")
    assert join.master == Mapping("orders", "cust_id")
    assert join.detail == Mapping("customers", "id")
    assert join.alias == "customers"


def test_join_explicit_alias_shows_role_in_str():
    join = Join("orders.ship_to", "locations.id", alias="ship_loc")
    assert join.alias == "ship_loc"
    assert str(join) == "orders.ship_to -> locations.id as ship_loc"


# -- SchemaGraph construction / validation -------------------------------------


def _snowflake():
    """orders -> customers -> regions, plus locations under two roles."""
    return SchemaGraph("orders", [
        Join("customers.region_id", "regions.id"),  # declared out of order
        Join("orders.cust_id", "customers.id"),
        Join("orders.ship_to", "locations.id", alias="ship_loc"),
        Join("orders.bill_to", "locations.id", alias="bill_loc"),
    ])


def test_graph_requires_fact_and_joins():
    with pytest.raises(SchemaError, match="needs a fact table"):
        SchemaGraph("", [Join("f.a", "d.b")])
    with pytest.raises(SchemaError, match="at least one join"):
        SchemaGraph("orders", [])


def test_duplicate_alias_rejected():
    with pytest.raises(SchemaError, match="distinct alias per role"):
        SchemaGraph("orders", [
            Join("orders.ship_to", "locations.id"),
            Join("orders.bill_to", "locations.id"),
        ])


def test_alias_colliding_with_fact_rejected():
    with pytest.raises(SchemaError, match="collides with the fact table"):
        SchemaGraph("orders", [Join("orders.x", "orders.id", alias="orders")])


def test_unknown_master_rejected():
    with pytest.raises(SchemaError, match=r"\['ghost'\] are neither the fact"):
        SchemaGraph("orders", [Join("ghost.x", "customers.id")])


def test_cycle_rejected():
    with pytest.raises(SchemaError, match="join cycle"):
        SchemaGraph("orders", [
            Join("b.x", "ta.id", alias="a"),
            Join("a.y", "tb.id", alias="b"),
        ])


def test_join_tuples_are_coerced():
    graph = SchemaGraph("orders", [("orders.cust_id", "customers.id")])
    assert graph.aliases == ["customers"]


# -- resolution ----------------------------------------------------------------


def test_resolve_order_is_breadth_first():
    graph = _snowflake()
    # All fact-anchored joins resolve first, in declaration order; the
    # two-hop regions join resolves after its master alias exists.
    assert graph.aliases == ["customers", "ship_loc", "bill_loc", "regions"]


def test_table_for_maps_aliases_to_physical_tables():
    graph = _snowflake()
    assert graph.table_for("orders") == "orders"
    assert graph.table_for("ship_loc") == "locations"
    assert graph.table_for("bill_loc") == "locations"
    with pytest.raises(SchemaError, match="no alias 'ghost'"):
        graph.table_for("ghost")


# -- validate_tables -----------------------------------------------------------


def _tables():
    return {
        "orders": Table("orders", {
            "cust_id": np.array([1, 2, 1]),
            "ship_to": np.array([10, 11, 10]),
            "bill_to": np.array([11, 10, 11]),
        }),
        "customers": Table("customers", {
            "id": np.array([1, 2]), "region_id": np.array([5, 6]),
        }),
        "regions": Table("regions", {"id": np.array([5, 6])}),
        "locations": Table("locations", {"id": np.array([10, 11])}),
    }


def test_validate_tables_accepts_complete_set():
    _snowflake().validate_tables(_tables())


def test_validate_tables_missing_fact():
    tables = _tables()
    del tables["orders"]
    with pytest.raises(SchemaError, match="fact table 'orders' missing"):
        _snowflake().validate_tables(tables)


def test_validate_tables_missing_detail():
    tables = _tables()
    del tables["regions"]
    with pytest.raises(SchemaError, match="detail table 'regions' missing"):
        _snowflake().validate_tables(tables)


def test_validate_tables_missing_master_column():
    tables = _tables()
    tables["customers"] = Table("customers", {"id": np.array([1, 2])})
    with pytest.raises(SchemaError, match="has no column 'region_id'"):
        _snowflake().validate_tables(tables)


def test_validate_tables_missing_detail_column():
    tables = _tables()
    tables["locations"] = Table("locations", {"loc": np.array([10, 11])})
    with pytest.raises(SchemaError, match="has no column 'id'"):
        _snowflake().validate_tables(tables)
