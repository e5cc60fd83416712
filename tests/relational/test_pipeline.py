"""Tests for the table-to-normalized-matrix builders in :mod:`repro.relational.pipeline`."""

import numpy as np
import pytest

from repro.core.normalized_matrix import NormalizedMatrix
from repro.exceptions import SchemaError
from repro.la.indicator import Indicator
from repro.relational.join import pk_fk_indicator
from repro.relational.pipeline import (
    NormalizedDataset,
    mn_normalized_from_tables,
    normalized_from_schema,
)
from repro.relational.schema import Join, SchemaGraph
from repro.relational.table import Table


@pytest.fixture
def star_tables():
    rng = np.random.default_rng(41)
    num_orders, num_products, num_stores = 120, 12, 6
    orders = Table("orders", {
        "order_id": np.arange(num_orders),
        "quantity": rng.integers(1, 9, size=num_orders).astype(float),
        "total": rng.uniform(5, 500, size=num_orders),
        "product_id": np.concatenate([np.arange(num_products),
                                      rng.integers(0, num_products, size=num_orders - num_products)]),
        "store_id": np.concatenate([np.arange(num_stores),
                                    rng.integers(0, num_stores, size=num_orders - num_stores)]),
    })
    products = Table("products", {
        "product_id": np.arange(num_products),
        "price": rng.uniform(1, 50, size=num_products),
        "category": rng.choice(np.array(["food", "toys", "tools"]), size=num_products),
    })
    stores = Table("stores", {
        "store_id": np.arange(num_stores),
        "size": rng.uniform(100, 900, size=num_stores),
    })
    return orders, products, stores


def star_graph(*joins):
    """A star schema as a one-level graph over ``orders``."""
    return SchemaGraph("orders", [Join(f"orders.{fk}", f"{table}.{fk}") for fk, table in joins])


class TestNormalizedFromTables:
    """The star schema of :func:`star_tables`, declared as a one-level graph."""

    def _build(self, star_tables, **kwargs):
        orders, products, stores = star_tables
        graph = star_graph(("product_id", "products"), ("store_id", "stores"))
        tables = {"orders": orders, "products": products, "stores": stores}
        return normalized_from_schema(graph, tables, entity_features=["quantity"],
                                      target_column="total",
                                      features={"products": ["price", "category"],
                                                "stores": ["size"]}, **kwargs)

    def test_returns_factorized_dataset(self, star_tables):
        dataset = self._build(star_tables)
        assert isinstance(dataset, NormalizedDataset)
        assert isinstance(dataset.matrix, NormalizedMatrix)
        assert dataset.is_factorized

    def test_shape_and_feature_names(self, star_tables):
        dataset = self._build(star_tables)
        # quantity + price + 3 categories + size
        assert dataset.shape == (120, 6)
        assert dataset.feature_names[0] == "quantity"
        assert any(name.startswith("products.category=") for name in dataset.feature_names)
        assert "stores.size" in dataset.feature_names

    def test_feature_name_count_matches_width(self, star_tables):
        dataset = self._build(star_tables)
        assert len(dataset.feature_names) == dataset.shape[1]

    def test_target_extracted(self, star_tables):
        orders, _, _ = star_tables
        dataset = self._build(star_tables)
        assert dataset.target.shape == (120, 1)
        assert np.allclose(dataset.target.ravel(), orders.column("total"))

    def test_materialization_matches_manual_join(self, star_tables):
        dataset = self._build(star_tables, sparse=False)
        orders, products, stores = star_tables
        dense = dataset.matrix.to_dense()
        product_rows = orders.column("product_id")
        assert np.allclose(dense[:, 1], products.column("price")[product_rows])

    def test_dense_encoding_option(self, star_tables):
        dataset = self._build(star_tables, sparse=False)
        assert isinstance(dataset.matrix.entity, np.ndarray)

    def test_no_entity_features(self, star_tables):
        orders, products, stores = star_tables
        dataset = normalized_from_schema(
            star_graph(("product_id", "products")), {"orders": orders, "products": products},
            entity_features=(), features={"products": ["price"]})
        assert dataset.matrix.entity_width == 0
        assert dataset.target is None

    def test_requires_edges(self, star_tables):
        with pytest.raises(SchemaError):
            star_graph()


class TestMNNormalizedFromTables:
    def test_builds_mn_matrix(self):
        left = Table("papers", {
            "topic": np.array([1, 2, 2, 3]),
            "citations": np.array([10.0, 5.0, 7.0, 1.0]),
        })
        right = Table("venues", {
            "topic": np.array([2, 3, 3, 1]),
            "rank": np.array([1.0, 2.0, 3.0, 4.0]),
        })
        dataset = mn_normalized_from_tables(left, "topic", right, "topic",
                                            left_features=["citations"],
                                            right_features=["rank"])
        assert isinstance(dataset.matrix, NormalizedMatrix)
        assert dataset.matrix.entity is None
        assert dataset.shape[1] == 2
        assert dataset.feature_names == ["papers.citations", "venues.rank"]
        # topic 1 matches 1, topic 2 matches 1 each (x2 left rows), topic 3 matches 2.
        assert dataset.shape[0] == 1 + 1 + 1 + 2

    def test_matches_materialized_values(self):
        left = Table("l", {"j": np.array([1, 1, 2]), "x": np.array([1.0, 2.0, 3.0])})
        right = Table("r", {"j": np.array([1, 2]), "y": np.array([10.0, 20.0])})
        dataset = mn_normalized_from_tables(left, "j", right, "j",
                                            left_features=["x"], right_features=["y"],
                                            sparse=False)
        dense = dataset.matrix.to_dense()
        assert np.allclose(dense, [[1.0, 10.0], [2.0, 10.0], [3.0, 20.0]])


class TestTargetValidation:
    def test_non_numeric_target_raises_named_error(self):
        entity = Table("orders", {
            "store_id": np.array([0, 1]),
            "status": np.array(["paid", "open"]),
        })
        stores = Table("stores", {"store_id": np.array([0, 1]),
                                  "size": np.array([1.0, 2.0])})
        with pytest.raises(
                SchemaError,
                match=r"target column 'status' of table 'orders' has "
                      r"non-numeric dtype"):
            normalized_from_schema(
                star_graph(("store_id", "stores")),
                {"orders": entity, "stores": stores}, target_column="status")

    def test_boolean_target_accepted_as_01(self):
        entity = Table("orders", {
            "store_id": np.array([0, 1, 0]),
            "churned": np.array([True, False, True]),
        })
        stores = Table("stores", {"store_id": np.array([0, 1]),
                                  "size": np.array([1.0, 2.0])})
        dataset = normalized_from_schema(
            star_graph(("store_id", "stores")),
            {"orders": entity, "stores": stores}, target_column="churned")
        np.testing.assert_array_equal(dataset.target.ravel(), [1.0, 0.0, 1.0])
        assert dataset.target.dtype == np.float64
        assert dataset.target.shape == (3, 1)


class TestNormalizedFromSchema:
    @pytest.fixture
    def snowflake(self):
        """orders -> customers -> regions, plus locations under two roles."""
        rng = np.random.default_rng(11)
        n, n_cust, n_reg, n_loc = 40, 8, 3, 5
        orders = Table("orders", {
            "cust_id": np.concatenate([np.arange(n_cust),
                                       rng.integers(0, n_cust, size=n - n_cust)]),
            "ship_to": np.concatenate([np.arange(n_loc),
                                       rng.integers(0, n_loc, size=n - n_loc)]),
            "bill_to": np.concatenate([np.arange(n_loc),
                                       rng.integers(0, n_loc, size=n - n_loc)]),
            "quantity": rng.uniform(1, 9, size=n),
            "total": rng.uniform(5, 500, size=n),
        })
        customers = Table("customers", {
            "id": np.arange(n_cust),
            "region_id": np.concatenate([np.arange(n_reg),
                                         rng.integers(0, n_reg, size=n_cust - n_reg)]),
            "age": rng.uniform(18, 80, size=n_cust),
        })
        regions = Table("regions", {
            "id": np.arange(n_reg), "gdp": rng.uniform(1, 10, size=n_reg),
        })
        locations = Table("locations", {
            "id": np.arange(n_loc), "tax": rng.uniform(0, 0.3, size=n_loc),
        })
        graph = SchemaGraph("orders", [
            Join("orders.cust_id", "customers.id"),
            Join("customers.region_id", "regions.id"),
            Join("orders.ship_to", "locations.id", alias="ship_loc"),
            Join("orders.bill_to", "locations.id", alias="bill_loc"),
        ])
        tables = {"orders": orders, "customers": customers,
                  "regions": regions, "locations": locations}
        return graph, tables

    def _dense_reference(self, tables):
        """Materialized snowflake join in breadth-first alias order."""
        orders = tables["orders"]
        customers, regions = tables["customers"], tables["regions"]
        locations = tables["locations"]
        cust = orders.column("cust_id")
        region_of_cust = customers.column("region_id")[cust]
        return np.column_stack([
            orders.column("quantity"),
            customers.column("age")[cust],
            locations.column("tax")[orders.column("ship_to")],
            locations.column("tax")[orders.column("bill_to")],
            regions.column("gdp")[region_of_cust],
        ])

    def test_matches_materialized_reference(self, snowflake):
        graph, tables = snowflake
        dataset = normalized_from_schema(graph, tables, target_column="total")
        assert isinstance(dataset.matrix, NormalizedMatrix)
        dense = np.asarray(dataset.matrix.to_dense())
        np.testing.assert_allclose(dense, self._dense_reference(tables), atol=1e-12)

    def test_feature_names_use_aliases_in_resolve_order(self, snowflake):
        graph, tables = snowflake
        dataset = normalized_from_schema(graph, tables, target_column="total")
        assert dataset.feature_names == [
            "quantity", "customers.age", "ship_loc.tax", "bill_loc.tax",
            "regions.gdp",
        ]

    def test_keys_and_target_excluded_from_features(self, snowflake):
        graph, tables = snowflake
        dataset = normalized_from_schema(graph, tables, target_column="total")
        assert "cust_id" not in dataset.feature_names
        assert "total" not in dataset.feature_names
        np.testing.assert_array_equal(
            dataset.target.ravel(), tables["orders"].column("total"))

    def test_two_hop_alias_stays_factorized_by_default(self, snowflake):
        """The two-hop alias is one indicator over the fact rows: the hop
        codes composed, never the joined attribute rows."""
        graph, tables = snowflake
        dataset = normalized_from_schema(graph, tables)
        # The regions role's hops, masters first: orders -> customers -> regions.
        hops = [pk_fk_indicator(tables[graph.table_for(j.master.table)], j.master.column,
                                tables[j.detail.table], j.detail.column)
                for j in graph.resolve_order() if j.alias in ("customers", "regions")]
        assert len(hops) == 2
        regions = dataset.matrix.indicators[graph.aliases.index("regions")]
        assert isinstance(regions, Indicator)
        np.testing.assert_array_equal(regions.codes, hops[1].codes[hops[0].codes])

    def test_collapse_results_identical(self, snowflake):
        graph, tables = snowflake
        kept = normalized_from_schema(graph, tables, collapse="never")
        collapsed = normalized_from_schema(graph, tables, collapse="always")
        np.testing.assert_allclose(np.asarray(kept.matrix.to_dense()),
                                   np.asarray(collapsed.matrix.to_dense()),
                                   atol=1e-12)

    def test_per_alias_feature_override(self, snowflake):
        graph, tables = snowflake
        dataset = normalized_from_schema(
            graph, tables, entity_features=(), target_column="total",
            features={"ship_loc": [], "bill_loc": [], "regions": []})
        assert dataset.feature_names == ["customers.age"]

    def test_shared_dimension_builds_one_hop_per_role(self, snowflake):
        graph, tables = snowflake
        dataset = normalized_from_schema(graph, tables)
        # ship_loc and bill_loc both map into locations: two indicators with
        # the same column count but different row labels.
        ship, bill = dataset.matrix.indicators[1], dataset.matrix.indicators[2]
        assert ship.shape == bill.shape == (40, 5)
        assert (ship.tocsr() != bill.tocsr()).nnz > 0

    def test_missing_table_rejected(self, snowflake):
        graph, tables = snowflake
        del tables["regions"]
        with pytest.raises(SchemaError, match="'regions' missing"):
            normalized_from_schema(graph, tables)
