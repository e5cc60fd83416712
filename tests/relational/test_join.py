"""Tests for join execution and indicator construction in :mod:`repro.relational.join`."""

import numpy as np
import pytest

from repro.exceptions import SchemaError
from repro.la.indicator import Indicator
from repro.relational.join import (
    drop_unreferenced,
    join_mn,
    join_pk_fk,
    mn_drop_noncontributing,
    mn_join_indicators,
    pk_fk_indicator,
)
from repro.relational.pipeline import normalized_from_schema
from repro.relational.schema import Column, ColumnType, Join, SchemaGraph, TableSchema
from repro.relational.table import Table


@pytest.fixture
def entity() -> Table:
    return Table("sales", {
        "sale_id": np.arange(6),
        "amount": np.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0]),
        "store_id": np.array([101, 102, 102, 103, 101, 103]),
        "item_id": np.array([7, 8, 7, 7, 8, 8]),
    })


@pytest.fixture
def stores() -> Table:
    return Table("stores", {
        "store_id": np.array([101, 102, 103]),
        "size": np.array([1.0, 2.0, 3.0]),
    })


@pytest.fixture
def items() -> Table:
    return Table("items", {
        "item_id": np.array([7, 8]),
        "price": np.array([5.0, 9.0]),
    })


class TestPkFkIndicator:
    def test_shape(self, entity, stores):
        indicator = pk_fk_indicator(entity, "store_id", stores, "store_id")
        assert indicator.shape == (6, 3)

    def test_one_nonzero_per_row(self, entity, stores):
        indicator = pk_fk_indicator(entity, "store_id", stores, "store_id")
        assert np.all(np.asarray(indicator.sum(axis=1)).ravel() == 1)

    def test_labels_point_to_correct_rows(self, entity, stores):
        indicator = pk_fk_indicator(entity, "store_id", stores, "store_id")
        assert list(indicator.codes) == [0, 1, 1, 2, 0, 2]

    def test_expansion_matches_join(self, entity, stores):
        indicator = pk_fk_indicator(entity, "store_id", stores, "store_id")
        sizes = stores.column("size").reshape(-1, 1)
        expanded = np.asarray((indicator @ sizes)).ravel()
        assert list(expanded) == [1.0, 2.0, 2.0, 3.0, 1.0, 3.0]

    def test_dangling_foreign_key_rejected(self, stores):
        bad = Table("sales", {"store_id": np.array([101, 999])})
        with pytest.raises(SchemaError):
            pk_fk_indicator(bad, "store_id", stores, "store_id")

    def test_duplicate_primary_key_rejected(self, entity):
        bad = Table("stores", {"store_id": np.array([101, 101]), "size": np.array([1.0, 2.0])})
        with pytest.raises(SchemaError):
            pk_fk_indicator(entity, "store_id", bad, "store_id")


class TestDropUnreferenced:
    def test_drops_unreferenced_rows(self, entity):
        stores_extra = Table("stores", {
            "store_id": np.array([101, 102, 103, 104]),
            "size": np.array([1.0, 2.0, 3.0, 4.0]),
        })
        trimmed = drop_unreferenced(entity, "store_id", stores_extra, "store_id")
        assert trimmed.num_rows == 3
        assert 104 not in set(trimmed.column("store_id").tolist())

    def test_no_op_when_all_referenced(self, entity, stores):
        assert drop_unreferenced(entity, "store_id", stores, "store_id") is stores


class TestMaterializedPkFkJoin:
    def test_join_pk_fk_values(self, entity, stores):
        joined = join_pk_fk(entity, "store_id", stores, "store_id")
        assert list(joined.column("size")) == [1.0, 2.0, 2.0, 3.0, 1.0, 3.0]

    def test_join_keeps_entity_columns(self, entity, stores):
        joined = join_pk_fk(entity, "store_id", stores, "store_id")
        assert "amount" in joined and "store_id" in joined

    def test_join_column_name_clash_prefixed(self, entity):
        clash = Table("stores", {
            "store_id": np.array([101, 102, 103]),
            "amount": np.array([7.0, 8.0, 9.0]),
        })
        joined = join_pk_fk(entity, "store_id", clash, "store_id")
        assert "stores.amount" in joined

    def test_join_star_two_tables(self, entity, stores, items):
        joined = join_pk_fk(join_pk_fk(entity, "store_id", stores, "store_id"),
                            "item_id", items, "item_id")
        assert joined.num_rows == 6
        assert list(joined.column("price")) == [5.0, 9.0, 5.0, 5.0, 9.0, 9.0]

    def test_star_indicators_counts(self, entity, stores, items):
        graph = SchemaGraph("sales", [Join("sales.store_id", "stores.store_id"),
                                      Join("sales.item_id", "items.item_id")])
        indicators = normalized_from_schema(
            graph, {"sales": entity, "stores": stores, "items": items}).matrix.indicators
        assert len(indicators) == 2
        assert indicators[0].shape == (6, 3)
        assert indicators[1].shape == (6, 2)


class TestMNJoin:
    def test_indicator_shapes(self):
        left = Table("l", {"j": np.array([1, 2, 2]), "x": np.array([1.0, 2.0, 3.0])})
        right = Table("r", {"j": np.array([2, 2, 1]), "y": np.array([10.0, 20.0, 30.0])})
        i_l, i_r = mn_join_indicators(left, "j", right, "j")
        # left row 0 matches one right row; rows 1 and 2 match two right rows each.
        assert i_l.shape == (5, 3)
        assert i_r.shape == (5, 3)

    def test_indicator_nnz_equals_join_size(self):
        left = Table("l", {"j": np.array([1, 2, 2])})
        right = Table("r", {"j": np.array([2, 2, 1])})
        i_l, i_r = mn_join_indicators(left, "j", right, "j")
        assert i_l.nnz == i_r.nnz == 5

    def test_materialized_mn_join_matches_indicators(self):
        left = Table("l", {"j": np.array([1, 2, 2]), "x": np.array([1.0, 2.0, 3.0])})
        right = Table("r", {"j": np.array([2, 2, 1]), "y": np.array([10.0, 20.0, 30.0])})
        i_l, i_r = mn_join_indicators(left, "j", right, "j")
        joined = join_mn(left, "j", right, "j")
        x = left.column("x").reshape(-1, 1)
        y = right.column("y").reshape(-1, 1)
        assert np.allclose(joined.column("x"), np.asarray(i_l @ x).ravel())
        assert np.allclose(joined.column("y"), np.asarray(i_r @ y).ravel())

    def test_empty_join_rejected(self):
        left = Table("l", {"j": np.array([1])})
        right = Table("r", {"j": np.array([2])})
        with pytest.raises(SchemaError):
            mn_join_indicators(left, "j", right, "j")

    def test_cartesian_product_when_single_value(self):
        left = Table("l", {"j": np.array([5, 5, 5])})
        right = Table("r", {"j": np.array([5, 5])})
        i_l, i_r = mn_join_indicators(left, "j", right, "j")
        assert i_l.shape[0] == 6

    def test_drop_noncontributing(self):
        left = Table("l", {"j": np.array([1, 2, 3]), "x": np.arange(3.0)})
        right = Table("r", {"j": np.array([2, 4]), "y": np.arange(2.0)})
        new_left, new_right = mn_drop_noncontributing(left, "j", right, "j")
        assert new_left.num_rows == 1
        assert new_right.num_rows == 1

    def test_drop_noncontributing_empty_overlap(self):
        left = Table("l", {"j": np.array([1])})
        right = Table("r", {"j": np.array([2])})
        with pytest.raises(SchemaError):
            mn_drop_noncontributing(left, "j", right, "j")


class TestJoinKeyGuards:
    def test_dangling_fk_error_names_value(self, stores):
        bad = Table("sales", {"store_id": np.array([101, 999])})
        with pytest.raises(
                SchemaError,
                match=r"foreign key value 999 in sales.store_id has no match "
                      r"in stores.store_id"):
            pk_fk_indicator(bad, "store_id", stores, "store_id")

    def test_nan_foreign_key_rejected(self, stores):
        bad = Table("sales", {"store_id": np.array([101.0, np.nan])})
        with pytest.raises(
                SchemaError,
                match=r"foreign key column sales.store_id contains NaN at row 1"):
            pk_fk_indicator(bad, "store_id", stores, "store_id")

    def test_nan_primary_key_rejected(self, entity):
        bad = Table("stores", {"store_id": np.array([101.0, np.nan, 103.0]),
                               "size": np.array([1.0, 2.0, 3.0])})
        with pytest.raises(
                SchemaError,
                match=r"primary key column stores.store_id contains NaN at row 1"):
            pk_fk_indicator(entity, "store_id", bad, "store_id")

    def test_nan_mn_join_key_rejected(self):
        clean = Table("l", {"k": np.array([1.0, 2.0]), "x": np.array([1.0, 2.0])})
        dirty = Table("r", {"k": np.array([1.0, np.nan]), "y": np.array([3.0, 4.0])})
        with pytest.raises(SchemaError, match=r"join key column r.k contains NaN"):
            mn_join_indicators(clean, "k", dirty, "k")
        with pytest.raises(SchemaError, match=r"join key column r.k contains NaN"):
            mn_join_indicators(dirty, "k", clean, "k")


class TestComposedHopIndicator:
    def test_multi_hop_composes_codes(self, entity, stores):
        hop1 = pk_fk_indicator(entity, "store_id", stores, "store_id")
        regions = Table("regions", {"region_id": np.array([0, 1])})
        stores_with_region = stores.with_column("region_id", np.array([0, 1, 0]))
        hop2 = pk_fk_indicator(stores_with_region, "region_id", regions, "region_id")
        composed = hop1 @ hop2
        assert isinstance(composed, Indicator)
        assert composed.shape == (entity.num_rows, 2)
        np.testing.assert_array_equal(composed.codes, hop2.codes[hop1.codes])
        np.testing.assert_array_equal(
            composed.toarray(), (hop1.tocsr() @ hop2.tocsr()).toarray())


class TestJoinedSchemaPreservation:
    def test_join_pk_fk_keeps_categorical_codes(self):
        entity = Table("sales", {
            "store_id": np.array([0, 1, 0]),
            "amount": np.array([10.0, 20.0, 30.0]),
        })
        stores = Table("stores", {
            "store_id": np.array([0, 1]),
            "tier": np.array([2, 5]),  # integer-coded categorical
        }, schema=TableSchema("stores", [
            Column("store_id", ColumnType.KEY),
            Column("tier", ColumnType.CATEGORICAL),
        ], primary_key="store_id"))
        joined = join_pk_fk(entity, "store_id", stores, "store_id")
        # The regression: rebuilding the output table from raw columns used to
        # re-infer the schema, flipping the coded categorical to NUMERIC.
        assert joined.schema.column("tier").ctype is ColumnType.CATEGORICAL

    def test_join_mn_keeps_categorical_codes(self):
        left = Table("l", {"k": np.array([1, 1]), "code": np.array([7, 8])},
                     schema=TableSchema("l", [
                         Column("k", ColumnType.KEY),
                         Column("code", ColumnType.CATEGORICAL),
                     ]))
        right = Table("r", {"k": np.array([1]), "y": np.array([0.5])})
        joined = join_mn(left, "k", right, "k")
        assert joined.schema.column("code").ctype is ColumnType.CATEGORICAL


def nested_loop_mn(left_keys, right_keys):
    """The M:N join as a nested loop: left row order, then ascending right rows."""
    groups = {}
    for j, value in enumerate(np.asarray(right_keys).tolist()):
        groups.setdefault(value, []).append(j)
    pairs = [(i, j) for i, value in enumerate(np.asarray(left_keys).tolist())
             for j in groups.get(value, [])]
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


class TestMNJoinMatchesNestedLoop:
    @pytest.mark.parametrize("left_keys,right_keys", [
        # Random keys; values 0..3 exist on the left only, 25..29 on the right only.
        (np.random.default_rng(0).integers(0, 25, 300),
         np.random.default_rng(1).integers(4, 30, 200)),
        (np.random.default_rng(2).integers(0, 8, 50).astype(np.float64),
         np.random.default_rng(3).integers(0, 10, 40)),
        (np.random.default_rng(4).integers(0, 6, 60).astype(np.uint8),
         np.random.default_rng(5).integers(-3, 6, 30)),
        (np.array(["a", "b", "z", "a"]), np.array(["b", "a", "c", "a", "b"])),
        (np.array(["a", 1, None, "b"], dtype=object),
         np.array([1, "a", "a", None], dtype=object)),
        (np.array([2 ** 60, 2 ** 60 + 1]), np.array([float(2 ** 60), 3.0])),
    ], ids=["int", "float-int", "uint8-int", "string", "object", "past-2**53"])
    def test_rows_and_order(self, left_keys, right_keys):
        left = Table("l", {"k": left_keys})
        right = Table("r", {"k": right_keys})
        i_s, i_r = mn_join_indicators(left, "k", right, "k")
        left_rows, right_rows = nested_loop_mn(left_keys, right_keys)
        np.testing.assert_array_equal(i_s.codes, left_rows)
        np.testing.assert_array_equal(i_r.codes, right_rows)
        assert i_s.shape == (left_rows.size, left.num_rows)
        assert i_r.shape == (right_rows.size, right.num_rows)

    @pytest.mark.parametrize("right_keys", [np.array([7, 8]), np.array([], dtype=np.int64)])
    def test_empty_join_rejected(self, right_keys):
        left = Table("l", {"k": np.array([1, 2])})
        right = Table("r", {"k": right_keys})
        with pytest.raises(SchemaError, match="M:N join between l.k and r.k is empty"):
            mn_join_indicators(left, "k", right, "k")


def set_drop_unreferenced(fk_keys, pk_keys):
    """The set-based reference: attribute rows whose key some foreign key equals."""
    referenced = set(np.asarray(fk_keys).tolist())
    return [i for i, v in enumerate(np.asarray(pk_keys).tolist()) if v in referenced]


def set_mn_drop(left_keys, right_keys):
    """The set-based reference: rows of each side whose key the other side holds."""
    common = set(np.asarray(left_keys).tolist()) & set(np.asarray(right_keys).tolist())
    return ([i for i, v in enumerate(np.asarray(left_keys).tolist()) if v in common],
            [i for i, v in enumerate(np.asarray(right_keys).tolist()) if v in common])


DROP_KEY_CASES = [
    (np.array([5, 3, 5, 9, -2]), np.array([3, 4, 5, 7, -2, 9, 11])),
    (np.array([1 << 40, 7, 1 << 40]), np.array([7, 8, 1 << 40])),
    (np.array([1.5, np.nan, 2.0, 1.5]), np.array([np.nan, 1.5, 2.0, 3.0])),
    (np.array([1, 2, 2, 4]), np.array([1.0, 2.5, 4.0, 4.5])),
    (np.array(["b", "a", "b"]), np.array(["a", "c", "b", "d"])),
    (np.array(["a", 1, None, (2, 3)], dtype=object),
     np.array([1, "z", None, "a", (2, 3), 2.0], dtype=object)),
]
DROP_KEY_IDS = ["int", "int-sparse-range", "float-nan", "int-float", "string", "object"]


class TestDropHelpersMatchSetReference:
    """The key-code rebuilds of the drop helpers keep exactly the rows the
    Python-set reference keeps, on every key kind."""

    @pytest.mark.parametrize("fk_keys, pk_keys", DROP_KEY_CASES, ids=DROP_KEY_IDS)
    def test_drop_unreferenced(self, fk_keys, pk_keys):
        entity = Table("s", {"fk": fk_keys})
        attribute = Table("r", {"pk": pk_keys, "row": np.arange(pk_keys.size)})
        kept = drop_unreferenced(entity, "fk", attribute, "pk")
        np.testing.assert_array_equal(kept.column("row"),
                                      set_drop_unreferenced(fk_keys, pk_keys))

    @pytest.mark.parametrize("left_keys, right_keys", DROP_KEY_CASES, ids=DROP_KEY_IDS)
    def test_mn_drop_noncontributing(self, left_keys, right_keys):
        left = Table("l", {"k": left_keys, "row": np.arange(left_keys.size)})
        right = Table("r", {"k": right_keys, "row": np.arange(right_keys.size)})
        new_left, new_right = mn_drop_noncontributing(left, "k", right, "k")
        left_rows, right_rows = set_mn_drop(left_keys, right_keys)
        np.testing.assert_array_equal(new_left.column("row"), left_rows)
        np.testing.assert_array_equal(new_right.column("row"), right_rows)
        # Swapped sides give the mirrored answer.
        swapped_right, swapped_left = mn_drop_noncontributing(right, "k", left, "k")
        np.testing.assert_array_equal(swapped_left.column("row"), left_rows)
        np.testing.assert_array_equal(swapped_right.column("row"), right_rows)

    def test_nothing_dropped_returns_the_inputs(self):
        keys = np.array([3, 1, 2])
        left, right = Table("l", {"k": keys}), Table("r", {"k": keys[::-1].copy()})
        assert drop_unreferenced(left, "k", right, "k") is right
        new_left, new_right = mn_drop_noncontributing(left, "k", right, "k")
        assert new_left is left and new_right is right

    def test_empty_result_rejected(self):
        left, right = Table("l", {"k": np.array([1, 2])}), Table("r", {"k": np.array([3])})
        with pytest.raises(SchemaError, match="empty"):
            mn_drop_noncontributing(left, "k", right, "k")
