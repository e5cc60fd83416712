"""Key resolution in :meth:`repro.relational.table.Table.positions_for_keys`.

Each key column gets one cached index whose layout the data chooses: direct
addressing for dense integer keys, a sorted index for other non-object keys,
a dict for object keys.  Every layout must resolve exactly like the sorted
``searchsorted`` reference below, and raise the same errors.
"""

import re

import numpy as np
import pytest

from repro.exceptions import SchemaError
from repro.relational.csv_io import stream_normalized_batches, write_csv
from repro.relational.schema import Join, SchemaGraph
from repro.relational.table import Table


def reference_positions(keys: np.ndarray, values) -> np.ndarray:
    """Row positions of *values* by binary search over the sorted keys."""
    flat = np.asarray(values).ravel()
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    pos = np.minimum(np.searchsorted(sorted_keys, flat), keys.size - 1)
    assert np.all(sorted_keys[pos] == flat), "reference lookup of an unknown key"
    return order[pos].astype(np.int64)


def layout(table: Table, column: str) -> str:
    index = table._key_index(column)
    if index._slots is not None:
        return "direct"
    return "sorted" if index._sorted is not None else "dict"


def key_columns():
    """(label, key column, expected layout) covering every index layout."""
    rng = np.random.default_rng(0)
    yield "arange", np.arange(500), "direct"
    yield "shuffled", rng.permutation(500), "direct"
    yield "shifted", rng.permutation(500) + 10_000, "direct"
    yield "negative", rng.permutation(500) - 750, "direct"
    # 400 keys spread over 1200 values: holes, still at most 4x the rows.
    yield "holes", rng.choice(1200, size=400, replace=False) - 100, "direct"
    yield "sparse", rng.choice(10 ** 6, size=300, replace=False), "sorted"
    yield "int32", rng.permutation(300).astype(np.int32) - 100, "direct"
    yield "uint8", rng.permutation(200).astype(np.uint8), "direct"
    yield "uint64-high", (np.uint64(2 ** 63 + 5)
                          + rng.permutation(300).astype(np.uint64)), "direct"
    yield "uint64-wide", np.array([1, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64), "sorted"
    yield "float", rng.permutation(300).astype(np.float64), "sorted"
    yield "string", np.array([f"k{v}" for v in rng.permutation(300)]), "sorted"


KEY_COLUMNS = list(key_columns())


@pytest.mark.parametrize("label,keys,expected", KEY_COLUMNS,
                         ids=[c[0] for c in KEY_COLUMNS])
class TestLayoutsMatchReference:
    def test_layout_chosen_by_data(self, label, keys, expected):
        table = Table("t", {"k": keys})
        table.positions_for_keys("k", keys[:1])
        assert layout(table, "k") == expected

    def test_random_lookups_match_reference(self, label, keys, expected):
        rng = np.random.default_rng(1)
        table = Table("t", {"k": keys})
        values = keys[rng.integers(0, keys.size, size=2000)]
        positions = table.positions_for_keys("k", values)
        assert positions.dtype == np.int64
        np.testing.assert_array_equal(positions, reference_positions(keys, values))

    def test_integral_float_lookups_match(self, label, keys, expected):
        if keys.dtype.kind not in "iuf" or keys.max() > 2 ** 53:
            pytest.skip("float lookups are exact below 2**53 only")
        rng = np.random.default_rng(2)
        table = Table("t", {"k": keys})
        values = keys[rng.integers(0, keys.size, size=500)].astype(np.float64)
        np.testing.assert_array_equal(table.positions_for_keys("k", values),
                                      reference_positions(keys, values))

    def test_lookup_shape_is_flattened(self, label, keys, expected):
        table = Table("t", {"k": keys})
        grid = keys[np.arange(6) % keys.size].reshape(2, 3)
        np.testing.assert_array_equal(table.positions_for_keys("k", grid),
                                      reference_positions(keys, grid))

    def test_empty_lookup(self, label, keys, expected):
        table = Table("t", {"k": keys})
        positions = table.positions_for_keys("k", keys[:0])
        assert positions.shape == (0,) and positions.dtype == np.int64


class TestUnknownKeys:
    @pytest.mark.parametrize("values,bad", [
        ([3, 1, 11, 12], 11),        # above the range
        ([3, -1, 12], -1),           # below the range
        ([3, 7, 2], 7),              # a hole inside the range
        ([2.0, 2.5, 11.0], 2.5),     # non-integral float
        ([2.0, np.nan], None),       # NaN
        ([1.0, np.inf], np.inf),
    ])
    def test_direct_index_reports_first_bad_key(self, values, bad):
        table = Table("t", {"k": np.array([0, 1, 2, 3, 4, 5, 6, 8, 9, 10])})
        with pytest.raises(SchemaError, match="unknown key") as info:
            table.positions_for_keys("k", values)
        if bad is None:
            assert np.isnan(info.value.key)
        else:
            assert info.value.key == bad
        assert layout(table, "k") == "direct"

    def test_message_names_table_and_column(self):
        table = Table("stores", {"id": np.arange(4)})
        with pytest.raises(SchemaError) as info:
            table.positions_for_keys("id", [1, 9])
        assert str(info.value) == "table 'stores': unknown key 9 in column 'id'"
        assert type(info.value.key) is int

    @pytest.mark.parametrize("keys", [
        np.arange(10) * 1000,                              # sorted layout
        np.array(["a", "b", "c"]),                         # sorted strings
        np.array(["a", "b", "c"], dtype=object),           # dict
    ], ids=["sparse-int", "string", "object"])
    def test_other_layouts_report_first_bad_key(self, keys):
        table = Table("t", {"k": keys})
        values = [keys[1], "zz" if keys.dtype.kind in "UO" else 5, keys[0]]
        with pytest.raises(SchemaError, match="unknown key") as info:
            table.positions_for_keys("k", values)
        assert info.value.key == values[1]

    def test_uint64_keys_reject_negative_lookups(self):
        table = Table("t", {"k": np.arange(5, dtype=np.uint64) + np.uint64(2 ** 63)})
        with pytest.raises(SchemaError) as info:
            table.positions_for_keys("k", np.array([-1, 3]))
        assert info.value.key == -1

    def test_bool_lookups_compare_as_integers(self):
        table = Table("t", {"k": np.arange(3)})
        np.testing.assert_array_equal(
            table.positions_for_keys("k", np.array([True, False])), [1, 0])
        high = Table("t", {"k": np.arange(4, dtype=np.uint64) + np.uint64(2 ** 63)})
        with pytest.raises(SchemaError) as info:
            high.positions_for_keys("k", np.array([True]))
        assert info.value.key is True

    def test_mismatched_kind_lookup_misses(self):
        table = Table("t", {"k": np.arange(5)})
        with pytest.raises(SchemaError) as info:
            table.positions_for_keys("k", np.array(["1"]))
        assert info.value.key == "1"


class TestDuplicateKeys:
    @pytest.mark.parametrize("keys,value", [
        (np.array([3, 1, 3, 1]), 3),
        (np.array([5, 1, 1, 5]), 1),
        (np.array([0, 10 ** 9, 7, 10 ** 9, 7]), 10 ** 9),      # sorted layout
        (np.array([1.5, 2.5, 2.5]), 2.5),
        (np.array(["b", "a", "a", "b"]), "a"),
        (np.array(["b", "a", "b"], dtype=object), "b"),
    ])
    def test_message_matches_dict_build(self, keys, value):
        """Every layout reports the first row whose key repeats an earlier row."""
        table = Table("t", {"k": keys})
        expected = (f"table 't': duplicate primary key value {value!r} "
                    "in column 'k'")
        with pytest.raises(SchemaError, match=re.escape(expected)):
            table.positions_for_keys("k", keys[:1])
        with pytest.raises(SchemaError, match=re.escape(expected)):
            table.key_position_index("k")


class TestDirectIndexFootprint:
    def test_dense_integer_index_holds_no_python_objects(self):
        table = Table("t", {"k": np.random.default_rng(3).permutation(10_000)})
        table.positions_for_keys("k", [5, 6])
        index = table._key_indexes["k"]
        arrays = [v for v in vars(index).values() if isinstance(v, np.ndarray)]
        assert all(a.dtype != object for a in arrays)
        assert index._dict is None
        assert index._slots.nbytes == 8 * 10_000

    def test_object_lookup_builds_fallback_dict(self):
        table = Table("t", {"k": np.arange(4)})
        lookup = np.array([2, 3.0, True], dtype=object)
        np.testing.assert_array_equal(table.positions_for_keys("k", lookup), [2, 3, 1])


#: A one-level graph: the streamed ``entity`` CSV joined to ``attr``.
STAR = SchemaGraph("entity", [Join("entity.fk", "attr.pk")])


class TestStreamingSharesKeyPath:
    def test_integer_keys_resolve_float_parsed_foreign_keys(self, tmp_path):
        attribute = Table("attr", {"pk": np.array([10, 12, 11]),
                                   "price": np.array([1.0, 2.0, 3.0])})
        entity = Table("entity", {"fk": np.array([11, 10, 12, 12, 10]),
                                  "amount": np.arange(5.0)})
        path = tmp_path / "entity.csv"
        write_csv(entity, path)
        batches = list(stream_normalized_batches(
            path, STAR, {"attr": attribute},
            entity_features=["amount"], chunk_rows=2, sparse=False))
        labels = np.concatenate([b.matrix.indicators[0].codes for b in batches])
        np.testing.assert_array_equal(labels, [2, 0, 1, 1, 0])
        entity_block = np.vstack([b.matrix.entity for b in batches])
        assert entity_block.dtype == np.float64 and entity_block.flags.c_contiguous
        np.testing.assert_array_equal(entity_block, np.arange(5.0).reshape(-1, 1))

    def test_dangling_key_message(self, tmp_path):
        attribute = Table("attr", {"pk": np.arange(3), "price": np.ones(3)})
        entity = Table("entity", {"fk": np.array([0, 2, 9]), "amount": np.ones(3)})
        path = tmp_path / "entity.csv"
        write_csv(entity, path)
        expected = "foreign key value 9.0 in entity.fk has no match in attr.pk"
        with pytest.raises(SchemaError, match=re.escape(expected)):
            list(stream_normalized_batches(path, STAR, {"attr": attribute}))

    def test_duplicate_primary_key_rejected_before_first_chunk(self, tmp_path):
        attribute = Table("attr", {"pk": np.array([0, 1, 1]), "price": np.ones(3)})
        path = tmp_path / "entity.csv"
        path.write_text("fk,amount\n0,1\n")
        batches = stream_normalized_batches(path, STAR, {"attr": attribute})
        with pytest.raises(SchemaError, match="duplicate primary key value 1"):
            next(batches)
