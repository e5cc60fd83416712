"""Tests for CSV input/output in :mod:`repro.relational.csv_io`."""

import numpy as np
import pytest

from repro.exceptions import SchemaError
from repro.relational.csv_io import (
    read_csv,
    read_csv_chunks,
    stream_normalized_batches,
    write_csv,
)
from repro.relational.pipeline import normalized_from_schema
from repro.relational.schema import Join, SchemaGraph
from repro.relational.table import Table


@pytest.fixture
def csv_file(tmp_path):
    path = tmp_path / "customers.csv"
    path.write_text(
        "customer_id,age,country\n"
        "0,25.5,us\n"
        "1,40.0,uk\n"
        "2,31.0,us\n"
    )
    return path


class TestReadCsv:
    def test_reads_header_and_rows(self, csv_file):
        table = read_csv(csv_file)
        assert table.num_rows == 3
        assert table.column_names == ["customer_id", "age", "country"]

    def test_numeric_columns_inferred(self, csv_file):
        table = read_csv(csv_file)
        assert table.column("age").dtype == np.float64
        assert table.column("age")[0] == 25.5

    def test_string_columns_kept(self, csv_file):
        table = read_csv(csv_file)
        assert table.column("country")[1] == "uk"

    def test_table_name_defaults_to_stem(self, csv_file):
        assert read_csv(csv_file).name == "customers"

    def test_table_name_override(self, csv_file):
        assert read_csv(csv_file, name="people").name == "people"

    def test_forced_numeric_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a\n1\n2\n")
        table = read_csv(path, numeric_columns=["a"])
        assert table.column("a").dtype == np.float64

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            read_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(SchemaError):
            read_csv(path)


class TestWriteCsv:
    def test_roundtrip(self, tmp_path):
        table = Table("t", {
            "id": np.arange(3),
            "value": np.array([1.5, 2.5, 3.5]),
            "label": np.array(["x", "y", "z"]),
        })
        path = tmp_path / "out.csv"
        write_csv(table, path)
        back = read_csv(path)
        assert back.num_rows == 3
        assert np.allclose(back.column("value"), table.column("value"))
        assert list(back.column("label")) == ["x", "y", "z"]

    def test_header_written(self, tmp_path):
        table = Table("t", {"a": np.array([1.0])})
        path = tmp_path / "out.csv"
        write_csv(table, path)
        assert path.read_text().splitlines()[0] == "a"


def _star_fixture(rng):
    """A small star schema: attribute table in memory, entity table as rows."""
    n_r, n_s = 8, 50
    attribute = Table("attr", {
        "pk": np.arange(n_r).astype(float),
        "price": rng.standard_normal(n_r),
        "cat": np.asarray([f"c{i % 3}" for i in range(n_r)], dtype=object),
    })
    fk = np.concatenate([np.arange(n_r), rng.integers(0, n_r, size=n_s - n_r)])
    rng.shuffle(fk)
    entity = Table("entity", {
        "fk": fk.astype(float),
        "amount": rng.standard_normal(n_s),
        "label": np.where(rng.standard_normal(n_s) > 0, 1.0, -1.0),
    })
    return entity, attribute


class TestReadCsvChunks:
    def test_chunks_cover_the_file(self, tmp_path):
        rng = np.random.default_rng(0)
        entity, _ = _star_fixture(rng)
        path = tmp_path / "entity.csv"
        write_csv(entity, path)
        chunks = list(read_csv_chunks(path, 13))
        assert sum(c.num_rows for c in chunks) == entity.num_rows
        assert all(c.num_rows <= 13 for c in chunks)
        stitched = np.concatenate([c.column("amount") for c in chunks])
        assert np.allclose(stitched, entity.column("amount"))

    def test_exact_multiple_chunking(self, tmp_path):
        rng = np.random.default_rng(1)
        entity, _ = _star_fixture(rng)
        path = tmp_path / "entity.csv"
        write_csv(entity, path)
        chunks = list(read_csv_chunks(path, 25))
        assert [c.num_rows for c in chunks] == [25, 25]

    def test_numeric_columns_pinned(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,x\n2,y\n")
        (chunk,) = read_csv_chunks(path, 10, numeric_columns=["a"])
        assert np.issubdtype(chunk.column("a").dtype, np.number)
        assert chunk.column("b").dtype == object

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            list(read_csv_chunks(path, 10))

    def test_header_only_yields_nothing(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b\n")
        assert list(read_csv_chunks(path, 10)) == []

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(SchemaError):
            list(read_csv_chunks(path, 10))

    def test_invalid_chunk_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a\n1\n")
        with pytest.raises(ValueError):
            list(read_csv_chunks(path, 0))


def _star_graph():
    """The star of :func:`_star_fixture` as a one-level graph."""
    return SchemaGraph("entity", [Join("entity.fk", "attr.pk")])


class TestStreamNormalizedBatches:
    def test_batches_match_in_memory_pipeline(self, tmp_path):
        rng = np.random.default_rng(2)
        entity, attribute = _star_fixture(rng)
        path = tmp_path / "entity.csv"
        write_csv(entity, path)
        graph, features = _star_graph(), {"attr": ["price", "cat"]}
        reference = normalized_from_schema(graph, {"entity": entity, "attr": attribute},
                                           entity_features=["amount"],
                                           target_column="label", features=features)
        ref_dense = np.asarray(reference.matrix.to_dense())
        parts, targets = [], []
        for batch in stream_normalized_batches(path, graph, {"attr": attribute},
                                               entity_features=["amount"],
                                               target_column="label", chunk_rows=13,
                                               features=features):
            assert batch.is_factorized
            assert batch.matrix.shape[0] <= 13
            assert batch.feature_names == reference.feature_names
            parts.append(np.asarray(batch.matrix.to_dense()))
            targets.append(batch.target)
        assert np.allclose(np.vstack(parts), ref_dense)
        assert np.allclose(np.vstack(targets), reference.target)

    def test_two_hop_graph_matches_in_memory_pipeline(self, tmp_path):
        """A snowflake streams too: each chunk resolves its first hops and
        composes the dimension-side tails, matching the in-memory build."""
        rng = np.random.default_rng(8)
        n, n_cust, n_reg, n_loc = 50, 9, 4, 6

        def covering(size, domain):
            return rng.permutation(np.concatenate(
                [np.arange(domain), rng.integers(0, domain, size=size - domain)]))

        orders = Table("orders", {
            "cust_id": covering(n, n_cust).astype(float),
            "ship_to": covering(n, n_loc).astype(float),
            "bill_to": covering(n, n_loc).astype(float),
            "quantity": rng.uniform(1, 9, size=n),
            "total": rng.uniform(5, 500, size=n),
        })
        tables = {
            "customers": Table("customers", {
                "id": np.arange(n_cust), "region_id": covering(n_cust, n_reg),
                "age": rng.uniform(18, 80, size=n_cust)}),
            "regions": Table("regions", {
                "id": np.arange(n_reg), "gdp": rng.uniform(1, 10, size=n_reg),
                "zone": np.asarray([f"z{i % 2}" for i in range(n_reg)], dtype=object)}),
            "locations": Table("locations", {
                "id": np.arange(n_loc), "tax": rng.uniform(0, 0.3, size=n_loc)}),
        }
        graph = SchemaGraph("orders", [
            Join("orders.cust_id", "customers.id"),
            Join("customers.region_id", "regions.id"),
            Join("orders.ship_to", "locations.id", alias="ship_loc"),
            Join("orders.bill_to", "locations.id", alias="bill_loc"),
        ])
        # Both builders drop the target from the listed entity features.
        reference = normalized_from_schema(graph, {"orders": orders, **tables},
                                           entity_features=["quantity", "total"],
                                           target_column="total")
        path = tmp_path / "orders.csv"
        write_csv(orders, path)
        batches = list(stream_normalized_batches(path, graph, tables,
                                                 entity_features=["quantity", "total"],
                                                 target_column="total", chunk_rows=13))
        assert [b.matrix.shape[0] for b in batches] == [13, 13, 13, 11]
        assert all(b.feature_names == reference.feature_names for b in batches)
        assert "regions.zone=z1" in reference.feature_names
        np.testing.assert_array_equal(np.vstack([b.target for b in batches]),
                                      reference.target)
        np.testing.assert_allclose(
            np.vstack([np.asarray(b.matrix.to_dense()) for b in batches]),
            np.asarray(reference.matrix.to_dense()), atol=1e-12)

    def test_attribute_matrices_shared_across_batches(self, tmp_path):
        rng = np.random.default_rng(3)
        entity, attribute = _star_fixture(rng)
        path = tmp_path / "entity.csv"
        write_csv(entity, path)
        matrices = [b.matrix for b in stream_normalized_batches(
            path, _star_graph(), {"attr": attribute}, chunk_rows=13)]
        first = matrices[0].attributes[0]
        assert all(m.attributes[0] is first for m in matrices)

    def test_memory_budget_sizes_chunks(self, tmp_path):
        rng = np.random.default_rng(4)
        entity, attribute = _star_fixture(rng)
        path = tmp_path / "entity.csv"
        write_csv(entity, path)
        d = 1 + 1 + 3  # amount + price + one-hot(cat)
        budget = 11 * d * 8
        sizes = [b.matrix.shape[0] for b in stream_normalized_batches(
            path, _star_graph(), {"attr": attribute}, entity_features=["amount"],
            memory_budget=budget)]
        assert len(sizes) > 1
        assert all(s * d * 8 <= budget + d * 8 for s in sizes)

    def test_partial_fit_over_the_stream(self, tmp_path):
        from repro.ml import LogisticRegressionGD

        rng = np.random.default_rng(5)
        entity, attribute = _star_fixture(rng)
        path = tmp_path / "entity.csv"
        write_csv(entity, path)
        model = LogisticRegressionGD(step_size=1e-2)
        for batch in stream_normalized_batches(path, _star_graph(), {"attr": attribute},
                                               entity_features=["amount"],
                                               target_column="label", chunk_rows=17):
            model.partial_fit(batch.matrix, batch.target)
        assert model.coef_ is not None
        assert np.all(np.isfinite(model.coef_))

    def test_categorical_entity_feature_rejected(self, tmp_path):
        rng = np.random.default_rng(6)
        entity, attribute = _star_fixture(rng)
        columns = {name: entity.column(name) for name in entity.column_names}
        columns["city"] = np.asarray(
            ["a" if i % 2 else "b" for i in range(entity.num_rows)], dtype=object)
        entity = Table("entity", columns)
        path = tmp_path / "entity.csv"
        write_csv(entity, path)
        with pytest.raises(SchemaError):
            list(stream_normalized_batches(path, _star_graph(), {"attr": attribute},
                                           entity_features=["city"],
                                           features={"attr": ["price"]}))

    def test_no_edges_rejected(self, tmp_path):
        with pytest.raises(SchemaError, match="at least one join"):
            SchemaGraph("entity", [])

    def test_string_primary_keys_survive_chunking(self, tmp_path):
        # Regression: per-chunk type inference used to float-coerce a chunk
        # whose fk values all looked numeric, so string PKs never matched.
        attribute = Table("attr", {
            "pk": np.asarray(["1", "2", "x9"], dtype=object),
            "price": np.asarray([1.0, 2.0, 3.0]),
        })
        entity = Table("entity", {
            "fk": np.asarray(["1", "2", "1", "x9", "2", "1"], dtype=object),
            "amount": np.arange(6.0),
        })
        path = tmp_path / "entity.csv"
        write_csv(entity, path)
        # chunk_rows=2: the first chunks contain only numeric-looking keys.
        batches = list(stream_normalized_batches(path, _star_graph(), {"attr": attribute},
                                                 entity_features=["amount"],
                                                 chunk_rows=2))
        reference = np.asarray(normalized_from_schema(
            _star_graph(), {"entity": entity, "attr": attribute},
            entity_features=["amount"]).matrix.to_dense())
        stitched = np.vstack([np.asarray(b.matrix.to_dense()) for b in batches])
        assert np.allclose(stitched, reference)

    def test_dangling_foreign_key_rejected(self, tmp_path):
        attribute = Table("attr", {"pk": np.asarray([0.0, 1.0]),
                                   "price": np.asarray([1.0, 2.0])})
        entity = Table("entity", {"fk": np.asarray([0.0, 7.0]),
                                  "amount": np.asarray([1.0, 2.0])})
        path = tmp_path / "entity.csv"
        write_csv(entity, path)
        with pytest.raises(SchemaError, match="no match"):
            list(stream_normalized_batches(path, _star_graph(), {"attr": attribute},
                                           chunk_rows=2))

    def test_nan_foreign_key_error_matches_in_memory_build(self, tmp_path):
        """A NaN key fails with the in-memory build's error, naming its row
        in the file rather than in the chunk that holds it."""
        attribute = Table("attr", {"pk": np.asarray([0.0, 1.0]),
                                   "price": np.asarray([1.0, 2.0])})
        entity = Table("entity", {"fk": np.asarray([0.0, 1.0, 1.0, np.nan]),
                                  "amount": np.arange(4.0)})
        path = tmp_path / "entity.csv"
        write_csv(entity, path)
        with pytest.raises(SchemaError) as in_memory:
            normalized_from_schema(_star_graph(), {"entity": entity, "attr": attribute})
        assert "foreign key column entity.fk contains NaN at row 3" in str(in_memory.value)
        with pytest.raises(SchemaError) as streamed:
            list(stream_normalized_batches(path, _star_graph(), {"attr": attribute},
                                           chunk_rows=2))
        assert str(streamed.value) == str(in_memory.value)

    def test_missing_foreign_key_column_rejected_before_first_chunk(self, tmp_path):
        attribute = Table("attr", {"pk": np.arange(2), "price": np.ones(2)})
        path = tmp_path / "entity.csv"
        path.write_text("key,amount\n0,1\n")
        with pytest.raises(SchemaError, match="master table 'entity' has no column 'fk'"):
            next(stream_normalized_batches(path, _star_graph(), {"attr": attribute}))


class TestDuplicateHeaders:
    """Regression: duplicate header names used to corrupt ingestion silently.

    ``read_csv`` keyed its column dict by name, merging both occurrences into
    one short column; ``read_csv_chunks`` let the last occurrence win.  Both
    paths must instead reject the file up front, naming the duplicates.
    """

    @pytest.fixture
    def duplicated(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "id,age,id,age\n"
            "0,25,9,52\n"
            "1,40,8,4\n"
        )
        return path

    def test_read_csv_rejects_duplicate_header(self, duplicated):
        with pytest.raises(SchemaError, match=r"duplicate header.*'age', 'id'"):
            read_csv(duplicated)

    def test_read_csv_chunks_rejects_duplicate_header(self, duplicated):
        with pytest.raises(SchemaError, match=r"duplicate header.*'age', 'id'"):
            next(read_csv_chunks(duplicated, chunk_rows=1))

    def test_single_duplicate_named(self, tmp_path):
        path = tmp_path / "one_dup.csv"
        path.write_text("a,b,a\n1,2,3\n")
        with pytest.raises(SchemaError, match=r"\['a'\]"):
            read_csv(path)

    def test_unique_headers_unaffected(self, csv_file):
        assert read_csv(csv_file).num_rows == 3
        assert sum(c.num_rows for c in read_csv_chunks(csv_file, chunk_rows=2)) == 3
