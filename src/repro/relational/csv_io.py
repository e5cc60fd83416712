"""CSV input/output for :class:`~repro.relational.table.Table`.

The paper's quickstart constructs the normalized matrix from two CSV files
(``read.csv`` in R).  This module provides the equivalent so the examples can
follow the same shape: ``read_csv`` infers numeric columns automatically and
returns a :class:`Table`; ``write_csv`` round-trips it.

For fact tables too large to hold in memory, :func:`read_csv_chunks`
streams the file one row chunk at a time and
:func:`stream_normalized_batches` turns each chunk directly into a factorized
mini-batch of a :class:`~repro.relational.schema.SchemaGraph` -- the same
graph the in-memory builder takes -- as a
:class:`~repro.core.normalized_matrix.NormalizedMatrix` whose entity block
and indicators cover only the chunk while the (small, one-time-encoded)
dimension tables are shared across every batch.  The full
entity matrix ``S`` is never built, which is what makes out-of-core
``partial_fit`` training possible (see ``docs/streaming.md``).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import SchemaError
from repro.relational.schema import SchemaGraph
from repro.relational.table import Table, dense_features

PathLike = Union[str, Path]


def _header(reader, path: Path) -> List[str]:
    """The header row of a CSV file, rejecting an empty file and duplicates.

    Both CSV readers key columns by name: letting a duplicate through either
    merges both occurrences into one column (``read_csv``, which then dies
    later with a confusing row-count mismatch) or silently drops the earlier
    occurrence's data (``read_csv_chunks``, last one wins), so duplicates are
    rejected up front, naming the offenders.
    """
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"CSV file {path} is empty") from None
    if len(set(header)) == len(header):
        return header
    seen: set = set()
    duplicates: set = set()
    for col in header:
        (duplicates if col in seen else seen).add(col)
    duplicates = sorted(duplicates)
    raise SchemaError(
        f"CSV file {path}: duplicate header column(s) {duplicates}; "
        "column names must be unique"
    )


def _coerce_column(values: List[str]) -> np.ndarray:
    """Convert a list of strings to float64 when every entry parses, else keep strings."""
    try:
        return np.asarray([float(v) for v in values], dtype=np.float64)
    except ValueError:
        return np.asarray(values, dtype=object)


def read_csv(path: PathLike, name: Optional[str] = None,
             numeric_columns: Optional[Sequence[str]] = None) -> Table:
    """Read a CSV file with a header row into a :class:`Table`.

    Column types are inferred: a column where every value parses as a float is
    numeric, everything else is kept as strings (and will be one-hot encoded
    by :func:`repro.relational.encoding.encode_features`).  Pass
    *numeric_columns* to force specific columns to be parsed as numbers.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = _header(reader, path)
        raw: Dict[str, List[str]] = {col: [] for col in header}
        for row in reader:
            if len(row) != len(header):
                raise SchemaError(
                    f"CSV file {path}: row with {len(row)} fields, expected {len(header)}"
                )
            for col, value in zip(header, row):
                raw[col].append(value)
    columns: Dict[str, np.ndarray] = {}
    for col, values in raw.items():
        if numeric_columns is not None and col in numeric_columns:
            columns[col] = np.asarray([float(v) for v in values], dtype=np.float64)
        else:
            columns[col] = _coerce_column(values)
    return Table(name or path.stem, columns)


def _chunk_to_table(header: List[str], rows: List[List[str]], name: str,
                    numeric_columns: Optional[Sequence[str]],
                    raw_columns: Optional[Sequence[str]] = None) -> Table:
    columns: Dict[str, np.ndarray] = {}
    for j, col in enumerate(header):
        values = [row[j] for row in rows]
        if raw_columns is not None and col in raw_columns:
            columns[col] = np.asarray(values, dtype=object)
        elif numeric_columns is not None and col in numeric_columns:
            try:
                columns[col] = np.asarray([float(v) for v in values], dtype=np.float64)
            except ValueError as exc:
                raise SchemaError(
                    f"column {col!r} was pinned numeric but contains a "
                    f"non-numeric value ({exc}); streamed entity features and "
                    "targets must be numeric -- one-hot vocabularies cannot be "
                    "inferred per chunk"
                ) from None
        else:
            columns[col] = _coerce_column(values)
    return Table(name, columns)


def read_csv_chunks(path: PathLike, chunk_rows: int, name: Optional[str] = None,
                    numeric_columns: Optional[Sequence[str]] = None,
                    raw_columns: Optional[Sequence[str]] = None) -> Iterator[Table]:
    """Stream a CSV file as a sequence of :class:`Table` chunks.

    Reads at most *chunk_rows* data rows at a time -- the file is never fully
    resident -- and yields each chunk as its own table with the shared header.
    Column types are inferred *per chunk* (a column where every value of the
    chunk parses as a float is numeric); pass *numeric_columns* to pin columns
    that must always parse as numbers, and *raw_columns* to pin columns that
    must always stay strings -- either way the type cannot drift with chunk
    boundaries.  A file with a header but no data rows yields nothing.
    """
    if chunk_rows < 1:
        raise ValueError("chunk_rows must be at least 1")
    path = Path(path)
    table_name = name or path.stem
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = _header(reader, path)
        rows: List[List[str]] = []
        for row in reader:
            if len(row) != len(header):
                raise SchemaError(
                    f"CSV file {path}: row with {len(row)} fields, expected {len(header)}"
                )
            rows.append(row)
            if len(rows) == chunk_rows:
                yield _chunk_to_table(header, rows, table_name, numeric_columns,
                                      raw_columns)
                rows = []
        if rows:
            yield _chunk_to_table(header, rows, table_name, numeric_columns,
                                  raw_columns)


def stream_normalized_batches(path: PathLike, graph: SchemaGraph, tables,
                              entity_features: Sequence[str] = (),
                              target_column: Optional[str] = None,
                              chunk_rows: int = 1024, sparse: bool = True,
                              features: Optional[dict] = None,
                              memory_budget: Optional[float] = None):
    """Stream a fact-table CSV as factorized normalized mini-batches.

    The out-of-core counterpart of
    :func:`repro.relational.pipeline.normalized_from_schema`, over the same
    :class:`~repro.relational.schema.SchemaGraph`: the CSV at *path* holds
    the fact table ``graph.fact``, and *tables* the dimension tables.  The
    dimension side -- feature defaults and *features* overrides, every
    dimension encoded **once**, the composed tail of each alias's hops -- is
    built up front, then the CSV is read in *chunk_rows*-row chunks and each
    chunk becomes a :class:`~repro.relational.pipeline.NormalizedDataset`
    whose matrix is a chunk-sized
    :class:`~repro.core.normalized_matrix.NormalizedMatrix` sharing those
    attribute matrices: a chunk resolves only its first hops, and each alias
    composes its tail in, so snowflakes stream as well as stars.  The full
    entity matrix ``S`` is never built.

    Entity feature columns must be numeric: a chunk sees only its own rows,
    so a one-hot vocabulary inferred per chunk would drift between batches
    (the dimension tables, encoded whole, may of course be categorical).
    *target_column* is parsed as a numeric column and sliced per chunk (and,
    as in memory, never used as an entity feature).
    Each chunk's foreign keys go through the key path of the in-memory
    build (:func:`~repro.relational.join.foreign_key_positions`): a NaN key
    raises the same :class:`SchemaError`, naming its row in the file, and a
    dangling key one naming the value and both columns.  The dimension-side
    primary-key checks (NaN, duplicates) run once, before the first chunk
    is read.  Pass *memory_budget* (bytes) instead of *chunk_rows* to derive
    the chunk size from the planner's memory model, matching how
    ``engine="auto"`` sizes streamed plans.
    """
    from repro.core.normalized_matrix import NormalizedMatrix
    from repro.la.ops import indicator_from_labels
    from repro.relational.join import _check_key_nan, foreign_key_positions
    from repro.relational.pipeline import NormalizedDataset, _Dimensions

    path = Path(path)
    with path.open(newline="") as handle:
        graph.validate_tables({**tables, graph.fact: _header(csv.reader(handle), path)})
    dimensions = _Dimensions(graph, tables, features, sparse)
    entity_features = [c for c in entity_features if c != target_column]
    feature_names = entity_features + dimensions.feature_names

    # Each first hop's primary key is checked and indexed once, before any
    # chunk is read (rebuilding the index per chunk would make ingestion
    # quadratic in the dimension size).  The foreign-key parse mode is pinned
    # from the primary-key dtype -- numeric keys force a numeric parse,
    # string keys keep the column raw -- so key typing cannot drift with
    # chunk boundaries.
    numeric = set(entity_features)
    raw: set = set()
    for join in dict.fromkeys(first for first, _ in dimensions.paths):
        detail = tables[join.detail.table]
        _check_key_nan(detail, join.detail.column, "primary key")
        detail._key_index(join.detail.column)
        if np.issubdtype(detail.column(join.detail.column).dtype, np.number):
            numeric.add(join.master.column)
        else:
            raw.add(join.master.column)

    if memory_budget is not None:
        from repro.core.planner.memory import batch_rows_for_dims

        total_cols = len(entity_features) + sum(m.shape[1] for m in dimensions.attributes)
        chunk_rows = batch_rows_for_dims(
            n_rows=0, n_cols=total_cols, num_joins=len(graph.joins),
            memory_budget=memory_budget)

    if target_column is not None:
        numeric.add(target_column)
    first_row = 0
    for chunk in read_csv_chunks(path, chunk_rows, name=graph.fact,
                                 numeric_columns=sorted(numeric),
                                 raw_columns=sorted(raw)):
        entity_matrix = None
        if entity_features:
            for col in entity_features:
                if not np.issubdtype(chunk.column(col).dtype, np.number):
                    raise SchemaError(
                        f"entity feature column {col!r} is not numeric; streaming "
                        "ingestion cannot infer a consistent one-hot vocabulary "
                        "per chunk -- encode it into an attribute table instead"
                    )
            entity_matrix = dense_features(
                chunk.num_rows, [(chunk.column(col), None) for col in entity_features])
            if sparse:
                import scipy.sparse as sp

                entity_matrix = sp.csr_matrix(entity_matrix)

        def first_hop(join):
            detail = tables[join.detail.table]
            labels = foreign_key_positions(chunk, join.master.column, detail,
                                           join.detail.column, first_row)
            return indicator_from_labels(labels, num_columns=detail.num_rows)

        indicators = dimensions.indicators(first_hop)
        target = None
        if target_column is not None:
            target = np.asarray(chunk.column(target_column),
                                dtype=np.float64).reshape(-1, 1)
        # validate=False: a chunk references only a subset of each attribute
        # table's rows, so the full-coverage indicator invariant cannot hold
        # per batch (exactly like the slices take_rows produces).
        matrix = NormalizedMatrix(entity_matrix, indicators, dimensions.attributes,
                                  validate=False)
        first_row += chunk.num_rows
        yield NormalizedDataset(matrix=matrix, feature_names=feature_names,
                                target=target)


def write_csv(table: Table, path: PathLike) -> None:
    """Write a :class:`Table` to a CSV file with a header row."""
    path = Path(path)
    names = table.column_names
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for i in range(table.num_rows):
            row = table.row(i)
            writer.writerow([row[c] for c in names])
