"""CSV input/output for :class:`~repro.relational.table.Table`.

The paper's quickstart constructs the normalized matrix from two CSV files
(``read.csv`` in R).  This module provides the equivalent so the examples can
follow the same shape: ``read_csv`` infers numeric columns automatically and
returns a :class:`Table`; ``write_csv`` round-trips it.

For entity tables too large to hold in memory, :func:`read_csv_chunks`
streams the file one row chunk at a time and
:func:`stream_normalized_batches` turns each chunk directly into a factorized
mini-batch -- a :class:`~repro.core.normalized_matrix.NormalizedMatrix` whose
entity block and indicators cover only the chunk while the (small,
one-time-encoded) attribute tables are shared across every batch.  The full
entity matrix ``S`` is never built, which is what makes out-of-core
``partial_fit`` training possible (see ``docs/streaming.md``).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import SchemaError
from repro.relational.table import Table, dense_features

PathLike = Union[str, Path]


def _check_unique_header(header: List[str], path: Path) -> None:
    """Reject duplicate column names up front, naming the offenders.

    Both CSV readers key columns by name: letting a duplicate through either
    merges both occurrences into one column (``read_csv``, which then dies
    later with a confusing row-count mismatch) or silently drops the earlier
    occurrence's data (``read_csv_chunks``, last one wins).
    """
    if len(set(header)) == len(header):
        return
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
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"CSV file {path} is empty") from None
        _check_unique_header(header, path)
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
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"CSV file {path} is empty") from None
        _check_unique_header(header, path)
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


def stream_normalized_batches(path: PathLike, edges: Sequence,
                              entity_features: Sequence[str] = (),
                              target_column: Optional[str] = None,
                              chunk_rows: int = 1024, sparse: bool = True,
                              name: Optional[str] = None,
                              memory_budget: Optional[float] = None):
    """Stream an entity CSV as factorized normalized mini-batches.

    The out-of-core counterpart of
    :func:`repro.relational.pipeline.normalized_from_tables`: the attribute
    tables of *edges* (``(fk_column, attribute_table, pk_column,
    feature_columns)`` tuples) are encoded **once** up front, then the entity
    CSV at *path* is read in *chunk_rows*-row chunks and each chunk becomes a
    :class:`~repro.relational.pipeline.NormalizedDataset` whose matrix is a
    chunk-sized :class:`~repro.core.normalized_matrix.NormalizedMatrix`
    sharing those attribute matrices.  The full entity matrix ``S`` is never
    built.

    Entity feature columns must be numeric: a chunk sees only its own rows,
    so a one-hot vocabulary inferred per chunk would drift between batches
    (the attribute tables, encoded whole, may of course be categorical).
    *target_column* is parsed as a numeric column and sliced per chunk.
    Each chunk's foreign keys resolve through the attribute table's cached
    :meth:`~repro.relational.table.Table.positions_for_keys` index -- the
    key path every frontend shares, built once before the first chunk is
    read -- and a dangling key raises :class:`SchemaError` naming the value
    and both columns.  Pass *memory_budget* (bytes) instead of *chunk_rows*
    to derive the chunk size from the planner's memory model, matching how
    ``engine="auto"`` sizes streamed plans.
    """
    from repro.core.normalized_matrix import NormalizedMatrix
    from repro.la.ops import indicator_from_labels
    from repro.relational.encoding import encode_features
    from repro.relational.join import foreign_key_positions
    from repro.relational.pipeline import NormalizedDataset

    if not edges:
        raise SchemaError("stream_normalized_batches needs at least one join edge")
    entity_features = list(entity_features)

    # Per-edge state hoisted out of the chunk loop: the attribute features are
    # encoded once, the PK position index is built once and cached on the
    # attribute table (rebuilding it per chunk would make ingestion quadratic
    # in the attribute size; building it here also rejects a duplicate PK
    # before any chunk is read), and the foreign-key parse mode is pinned
    # from the attribute PK dtype -- numeric PKs force a numeric fk parse,
    # string PKs keep the fk raw -- so key typing can never drift with chunk
    # boundaries.
    encoded_attributes = []
    numeric = set(entity_features)
    raw: set = set()
    feature_names: List[str] = list(entity_features)
    for fk_column, attribute_table, pk_column, attribute_columns in edges:
        encoded = encode_features(attribute_table, columns=list(attribute_columns),
                                  sparse=sparse)
        encoded_attributes.append(encoded.matrix)
        feature_names.extend(
            f"{attribute_table.name}.{col}" for col in encoded.feature_names
        )
        attribute_table._key_index(pk_column)
        if np.issubdtype(attribute_table.column(pk_column).dtype, np.number):
            numeric.add(fk_column)
        else:
            raw.add(fk_column)

    if memory_budget is not None:
        from repro.core.planner.memory import batch_rows_for_dims

        total_cols = len(entity_features) + sum(m.shape[1] for m in encoded_attributes)
        chunk_rows = batch_rows_for_dims(
            n_rows=0, n_cols=total_cols, num_joins=len(edges),
            memory_budget=memory_budget)

    if target_column is not None:
        numeric.add(target_column)
    for chunk in read_csv_chunks(path, chunk_rows, name=name,
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
        indicators = []
        for fk_column, attribute_table, pk_column, _ in edges:
            labels = foreign_key_positions(chunk, fk_column, attribute_table, pk_column)
            indicators.append(
                indicator_from_labels(labels, num_columns=attribute_table.num_rows))
        target = None
        if target_column is not None:
            target = np.asarray(chunk.column(target_column),
                                dtype=np.float64).reshape(-1, 1)
        # validate=False: a chunk references only a subset of each attribute
        # table's rows, so the full-coverage indicator invariant cannot hold
        # per batch (exactly like the slices take_rows produces).
        matrix = NormalizedMatrix(entity_matrix, indicators, encoded_attributes,
                                  validate=False)
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
