"""Join execution and indicator-matrix construction.

This module is where the relational world meets the linear-algebra world.
Given base tables it can either

* **materialize** the join output (what the paper calls the materialized
  approach, "M"), or
* build the **indicator matrices** that define the normalized matrix
  (the factorized approach, "F"): ``K`` for one PK-FK join (Section 3.1;
  :mod:`repro.relational.pipeline` builds one per join of a
  :class:`~repro.relational.schema.SchemaGraph`) and ``(I_S, I_R)`` for M:N
  equi-joins (Section 3.6).

Both paths are used by the benchmarks so that data-preparation time
(Table 12) can be compared between the two approaches.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SchemaError
from repro.la.indicator import Indicator
from repro.la.ops import indicator_from_labels
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table


# ---------------------------------------------------------------------------
# PK-FK joins
# ---------------------------------------------------------------------------

def _check_key_nan(table: Table, column: str, role: str, first_row: int = 0) -> None:
    """Reject NaN join-key values with an error naming the table and column.

    The reported row is counted from *first_row* (a streamed chunk's offset).
    """
    values = table.column(column)
    if np.issubdtype(values.dtype, np.floating):
        nan_mask = np.isnan(values)
        if nan_mask.any():
            row = int(np.argmax(nan_mask))
        else:
            return
    elif values.dtype == object:
        nan_rows = [i for i, v in enumerate(values.tolist())
                    if isinstance(v, float) and np.isnan(v)]
        if not nan_rows:
            return
        row = nan_rows[0]
    else:
        return
    raise SchemaError(
        f"{role} column {table.name}.{column} contains NaN at row {first_row + row}; "
        "NaN never equals any key, so the join is undefined -- drop or "
        "impute the rows first"
    )


def pk_fk_indicator(entity: Table, fk_column: str, attribute: Table,
                    pk_column: str) -> Indicator:
    """Build the PK-FK indicator matrix ``K`` for one foreign-key edge.

    ``K`` has shape ``(n_S, n_R)`` with ``K[i, j] = 1`` iff row ``i`` of the
    entity table references row ``j`` of the attribute table.  Every entity row
    must reference an existing attribute row (standard referential integrity);
    a dangling foreign key raises :class:`SchemaError` naming the offending
    value, and NaN foreign keys are rejected up front (NaN never matches a
    primary key).

    The key lookup goes through the attribute table's cached
    :meth:`~repro.relational.table.Table.positions_for_keys` index and is
    vectorized, so repeated indicator builds against the same attribute table
    (every snowflake alias sharing a dimension, every rebuild in a training
    sweep) reuse one sorted index instead of re-hashing the primary key
    column per call.

    The indicator's ``codes`` are the attribute-row labels it was built from
    (``codes[i] = j``).
    """
    # A NaN primary key is just as broken as a NaN foreign key: no FK value
    # can ever reference it, so the row is silently unreachable.
    _check_key_nan(attribute, pk_column, "primary key")
    labels = foreign_key_positions(entity, fk_column, attribute, pk_column)
    return indicator_from_labels(labels, num_columns=attribute.num_rows)


def foreign_key_positions(entity: Table, fk_column: str, attribute: Table,
                          pk_column: str, first_row: int = 0) -> np.ndarray:
    """The attribute-row position each ``entity.fk_column`` value references.

    The one key path of every frontend: a NaN foreign key is rejected (its
    row counted from *first_row*, a streamed chunk's offset), then each
    value resolves through the attribute table's cached
    :meth:`~repro.relational.table.Table.positions_for_keys` index, with a
    dangling key re-raised naming both sides of the edge.
    """
    _check_key_nan(entity, fk_column, "foreign key", first_row)
    try:
        return attribute.positions_for_keys(pk_column, entity.column(fk_column))
    except SchemaError as exc:
        value = getattr(exc, "key", None)
        if value is None:
            raise  # table-level problem (e.g. duplicate primary key)
        raise SchemaError(
            f"foreign key value {value!r} in {entity.name}.{fk_column} "
            f"has no match in {attribute.name}.{pk_column}"
        ) from None


def drop_unreferenced(entity: Table, fk_column: str, attribute: Table,
                      pk_column: str) -> Table:
    """Remove attribute-table rows never referenced by the entity table.

    The paper assumes (w.l.o.g.) that every tuple of ``R`` is referenced by at
    least one tuple of ``S`` and notes that unreferenced tuples can be removed
    a priori (Section 3.1).  This helper performs that pre-processing step.
    """
    # Equal keys share a code; a foreign key with no match codes to -1.
    fk_codes, pk_codes, _ = _join_key_codes(entity.column(fk_column),
                                            attribute.column(pk_column))
    keep = np.isin(pk_codes, fk_codes)
    if keep.all():
        return attribute
    return attribute.select_rows(np.flatnonzero(keep))


def join_pk_fk(entity: Table, fk_column: str, attribute: Table, pk_column: str,
               attribute_columns: Optional[Sequence[str]] = None) -> Table:
    """Materialize the PK-FK join output ``T = S join R`` as a new table.

    Every column of the entity table is kept; the selected attribute columns
    (all non-key columns by default) are gathered via the foreign key.  Column
    name clashes are resolved by prefixing with the attribute table name.
    """
    labels = pk_fk_indicator(entity, fk_column, attribute, pk_column).codes
    if attribute_columns is None:
        attribute_columns = [c for c in attribute.column_names if c != pk_column]
    columns: Dict[str, np.ndarray] = {c: entity.column(c) for c in entity.column_names}
    schema_cols = [entity._column_meta(c) for c in entity.column_names]
    for col in attribute_columns:
        values = attribute.column(col)[labels]
        out_name = col if col not in columns else f"{attribute.name}.{col}"
        columns[out_name] = values
        meta = attribute._column_meta(col)
        schema_cols.append(meta if meta.name == out_name
                           else Column(out_name, meta.ctype))
    # Column roles survive materialization: the joined table keeps the entity
    # side's keys and every source column's declared type, so downstream
    # encode_features still one-hot encodes categorical-coded numeric columns.
    schema = TableSchema(
        name=f"{entity.name}_join_{attribute.name}", columns=schema_cols,
        primary_key=entity.schema.primary_key,
    )
    return Table(f"{entity.name}_join_{attribute.name}", columns, schema=schema)


# ---------------------------------------------------------------------------
# M:N equi-joins
# ---------------------------------------------------------------------------

def mn_join_indicators(left: Table, left_column: str, right: Table,
                       right_column: str) -> Tuple[Indicator, Indicator]:
    """Build the pair of indicator matrices ``(I_S, I_R)`` for an M:N equi-join.

    Following Section 3.6, we conceptually compute the non-deduplicating
    projection join ``T' = pi(S) join pi(R)`` on the join attributes and record
    which source rows produced each output row: ``I_S[t, i] = 1`` iff output
    row ``t`` came from row ``i`` of the left table (similarly for ``I_R``).
    Output rows are ordered by left row index then right row index, which is
    deterministic and matches a nested-loop join over sorted groups.
    """
    _check_key_nan(left, left_column, "M:N join key")
    _check_key_nan(right, right_column, "M:N join key")
    left_codes, right_codes, num_codes = _join_key_codes(
        left.column(left_column), right.column(right_column))
    # Right rows grouped by key code, ascending position within a group.
    counts = np.bincount(right_codes, minlength=num_codes)
    right_order = np.argsort(right_codes, kind="stable")
    starts = np.cumsum(counts) - counts
    matched = left_codes >= 0
    lengths = np.zeros(left_codes.size, dtype=np.int64)
    lengths[matched] = counts[left_codes[matched]]
    total = int(lengths.sum())
    if not total:
        raise SchemaError(
            f"M:N join between {left.name}.{left_column} and {right.name}.{right_column} is empty"
        )
    # Left row i emits lengths[i] output rows, each the next right row of its
    # group: output row t maps to right_order[starts[code_i] + t - first_t(i)].
    shift = np.zeros(left_codes.size, dtype=np.int64)
    shift[matched] = starts[left_codes[matched]]
    shift -= np.cumsum(lengths) - lengths
    left_rows = np.repeat(np.arange(left_codes.size), lengths)
    right_rows = right_order[np.repeat(shift, lengths) + np.arange(total)]
    i_s = indicator_from_labels(left_rows, num_columns=left.num_rows)
    i_r = indicator_from_labels(right_rows, num_columns=right.num_rows)
    return i_s, i_r


def _join_key_codes(left_values: np.ndarray, right_values: np.ndarray):
    """Integer codes for an equi-join: ``(left_codes, right_codes, num_codes)``.

    Equal keys share a code in ``0..num_codes-1``; a left key absent on the
    right gets ``-1``.  Keys NumPy compares exactly (both sides numeric, or
    both the same string kind) are coded with ``unique`` and
    ``searchsorted``; any other pair -- object keys, mixed kinds, or
    integers past 2**53 meeting floats -- is coded by Python equality.
    """
    lk, rk = left_values.dtype.kind, right_values.dtype.kind
    numeric = lk in "biuf" and rk in "biuf"
    if numeric and np.result_type(left_values, right_values).kind == "f":
        # Float comparison rounds integers past 2**53; Python's does not.
        numeric = all(v.dtype.kind == "f" or not v.size
                      or max(abs(int(v.min())), abs(int(v.max()))) <= 2 ** 53
                      for v in (left_values, right_values))
    if (numeric or (lk == rk and lk in "US")) and right_values.size:
        keys, right_codes = np.unique(right_values, return_inverse=True)
        pos = np.minimum(np.searchsorted(keys, left_values), keys.size - 1)
        left_codes = np.where(keys[pos] == left_values, pos, -1)
        return left_codes.astype(np.int64), right_codes.astype(np.int64), keys.size
    codes: Dict[object, int] = {}
    right_codes = np.fromiter((codes.setdefault(v, len(codes)) for v in right_values.tolist()),
                              dtype=np.int64, count=right_values.size)
    left_codes = np.fromiter((codes.get(v, -1) for v in left_values.tolist()),
                             dtype=np.int64, count=left_values.size)
    return left_codes, right_codes, len(codes)


def join_mn(left: Table, left_column: str, right: Table, right_column: str,
            left_columns: Optional[Sequence[str]] = None,
            right_columns: Optional[Sequence[str]] = None) -> Table:
    """Materialize an M:N equi-join with the same row order as the indicators."""
    i_s, i_r = mn_join_indicators(left, left_column, right, right_column)
    left_labels, right_labels = i_s.codes, i_r.codes
    if left_columns is None:
        left_columns = list(left.column_names)
    if right_columns is None:
        right_columns = [c for c in right.column_names if c != right_column]
    columns: Dict[str, np.ndarray] = {}
    schema_cols = []
    for col in left_columns:
        columns[col] = left.column(col)[left_labels]
        schema_cols.append(left._column_meta(col))
    for col in right_columns:
        out_name = col if col not in columns else f"{right.name}.{col}"
        columns[out_name] = right.column(col)[right_labels]
        meta = right._column_meta(col)
        schema_cols.append(meta if meta.name == out_name
                           else Column(out_name, meta.ctype))
    # The join output has no primary key (rows multiply), but column types
    # must survive so feature encoding treats the output like the sources.
    schema = TableSchema(name=f"{left.name}_mnjoin_{right.name}", columns=schema_cols)
    return Table(f"{left.name}_mnjoin_{right.name}", columns, schema=schema)


def mn_drop_noncontributing(left: Table, left_column: str, right: Table,
                            right_column: str) -> Tuple[Table, Table]:
    """Drop rows of either table that contribute nothing to the M:N join output.

    This mirrors the paper's assumption that every column of ``I_S`` and
    ``I_R`` has at least one non-zero (Section 3.6).
    """
    left_codes, right_codes, _ = _join_key_codes(left.column(left_column),
                                                 right.column(right_column))
    left_keep = left_codes >= 0
    right_keep = np.isin(right_codes, left_codes)
    if not left_keep.any() or not right_keep.any():
        raise SchemaError("M:N join would be empty after dropping non-contributing rows")
    left_out = left if left_keep.all() else left.select_rows(np.flatnonzero(left_keep))
    right_out = right if right_keep.all() else right.select_rows(np.flatnonzero(right_keep))
    return left_out, right_out
