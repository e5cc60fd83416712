"""A small column-oriented table.

:class:`Table` is the unit the relational substrate manipulates: an ordered
set of named columns, each a 1-D NumPy array of equal length, plus an optional
:class:`~repro.relational.schema.TableSchema` describing column roles and key
constraints.  It intentionally supports only the operations the Morpheus
pipeline needs -- projection, selection, row lookup by key, and conversion of
feature columns to matrices -- rather than a general query engine.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SchemaError
from repro.relational.schema import Column, ColumnType, TableSchema


class Table:
    """A named, column-oriented table with equal-length column arrays."""

    def __init__(self, name: str, columns: Mapping[str, Sequence],
                 schema: Optional[TableSchema] = None, version: int = 0):
        if not columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        self.name = name
        #: Monotonic change version; bumped by :meth:`upsert_rows` / :meth:`delete_rows`.
        self.version = int(version)
        self._columns: Dict[str, np.ndarray] = {}
        length = None
        for col_name, values in columns.items():
            arr = np.asarray(values)
            if arr.ndim != 1:
                raise SchemaError(f"column {col_name!r} must be one-dimensional")
            if length is None:
                length = arr.shape[0]
            elif arr.shape[0] != length:
                raise SchemaError(
                    f"column {col_name!r} has {arr.shape[0]} rows, expected {length}"
                )
            # Stored as read-only views: every cache keyed off this table (key
            # position indexes, shard views, serving partials)
            # assumes column data never changes in place.  Mutations must go
            # through the delta API (upsert_rows / delete_rows), which
            # produces a successor table and a capturable delta instead.
            view = arr.view()
            view.setflags(write=False)
            self._columns[col_name] = view
        self._num_rows = int(length or 0)
        self.schema = schema or self._infer_schema()
        missing = [c for c in self.schema.column_names if c not in self._columns]
        if missing:
            raise SchemaError(f"table {name!r} is missing schema columns {missing}")

    # -- construction helpers -------------------------------------------------

    def _infer_schema(self) -> TableSchema:
        """Build a best-effort schema: numeric dtypes are numeric, rest categorical."""
        cols = []
        for col_name, arr in self._columns.items():
            if np.issubdtype(arr.dtype, np.number):
                cols.append(Column(col_name, ColumnType.NUMERIC))
            else:
                cols.append(Column(col_name, ColumnType.CATEGORICAL))
        return TableSchema(name=self.name, columns=cols)

    @classmethod
    def from_records(cls, name: str, records: Iterable[Mapping],
                     schema: Optional[TableSchema] = None) -> "Table":
        """Build a table from an iterable of row dictionaries."""
        records = list(records)
        if not records:
            raise SchemaError(f"table {name!r}: cannot build from zero records")
        col_names = list(records[0].keys())
        columns = {c: [r[c] for r in records] for c in col_names}
        return cls(name, columns, schema=schema)

    # -- basic accessors -------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    @property
    def column_names(self) -> List[str]:
        return list(self._columns.keys())

    def column(self, name: str) -> np.ndarray:
        if name not in self._columns:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return self._columns[name]

    def __len__(self) -> int:
        return self._num_rows

    def __contains__(self, column_name: str) -> bool:
        return column_name in self._columns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, rows={self.num_rows}, columns={self.column_names})"

    # -- relational operations -------------------------------------------------

    def _column_meta(self, name: str) -> Column:
        """The declared :class:`Column` for *name*, or an inferred one."""
        if name in self.schema.column_names:
            return self.schema.column(name)
        arr = self._columns[name]
        ctype = (ColumnType.NUMERIC if np.issubdtype(arr.dtype, np.number)
                 else ColumnType.CATEGORICAL)
        return Column(name, ctype)

    def project(self, column_names: Sequence[str]) -> "Table":
        """Return a new table with only the requested columns (preserving order).

        The declared schema follows the projection: column types are kept and
        the primary key survives if projected.
        """
        missing = [c for c in column_names if c not in self._columns]
        if missing:
            raise SchemaError(f"table {self.name!r} has no columns {missing}")
        cols = {c: self._columns[c] for c in column_names}
        schema = TableSchema(
            name=self.schema.name,
            columns=[self._column_meta(c) for c in column_names],
            primary_key=(self.schema.primary_key
                         if self.schema.primary_key in cols else None),
        )
        return Table(self.name, cols, schema=schema)

    def select_rows(self, row_indices: Sequence[int]) -> "Table":
        """Return a new table containing only the rows at *row_indices* (in order)."""
        idx = np.asarray(row_indices, dtype=np.int64)
        cols = {c: arr[idx] for c, arr in self._columns.items()}
        return Table(self.name, cols, schema=self.schema)

    def row(self, index: int) -> Dict[str, object]:
        """Return one row as a plain dictionary."""
        if not 0 <= index < self._num_rows:
            raise IndexError(f"row index {index} out of range for {self._num_rows} rows")
        return {c: arr[index] for c, arr in self._columns.items()}

    def with_column(self, name: str, values: Sequence) -> "Table":
        """Return a copy of the table with an extra (or replaced) column.

        The declared schema is threaded through: existing columns keep their
        declared types (a replaced column keeps its declaration too -- the
        caller is updating values, not semantics), and a genuinely new column
        is appended with an inferred type.  Dropping the schema here would
        silently degrade every declared CATEGORICAL/KEY column to the
        dtype-inferred default downstream (``encode_features`` would then
        misclassify categorical-coded numeric columns).
        """
        cols = dict(self._columns)
        arr = np.asarray(values)
        cols[name] = arr
        schema = self.schema
        if name not in schema.column_names:
            ctype = (ColumnType.NUMERIC if np.issubdtype(arr.dtype, np.number)
                     else ColumnType.CATEGORICAL)
            schema = TableSchema(
                name=schema.name,
                columns=list(schema.columns) + [Column(name, ctype)],
                primary_key=schema.primary_key,
            )
        return Table(self.name, cols, schema=schema)

    # -- change capture (incremental maintenance) -------------------------------

    def _feature_names(self, feature_columns: Optional[Sequence[str]] = None) -> List[str]:
        """The columns a captured delta covers (default: schema numeric columns)."""
        if feature_columns is not None:
            return list(feature_columns)
        return [c.name for c in self.schema.columns if c.ctype is ColumnType.NUMERIC]

    def _capture_delta(self, rows: np.ndarray, new_features: np.ndarray,
                       names: Sequence[str], version: int):
        """A :class:`~repro.core.delta.MatrixDelta` over the feature columns.

        ``O(b·d)`` -- reads only the changed rows, never the whole table.
        """
        from repro.core.delta import MatrixDelta

        mask = rows < self._num_rows
        old = np.zeros((rows.size, len(names)), dtype=np.float64)
        if mask.any():
            for j, name in enumerate(names):
                old[mask, j] = self._columns[name][rows[mask]].astype(np.float64)
        return MatrixDelta(rows=rows, old=old, new=new_features,
                           num_rows=self._num_rows, version=version)

    def upsert_rows(self, row_indices, updates: Mapping[str, Sequence],
                    feature_columns: Optional[Sequence[str]] = None):
        """Row-level upsert: returns ``(successor_table, feature_delta)``.

        *row_indices* are positions to update; indices at or beyond
        :attr:`num_rows` append, and appends must be contiguous from the end
        (row numbering is what every indicator matrix and cached position
        index is built on).  *updates* maps column name -> one value per
        index; appended rows must provide every column.  The successor shares
        unchanged column arrays, carries :attr:`version` + 1, and starts with
        fresh caches; the returned delta covers *feature_columns* (default:
        the schema's numeric columns) and feeds ``apply_delta`` on normalized
        matrices and scorers.  This table is untouched.
        """
        rows = np.asarray(row_indices, dtype=np.int64).ravel()
        updates = {name: np.asarray(values) for name, values in updates.items()}
        for name, values in updates.items():
            if name not in self._columns:
                raise SchemaError(f"table {self.name!r} has no column {name!r}")
            if values.shape != (rows.size,):
                raise SchemaError(
                    f"column {name!r}: got {values.shape} update values for "
                    f"{rows.size} row indices"
                )
        if rows.size and rows.min() < 0:
            raise SchemaError("row indices must be non-negative")
        new_len = int(max(self._num_rows, rows.max() + 1)) if rows.size else self._num_rows
        if new_len > self._num_rows:
            appended = set(rows[rows >= self._num_rows].tolist())
            expected = set(range(self._num_rows, new_len))
            if appended != expected:
                raise SchemaError(
                    f"appended row indices must be contiguous from {self._num_rows}; "
                    f"missing {sorted(expected - appended)}"
                )
            missing = [c for c in self._columns if c not in updates]
            if missing:
                raise SchemaError(
                    f"appending rows requires a value for every column; missing {missing}"
                )

        cols: Dict[str, np.ndarray] = {}
        for name, arr in self._columns.items():
            values = updates.get(name)
            if values is None:
                cols[name] = arr  # unchanged: shared with the predecessor
                continue
            dtype = np.result_type(arr.dtype, values.dtype) if values.size else arr.dtype
            col = np.empty(new_len, dtype=dtype)
            col[: self._num_rows] = arr
            col[rows] = values
            cols[name] = col
        successor = Table(self.name, cols, schema=self.schema, version=self.version + 1)

        names = self._feature_names(feature_columns)
        new_features = np.zeros((rows.size, len(names)), dtype=np.float64)
        for j, name in enumerate(names):
            source = updates.get(name)
            if source is not None:
                new_features[:, j] = source.astype(np.float64)
            else:
                mask = rows < self._num_rows
                new_features[mask, j] = self._columns[name][rows[mask]].astype(np.float64)
        return successor, self._capture_delta(rows, new_features, names, successor.version)

    def delete_rows(self, row_indices, feature_columns: Optional[Sequence[str]] = None):
        """Tombstone delete: returns ``(successor_table, feature_delta)``.

        The rows' feature columns drop to zero but the rows (and their keys)
        remain, preserving row numbering -- a physical delete would renumber
        every row behind it and invalidate all indicator matrices and cached
        position indexes at once.  The delta is the zeroing, so downstream
        patches remove exactly the rows' contributions.
        """
        rows = np.asarray(row_indices, dtype=np.int64).ravel()
        if rows.size and (rows.min() < 0 or rows.max() >= self._num_rows):
            raise SchemaError(
                f"delete indices must be within 0..{self._num_rows - 1}"
            )
        names = self._feature_names(feature_columns)
        cols = dict(self._columns)
        for name in names:
            col = np.array(self._columns[name])
            col[rows] = 0
            cols[name] = col
        successor = Table(self.name, cols, schema=self.schema, version=self.version + 1)
        zeros = np.zeros((rows.size, len(names)), dtype=np.float64)
        return successor, self._capture_delta(rows, zeros, names, successor.version)

    # -- key utilities ----------------------------------------------------------

    def key_position_index(self, key_column: str) -> Dict[object, int]:
        """Map each value of *key_column* to its (unique) row position.

        Raises :class:`SchemaError` when the column contains duplicates, since
        a primary key must identify rows uniquely.
        """
        return _position_dict(self.name, key_column, self.column(key_column))

    def _key_index(self, key_column: str) -> "_KeyIndex":
        """The cached :class:`_KeyIndex` of one key column (built on first use)."""
        cache = getattr(self, "_key_indexes", None)
        if cache is None:
            cache = {}
            self._key_indexes = cache
        entry = cache.get(key_column)
        if entry is None:
            entry = _KeyIndex(self.name, key_column, self.column(key_column))
            cache[key_column] = entry
        return entry

    def positions_for_keys(self, key_column: str, values: Sequence) -> np.ndarray:
        """Batch key -> row lookup: row positions of *values* by primary key.

        This is the bridge from natural keys (product ids, account numbers)
        to the attribute-table row indices indicator matrices and the
        factorized scorer are built on.  The key column is indexed once per
        ``(table, column)`` and the index is chosen by the data: integer keys
        whose range ``max - min + 1`` is at most 4x the row count get a
        direct-address array (a lookup is one range check and one ``take``),
        other non-object keys a sorted index searched with ``searchsorted``,
        and object keys a dict.  Building the index rejects duplicate keys.
        Float lookups of integer keys match integral values only.  The cache
        is safe because column arrays are stored read-only -- in-place writes
        raise, and the sanctioned mutation path (``upsert_rows`` /
        ``delete_rows``) returns a successor table with fresh caches.
        Returns ``int64`` positions, flattened.  Unknown keys raise
        :class:`SchemaError` (with the first offending value on the
        exception's ``key`` attribute so join-layer callers can re-raise with
        foreign-key context).
        """
        return self._key_index(key_column).positions(values)

    # -- matrix conversion -------------------------------------------------------

    def numeric_matrix(self, column_names: Optional[Sequence[str]] = None) -> np.ndarray:
        """Stack numeric columns into an ``(n, d)`` dense float matrix."""
        names = list(column_names) if column_names is not None else [
            c.name for c in self.schema.columns if c.ctype is ColumnType.NUMERIC
        ]
        for name in names:
            if not np.issubdtype(self.column(name).dtype, np.number):
                raise SchemaError(f"column {name!r} is not numeric")
        return dense_features(self._num_rows, [(self.column(name), None) for name in names])


def _position_dict(table: str, column: str, keys: np.ndarray) -> Dict[object, int]:
    """``{key: row}`` for one key column; raises on the first repeated key."""
    index: Dict[object, int] = {}
    for pos, value in enumerate(keys.tolist()):
        if value in index:
            raise _duplicate_key(table, column, value)
        index[value] = pos
    return index


def _duplicate_key(table: str, column: str, value: object) -> SchemaError:
    return SchemaError(
        f"table {table!r}: duplicate primary key value {value!r} in column {column!r}"
    )


def _unknown_key(table: str, column: str, value: object) -> SchemaError:
    exc = SchemaError(f"table {table!r}: unknown key {value!r} in column {column!r}")
    exc.key = value
    return exc


#: Integer key columns whose value range is at most this many times their
#: row count are indexed by direct addressing.
_DIRECT_DENSITY = 4


class _KeyIndex:
    """Row positions of one key column's values, built once per ``(table, column)``.

    The layout is chosen by the data:

    * integer keys with ``max - min + 1 <= 4 * rows``: ``slots[v - lo]`` is
      the row holding ``v``, ``-1`` a value no row holds.  O(1) per lookup
      and one ``int64`` per value in the range, no Python objects;
    * other non-object keys: the stable ``argsort`` order and the sorted
      keys, searched with ``searchsorted`` (O(log n) per lookup);
    * object keys, whose values may not be mutually orderable: a dict.

    The dict also serves lookups whose dtype the array layouts cannot compare
    (object or mismatched-kind values); a numeric column builds it only on
    such a lookup.
    """

    def __init__(self, table: str, column: str, keys: np.ndarray):
        self._table, self._column, self._keys = table, column, keys
        self._dict: Optional[Dict[object, int]] = None
        self._slots = self._order = self._sorted = None
        self._lo = 0
        if keys.dtype.kind in "iu" and keys.size:
            lo, hi = int(keys.min()), int(keys.max())
            if hi - lo < _DIRECT_DENSITY * keys.size:
                self._lo = lo
                self._slots = np.full(hi - lo + 1, -1, dtype=np.int64)
                self._slots[self._offsets(keys)] = np.arange(keys.size)
                if np.count_nonzero(self._slots >= 0) < keys.size:
                    order = np.argsort(keys, kind="stable")
                    raise self._duplicate(order, keys[order])
                return
        if keys.dtype == object or not keys.size:
            self._dict = _position_dict(table, column, keys)
            return
        self._order = np.argsort(keys, kind="stable")
        self._sorted = keys[self._order]
        if np.any(self._sorted[1:] == self._sorted[:-1]):
            raise self._duplicate(self._order, self._sorted)

    def _duplicate(self, order: np.ndarray, sorted_keys: np.ndarray) -> SchemaError:
        """The error a dict build would raise: the first row whose key repeats."""
        repeats = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1]) + 1
        first = int(order[repeats].min())  # stable sort: later rows follow earlier
        return _duplicate_key(self._table, self._column, self._keys[first].item())

    def _offsets(self, values: np.ndarray) -> np.ndarray:
        """``values - lo`` as ``int64`` slot indexes, for values inside the range."""
        if values.dtype.kind == "f":
            # Truncates a non-integral value onto a neighbouring slot; the
            # caller's key comparison rejects it.
            offsets = (values - self._lo).astype(np.int64)
            return np.clip(offsets, 0, self._slots.size - 1, out=offsets)
        if values.dtype == np.uint64 and self._lo >= 0:
            return (values - np.uint64(self._lo)).astype(np.int64)
        if not values.size:
            return values.astype(np.int64)
        # Every other integer dtype fits int64 (an in-range uint64 with a
        # negative lo is below 4x the row count).
        return values.astype(np.int64) - self._lo

    def positions(self, values) -> np.ndarray:
        flat = np.asarray(values).ravel()
        kind = flat.dtype.kind
        if self._slots is not None and kind in "biuf":
            return self._direct(flat)
        if self._sorted is not None and (
                kind == self._sorted.dtype.kind
                or (kind in "biuf" and self._sorted.dtype.kind in "biuf")):
            return self._search(flat)
        return self._lookup(flat)

    def _direct(self, flat: np.ndarray) -> np.ndarray:
        lo, hi = self._lo, self._lo + self._slots.size - 1
        # Booleans compare as integers (a bool array cannot meet a uint64 lo).
        values = flat.view(np.uint8) if flat.dtype == bool else flat
        inside = (values >= lo) & (values <= hi)  # NaN compares False
        if inside.all():
            pos = self._slots[self._offsets(values)]
        else:
            pos = np.full(flat.size, -1, dtype=np.int64)
            pos[inside] = self._slots[self._offsets(values[inside])]
        found = pos >= 0
        if flat.dtype.kind == "f":
            found &= self._keys[pos] == flat
        if not found.all():
            raise _unknown_key(self._table, self._column,
                               flat[int(np.argmax(~found))].item())
        return pos

    def _search(self, flat: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self._sorted, flat)
        pos = np.minimum(pos, self._sorted.shape[0] - 1)
        found = self._sorted[pos] == flat  # NaN lookups compare unequal -> unknown
        if not np.all(found):
            raise _unknown_key(self._table, self._column,
                               flat[int(np.argmax(~found))].item())
        return self._order[pos].astype(np.int64)

    def _lookup(self, flat: np.ndarray) -> np.ndarray:
        if self._dict is None:
            self._dict = _position_dict(self._table, self._column, self._keys)
        positions = np.empty(flat.size, dtype=np.int64)
        for i, value in enumerate(flat.tolist()):
            try:
                positions[i] = self._dict[value]
            except (KeyError, TypeError):
                raise _unknown_key(self._table, self._column, value) from None
        return positions


#: Bytes of output :func:`dense_features` writes per row tile: half of a
#: 2 MiB per-core L2 cache, the fastest of 64 KiB-4 MiB tiles when timed on
#: a Xeon with that cache (4 MiB tiles lose the gain).
_TILE_BYTES = 1 << 20


def dense_features(num_rows: int,
                   parts: Sequence[Tuple[np.ndarray, Optional[int]]]) -> np.ndarray:
    """Assemble feature columns into one C-order ``(num_rows, d)`` float64 matrix.

    Each part is ``(values, None)`` -- a numeric column, cast to float64 --
    or ``(codes, width)`` -- a one-hot block of *width* columns with a 1 at
    each row's code (``-1``: an all-zero row).  The output is allocated once
    and filled in row tiles of about 1 MiB, so every column of a tile is
    written while the tile is in cache, instead of stacking per-column copies.
    """
    widths = [1 if width is None else width for _, width in parts]
    out = np.empty((num_rows, sum(widths)))
    step = max(1, _TILE_BYTES // (8 * max(out.shape[1], 1)))
    for start in range(0, num_rows, step):
        tile = out[start:start + step]
        col = 0
        for (values, width), w in zip(parts, widths):
            chunk = values[start:start + step]
            if width is None:
                tile[:, col] = chunk
            else:
                block = tile[:, col:col + w]
                block.fill(0.0)
                rows = np.flatnonzero(chunk >= 0)
                block[rows, chunk[rows]] = 1.0
            col += w
    return out

