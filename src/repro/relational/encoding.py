"""Feature encoding: turning table columns into (sparse) feature matrices.

The paper's real datasets "are represented as sparse feature matrices to
handle nominal features" (Section 5, Table 6).  This module provides the
one-hot encoder that performs that conversion, plus a convenience function
that turns a whole :class:`~repro.relational.table.Table` into a
:class:`FeatureMatrix` according to its schema (numeric columns pass through,
categorical columns are one-hot encoded, key/target columns are skipped).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import SchemaError
from repro.la.types import MatrixLike
from repro.relational.schema import ColumnType
from repro.relational.table import Table, dense_features


@dataclass
class FeatureMatrix:
    """A feature matrix plus the names of the columns it was built from."""

    matrix: MatrixLike
    feature_names: List[str]

    @property
    def shape(self) -> tuple:
        return self.matrix.shape

    @property
    def num_features(self) -> int:
        return self.matrix.shape[1]


#: The single category NaN/None values canonicalize to.  A plain string so it
#: sorts, hashes and renders in feature names like any other category.
MISSING_CATEGORY = "<missing>"


def _is_missing(value: object) -> bool:
    """True for the values treated as "missing": None and float NaN."""
    if value is None:
        return True
    return isinstance(value, float) and np.isnan(value)


class OneHotEncoder:
    """One-hot encode a single categorical column into a sparse 0/1 matrix.

    The encoder learns the category vocabulary with :meth:`fit` and produces a
    CSR matrix with one column per learned category in :meth:`transform`.
    Unknown categories at transform time either raise (default) or map to an
    all-zero row when ``handle_unknown='ignore'``.

    Missing values (``None`` and float NaN) are canonicalized to the single
    :data:`MISSING_CATEGORY` before anything else (``missing='encode'``, the
    default) -- without this, ``NaN != NaN`` makes ``fit`` keep one category
    per NaN occurrence and ``transform`` then fails on the exact data it was
    fitted on.  ``missing='error'`` rejects missing values with a
    :class:`SchemaError` instead.
    """

    def __init__(self, handle_unknown: str = "error", missing: str = "encode"):
        if handle_unknown not in ("error", "ignore"):
            raise ValueError("handle_unknown must be 'error' or 'ignore'")
        if missing not in ("encode", "error"):
            raise ValueError("missing must be 'encode' or 'error'")
        self.handle_unknown = handle_unknown
        self.missing = missing
        self.categories_: Optional[List[object]] = None
        self._index: Dict[object, int] = {}

    def _canonicalize(self, values: Sequence, stage: str) -> List[object]:
        # No np.asarray here: coercing a mixed list like ["x", nan] to a
        # Unicode array would turn NaN into the string "nan" before the
        # missing-value check can see it.
        seq = values.tolist() if isinstance(values, np.ndarray) else list(values)
        out = []
        for i, v in enumerate(seq):
            if _is_missing(v):
                if self.missing == "error":
                    raise SchemaError(
                        f"missing value ({v!r}) at row {i} during {stage}; "
                        "this encoder was configured with missing='error' -- "
                        "impute the column or use missing='encode'"
                    )
                v = MISSING_CATEGORY
            out.append(v)
        return out

    def fit(self, values: Sequence) -> "OneHotEncoder":
        uniques = sorted(set(self._canonicalize(values, "fit")), key=repr)
        self.categories_ = list(uniques)
        self._index = {v: i for i, v in enumerate(self.categories_)}
        return self

    def _codes(self, values: Sequence) -> np.ndarray:
        """Each value's category index; ``-1`` for an ignored unknown value."""
        if self.categories_ is None:
            raise SchemaError("OneHotEncoder.transform called before fit")
        values = self._canonicalize(values, "transform")
        codes = np.empty(len(values), dtype=np.int64)
        for i, v in enumerate(values):
            j = self._index.get(v)
            if j is None:
                if self.handle_unknown == "error":
                    raise SchemaError(f"unknown category {v!r} at row {i}")
                j = -1
            codes[i] = j
        return codes

    def transform(self, values: Sequence) -> sp.csr_matrix:
        codes = self._codes(values)
        rows = np.flatnonzero(codes >= 0)
        data = np.ones(rows.size, dtype=np.float64)
        return sp.csr_matrix(
            (data, (rows, codes[rows])), shape=(codes.size, len(self.categories_))
        )

    def fit_transform(self, values: Sequence) -> sp.csr_matrix:
        return self.fit(values).transform(values)

    def feature_names(self, column_name: str) -> List[str]:
        if self.categories_ is None:
            raise SchemaError("OneHotEncoder.feature_names called before fit")
        return [f"{column_name}={c}" for c in self.categories_]


def encode_features(table: Table, columns: Optional[Sequence[str]] = None,
                    sparse: bool = True) -> FeatureMatrix:
    """Encode a table's feature columns into a single feature matrix.

    Numeric columns become one feature each; categorical columns are one-hot
    encoded.  The output is sparse CSR when ``sparse=True`` (the default, and
    what the real-data benchmarks use) or dense otherwise.  Key and target
    columns are skipped unless explicitly listed in *columns*.
    """
    if columns is None:
        columns = [c.name for c in table.schema.feature_columns()]
    blocks: List[sp.csr_matrix] = []
    parts: List[Tuple[np.ndarray, Optional[int]]] = []
    names: List[str] = []
    for name in columns:
        column = table.schema.column(name) if name in table.schema.column_names else None
        values = table.column(name)
        is_numeric = np.issubdtype(values.dtype, np.number)
        treat_as_numeric = is_numeric and (
            column is None or column.ctype in (ColumnType.NUMERIC, ColumnType.TARGET)
        )
        if treat_as_numeric:
            if sparse:
                blocks.append(sp.csr_matrix(values.astype(np.float64).reshape(-1, 1)))
            else:
                parts.append((values, None))
            names.append(name)
        else:
            encoder = OneHotEncoder().fit(values)
            if sparse:
                blocks.append(encoder.transform(values))
            else:
                parts.append((encoder._codes(values), len(encoder.categories_)))
            names.extend(encoder.feature_names(name))
    if not sparse:
        # One preallocated matrix, filled in cache-sized row tiles.
        return FeatureMatrix(dense_features(table.num_rows, parts), names)
    if not blocks:
        return FeatureMatrix(sp.csr_matrix((table.num_rows, 0)), [])
    return FeatureMatrix(sp.hstack(blocks, format="csr"), names)
