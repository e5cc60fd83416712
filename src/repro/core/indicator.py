"""Validation and inspection of indicator matrices.

The normalized matrix is only well-defined when its indicator matrices have
the structure the paper relies on: every row has exactly one non-zero, every
non-zero equals one, and (after the pre-processing of Section 3.1) every
column has at least one non-zero.  That holds for the PK-FK indicator ``K``
(Section 3.1, ``nnz(K) == n_S``) and for the M:N indicators ``I_S``/``I_R``
(Section 3.6, ``nnz(I) == |T'|``, the join output size) alike, so one
validator covers both.

These invariants are exactly what the rewrite rules' correctness proofs use,
so the normalized-matrix constructor validates them eagerly
(validation is linear in ``nnz`` and therefore cheap relative to any LA
operator) and stores every indicator as its row codes
(:class:`~repro.la.indicator.Indicator`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import IndicatorError
from repro.la.indicator import Indicator
from repro.la.types import MatrixLike, to_sparse


@dataclass(frozen=True)
class IndicatorStats:
    """Summary statistics of an indicator matrix."""

    shape: tuple
    nnz: int
    min_rows_per_column: int
    max_rows_per_column: int

    @property
    def average_fanout(self) -> float:
        """Average number of referencing rows per referenced row."""
        if self.shape[1] == 0:
            return 0.0
        return self.nnz / self.shape[1]


def as_indicator(matrix: MatrixLike) -> Indicator:
    """*matrix* as an :class:`~repro.la.indicator.Indicator` (itself if it is
    one); a sparse or dense input must hold exactly one 1 per row."""
    if isinstance(matrix, Indicator):
        if matrix.transposed:
            raise IndicatorError("PK-FK indicator: a transposed indicator is not a row indicator")
        return matrix
    csr = to_sparse(matrix, "csr")
    if csr.nnz and not np.all(csr.data == 1.0):
        raise IndicatorError("PK-FK indicator: all stored entries must equal 1")
    row_counts = np.diff(csr.indptr)
    if csr.shape[0] and not np.all(row_counts == 1):
        bad = int(np.argmax(row_counts != 1))
        raise IndicatorError(
            f"PK-FK indicator: row {bad} has {int(row_counts[bad])} non-zeros, expected exactly 1"
        )
    return Indicator(csr.indices, csr.shape[1])


def validate_pk_fk_indicator(matrix: MatrixLike, require_full_columns: bool = True) -> Indicator:
    """Validate an indicator matrix ``K`` (PK-FK or M:N) as an :class:`Indicator`.

    Checks that every row has exactly one entry equal to one, and (optionally)
    that every column is referenced at least once, which the paper assumes
    after dropping unreferenced attribute tuples (for M:N: base rows that
    contribute no join output rows).
    """
    indicator = as_indicator(matrix)
    if require_full_columns and indicator.n_cols:
        col_counts = np.bincount(indicator._codes, minlength=indicator.n_cols)
        if np.any(col_counts == 0):
            bad = int(np.argmax(col_counts == 0))
            raise IndicatorError(
                f"PK-FK indicator: column {bad} is never referenced; "
                "drop unreferenced attribute rows before building the normalized matrix"
            )
    return indicator


def indicator_codes(matrix: MatrixLike) -> np.ndarray:
    """The per-row codes (read-only) of an indicator matrix: row ``i``'s code
    is the attribute-table row the join routes it to, the inverse of
    :func:`repro.la.ops.indicator_from_labels`."""
    return as_indicator(matrix).codes


def indicator_stats(matrix: MatrixLike) -> IndicatorStats:
    """Compute summary statistics (shape, nnz, per-column fan-out range)."""
    if matrix.shape[1] == 0:
        return IndicatorStats(tuple(matrix.shape), 0, 0, 0)
    indicator = as_indicator(matrix)
    col_counts = np.bincount(indicator._codes, minlength=indicator.n_cols)
    return IndicatorStats(
        shape=indicator.shape,
        nnz=indicator.nnz,
        min_rows_per_column=int(col_counts.min()),
        max_rows_per_column=int(col_counts.max()),
    )
