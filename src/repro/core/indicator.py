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
operator).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import IndicatorError
from repro.la.chain import ChainedIndicator
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


def _as_binary_csr(matrix: MatrixLike, context: str) -> sp.csr_matrix:
    csr = to_sparse(matrix, "csr")
    if csr.nnz and not np.all(csr.data == 1.0):
        raise IndicatorError(f"{context}: all stored entries must equal 1")
    return csr


def validate_pk_fk_indicator(matrix: MatrixLike, require_full_columns: bool = True):
    """Validate an indicator matrix ``K`` (PK-FK or M:N) and return it as CSR.

    Checks that every row has exactly one entry equal to one, and (optionally)
    that every column is referenced at least once, which the paper assumes
    after dropping unreferenced attribute tuples (for M:N: base rows that
    contribute no join output rows).

    A multi-hop :class:`~repro.la.chain.ChainedIndicator` is validated hop by
    hop -- each hop must itself be a valid PK-FK indicator, which makes the
    product one too -- plus the column-coverage check on the (virtual)
    product, and is returned unchanged (still factorized).
    """
    if isinstance(matrix, ChainedIndicator):
        if matrix.transposed:
            raise IndicatorError(
                "PK-FK indicator: a transposed chain is not a row indicator"
            )
        for i, hop in enumerate(matrix.hops):
            try:
                validate_pk_fk_indicator(hop, require_full_columns=False)
            except IndicatorError as exc:
                raise IndicatorError(f"chain hop {i}: {exc}") from None
        if require_full_columns and matrix.shape[1]:
            # Column coverage of the product via composed codes -- O(rows),
            # no need to materialize the collapsed chain.
            col_counts = np.bincount(writable_codes(matrix),
                                     minlength=matrix.shape[1])
            if np.any(col_counts == 0):
                bad = int(np.argmax(col_counts == 0))
                raise IndicatorError(
                    f"PK-FK indicator chain: column {bad} is never reached through "
                    "the hops; drop unreferenced attribute rows before building "
                    "the normalized matrix"
                )
        return matrix
    csr = _as_binary_csr(matrix, "PK-FK indicator")
    row_counts = np.diff(csr.indptr)
    if csr.shape[0] and not np.all(row_counts == 1):
        bad = int(np.argmax(row_counts != 1))
        raise IndicatorError(
            f"PK-FK indicator: row {bad} has {int(row_counts[bad])} non-zeros, expected exactly 1"
        )
    if require_full_columns and csr.shape[1]:
        col_counts = np.asarray(csr.sum(axis=0)).ravel()
        if np.any(col_counts == 0):
            bad = int(np.argmax(col_counts == 0))
            raise IndicatorError(
                f"PK-FK indicator: column {bad} is never referenced; "
                "drop unreferenced attribute rows before building the normalized matrix"
            )
    return csr


# Memoized codes per indicator object: the scorer, the zone-map index and the
# fused kernels all work in code space, so each indicator's codes are computed
# once and shared.  Keyed by id() with a weakref liveness check (id reuse after
# garbage collection must not serve stale codes); entries evict themselves when
# the indicator dies.  Each entry holds one writable array and a read-only view
# of it: callers get the view, so sharing is safe, while the kernels index with
# the array itself (NumPy copies a read-only index array on every take or
# bincount).
_CODES_CACHE: Dict[int, Tuple[weakref.ref, np.ndarray, np.ndarray]] = {}


def reset_codes_cache() -> None:
    """Drop all memoized indicator codes (test isolation hook)."""
    _CODES_CACHE.clear()


def _compute_codes(matrix: MatrixLike) -> np.ndarray:
    if isinstance(matrix, ChainedIndicator) and not matrix.transposed:
        codes = writable_codes(matrix.hops[0])
        for hop in matrix.hops[1:]:
            codes = writable_codes(hop)[codes]
        return codes
    csr = to_sparse(matrix, "csr")
    row_counts = np.diff(csr.indptr)
    if csr.shape[0] and not np.all(row_counts == 1):
        bad = int(np.argmax(row_counts != 1))
        raise IndicatorError(
            f"indicator: row {bad} has {int(row_counts[bad])} non-zeros, expected exactly 1"
        )
    return csr.indices.astype(np.int64)


def _memoized_codes(matrix: MatrixLike) -> Tuple[np.ndarray, np.ndarray]:
    """``(codes, read-only view of codes)`` for *matrix*, computed once."""
    key = id(matrix)
    entry = _CODES_CACHE.get(key)
    if entry is not None:
        ref, codes, view = entry
        if ref() is matrix:
            return codes, view
        del _CODES_CACHE[key]
    codes = _compute_codes(matrix)
    view = codes.view()
    view.setflags(write=False)
    try:
        ref = weakref.ref(matrix, lambda _r, _key=key: _CODES_CACHE.pop(_key, None))
    except TypeError:
        return codes, view
    _CODES_CACHE[key] = (ref, codes, view)
    return codes, view


def indicator_codes(matrix: MatrixLike) -> np.ndarray:
    """Recover the per-row key codes of an indicator matrix.

    For a valid PK-FK or M:N indicator (exactly one non-zero per row) the
    code of row ``i`` is the column holding that non-zero -- i.e. the
    attribute-table row the join routes row ``i`` to.  This is the inverse of
    :func:`repro.la.ops.indicator_from_labels` and what the serving subsystem
    and the fused kernel layer gather with.  Chained indicators compose hop
    codes (``c = c2[c1]``) without materializing the product.

    Results are memoized per indicator object and returned read-only; copy
    before mutating.
    """
    return _memoized_codes(matrix)[1]


def writable_codes(matrix: MatrixLike) -> np.ndarray:
    """The memoized codes of *matrix* as the writable array behind
    :func:`indicator_codes`' view, for gathers that must not pay NumPy's
    copy of a read-only index.  Shared: never write to it."""
    return _memoized_codes(matrix)[0]


def indicator_stats(matrix: MatrixLike) -> IndicatorStats:
    """Compute summary statistics (shape, nnz, per-column fan-out range)."""
    csr = to_sparse(matrix, "csr")
    if csr.shape[1] == 0:
        return IndicatorStats(csr.shape, int(csr.nnz), 0, 0)
    col_counts = np.asarray(csr.sum(axis=0)).ravel()
    return IndicatorStats(
        shape=csr.shape,
        nnz=int(csr.nnz),
        min_rows_per_column=int(col_counts.min()),
        max_rows_per_column=int(col_counts.max()),
    )
