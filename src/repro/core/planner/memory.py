"""Memory-footprint models for the cost-based planner and the streaming layer.

The planner's other dimensions (arithmetic, dispatch, engine, one-time) model
*time*; this module models *space*.  Two resident footprints matter when
deciding whether an operand can be executed in memory at all:

* the **materialized** footprint -- the dense join output ``n_S x d`` a
  materialized plan would have to hold, and
* the **factorized** footprint -- the base matrices plus the indicator
  codes a factorized plan keeps resident (usually far smaller, which is
  the paper's redundancy argument in byte form).

When a :class:`~repro.core.planner.planner.Planner` is given a
``memory_budget`` it drops candidates whose resident footprint exceeds the
budget and scores a ``"streamed"`` candidate instead: execution over
:meth:`~repro.core.partitioned.Partitioned.streamed`, one row batch at a
time, whose batch size :func:`batch_rows_for_budget` derives from the same
footprint model.  The batch size is chosen so that even a *densified* batch
(the worst intermediate any Table-1 operator produces) fits in the budget,
so the bound holds for every operator mix.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.la.indicator import Indicator

#: Bytes per dense float64 element.
DENSE_ELEMENT_BYTES = 8
#: Approximate bytes per stored non-zero of a CSR matrix (float64 value +
#: int32/int64 column index, amortized indptr).
SPARSE_NNZ_BYTES = 16
#: Per-row overhead of slicing the (one-nonzero-per-row) indicator matrices
#: when a factorized batch is cut out of the normalized matrix.
INDICATOR_ROW_BYTES = SPARSE_NNZ_BYTES


def matrix_nbytes(matrix) -> int:
    """Best-effort resident size in bytes of one concrete matrix."""
    if matrix is None:
        return 0
    if sp.issparse(matrix):
        total = 0
        for attr in ("data", "indices", "indptr", "row", "col", "offsets"):
            part = getattr(matrix, attr, None)
            if part is not None:
                total += int(np.asarray(part).nbytes)
        return total
    if isinstance(matrix, np.ndarray):
        return int(matrix.nbytes)
    if isinstance(matrix, Indicator):
        # Its codes; the CSR form is built only for generic sparse products.
        return int(matrix.codes.nbytes)
    shape = getattr(matrix, "shape", None)
    if shape is None:
        return 0
    return int(shape[0]) * int(shape[1]) * DENSE_ELEMENT_BYTES


def _logical_dims(data) -> Tuple[int, int]:
    """(rows, cols) of the untransposed logical matrix behind *data*."""
    rows = getattr(data, "logical_rows", None)
    cols = getattr(data, "logical_cols", None)
    if rows is not None and cols is not None:
        return int(rows), int(cols)
    n_rows, n_cols = data.shape
    if getattr(data, "transposed", False):
        n_rows, n_cols = n_cols, n_rows
    return int(n_rows), int(n_cols)


def materialized_nbytes(data) -> int:
    """Bytes of the dense join output a materialized plan keeps resident.

    For operands that *are* already materialized (plain, or partitioned into
    plain pieces) this is their actual storage size; for normalized operands
    it is the dense ``n_S x d`` the join would produce.
    """
    from repro.core.normalized_matrix import NormalizedMatrix
    from repro.core.partitioned import Partitioned

    if isinstance(data, NormalizedMatrix) or (
            isinstance(data, Partitioned) and data.factorized):
        rows, cols = _logical_dims(data)
        return rows * cols * DENSE_ELEMENT_BYTES
    if isinstance(data, Partitioned):
        return sum(matrix_nbytes(p) for p in data.parts)
    return matrix_nbytes(data)


def factorized_nbytes(data) -> int:
    """Bytes the factorized representation keeps resident (bases + indicators)."""
    from repro.core.normalized_matrix import NormalizedMatrix
    from repro.core.partitioned import Partitioned

    if isinstance(data, NormalizedMatrix):
        total = matrix_nbytes(data.entity)
        total += sum(matrix_nbytes(k) for k in data.indicators)
        total += sum(matrix_nbytes(r) for r in data.attributes)
        return total
    if isinstance(data, Partitioned) and data.factorized:  # the attributes are shared
        total = sum(factorized_nbytes(p) for p in data.parts)
        shared = sum(matrix_nbytes(r) for r in data.parts[0].attributes)
        return total - shared * (len(data.parts) - 1)
    return materialized_nbytes(data)


def entity_stream_nbytes(data) -> int:
    """Bytes of the n-row structures one factorized pass streams through.

    A factorized Table-1 pass touches the entity matrix and the indicator
    matrices end to end; the attribute tables are the shared, always-resident
    part (they are reused untouched by every pass and every mini-batch, the
    paper's central sharing argument).  This is the factorized working set a
    memory budget has to cover when the pass is *not* streamed; the streamed
    backend replaces it with one batch's slice.
    """
    from repro.core.normalized_matrix import NormalizedMatrix
    from repro.core.partitioned import Partitioned

    if isinstance(data, NormalizedMatrix):
        return matrix_nbytes(data.entity) + sum(matrix_nbytes(k) for k in data.indicators)
    if isinstance(data, Partitioned) and data.factorized:
        return sum(entity_stream_nbytes(p) for p in data.parts)
    return materialized_nbytes(data)


def validate_memory_budget(memory_budget: Optional[float]) -> Optional[float]:
    """A ``memory_budget`` argument as float bytes; ``None`` means unbounded.

    Anything else must be positive and finite: a NaN or infinite budget
    cannot size a batch.
    """
    if memory_budget is None:
        return None
    budget = float(memory_budget)
    if not 0 < budget < math.inf:
        raise ValueError(
            f"memory_budget must be a positive, finite number of bytes, "
            f"got {memory_budget!r}")
    return budget


def _row_nbytes(n_cols: int, num_joins: int) -> int:
    """Conservative resident bytes of one batch row: the densified row width
    (the worst-case intermediate a Table-1 operator materializes) plus the
    per-join indicator slice overhead."""
    return max(1, n_cols * DENSE_ELEMENT_BYTES + num_joins * INDICATOR_ROW_BYTES)


def batch_rows_for_dims(n_rows: int, n_cols: int, num_joins: int,
                        memory_budget: float, min_rows: int = 1) -> int:
    """:func:`batch_rows_for_budget` on explicit dimensions (planner-internal)."""
    memory_budget = validate_memory_budget(memory_budget)
    batch_rows = int(memory_budget // _row_nbytes(n_cols, num_joins))
    if n_rows > 0:
        return max(min(batch_rows, n_rows), min(min_rows, n_rows), 1)
    return max(batch_rows, min_rows, 1)


def batch_rows_for_budget(data, memory_budget: float, min_rows: int = 1) -> int:
    """Mini-batch row count such that one batch fits in *memory_budget* bytes.

    Clamped to ``[min_rows, n_rows]``: a budget too small for even one row
    still yields ``min_rows``-row batches (the stream degrades gracefully
    rather than refusing to run), and a budget larger than the whole matrix
    yields one full-size batch.
    """
    rows, cols = _logical_dims(data)
    num_joins = len(getattr(data, "indicators", ()))
    return batch_rows_for_dims(rows, cols, num_joins, memory_budget, min_rows=min_rows)


def streamed_batch_count(n_rows: int, batch_rows: int) -> int:
    """Number of batches one pass over *n_rows* rows takes at *batch_rows*."""
    if n_rows <= 0:
        return 0
    return -(-int(n_rows) // max(int(batch_rows), 1))
