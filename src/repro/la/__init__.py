"""Linear-algebra utility layer.

This subpackage is the substrate every other part of the library builds on.
It provides:

* :mod:`repro.la.types` -- shared type aliases and dense/sparse predicates.
* :mod:`repro.la.indicator` -- :class:`Indicator`, the PK-FK / M:N indicator
  matrix stored as one integer code per row.
* :mod:`repro.la.ops` -- a uniform set of LA primitives (``rowsums``,
  ``colsums``, ``crossprod``, ``ginv`` ...) that behave identically for dense
  NumPy arrays and SciPy sparse matrices.  The Morpheus rewrite rules are
  expressed exclusively in terms of these primitives, which is what gives the
  framework *closure*: a rewritten operator is just another LA expression.
* :mod:`repro.la.generic` -- the same primitives dispatched on the operand's
  own methods, so one ML script runs over plain, normalized and
  row-partitioned (:mod:`repro.core.partitioned`) operands alike.
* :mod:`repro.la.parallel` -- the fan-out executor the row-partitioned
  operand (:mod:`repro.core.partitioned`) maps its pieces through: inline,
  or on the one process-wide thread pool.
"""

from repro.la.indicator import Indicator
from repro.la.types import (
    MatrixLike,
    is_sparse,
    is_dense,
    is_vector,
    ensure_2d,
    to_dense,
    to_sparse,
)
from repro.la.ops import (
    rowsums,
    colsums,
    total_sum,
    crossprod,
    ginv,
    diag_scale_rows,
    sparse_diag,
    hstack,
    vstack,
    matmul,
    transpose,
    elementwise,
    scalar_op,
    allclose,
    nnz,
    row_min,
    indicator_from_labels,
)
from repro.la.parallel import (
    ParallelExecutor,
    SerialPool,
    ThreadPool,
    resolve_pool,
)

__all__ = [
    "Indicator",
    "MatrixLike",
    "is_sparse",
    "is_dense",
    "is_vector",
    "ensure_2d",
    "to_dense",
    "to_sparse",
    "rowsums",
    "colsums",
    "total_sum",
    "crossprod",
    "ginv",
    "diag_scale_rows",
    "sparse_diag",
    "hstack",
    "vstack",
    "matmul",
    "transpose",
    "elementwise",
    "scalar_op",
    "allclose",
    "nnz",
    "row_min",
    "indicator_from_labels",
    "SerialPool",
    "ThreadPool",
    "ParallelExecutor",
    "resolve_pool",
]
