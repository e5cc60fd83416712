"""Generic LA functions that dispatch on the operand's own methods.

The ML algorithms in :mod:`repro.ml` are written once against these functions
and therefore run unchanged over:

* plain dense/sparse matrices (dispatches to :mod:`repro.la.ops`),
* :class:`~repro.core.normalized_matrix.NormalizedMatrix`, star or M:N
  (dispatches to the object's factorized methods), and
* :class:`~repro.core.partitioned.Partitioned` (dispatches to its
  piece-at-a-time methods).

This is the concrete realization of the paper's automation claim: the ML
script is the *same* LA script in both the standard and factorized versions;
only the type of the data matrix changes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.la import ops as la_ops
from repro.la.types import MatrixLike, to_dense


def rowsums(x) -> np.ndarray:
    """Row sums, via the operand's ``rowsums`` method when it has one."""
    if hasattr(x, "rowsums"):
        return x.rowsums()
    return la_ops.rowsums(x)


def colsums(x) -> np.ndarray:
    """Column sums, via the operand's ``colsums`` method when it has one."""
    if hasattr(x, "colsums"):
        return x.colsums()
    return la_ops.colsums(x)


def total_sum(x) -> float:
    """Grand total, via the operand's ``total_sum`` method when it has one."""
    if hasattr(x, "total_sum"):
        return x.total_sum()
    return la_ops.total_sum(x)


def crossprod(x) -> np.ndarray:
    """Gram matrix ``x^T x``, via the operand's ``crossprod`` method when present."""
    if hasattr(x, "crossprod"):
        return np.asarray(x.crossprod())
    return np.asarray(to_dense(la_ops.crossprod(x)))


def ginv(x) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via the operand's ``ginv`` method when present."""
    if hasattr(x, "ginv"):
        return np.asarray(x.ginv())
    return la_ops.ginv(x)


def elementwise(x, fn: Callable[[np.ndarray], np.ndarray]):
    """Element-wise scalar function, via the operand's ``apply`` when it has one."""
    if hasattr(x, "apply"):
        return x.apply(fn)
    return la_ops.elementwise(x, fn)


def square(x):
    """Element-wise square of any operand family.

    Plain SciPy sparse matrices interpret ``**`` as matrix power, so they are
    routed through the element-wise primitive instead; normalized and
    partitioned matrices overload ``**`` element-wise already.
    """
    if hasattr(x, "apply"):
        return x ** 2
    return la_ops.scalar_op(x, "**", 2.0)


def matmul(a, b):
    """Matrix product honouring operator overloads on either operand."""
    return a @ b


def row_min(x) -> np.ndarray:
    """Row-wise minimum of a *regular* matrix (distance matrices are dense)."""
    return la_ops.row_min(to_dense_result(x))


def to_dense_result(x) -> np.ndarray:
    """Densify an operator *result* (never a normalized data matrix)."""
    if hasattr(x, "to_dense"):
        return x.to_dense()
    return to_dense(x)


def num_rows(x) -> int:
    """Number of rows of any operand family."""
    return int(x.shape[0])


def num_cols(x) -> int:
    """Number of columns of any operand family."""
    return int(x.shape[1])
