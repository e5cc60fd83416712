"""Shared matrix type aliases and small structural predicates.

The library works with three families of operand:

* dense ``numpy.ndarray`` (2-D, or 1-D vectors that we promote to 2-D),
* SciPy sparse matrices (any format; CSR is the canonical internal format),
* the library's own logical types (``NormalizedMatrix``, ``Partitioned``),
  and the :class:`~repro.la.indicator.Indicator` matrices they route through.

The helpers in this module normalize the first two so the rest of the code
never needs to branch on ``isinstance`` checks scattered around.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ShapeError
from repro.la.indicator import Indicator

#: Anything accepted as a plain (non-normalized) matrix operand.
MatrixLike = Union[np.ndarray, sp.spmatrix, Indicator]


def is_sparse(x: object) -> bool:
    """Return ``True`` if *x* is a SciPy sparse matrix (any format)."""
    return sp.issparse(x)


def is_dense(x: object) -> bool:
    """Return ``True`` if *x* is a dense NumPy ndarray."""
    return isinstance(x, np.ndarray)


def is_matrix_like(x: object) -> bool:
    """Return ``True`` if *x* is a plain dense, sparse or indicator matrix."""
    return is_dense(x) or is_sparse(x) or isinstance(x, Indicator)


def is_scalar(x: object) -> bool:
    """Return ``True`` if *x* is a Python or NumPy int/float (``bool`` excluded)."""
    return isinstance(x, (int, float, np.floating, np.integer)) and not isinstance(x, bool)


def is_vector(x: object) -> bool:
    """Return ``True`` if *x* is a 1-D array or a 2-D array with one row/column."""
    if is_dense(x):
        return x.ndim == 1 or (x.ndim == 2 and 1 in x.shape)
    if is_sparse(x):
        return 1 in x.shape
    return False


def ensure_2d(x: MatrixLike) -> MatrixLike:
    """Promote 1-D dense vectors to column matrices; pass everything else through.

    Sparse matrices are always 2-D already.  Raises :class:`ShapeError` for
    inputs with more than two dimensions.
    """
    if is_sparse(x) or isinstance(x, Indicator):
        return x
    arr = np.asarray(x)
    if arr.ndim == 1:
        return arr.reshape(-1, 1)
    if arr.ndim == 2:
        return arr
    raise ShapeError(f"expected a 1-D or 2-D operand, got ndim={arr.ndim}")


def to_dense(x: MatrixLike) -> np.ndarray:
    """Return a dense ``ndarray`` view/copy of *x*."""
    if is_sparse(x) or isinstance(x, Indicator):
        return x.toarray()
    return np.asarray(x)


def to_sparse(x: MatrixLike, fmt: str = "csr") -> sp.spmatrix:
    """Return *x* as a SciPy sparse matrix in the requested format."""
    if isinstance(x, Indicator):
        x = x.sparse()
    if is_sparse(x):
        return x.asformat(fmt)
    return sp.csr_matrix(np.atleast_2d(np.asarray(x))).asformat(fmt)


def shape_of(x: MatrixLike) -> tuple:
    """Return the 2-D shape of *x*, promoting 1-D vectors to column shape."""
    if is_sparse(x) or isinstance(x, Indicator):
        return x.shape
    arr = np.asarray(x)
    if arr.ndim == 1:
        return (arr.shape[0], 1)
    return arr.shape


def check_same_shape(a: MatrixLike, b: MatrixLike, context: str = "operation") -> None:
    """Raise :class:`ShapeError` unless *a* and *b* have identical 2-D shapes."""
    sa, sb = shape_of(a), shape_of(b)
    if sa != sb:
        raise ShapeError(f"{context}: shape mismatch {sa} vs {sb}")


def integral_int64(values, what: str) -> np.ndarray:
    """Return *values* as a flat ``int64`` array, refusing anything not integral.

    Float arrays are accepted only when every value is finite and exactly
    integral (``np.arange(5.0)`` and integer-valued columns round-tripped
    through float storage are common); anything fractional, non-finite, or of
    a non-numeric dtype raises :class:`ShapeError` naming *what* -- silently
    truncating ``1.7`` to ``1`` would pick the wrong row or key instead of
    surfacing the caller's bug.
    """
    values = np.asarray(values)
    if not (np.issubdtype(values.dtype, np.integer)
            or np.issubdtype(values.dtype, np.floating)):
        raise ShapeError(f"{what} must be integers, got dtype {values.dtype}")
    if np.issubdtype(values.dtype, np.floating) and values.size:
        if not np.all(np.isfinite(values)):
            raise ShapeError(f"{what} must be finite integers, got NaN or infinity")
        if not np.array_equal(values, np.trunc(values)):
            raise ShapeError(
                f"{what} must be integral; got non-integral float values "
                "(truncating them would silently select the wrong rows)"
            )
    return values.ravel().astype(np.int64)


def normalize_row_indices(row_indices, n_rows: int) -> np.ndarray:
    """Validate a row-selection argument and return it as an ``int64`` index array.

    Accepts an integer index array (duplicates and arbitrary order allowed) or
    a boolean mask of length *n_rows*; integral floats are accepted and
    anything else rejected as by :func:`integral_int64`.  Used by every
    ``take_rows`` implementation so all row selection rejects bad input
    identically.
    """
    indices = np.asarray(row_indices)
    if indices.dtype == bool:
        if indices.ndim != 1 or indices.shape[0] != n_rows:
            raise ShapeError("boolean row mask length does not match the number of rows")
        return np.flatnonzero(indices)
    indices = integral_int64(indices, "row indices")
    if indices.size and (indices.min() < 0 or indices.max() >= n_rows):
        raise ShapeError("row indices out of range")
    return indices


def check_matmul_shapes(a_shape: tuple, b_shape: tuple, context: str = "matmul") -> None:
    """Raise :class:`ShapeError` unless ``a @ b`` is dimensionally valid."""
    if a_shape[1] != b_shape[0]:
        raise ShapeError(
            f"{context}: inner dimensions do not agree, {a_shape} @ {b_shape}"
        )
