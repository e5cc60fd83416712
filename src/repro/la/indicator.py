"""Indicator matrices stored as their row codes.

Every indicator of the paper holds exactly one ``1`` per row: the PK-FK
indicator ``K`` (Section 3.1) and the M:N indicators ``I_S``/``I_R``
(Section 3.6).  Each is fully determined by one integer per row -- the column
holding its ``1`` -- and that code array is all :class:`Indicator` stores.
The fused kernels (:mod:`repro.la.kernels`) gather and bin by the codes; the
few generic sparse products of the rewrite layer use a CSR matrix built from
them once, on first use, and the delta rules find the rows that reference a
column through a reverse index, also built once.  A snowflake alias reached
through several PK-FK hops is one indicator too: a product of indicators is
an indicator whose codes compose (``(K1 @ K2).codes == K2.codes[K1.codes]``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ShapeError


def _is_full(key) -> bool:
    return isinstance(key, slice) and key == slice(None)


def _check_inner(a_shape: tuple, b_shape: tuple) -> None:
    if a_shape[1] != b_shape[0]:
        raise ShapeError(f"matmul: inner dimensions do not agree {a_shape} @ {b_shape}")


def _product(a, b):
    """``a @ b`` with dense results as ``ndarray`` (never ``np.matrix``)."""
    _check_inner(a.shape, b.shape)
    out = a @ b
    return out if sp.issparse(out) else np.asarray(out)


class Indicator:
    """An ``n x n_cols`` 0/1 matrix with one ``1`` per row, kept as its codes.

    *codes* (copied) holds, per row, the column of its ``1``: a 1-D integer
    array with values in ``[0, n_cols)``.  ``transposed=True`` represents the
    transpose instead -- the zero-cost flag
    :class:`~repro.core.normalized_matrix.NormalizedMatrix` uses too.

    ``codes`` is a read-only view; the kernels index with the writable array
    behind it (``_codes``), because NumPy copies a read-only index array on
    every ``take`` or ``bincount``.  Never write to either.
    """

    # Defer ``ndarray @ indicator`` and friends to our overloads.
    __array_ufunc__ = None
    __array_priority__ = 900

    ndim = 2
    #: The stored ones are float64, as in the CSR form.
    dtype = np.dtype(np.float64)

    def __init__(self, codes, n_cols: int, transposed: bool = False):
        codes = np.asarray(codes)
        if codes.ndim != 1 or (codes.size and codes.dtype.kind not in "iu"):
            raise ShapeError("indicator codes must be a 1-D integer array")
        n_cols = int(n_cols)
        if codes.size and (codes.min() < 0 or codes.max() >= n_cols):
            raise ShapeError(f"indicator codes must lie in [0, {n_cols})")
        plain = Indicator._wrap(np.array(codes, dtype=np.intp), n_cols)
        self.__dict__.update((plain.T if transposed else plain).__dict__)

    def _set(self, codes: np.ndarray, n_cols: int) -> None:
        self._codes = codes
        self.codes = codes.view()
        self.codes.setflags(write=False)
        self.n_cols = n_cols
        self.transposed = False
        self._plain: Optional[Indicator] = None  # the untransposed twin
        self._csr: Optional[sp.csr_matrix] = None
        self._reverse: Optional[tuple] = None

    @classmethod
    def _wrap(cls, codes: np.ndarray, n_cols: int, transposed: bool = False) -> "Indicator":
        """Adopt *codes* -- an ``intp`` array known to be valid -- without a copy."""
        self = cls.__new__(cls)
        self._set(codes, n_cols)
        return self.T if transposed else self

    def __reduce__(self):
        return (Indicator._wrap, (self._codes, self.n_cols, self.transposed))

    @property
    def shape(self) -> tuple:
        return (self.n_cols, self.nnz) if self.transposed else (self.nnz, self.n_cols)

    @property
    def nnz(self) -> int:
        return int(self._codes.shape[0])

    @property
    def T(self) -> "Indicator":
        if self.transposed:
            return self._plain
        flipped = Indicator.__new__(Indicator)
        flipped.__dict__.update(self.__dict__, transposed=True, _plain=self, _csr=None,
                                _reverse=None)
        return flipped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Indicator(shape={self.shape}, transposed={self.transposed})"

    def sparse(self) -> sp.spmatrix:
        """The represented matrix as SciPy sparse: a CSR built from the codes
        once (then cached), or its free CSC transpose."""
        plain = self._plain if self.transposed else self
        if plain._csr is None:
            n = plain._codes.shape[0]
            index_dtype = np.int32 if max(n, plain.n_cols) < 2 ** 31 else np.int64
            plain._csr = sp.csr_matrix(
                (np.ones(n), plain._codes.astype(index_dtype),
                 np.arange(n + 1, dtype=index_dtype)),
                shape=(n, plain.n_cols),
            )
        return plain._csr.T if self.transposed else plain._csr

    def reverse_index(self) -> tuple:
        """``(order, starts)`` of the untransposed matrix: its rows sorted
        stably by code, and per column where its rows start in *order*, so
        the rows whose ``1`` is in column ``c`` are
        ``order[starts[c]:starts[c + 1]]`` in increasing order.

        Built once on first use (8 bytes per row plus 8 per column), then
        cached on the untransposed twin like the CSR.  The sort runs on the
        narrowest unsigned code type, so up to 65,536 columns it is NumPy's
        linear-time radix sort rather than an ``O(n log n)`` merge sort.
        """
        plain = self._plain if self.transposed else self
        if plain._reverse is None:
            codes = plain._codes
            starts = np.zeros(plain.n_cols + 1, dtype=np.intp)
            np.cumsum(np.bincount(codes, minlength=plain.n_cols), out=starts[1:])
            narrow = codes.astype(np.min_scalar_type(max(plain.n_cols - 1, 0)))
            plain._reverse = (np.argsort(narrow, kind="stable"), starts)
        return plain._reverse

    def tocsr(self) -> sp.csr_matrix:
        return self.sparse().tocsr()

    def toarray(self) -> np.ndarray:
        return self.sparse().toarray()

    def __matmul__(self, other):
        if isinstance(other, Indicator):
            if not (self.transposed or other.transposed):
                # A product of indicators is an indicator: compose the codes.
                _check_inner(self.shape, other.shape)
                return Indicator._wrap(other._codes[self._codes], other.n_cols)
            other = other.sparse()
        if not (isinstance(other, np.ndarray) or sp.issparse(other)):
            return NotImplemented
        return _product(self.sparse(), other.reshape(-1, 1) if other.ndim == 1 else other)

    def __rmatmul__(self, other):
        if not (isinstance(other, np.ndarray) or sp.issparse(other)):
            return NotImplemented
        return _product(other.reshape(1, -1) if other.ndim == 1 else other, self.sparse())

    def sum(self, axis=None):
        """``scipy.sparse`` semantics, as 2-D ndarrays: column sums are the
        code counts, row sums are ones."""
        if axis is None:
            return float(self.nnz)
        axis = int(axis) % 2
        sums = (np.bincount(self._codes, minlength=self.n_cols).astype(np.float64)
                if axis == int(self.transposed) else np.ones(self.nnz))
        return sums.reshape(1, -1) if axis == 0 else sums.reshape(-1, 1)

    def __getitem__(self, key):
        """``[rows, cols]``, selecting rows first, then columns (as
        ``np.ix_`` does).  A row slice, take or mask stays an indicator (its
        codes selected); a column selection is sparse."""
        if not isinstance(key, tuple) or len(key) != 2:
            raise TypeError("indicators support 2-D indexing only")
        rows, cols = key[::-1] if self.transposed else key
        if not (isinstance(rows, slice) or np.ndim(rows) == 1):
            return self.sparse()[key]
        out = self._plain if self.transposed else self
        if not _is_full(rows):
            out = Indicator._wrap(out._codes[rows], out.n_cols)
        if not _is_full(cols):
            out = out.sparse()[:, cols]
        return out.T if self.transposed else out
