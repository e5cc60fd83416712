"""Multi-hop indicator chains: products of PK-FK indicators kept factorized.

A snowflake schema chains PK-FK joins: entity -> K1 -> K2 -> R.  The row of
``R`` an entity row joins to is reached through the *composition* of the hop
indicators, i.e. through the product ``K1 @ K2`` -- which is itself a valid
PK-FK indicator (each factor has exactly one 1 per row, so the product does
too).  :class:`ChainedIndicator` represents that product without forming it:
it stores the hop matrices and rewrites every operation the factorized
algebra performs on an indicator into per-hop sparse operations, always
folding from the small end first (``K1 @ (K2 @ X)``, never ``(K1 @ K2) @ X``)
-- the same multiplication-order argument the paper makes for ``K (R X)``.

Because every rewrite rule touches indicators only through the primitives of
:mod:`repro.la.ops` (the closure property), teaching those primitives about
this one class closes the whole Table-1 operator set -- and therefore every
engine built on it (eager, sharded, streamed, serving) -- over multi-hop
chains.

``collapse()`` materializes the product as one CSR matrix (nnz equal to the
entity row count, exactly like a single-hop indicator).  The Table-1 rewrites
and kernels reach a chain through its row codes, which
:func:`repro.core.indicator.indicator_codes` composes once (``c2[c1]``), so a
kept chain runs no hop product while a model trains and collapsing it saves
nothing per pass; chains are collapsed only on request
(``normalized_from_schema(collapse="always")``).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ShapeError


def _fold_left(hops: Sequence[sp.csr_matrix], other, transposed: bool):
    """``chain @ other`` without forming the product: apply hops right-to-left."""
    out = other
    if transposed:
        # (K1 ... Kh)^T X = Kh^T (... (K1^T X))
        for hop in hops:
            out = _product(hop.T, out)
    else:
        # (K1 ... Kh) X = K1 (... (Kh X))
        for hop in reversed(hops):
            out = _product(hop, out)
    return out


def _fold_right(hops: Sequence[sp.csr_matrix], other, transposed: bool):
    """``other @ chain`` without forming the product: apply hops left-to-right."""
    out = other
    if transposed:
        # X (K1 ... Kh)^T = ((X Kh^T) ...) K1^T
        for hop in reversed(hops):
            out = _product(out, hop.T)
    else:
        # X (K1 ... Kh) = ((X K1) ...) Kh
        for hop in hops:
            out = _product(out, hop)
    return out


def _product(a, b):
    """One fold step; sparse x sparse stays sparse, mixed results densify."""
    out = a @ b
    if sp.issparse(out):
        return out
    return np.asarray(out)


class ChainedIndicator:
    """A lazily-evaluated product ``K1 @ K2 @ ... @ Kh`` of indicator hops.

    Parameters
    ----------
    hops:
        Sparse hop matrices with agreeing inner dimensions; each hop is a
        PK-FK indicator (one 1 per row).  Stored as CSR.
    transposed:
        Whether this object represents the product (``False``) or its
        transpose (``True``) -- the same zero-cost flag trick
        :class:`~repro.core.normalized_matrix.NormalizedMatrix` uses.
    """

    # Defer ``ndarray @ chain`` etc. to our overloads.
    __array_ufunc__ = None
    __array_priority__ = 900

    def __init__(self, hops: Sequence, transposed: bool = False,
                 _collapsed: Optional[sp.csr_matrix] = None):
        if not hops:
            raise ShapeError("a chained indicator needs at least one hop")
        csr_hops = []
        for hop in hops:
            if isinstance(hop, ChainedIndicator):
                if hop.transposed:
                    raise ShapeError(
                        "cannot nest a transposed chain as a hop; collapse it first"
                    )
                csr_hops.extend(hop.hops)
                continue
            if not sp.issparse(hop):
                raise ShapeError("chain hops must be sparse indicator matrices")
            csr_hops.append(hop.tocsr())
        for i, (a, b) in enumerate(zip(csr_hops, csr_hops[1:])):
            if a.shape[1] != b.shape[0]:
                raise ShapeError(
                    f"chain hop {i} has {a.shape[1]} columns but hop {i + 1} "
                    f"has {b.shape[0]} rows"
                )
        self.hops: Tuple[sp.csr_matrix, ...] = tuple(csr_hops)
        self.transposed = bool(transposed)
        self._collapsed = _collapsed  # cached untransposed product

    # -- shape and metadata ----------------------------------------------------

    @property
    def num_hops(self) -> int:
        return len(self.hops)

    @property
    def shape(self) -> tuple:
        rows, cols = self.hops[0].shape[0], self.hops[-1].shape[1]
        return (cols, rows) if self.transposed else (rows, cols)

    @property
    def ndim(self) -> int:
        return 2

    @property
    def dtype(self):
        return self.hops[0].dtype

    @property
    def nnz(self) -> int:
        """Non-zeros of the (virtual) product -- what collapsing would store."""
        return int(self.collapse().nnz)

    @property
    def T(self) -> "ChainedIndicator":
        chain = ChainedIndicator(self.hops, transposed=not self.transposed,
                                 _collapsed=self._collapsed)
        return chain

    def transpose(self) -> "ChainedIndicator":
        return self.T

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dims = " @ ".join(f"{h.shape[0]}x{h.shape[1]}" for h in self.hops)
        return f"ChainedIndicator({dims}, transposed={self.transposed})"

    # -- materialization -------------------------------------------------------

    def collapse(self) -> sp.csr_matrix:
        """The untransposed product as one CSR matrix (cached).

        Sparse products of one-nonzero-per-row factors cost O(rows) time and
        the result has at most one non-zero per row -- the collapsed chain is
        never larger than its first hop.
        """
        if self._collapsed is None:
            out = self.hops[0]
            for hop in self.hops[1:]:
                out = out @ hop
            self._collapsed = out.tocsr()
        return self._collapsed

    def tocsr(self) -> sp.csr_matrix:
        """The represented matrix (transpose applied) as CSR."""
        collapsed = self.collapse()
        return collapsed.T.tocsr() if self.transposed else collapsed

    def toarray(self) -> np.ndarray:
        return self.tocsr().toarray()

    def copy(self) -> "ChainedIndicator":
        return ChainedIndicator([h.copy() for h in self.hops],
                                transposed=self.transposed)

    def astype(self, dtype) -> "ChainedIndicator":
        return ChainedIndicator([h.astype(dtype) for h in self.hops],
                                transposed=self.transposed)

    # -- products --------------------------------------------------------------

    def __matmul__(self, other):
        if isinstance(other, ChainedIndicator):
            other = other.tocsr()
        if not (isinstance(other, np.ndarray) or sp.issparse(other)):
            return NotImplemented
        if isinstance(other, np.ndarray) and other.ndim == 1:
            other = other.reshape(-1, 1)
        if self.shape[1] != other.shape[0]:
            raise ShapeError(
                f"matmul: inner dimensions do not agree {self.shape} @ {other.shape}"
            )
        return _fold_left(self.hops, other, self.transposed)

    def __rmatmul__(self, other):
        if not (isinstance(other, np.ndarray) or sp.issparse(other)):
            return NotImplemented
        if isinstance(other, np.ndarray) and other.ndim == 1:
            other = other.reshape(1, -1)
        if other.shape[1] != self.shape[0]:
            raise ShapeError(
                f"matmul: inner dimensions do not agree {other.shape} @ {self.shape}"
            )
        return _fold_right(self.hops, other, self.transposed)

    # -- aggregations ----------------------------------------------------------

    def sum(self, axis=None):
        """Match ``scipy.sparse`` semantics (``np.matrix`` rows/columns)."""
        return self.tocsr().sum(axis=axis)

    # -- slicing ---------------------------------------------------------------

    def __getitem__(self, key):
        """Row/column selection staying factorized.

        Selecting rows only touches the first hop and selecting columns only
        the last hop (the other hops are shared by reference), which is what
        keeps ``take_rows`` / shard slicing / streaming mini-batches and the
        delta rules' column selection O(selection) instead of O(chain).
        Simultaneous row *and* column selection falls back to the collapsed
        product.
        """
        if not isinstance(key, tuple) or len(key) != 2:
            raise TypeError("chained indicators support 2-D indexing only")
        rows, cols = key
        if self.transposed:
            plain = ChainedIndicator(self.hops, transposed=False,
                                     _collapsed=self._collapsed)
            return plain[cols, rows].T
        full_rows = isinstance(rows, slice) and rows == slice(None)
        full_cols = isinstance(cols, slice) and cols == slice(None)
        if full_rows and full_cols:
            return ChainedIndicator(self.hops, _collapsed=self._collapsed)
        if full_cols:
            head = self.hops[0][rows, :]
            return ChainedIndicator((head,) + self.hops[1:])
        if full_rows:
            tail = self.hops[-1][:, cols]
            return ChainedIndicator(self.hops[:-1] + (tail.tocsr(),))
        return self.collapse()[rows, cols]
