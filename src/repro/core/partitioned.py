"""Row-partitioned execution of the Table-1 operator surface.

The paper's scalability study (Section 5.2.4, Tables 9 and 10) runs Morpheus
on Oracle R Enterprise, whose ``ore.rowapply`` applies an R function to one
row chunk of a table at a time.  Every out-of-core and parallel path of this
library is that same pattern: cut the logical data matrix ``T`` into row
pieces, map an operator over the pieces, then concatenate or sum the partial
results.  Row-partitioning ``T`` corresponds to row-partitioning the entity
matrix ``S`` and the indicator matrices ``K_i``/``I_i`` while *sharing* the
attribute matrices ``R_i``, so a piece of a normalized matrix is itself a
normalized matrix and runs through the factorized rewrite rules unchanged.

:class:`Partitioned` is the one operand that implements the pattern:

==================  =========================================
operator            reduction over per-piece partials
==================  =========================================
``T @ X`` (LMM)     concatenate rows (stays partitioned)
``X @ T`` (RMM)     sum of ``X_i @ T_i``
``T^T @ Y``         sum of ``T_i^T @ Y_i``
``crossprod(T)``    sum of ``crossprod(T_i)``
``crossprod(T^T)``  block grid of ``T_i T_j^T`` pair products
``rowSums``         concatenate; ``colSums``/``sum``: sum
scalar ops, ``f(T)``  per piece (stays partitioned)
==================  =========================================

Each operator is one :meth:`~repro.la.parallel.ParallelExecutor.map` over the
pieces followed by one reduction, in piece order.  Transposition flips a flag
and routes through the identities of Appendix A, so pieces always stay
untransposed.  Three presets cover the execution families:

* :meth:`Partitioned.chunked` -- fixed-size row chunks run inline, the
  ORE ``ore.rowapply`` emulation of Tables 9/10;
* :meth:`Partitioned.sharded` -- balanced row shards on the shared thread
  pool or inline (``NormalizedMatrix.shard()``, the estimators' ``n_jobs``);
  with one shard the fan-out degenerates to the unsharded computation bit
  for bit;
* :meth:`Partitioned.streamed` -- fixed-size row batches cut on demand from
  a source through :func:`repro.core.stream.slice_rows`
  (``NormalizedMatrix.stream()``), so only one batch is resident at a time.
  Scalar operators on a streamed operand are recorded as a pending chain and
  applied to each batch as it is cut.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.core import stream
from repro.exceptions import NotSupportedError, ShapeError
from repro.la import generic
from repro.la import ops as la_ops
from repro.la.parallel import ParallelExecutor, PoolSpec
from repro.la.types import (MatrixLike, ensure_2d, is_matrix_like, is_scalar, is_sparse,
                             to_dense)

_SHARD_BUILDS = obs.REGISTRY.counter(
    "repro_shard_builds_total",
    "Sharded operands constructed, by source kind",
    labels=("kind",),
)

_PY_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "**": operator.pow,
}

_EW_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}

Bounds = List[Tuple[int, int]]


def shard_bounds(n_rows: int, n_shards: int) -> Bounds:
    """Balanced contiguous row partition: ``[(start, stop), ...]``.

    The shard count is clamped to the row count (a 1-row matrix yields one
    shard no matter what was requested), and row surplus goes to the leading
    shards so sizes differ by at most one.  A zero-row matrix partitions into
    a single empty shard ``[(0, 0)]``, so degenerate inputs (empty train/test
    splits, drained streams) flow through instead of crashing.
    """
    if n_rows < 0:
        raise ShapeError("cannot shard a matrix with negative rows")
    if n_shards < 1:
        raise ValueError("n_shards must be at least 1")
    if n_rows == 0:
        return [(0, 0)]
    n_shards = min(int(n_shards), int(n_rows))
    base, extra = divmod(int(n_rows), n_shards)
    bounds: Bounds = []
    start = 0
    for i in range(n_shards):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _fixed_bounds(n_rows: int, rows: int) -> Bounds:
    """Consecutive ``rows``-row ranges (the last one shorter); ``[(0, 0)]`` if empty."""
    return [(start, min(start + rows, n_rows)) for start in range(0, n_rows, rows)] or [(0, 0)]


# ---------------------------------------------------------------------------
# Piece tasks.  Each receives a piece reference: a held piece, or a _Slice
# cut from the source on demand.  Plain pieces dispatch through repro.la.ops;
# logical pieces through their own (factorized) operator overloads.
# ---------------------------------------------------------------------------

class _Slice(NamedTuple):
    """Rows ``[start, stop)`` of *source*, with the pending scalar *ops* applied."""

    source: object
    start: int
    stop: int
    ops: tuple


def _transform(piece, op: str, operand, reverse: bool):
    """One scalar op (``operand`` is a scalar) or ``apply`` (``operand`` is a function)."""
    if op == "apply":
        return generic.elementwise(piece, operand)
    if is_matrix_like(piece):
        return la_ops.scalar_op(piece, op, operand, reverse=reverse)
    fn = _PY_OPS[op]
    return fn(operand, piece) if reverse else fn(piece, operand)


def _piece(ref):
    if not isinstance(ref, _Slice):
        return ref
    piece = ref.source
    if (ref.start, ref.stop) != (0, piece.shape[0]):
        # Through the module so tracers that wrap stream.slice_rows see it.
        piece = stream.slice_rows(piece, ref.start, ref.stop)
    for op in ref.ops:
        piece = _transform(piece, *op)
    return piece


def _lmm(args):
    piece, other = _piece(args[0]), args[1]
    return la_ops.matmul(piece, other) if is_matrix_like(piece) else piece @ other


def _rmm(args):
    piece, other_slice = _piece(args[0]), args[1]
    if is_matrix_like(piece):
        return to_dense(la_ops.matmul(other_slice, piece))
    return to_dense(other_slice @ piece)


def _tmm(args):
    piece, other_slice = _piece(args[0]), args[1]
    if is_matrix_like(piece):
        return to_dense(la_ops.matmul(la_ops.transpose(piece), other_slice))
    return to_dense(piece.T @ other_slice)


def _crossprod(args):
    piece, method = _piece(args[0]), args[1]
    if hasattr(piece, "crossprod"):
        return to_dense(piece.crossprod(method) if method else piece.crossprod())
    return to_dense(la_ops.crossprod(piece))


def _pair_outer(args):
    """One ``T_i T_j^T`` block of the transposed cross-product."""
    return to_dense(_piece(args[0]) @ _piece(args[1]).T)


def _rowsums(ref):
    return generic.rowsums(_piece(ref))


def _colsums(ref):
    return generic.colsums(_piece(ref))


def _total_sum(ref):
    return generic.total_sum(_piece(ref))


def _materialize(ref):
    piece = _piece(ref)
    return piece.materialize() if hasattr(piece, "materialize") else piece


def _scalar(args):
    ref, op, operand, reverse = args
    return _transform(_piece(ref), op, operand, reverse)


def _elementwise_matrix(args):
    ref, other_slice, op, reverse = args
    piece = _piece(ref)
    if is_matrix_like(piece):
        mine, theirs = to_dense(piece), to_dense(ensure_2d(other_slice))
        return _EW_UFUNCS[op](theirs, mine) if reverse else _EW_UFUNCS[op](mine, theirs)
    fn = _PY_OPS[op]
    return fn(other_slice, piece) if reverse else fn(piece, other_slice)


def _call(fn, ref):
    return fn(_piece(ref))


def _call_rows(args):
    fn, ref, rows = args
    return fn(_piece(ref), *rows)


def _sum(parts: list):
    """Add partial results starting from the first, so their dtype is kept."""
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total


def _concat(parts: list) -> MatrixLike:
    parts = [ensure_2d(p) for p in parts]
    if all(is_sparse(p) for p in parts):
        return sp.vstack(parts, format="csr")
    return np.vstack([to_dense(p) for p in parts])


class Partitioned:
    """A matrix stored as consecutive row pieces, operated on piece by piece.

    Holds the row ``bounds``; the pieces, either held in ``pieces`` or cut on
    demand from ``source`` with the pending scalar ``ops`` applied; the
    :class:`~repro.la.parallel.ParallelExecutor` the pieces are mapped
    through; and the ``transposed`` flag.  Build one with a preset
    (:meth:`chunked`, :meth:`sharded`, :meth:`streamed`) or from a list of
    pieces (run serially).

    Results as large as the input (LMM outputs, scalar and element-wise
    ops) stay partitioned on the same bounds and share the executor, so
    ``T.T @ (T @ w)`` reuses the LMM pieces without copying; small results
    (aggregates, Gram matrices, ``d x k`` products) come back as ordinary
    in-memory matrices.
    """

    __array_ufunc__ = None
    # Above plain matrices and the normalized classes (1000), so mixed
    # expressions resolve to the partitioned overloads.
    __array_priority__ = 1500

    def __init__(self, pieces: Optional[Sequence] = None, *, source=None,
                 bounds: Optional[Bounds] = None,
                 executor: Optional[ParallelExecutor] = None,
                 transposed: bool = False, ops: tuple = ()):
        if source is None:
            if not pieces:
                raise ShapeError("Partitioned requires at least one piece")
            pieces = [ensure_2d(p) if is_matrix_like(p) else p for p in pieces]
            if bounds is None:
                widths = {p.shape[1] for p in pieces}
                if len(widths) != 1:
                    raise ShapeError(
                        f"all pieces must have the same number of columns, got {sorted(widths)}"
                    )
                if any(getattr(p, "transposed", False) for p in pieces):
                    raise ShapeError("pieces must be untransposed; use the transposed flag")
                stops = np.cumsum([p.shape[0] for p in pieces]).tolist()
                bounds = list(zip([0] + stops[:-1], stops))
        self.pieces: Optional[List] = None if pieces is None else list(pieces)
        self.source = source
        self.bounds: Bounds = list(bounds)
        self.ops = tuple(ops)
        self.transposed = bool(transposed)
        self.executor = executor if executor is not None else ParallelExecutor("serial")

    # -- presets ---------------------------------------------------------------

    @classmethod
    def chunked(cls, matrix: MatrixLike, chunk_rows: int) -> "Partitioned":
        """Chunks of at most *chunk_rows* rows, run inline (ORE's ``ore.rowapply``)."""
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        matrix = ensure_2d(matrix)
        return cls._cut(matrix, _fixed_bounds(matrix.shape[0], int(chunk_rows)),
                        ParallelExecutor("serial"))

    @classmethod
    def sharded(cls, operand, n_shards: int, pool: PoolSpec = None) -> "Partitioned":
        """*n_shards* balanced row shards mapped through *pool*.

        *pool* is ``None`` or ``"thread"`` -- the process-wide thread pool
        of :func:`~repro.la.parallel.default_workers` threads that every
        sharded operand shares -- or ``"serial"`` (inline on the calling
        thread); results are bit-for-bit the same either way.
        *operand* is a plain matrix or a (PK-FK or M:N) normalized matrix,
        whose shards slice the entity and indicator matrices and share the
        attribute matrices.  Sharding a transposed matrix shards the rows of
        the untransposed ``T`` and carries the flag on the result.
        """
        if is_matrix_like(operand):
            operand = ensure_2d(operand)
        kind = "matrix" if is_matrix_like(operand) else "normalized"
        n_rows = operand.shape[1] if getattr(operand, "transposed", False) else operand.shape[0]
        with obs.span(f"shard.from_{kind}", n_shards=n_shards, n_rows=n_rows):
            bounds = shard_bounds(n_rows, n_shards)
            sharded = cls._cut(operand, bounds, ParallelExecutor(pool))
        _SHARD_BUILDS.labels(kind=kind).inc()
        return sharded

    @classmethod
    def streamed(cls, source, batch_rows: Optional[int] = None,
                 memory_budget: Optional[float] = None) -> "Partitioned":
        """Batches of *batch_rows* rows cut from *source* on demand, one at a time.

        *memory_budget* (bytes) derives the batch size from the planner's
        memory model instead; with neither, the whole source is one batch.
        The source must be untransposed (stream it, then take ``.T``).
        """
        batch_rows = stream.batch_rows_for(source, batch_rows, memory_budget)
        return cls(source=source, bounds=_fixed_bounds(int(source.shape[0]), batch_rows))

    @classmethod
    def _cut(cls, operand, bounds: Bounds, executor: ParallelExecutor) -> "Partitioned":
        transposed = bool(getattr(operand, "transposed", False))
        plain = operand.T if transposed else operand
        pieces = [stream._slice_piece(plain, start, stop) for start, stop in bounds]
        return cls(pieces, bounds=bounds, executor=executor, transposed=transposed)

    def _like(self, pieces=None, transposed: Optional[bool] = None, ops=None) -> "Partitioned":
        """A sibling on the same bounds and executor (new pieces, flag or ops)."""
        return Partitioned(
            self.pieces if pieces is None else pieces,
            source=None if pieces is not None else self.source,
            bounds=self.bounds, executor=self.executor,
            transposed=self.transposed if transposed is None else transposed,
            ops=self.ops if ops is None else ops,
        )

    def _refs(self) -> list:
        """One reference per piece: the held piece, or a lazy cut of the source."""
        if self.pieces is not None:
            return self.pieces
        return [_Slice(self.source, start, stop, self.ops) for start, stop in self.bounds]

    # -- shape and metadata ----------------------------------------------------

    @property
    def logical_rows(self) -> int:
        return self.bounds[-1][1]

    @property
    def parts(self) -> list:
        """What is resident: the held pieces, or the source pieces are cut from."""
        return [self.source] if self.pieces is None else self.pieces

    @property
    def logical_cols(self) -> int:
        return int(self.parts[0].shape[1])

    @property
    def shape(self) -> tuple:
        if self.transposed:
            return (self.logical_cols, self.logical_rows)
        return (self.logical_rows, self.logical_cols)

    @property
    def ndim(self) -> int:
        return 2

    @property
    def num_pieces(self) -> int:
        return len(self.bounds)

    # Preset-flavoured spellings of the piece count and the held pieces.
    num_chunks = num_shards = num_batches = num_pieces

    @property
    def chunks(self) -> Optional[List]:
        return self.pieces

    @property
    def batch_rows(self) -> int:
        """Rows of the first (largest) piece."""
        start, stop = self.bounds[0]
        return max(stop - start, 1)

    @property
    def factorized(self) -> bool:
        """Whether the pieces are normalized matrices (else plain matrices)."""
        return not is_matrix_like(self.parts[0])

    @property
    def T(self) -> "Partitioned":
        return self._like(transposed=not self.transposed)

    def __iter__(self):
        return (_piece(ref) for ref in self._refs())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Partitioned(shape={self.shape}, pieces={self.num_pieces}, "
                f"pool={self.executor.pool.name}, transposed={self.transposed})")

    # -- materialization -------------------------------------------------------

    def materialize(self) -> MatrixLike:
        if self.pieces is not None and all(is_matrix_like(p) for p in self.pieces):
            parts = self.pieces
        else:
            parts = self.executor.map(_materialize, self._refs())
        matrix = _concat(parts)
        return matrix.T if self.transposed else matrix

    to_matrix = materialize

    def to_dense(self) -> np.ndarray:
        return to_dense(self.materialize())

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.to_dense(), dtype=dtype)

    def equals_materialized(self, other: MatrixLike, rtol: float = 1e-9, atol: float = 1e-9
                            ) -> bool:
        mine = self.to_dense()
        theirs = to_dense(ensure_2d(other))
        return mine.shape == theirs.shape and bool(np.allclose(mine, theirs, rtol=rtol, atol=atol))

    def row_apply(self, fn: Callable) -> list:
        """Apply *fn* to every piece and collect the results in order.

        The analogue of ORE's ``ore.rowapply``: *fn* sees one in-memory
        piece at a time, through this operand's executor -- inline for the
        chunked and streamed presets; for a parallel rowapply, shard the
        matrix (``Partitioned.sharded(m, k).row_apply(fn)``).  A sharded
        operator that *fn* runs on the shared pool's worker runs inline there.
        """
        return self.executor.map(functools.partial(_call, fn), self._refs())

    def map_rows(self, fn: Callable, *aligned: np.ndarray) -> list:
        """``fn(piece, *rows)`` for every piece, in row order, through the executor.

        For row-local steps, whose result for a row depends on that row
        alone: each worker runs the whole step on its piece, and each array
        in *aligned* (one row per logical row) reaches it as the piece's
        ``[start:stop]`` view.  Only untransposed operands have pieces of rows.
        """
        if self.transposed:
            raise NotSupportedError("map_rows needs the untransposed operand")
        items = [(fn, ref, tuple(a[start:stop] for a in aligned))
                 for ref, (start, stop) in zip(self._refs(), self.bounds)]
        return self.executor.map(_call_rows, items)

    # -- aggregations ------------------------------------------------------------

    def rowsums(self) -> np.ndarray:
        if self.transposed:
            return self.T.colsums().T
        return np.vstack(self.executor.map(_rowsums, self._refs()))

    def colsums(self) -> np.ndarray:
        if self.transposed:
            return self.T.rowsums().T
        return _sum(self.executor.map(_colsums, self._refs()))

    def total_sum(self) -> float:
        return float(_sum(self.executor.map(_total_sum, self._refs())))

    def sum(self, axis: Optional[int] = None):
        if axis is None:
            return self.total_sum()
        if axis == 0:
            return self.colsums()
        if axis == 1:
            return self.rowsums()
        raise ValueError("axis must be None, 0 or 1")

    # -- multiplication ------------------------------------------------------------

    def __matmul__(self, other):
        if isinstance(other, Partitioned):
            # An untransposed operand held on the same bounds -- the T @ w
            # result feeding straight back into T.T @ p -- contributes its
            # pieces to T^T Y with no copying; anything else is concatenated.
            aligned = (self.transposed and not other.transposed
                       and other.pieces is not None and other.bounds == self.bounds)
            if not aligned:
                other = other.materialize()
        elif is_matrix_like(other) or not hasattr(other, "shape"):
            other = ensure_2d(other)  # incl. array-likes such as nested lists
        else:
            return NotImplemented
        if other.shape[0] != self.shape[1]:
            raise ShapeError(
                f"matmul: inner dimensions do not agree {self.shape} @ {tuple(other.shape)}"
            )
        if self.transposed:
            # T^T Y = sum_i T_i^T Y_i (Y row-aligned with the pieces).
            slices = other.pieces if isinstance(other, Partitioned) else [
                other[start:stop, :] for start, stop in self.bounds]
            return _sum(self.executor.map(_tmm, list(zip(self._refs(), slices))))
        parts = self.executor.map(_lmm, [(ref, other) for ref in self._refs()])
        return Partitioned(parts, bounds=self.bounds, executor=self.executor)

    def __rmatmul__(self, other):
        if not is_matrix_like(other):
            return NotImplemented
        other = ensure_2d(other)
        if other.shape[1] != self.shape[0]:
            raise ShapeError(
                f"matmul: inner dimensions do not agree {tuple(other.shape)} @ {self.shape}"
            )
        if self.transposed:
            # X T^T = (T X^T)^T: a partitioned LMM whose pieces concatenate.
            return (self.T @ to_dense(other).T).to_dense().T
        slices = [other[:, start:stop] for start, stop in self.bounds]
        return _sum(self.executor.map(_rmm, list(zip(self._refs(), slices))))

    matmul = __matmul__
    rmatmul = __rmatmul__

    def transpose_matmul(self, other) -> np.ndarray:
        """``self.T @ other`` (*other* row-aligned with ``self``)."""
        return self.T @ other

    # -- cross-product and solve ---------------------------------------------------

    def crossprod(self, method: Optional[str] = None) -> np.ndarray:
        """``crossprod(T) = T^T T`` as a sum of per-piece Gram matrices.

        *method* is passed to normalized pieces (naive/efficient rewrite) and
        ignored by plain ones.  With the transpose flag set the result is
        ``T T^T``, assembled as a block grid of pair products ``T_i T_j^T``.
        """
        if not self.transposed:
            return _sum(self.executor.map(_crossprod, [(ref, method) for ref in self._refs()]))
        # The grid is symmetric (block (j, i) = block (i, j)^T), so only the
        # upper triangle's k(k+1)/2 pair products are computed.
        refs = self._refs()
        k = len(refs)
        pairs = [(i, j) for i in range(k) for j in range(i, k)]
        blocks = self.executor.map(_pair_outer, [(refs[i], refs[j]) for i, j in pairs])
        grid: List[List] = [[None] * k for _ in range(k)]
        for (i, j), block in zip(pairs, blocks):
            grid[i][j] = block
            grid[j][i] = block.T
        return la_ops.block_grid(grid)

    def ginv(self) -> np.ndarray:
        """Pseudo-inverse via the exact identity ``T^+ = (T^T T)^+ T^T``.

        ``(T^T T)^+`` is a small ``d x d`` pseudo-inverse of the partitioned
        cross-product, and ``(T^T T)^+ T^T = (T (T^T T)^+)^T`` is a
        partitioned LMM because the Gram pseudo-inverse is symmetric.
        ``ginv(T^T) = ginv(T)^T`` handles the transposed flag.
        """
        plain = self.T if self.transposed else self
        plain_ginv = (plain @ la_ops.ginv(plain.crossprod())).to_dense().T
        return plain_ginv.T if self.transposed else plain_ginv

    def solve(self, rhs: MatrixLike, ridge: float = 0.0) -> np.ndarray:
        """Least-squares solve via the partitioned normal equations."""
        rhs = ensure_2d(rhs)
        if rhs.shape[0] != self.shape[0]:
            raise ShapeError(
                f"solve: right-hand side has {rhs.shape[0]} rows but the matrix has {self.shape[0]}"
            )
        projected = generic.to_dense_result(self.T @ rhs)
        return la_ops.solve_regularized(self.crossprod(), projected, ridge=ridge)

    # -- element-wise operators ------------------------------------------------------

    def _scalar_op(self, op: str, operand, reverse: bool = False) -> "Partitioned":
        if self.pieces is None:  # deferred: applied to each batch as it is cut
            return self._like(ops=self.ops + ((op, operand, reverse),))
        return self._like(pieces=self.executor.map(
            _scalar, [(piece, op, operand, reverse) for piece in self.pieces]))

    def apply(self, fn: Callable[[np.ndarray], np.ndarray]) -> "Partitioned":
        """Element-wise scalar function ``f(T)``, applied piece by piece."""
        return self._scalar_op("apply", fn)

    def _elementwise_matrix_op(self, other: MatrixLike, op: str, reverse: bool):
        """Non-factorizable element-wise matrix arithmetic (Section 3.3.7).

        Each piece materializes its slice and applies the operator; the
        transposed case reuses the untransposed path on ``other^T`` via
        ``(T^T op X) = (T op X^T)^T`` and returns a plain matrix.
        """
        other = ensure_2d(other)
        if tuple(other.shape) != self.shape:
            raise ShapeError(
                f"element-wise op: shape mismatch {self.shape} vs {tuple(other.shape)}"
            )
        if self.transposed:
            return self.T._elementwise_matrix_op(other.T, op, reverse).to_dense().T
        slices = [other[start:stop, :] for start, stop in self.bounds]
        parts = self.executor.map(_elementwise_matrix, [
            (ref, part, op, reverse) for ref, part in zip(self._refs(), slices)])
        return Partitioned(parts, bounds=self.bounds, executor=self.executor)

    def _binary(self, op: str, other, reverse: bool):
        if is_scalar(other):
            return self._scalar_op(op, float(other), reverse)
        if is_matrix_like(other):
            return self._elementwise_matrix_op(other, op, reverse)
        return NotImplemented

    def __mul__(self, other):
        return self._binary("*", other, reverse=False)

    def __rmul__(self, other):
        return self._binary("*", other, reverse=True)

    def __add__(self, other):
        return self._binary("+", other, reverse=False)

    def __radd__(self, other):
        return self._binary("+", other, reverse=True)

    def __sub__(self, other):
        return self._binary("-", other, reverse=False)

    def __rsub__(self, other):
        return self._binary("-", other, reverse=True)

    def __truediv__(self, other):
        return self._binary("/", other, reverse=False)

    def __rtruediv__(self, other):
        return self._binary("/", other, reverse=True)

    def __pow__(self, exponent):
        if is_scalar(exponent):
            return self._scalar_op("**", float(exponent))
        return NotImplemented

    def __neg__(self):
        return self._scalar_op("*", -1.0)

    # -- deltas ------------------------------------------------------------------------

    def apply_delta(self, table_index: int, delta) -> "Partitioned":
        """The same streamed view over the post-delta source (see its ``apply_delta``).

        The batch size, transpose flag and pending scalar ops carry over.
        """
        if not hasattr(self.source, "apply_delta"):
            raise NotSupportedError(
                f"cannot delta-patch a partitioned {type(self.source).__name__}: "
                "only streamed normalized sources have an apply_delta surface"
            )
        patched = self.source.apply_delta(table_index, delta)
        return Partitioned(source=patched,
                           bounds=_fixed_bounds(int(patched.shape[0]), self.batch_rows),
                           transposed=self.transposed, ops=self.ops)


#: Module-level form of :meth:`Partitioned.row_apply`: ``row_apply(matrix, fn)``.
row_apply = Partitioned.row_apply
