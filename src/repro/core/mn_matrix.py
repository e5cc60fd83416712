"""The normalized matrix for general M:N equi-joins.

:class:`MNNormalizedMatrix` implements the extension of Section 3.6 and
Appendices D/E: the join output of a (possibly multi-table) M:N equi-join is
represented as ``T = [I1 R1, ..., Iq Rq]`` where each ``I_i`` is a sparse
indicator matrix with one non-zero per output row and ``R_i`` is the
corresponding base-table feature matrix.  The classic two-table case
``T = [I_S S, I_R R]`` is simply ``q = 2``.

The PK-FK normalized matrix is the special case where the entity table's
indicator is the identity; keeping the two classes separate mirrors the paper
and keeps the PK-FK fast path (no ``I_S`` multiplication for the entity block)
explicit.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import NotSupportedError, ShapeError
from repro.la import kernels
from repro.la.types import (
    MatrixLike,
    ensure_2d,
    is_matrix_like,
    normalize_row_indices,
    to_dense,
)
from repro.core.indicator import validate_mn_indicator
from repro.core.materialize import materialize_mn
from repro.core.rewrite import aggregation, crossprod as crossprod_rules
from repro.core.rewrite import inversion, multiplication, scalar_ops

Scalar = Union[int, float, np.floating, np.integer]


def _is_scalar(value: object) -> bool:
    return isinstance(value, (int, float, np.floating, np.integer)) and not isinstance(value, bool)


class MNNormalizedMatrix:
    """Logical matrix ``T = [I1 R1, ..., Iq Rq]`` for (multi-table) M:N joins.

    Parameters
    ----------
    indicators:
        Sparse indicator matrices ``I_i`` of shape ``(|T'|, n_Ri)``, one per
        component table, all with the same number of rows (the join output
        size).
    attributes:
        Component feature matrices ``R_i`` of shape ``(n_Ri, d_Ri)``.
    transposed:
        Whether the object represents ``T`` or ``T^T``.
    validate / crossprod_method:
        As for :class:`~repro.core.normalized_matrix.NormalizedMatrix`.
    """

    __array_ufunc__ = None
    __array_priority__ = 1000

    def __init__(self, indicators: Sequence[MatrixLike], attributes: Sequence[MatrixLike],
                 transposed: bool = False, validate: bool = True,
                 crossprod_method: str = "efficient"):
        if not indicators:
            raise ShapeError("an M:N normalized matrix needs at least one component")
        if len(indicators) != len(attributes):
            raise ShapeError(
                f"got {len(indicators)} indicator matrices but {len(attributes)} attribute matrices"
            )
        if crossprod_method not in ("efficient", "naive"):
            raise ValueError("crossprod_method must be 'efficient' or 'naive'")
        self.indicators = [validate_mn_indicator(i) if validate else i for i in indicators]
        self.attributes = [ensure_2d(r) for r in attributes]
        self.transposed = bool(transposed)
        self.crossprod_method = crossprod_method
        if validate:
            self._validate_shapes()

    @classmethod
    def from_two_tables(cls, entity: MatrixLike, entity_indicator: MatrixLike,
                        attribute: MatrixLike, attribute_indicator: MatrixLike,
                        **kwargs) -> "MNNormalizedMatrix":
        """Build the paper's two-table form ``(S, I_S, I_R, R)``."""
        return cls([entity_indicator, attribute_indicator], [entity, attribute], **kwargs)

    def _validate_shapes(self) -> None:
        n_rows = self.indicators[0].shape[0]
        for i, (indicator, attribute) in enumerate(zip(self.indicators, self.attributes)):
            if indicator.shape[0] != n_rows:
                raise ShapeError(
                    f"indicator {i} has {indicator.shape[0]} rows, expected {n_rows}"
                )
            if indicator.shape[1] != attribute.shape[0]:
                raise ShapeError(
                    f"indicator {i} has {indicator.shape[1]} columns but component matrix "
                    f"{i} has {attribute.shape[0]} rows"
                )

    def _with_attributes(self, attributes: Sequence[MatrixLike]) -> "MNNormalizedMatrix":
        return MNNormalizedMatrix(
            self.indicators, list(attributes), transposed=self.transposed,
            validate=False, crossprod_method=self.crossprod_method,
        )

    # -- incremental maintenance ----------------------------------------------

    #: Monotonic delta version: 0 at construction, bumped by :meth:`apply_delta`.
    version = 0

    def apply_delta(self, table_index: int, delta) -> "MNNormalizedMatrix":
        """Successor matrix with *delta* applied to component table *table_index*.

        Semantics as :meth:`NormalizedMatrix.apply_delta
        <repro.core.normalized_matrix.NormalizedMatrix.apply_delta>`: a new
        matrix sharing unchanged components, version bumped.
        """
        if not 0 <= table_index < self.num_components:
            raise IndexError(
                f"table_index {table_index} out of range for "
                f"{self.num_components} components"
            )
        attributes = list(self.attributes)
        attributes[table_index] = delta.apply_to(attributes[table_index])
        successor = self._with_attributes(attributes)
        successor.version = self.version + 1
        return successor

    # -- shape and metadata -------------------------------------------------------

    @property
    def num_components(self) -> int:
        return len(self.attributes)

    @property
    def component_widths(self) -> List[int]:
        return [r.shape[1] for r in self.attributes]

    def column_segments(self) -> List["ColumnSegment"]:
        """Ordered per-component column spans of the logical ``T``.

        One ``"component_i"`` :class:`~repro.core.segments.ColumnSegment`
        per component table (no entity block -- every M:N component is
        indicator-routed); the segments partition ``[0, logical_cols)``.
        """
        from repro.core.segments import build_segments

        return build_segments(None, self.component_widths, "component")

    @property
    def n_features_per_table(self) -> dict:
        """Name -> feature-count mapping of :meth:`column_segments`."""
        from repro.core.segments import segment_widths

        return segment_widths(self.column_segments())

    @property
    def logical_rows(self) -> int:
        return self.indicators[0].shape[0]

    @property
    def logical_cols(self) -> int:
        return sum(self.component_widths)

    @property
    def shape(self) -> tuple:
        if self.transposed:
            return (self.logical_cols, self.logical_rows)
        return (self.logical_rows, self.logical_cols)

    @property
    def ndim(self) -> int:
        return 2

    @property
    def T(self) -> "MNNormalizedMatrix":
        return MNNormalizedMatrix(
            self.indicators, self.attributes, transposed=not self.transposed,
            validate=False, crossprod_method=self.crossprod_method,
        )

    def transpose(self) -> "MNNormalizedMatrix":
        return self.T

    def redundancy_ratio(self) -> float:
        """Materialized size over total base size; large when the join fans out."""
        materialized = self.logical_rows * self.logical_cols
        base = sum(r.shape[0] * r.shape[1] for r in self.attributes)
        return materialized / base if base else float("inf")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MNNormalizedMatrix(shape={self.shape}, components={self.num_components}, "
            f"widths={self.component_widths}, transposed={self.transposed})"
        )

    # -- row selection ---------------------------------------------------------------

    def take_rows(self, row_indices) -> "MNNormalizedMatrix":
        """Return an M:N normalized matrix restricted to the given output rows.

        A row of ``T = [I1 R1, ..., Iq Rq]`` is one join-output tuple, so row
        selection slices every indicator matrix while sharing the component
        matrices unchanged -- train/test splits and mini-batch selection stay
        factorized, exactly as for the star-schema
        :meth:`~repro.core.normalized_matrix.NormalizedMatrix.take_rows`.
        Accepts integer index arrays (duplicates/reordering allowed) or a
        boolean mask, with the same out-of-range validation; only valid on an
        untransposed matrix.
        """
        if self.transposed:
            raise NotSupportedError("take_rows is only defined for untransposed matrices")
        indices = normalize_row_indices(row_indices, self.logical_rows)
        new_indicators = [kernels.take_indicator_rows(i, indices)
                          for i in self.indicators]
        return MNNormalizedMatrix(
            new_indicators, self.attributes, transposed=False,
            validate=False, crossprod_method=self.crossprod_method,
        )

    # -- streaming mini-batch execution ----------------------------------------------

    def batches(self, target=None, batch_size: Optional[int] = None,
                shuffle: bool = False, seed: Optional[int] = 0,
                memory_budget: Optional[float] = None):
        """Iterate this matrix as factorized row batches; see
        :meth:`NormalizedMatrix.batches`."""
        from repro.core.stream import NormalizedBatchIterator

        return NormalizedBatchIterator(self, target=target, batch_size=batch_size,
                                       shuffle=shuffle, seed=seed,
                                       memory_budget=memory_budget)

    def stream(self, batch_rows: Optional[int] = None,
               memory_budget: Optional[float] = None):
        """Out-of-core streamed view; see :meth:`NormalizedMatrix.stream`."""
        from repro.core.partitioned import Partitioned

        return Partitioned.streamed(self, batch_rows=batch_rows, memory_budget=memory_budget)

    # -- sharded parallel execution --------------------------------------------------

    def shard(self, n_shards: int, pool=None):
        """Row-shard this matrix for parallel factorized execution.

        Slices every indicator matrix by rows while sharing the component
        matrices; see :meth:`NormalizedMatrix.shard` for the pool options.
        """
        from repro.core.partitioned import Partitioned

        return Partitioned.sharded(self, n_shards, pool=pool)

    # -- cost-based planning ---------------------------------------------------------

    def plan(self, workload=None, planner=None):
        """Score candidate execution strategies; see :meth:`NormalizedMatrix.plan`."""
        from repro.core.planner import Planner

        planner = planner or Planner(include_chunked=True)
        return planner.plan(self, workload)

    # -- materialization -----------------------------------------------------------

    def materialize(self) -> MatrixLike:
        matrix = materialize_mn(self.indicators, self.attributes)
        return matrix.T if self.transposed else matrix

    def to_dense(self) -> np.ndarray:
        return to_dense(self.materialize())

    # -- element-wise scalar operators ----------------------------------------------

    def _scalar_result(self, op: str, scalar: Scalar, reverse: bool) -> "MNNormalizedMatrix":
        attributes = scalar_ops.scalar_op_mn(self.attributes, op, float(scalar), reverse=reverse)
        return self._with_attributes(attributes)

    def __mul__(self, other):
        if _is_scalar(other):
            return self._scalar_result("*", other, reverse=False)
        if is_matrix_like(other):
            return self._elementwise_matrix_op(other, "*", reverse=False)
        return NotImplemented

    def __rmul__(self, other):
        if _is_scalar(other):
            return self._scalar_result("*", other, reverse=True)
        if is_matrix_like(other):
            return self._elementwise_matrix_op(other, "*", reverse=True)
        return NotImplemented

    def __add__(self, other):
        if _is_scalar(other):
            return self._scalar_result("+", other, reverse=False)
        if is_matrix_like(other):
            return self._elementwise_matrix_op(other, "+", reverse=False)
        return NotImplemented

    def __radd__(self, other):
        if _is_scalar(other):
            return self._scalar_result("+", other, reverse=True)
        if is_matrix_like(other):
            return self._elementwise_matrix_op(other, "+", reverse=True)
        return NotImplemented

    def __sub__(self, other):
        if _is_scalar(other):
            return self._scalar_result("-", other, reverse=False)
        if is_matrix_like(other):
            return self._elementwise_matrix_op(other, "-", reverse=False)
        return NotImplemented

    def __rsub__(self, other):
        if _is_scalar(other):
            return self._scalar_result("-", other, reverse=True)
        if is_matrix_like(other):
            return self._elementwise_matrix_op(other, "-", reverse=True)
        return NotImplemented

    def __truediv__(self, other):
        if _is_scalar(other):
            return self._scalar_result("/", other, reverse=False)
        if is_matrix_like(other):
            return self._elementwise_matrix_op(other, "/", reverse=False)
        return NotImplemented

    def __rtruediv__(self, other):
        if _is_scalar(other):
            return self._scalar_result("/", other, reverse=True)
        if is_matrix_like(other):
            return self._elementwise_matrix_op(other, "/", reverse=True)
        return NotImplemented

    def __pow__(self, exponent):
        if _is_scalar(exponent):
            return self._scalar_result("**", exponent, reverse=False)
        return NotImplemented

    def __neg__(self):
        return self._scalar_result("*", -1.0, reverse=False)

    def apply(self, fn: Callable[[np.ndarray], np.ndarray]) -> "MNNormalizedMatrix":
        """Apply an element-wise scalar function ``f(T)``."""
        attributes = scalar_ops.function_mn(self.attributes, fn)
        return self._with_attributes(attributes)

    def exp(self) -> "MNNormalizedMatrix":
        return self.apply(np.exp)

    def sqrt(self) -> "MNNormalizedMatrix":
        return self.apply(np.sqrt)

    def _elementwise_matrix_op(self, other: MatrixLike, op: str, reverse: bool) -> MatrixLike:
        """Non-factorizable element-wise matrix arithmetic: materialize and apply."""
        materialized = to_dense(self.materialize())
        other_dense = to_dense(ensure_2d(other))
        if materialized.shape != other_dense.shape:
            raise ShapeError(
                f"element-wise op: shape mismatch {materialized.shape} vs {other_dense.shape}"
            )
        ops = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
        fn = ops[op]
        if reverse:
            return fn(other_dense, materialized)
        return fn(materialized, other_dense)

    # -- aggregations -----------------------------------------------------------------

    def rowsums(self) -> np.ndarray:
        if self.transposed:
            return aggregation.colsums_mn(self.indicators, self.attributes).T
        return aggregation.rowsums_mn(self.indicators, self.attributes)

    def colsums(self) -> np.ndarray:
        if self.transposed:
            return aggregation.rowsums_mn(self.indicators, self.attributes).T
        return aggregation.colsums_mn(self.indicators, self.attributes)

    def total_sum(self) -> float:
        return aggregation.sum_mn(self.indicators, self.attributes)

    def sum(self, axis: Optional[int] = None):
        if axis is None:
            return self.total_sum()
        if axis == 0:
            return self.colsums()
        if axis == 1:
            return self.rowsums()
        raise ValueError("axis must be None, 0 or 1")

    # -- multiplication ------------------------------------------------------------------

    def __matmul__(self, other):
        if isinstance(other, MNNormalizedMatrix):
            return self.__matmul__(other.materialize())
        if not is_matrix_like(other):
            return NotImplemented
        other = ensure_2d(other)
        if self.transposed:
            result = multiplication.rmm_mn(self.indicators, self.attributes, to_dense(other).T)
            return result.T
        return multiplication.lmm_mn(self.indicators, self.attributes, other)

    def __rmatmul__(self, other):
        if not is_matrix_like(other):
            return NotImplemented
        other = ensure_2d(other)
        if self.transposed:
            result = multiplication.lmm_mn(self.indicators, self.attributes, to_dense(other).T)
            return result.T
        return multiplication.rmm_mn(self.indicators, self.attributes, other)

    def dot(self, other) -> MatrixLike:
        return self.__matmul__(other)

    # -- cross-product and inversion --------------------------------------------------------

    def crossprod(self, method: Optional[str] = None) -> np.ndarray:
        method = method or self.crossprod_method
        if self.transposed:
            return crossprod_rules.gram_transposed_mn(self.indicators, self.attributes)
        if method == "naive":
            return crossprod_rules.crossprod_mn_naive(self.indicators, self.attributes)
        return crossprod_rules.crossprod_mn_efficient(self.indicators, self.attributes)

    def gram(self) -> np.ndarray:
        return self.crossprod()

    def ginv(self) -> np.ndarray:
        plain = inversion.ginv_mn(
            self.indicators, self.attributes,
            materialize_fn=lambda: materialize_mn(self.indicators, self.attributes),
        )
        return plain.T if self.transposed else plain

    def solve(self, rhs: MatrixLike, ridge: float = 0.0) -> np.ndarray:
        """Least-squares solve via the factorized normal equations (see
        :meth:`NormalizedMatrix.solve`)."""
        from repro.la.ops import solve_regularized

        rhs = ensure_2d(rhs)
        if rhs.shape[0] != self.shape[0]:
            raise ShapeError(
                f"solve: right-hand side has {rhs.shape[0]} rows but the matrix has {self.shape[0]}"
            )
        gram = self.crossprod()
        projected = self.T @ rhs
        return solve_regularized(gram, projected, ridge=ridge)

    # -- equality helpers -----------------------------------------------------------------

    def equals_materialized(self, other: MatrixLike, rtol: float = 1e-9, atol: float = 1e-9) -> bool:
        mine = to_dense(self.materialize())
        theirs = to_dense(ensure_2d(other))
        if mine.shape != theirs.shape:
            return False
        return bool(np.allclose(mine, theirs, rtol=rtol, atol=atol))
