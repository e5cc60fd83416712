"""Morpheus core: the normalized matrix and the factorized rewrite rules.

This package implements the paper's primary contribution:

* :class:`repro.core.normalized_matrix.NormalizedMatrix` -- the logical data
  type for star-schema PK-FK joins (``T = [S, K1 R1, ..., Kq Rq]``), with every
  LA operator of Table 1 overloaded to execute via the factorized rewrite
  rules of Section 3.3/3.5 and the transpose rules of Appendix A.
* :class:`repro.core.mn_matrix.MNNormalizedMatrix` -- the extension to general
  M:N equi-joins and multi-table M:N joins (Section 3.6, Appendices D and E).
* :mod:`repro.core.rewrite` -- the rewrite rules themselves, written as plain
  functions over the base matrices so they can be tested, benchmarked and
  ablated (naive vs. efficient cross-product, LMM multiplication order)
  independently of the wrapper classes.
* :mod:`repro.core.cost` -- the arithmetic-operation cost models of Table 3 /
  Table 11.
* :mod:`repro.core.decision` -- the heuristic decision rule of Section 3.7 /
  5.1, :func:`decide` (that rule or the cost-based planner) and the
  :func:`morpheus` factory that applies it.
* :mod:`repro.core.planner` -- the cost-based adaptive execution planner
  behind ``engine="auto"`` and ``NormalizedMatrix.plan()``: machine
  calibration + workload descriptors + Table-3 arithmetic, scored into
  explainable :class:`~repro.core.planner.plan.Plan` objects.
* :mod:`repro.core.lazy` -- deferred-evaluation expression graphs over
  normalized matrices with cross-iteration memoization of join-invariant
  subexpressions (``NormalizedMatrix.lazy()``, :class:`FactorizedCache`).
* :mod:`repro.core.shard` -- row-sharded parallel execution
  (``NormalizedMatrix.shard()``, :class:`ShardedMatrix`,
  :class:`ShardedNormalizedMatrix`) fanning the Table-1 operators out over
  the worker pools of :mod:`repro.la.parallel`.
"""

from repro.core.indicator import (
    validate_pk_fk_indicator,
    validate_mn_indicator,
    indicator_codes,
    indicator_stats,
)
from repro.core.segments import ColumnSegment, schema_fingerprint
from repro.core.normalized_matrix import NormalizedMatrix
from repro.core.mn_matrix import MNNormalizedMatrix
from repro.core.materialize import materialize
from repro.core.cost import (
    OperatorCost,
    standard_cost,
    factorized_cost,
    asymptotic_speedup,
    CostModel,
)
from repro.core.decision import (
    DecisionRule,
    decide,
    morpheus,
    should_factorize,
)
from repro.core.lazy import FactorizedCache, LazyExpr, as_lazy, constant, evaluate
from repro.core.planner import (
    CalibrationProfile,
    Plan,
    Planner,
    WorkloadDescriptor,
)
from repro.core.shard import ShardedMatrix, ShardedNormalizedMatrix, shard_bounds
from repro.core.stream import Batch, NormalizedBatchIterator, StreamedMatrix

__all__ = [
    "CalibrationProfile",
    "Plan",
    "Planner",
    "WorkloadDescriptor",
    "ShardedMatrix",
    "ShardedNormalizedMatrix",
    "shard_bounds",
    "Batch",
    "NormalizedBatchIterator",
    "StreamedMatrix",
    "FactorizedCache",
    "LazyExpr",
    "as_lazy",
    "constant",
    "evaluate",
    "NormalizedMatrix",
    "MNNormalizedMatrix",
    "materialize",
    "validate_pk_fk_indicator",
    "validate_mn_indicator",
    "indicator_codes",
    "indicator_stats",
    "ColumnSegment",
    "schema_fingerprint",
    "OperatorCost",
    "standard_cost",
    "factorized_cost",
    "asymptotic_speedup",
    "CostModel",
    "DecisionRule",
    "decide",
    "should_factorize",
    "morpheus",
]
