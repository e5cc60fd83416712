"""Morpheus core: the normalized matrix and the factorized rewrite rules.

This package implements the paper's primary contribution:

* :class:`repro.core.normalized_matrix.NormalizedMatrix` -- the logical data
  type for star-schema PK-FK joins (``T = [S, K1 R1, ..., Kq Rq]``), with every
  LA operator of Table 1 overloaded to execute via the factorized rewrite
  rules of Section 3.3/3.5 and the transpose rules of Appendix A.  General
  and multi-table M:N equi-joins (Section 3.6, Appendices D and E) are the
  same form without the entity block; :func:`MNNormalizedMatrix` builds one.
* :mod:`repro.core.rewrite` -- the rewrite rules themselves, written as plain
  functions over the base matrices so they can be tested, benchmarked and
  ablated (naive vs. efficient cross-product, LMM multiplication order)
  independently of the wrapper classes.
* :mod:`repro.core.cost` -- the arithmetic-operation cost models of Table 3 /
  Table 11, which the planner prices.
* :mod:`repro.core.decision` -- the heuristic decision rule of Section 3.7 /
  5.1 and the :func:`morpheus` factory that applies it.
* :mod:`repro.core.planner` -- the cost-based adaptive execution planner
  behind ``engine="auto"`` and ``NormalizedMatrix.plan()``: machine
  calibration + workload descriptors + Table-3 arithmetic, scored into
  explainable :class:`~repro.core.planner.plan.Plan` objects.
* :mod:`repro.core.partitioned` -- :class:`Partitioned`, the one
  row-partitioned operand: chunked (ORE ``ore.rowapply``), sharded
  (``NormalizedMatrix.shard()``, fanning the Table-1 operators out over the
  shared thread pool of :mod:`repro.la.parallel`) and streamed
  (``NormalizedMatrix.stream()``, one batch resident at a time).
"""

from repro.core.indicator import (
    validate_pk_fk_indicator,
    indicator_codes,
    indicator_stats,
)
from repro.core.segments import ColumnSegment, schema_fingerprint
from repro.core.normalized_matrix import MNNormalizedMatrix, NormalizedMatrix
from repro.core.materialize import materialize
from repro.core.cost import (
    OperatorCost,
    asymptotic_speedup,
    CostModel,
)
from repro.core.decision import (
    DecisionRule,
    morpheus,
)
from repro.core.planner import (
    CalibrationProfile,
    Plan,
    Planner,
    WorkloadDescriptor,
)
from repro.core.partitioned import Partitioned, shard_bounds
from repro.core.stream import Batch, NormalizedBatchIterator

__all__ = [
    "CalibrationProfile",
    "Plan",
    "Planner",
    "WorkloadDescriptor",
    "Partitioned",
    "shard_bounds",
    "Batch",
    "NormalizedBatchIterator",
    "NormalizedMatrix",
    "MNNormalizedMatrix",
    "materialize",
    "validate_pk_fk_indicator",
    "indicator_codes",
    "indicator_stats",
    "ColumnSegment",
    "schema_fingerprint",
    "OperatorCost",
    "asymptotic_speedup",
    "CostModel",
    "DecisionRule",
    "morpheus",
]
