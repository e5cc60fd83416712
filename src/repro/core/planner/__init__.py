"""Cost-based adaptive execution planning (``engine="auto"``).

This package turns the paper's offline cost arithmetic
(:mod:`repro.core.cost`) into a runtime decision procedure: calibrate the
machine once (:mod:`~repro.core.planner.calibration`), describe the workload
(:mod:`~repro.core.planner.workload`), score every candidate execution
strategy (:mod:`~repro.core.planner.planner`) and hand back an explainable
:class:`~repro.core.planner.plan.Plan`.  The ML estimators consume it through
``engine="auto"``; ``NormalizedMatrix.plan()`` exposes it directly.
"""

from repro.core.planner.calibration import (
    CalibrationProfile,
    cache_path,
    get_profile,
    probe,
    reset_profile_cache,
)
from repro.core.planner.memory import (
    batch_rows_for_budget,
    factorized_nbytes,
    materialized_nbytes,
    streamed_batch_count,
)
from repro.core.planner.feedback import (
    PlanOutcome,
    clear_outcomes,
    recent_outcomes,
    record_outcome,
)
from repro.core.planner.plan import Plan, ScoredCandidate
from repro.core.planner.planner import Planner, describe_data
from repro.core.planner.workload import OperatorUse, WorkloadDescriptor

__all__ = [
    "CalibrationProfile",
    "OperatorUse",
    "Plan",
    "PlanOutcome",
    "Planner",
    "ScoredCandidate",
    "WorkloadDescriptor",
    "clear_outcomes",
    "recent_outcomes",
    "record_outcome",
    "batch_rows_for_budget",
    "cache_path",
    "describe_data",
    "factorized_nbytes",
    "get_profile",
    "materialized_nbytes",
    "probe",
    "reset_profile_cache",
    "streamed_batch_count",
]
