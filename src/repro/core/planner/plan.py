"""The explainable output of the cost-based planner.

A :class:`Plan` bundles the chosen execution strategy with the predicted
costs of *every* candidate the planner scored, so a user (or a benchmark
report) can see not just what was picked but by how much it won --
``explain()`` renders exactly that, plus what the paper's static threshold
rule would have done on the same data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.core.planner.calibration import CalibrationProfile
from repro.core.planner.workload import WorkloadDescriptor


@dataclass(frozen=True)
class ScoredCandidate:
    """One candidate execution strategy with its predicted wall-clock cost."""

    factorized: bool
    engine: str                 # "eager" or "cofactor"
    backend: str                # "dense", "sparse", "chunked", "sharded"
    #                             or "streamed"
    n_shards: int
    predicted_seconds: float
    #: additive cost terms in seconds (arithmetic / dispatch / one-time ...)
    breakdown: Mapping[str, float] = field(default_factory=dict)
    #: row batch of a "streamed" candidate (None otherwise); a full-batch
    #: ML fit runs over Partitioned.streamed at it when the plan wins.
    batch_rows: Optional[int] = None

    @property
    def label(self) -> str:
        layout = "factorized" if self.factorized else "materialized"
        shards = f" x{self.n_shards}" if self.n_shards > 1 else ""
        batches = f"@{self.batch_rows}rows" if self.batch_rows is not None else ""
        return f"{layout}/{self.engine}/{self.backend}{batches}{shards}"

    def to_json(self) -> dict:
        return {
            "factorized": self.factorized,
            "engine": self.engine,
            "backend": self.backend,
            "n_shards": self.n_shards,
            "predicted_seconds": self.predicted_seconds,
            "breakdown": dict(self.breakdown),
            "batch_rows": self.batch_rows,
        }


@dataclass(frozen=True)
class Plan:
    """A ranked set of scored candidates; ``candidates[0]`` is the chosen one."""

    candidates: Tuple[ScoredCandidate, ...]
    workload: WorkloadDescriptor
    data_summary: Dict[str, object]
    calibration: CalibrationProfile
    #: what the Section 5.1 threshold rule would pick ("factorize" /
    #: "materialize"), or None when the rule does not apply (plain input).
    threshold_rule_choice: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError("a plan needs at least one scored candidate")
        # Execution feedback slot, filled in by record_outcome() after the
        # plan actually runs (frozen dataclass, hence object.__setattr__).
        object.__setattr__(self, "outcome", None)

    def record_outcome(self, measured_seconds: float):
        """Attach the measured runtime of this plan's execution.

        Returns the :class:`~repro.core.planner.feedback.PlanOutcome`; it is
        also kept on ``self.outcome`` and in the process-global window
        (:func:`repro.core.planner.feedback.recent_outcomes`).
        """
        from repro.core.planner.feedback import record_outcome

        return record_outcome(self, measured_seconds)

    # -- chosen-candidate passthroughs ---------------------------------------

    @property
    def chosen(self) -> ScoredCandidate:
        return self.candidates[0]

    @property
    def engine(self) -> str:
        return self.chosen.engine

    @property
    def factorized(self) -> bool:
        return self.chosen.factorized

    @property
    def backend(self) -> str:
        return self.chosen.backend

    @property
    def n_jobs(self) -> int:
        """The chosen shard count under the ML estimators' ``n_jobs`` spelling."""
        return self.chosen.n_shards

    @property
    def predicted_seconds(self) -> float:
        return self.chosen.predicted_seconds

    # -- reporting ------------------------------------------------------------

    def explain(self, top: int = 5) -> str:
        """Human-readable report: chosen plan, predicted costs, alternatives."""
        shape = self.data_summary.get("shape")
        kind = self.data_summary.get("kind", "matrix")
        lines = [
            f"cost-based plan for workload '{self.workload.name}' "
            f"({self.workload.iterations} iteration(s)) on {kind} {shape}",
            f"chosen: {self.chosen.label} -- predicted {_fmt_seconds(self.predicted_seconds)}",
        ]
        for term, seconds in sorted(self.chosen.breakdown.items()):
            lines.append(f"  {term}: {_fmt_seconds(seconds)}")
        for rank, candidate in enumerate(self.candidates[1:top], start=2):
            ratio = (candidate.predicted_seconds / self.predicted_seconds
                     if self.predicted_seconds > 0 else float("inf"))
            lines.append(
                f"rank {rank}: {candidate.label} -- predicted "
                f"{_fmt_seconds(candidate.predicted_seconds)} ({ratio:.2f}x chosen)"
            )
        if len(self.candidates) > top:
            lines.append(f"... {len(self.candidates) - top} more candidates scored")
        tr = self.data_summary.get("tuple_ratio")
        fr = self.data_summary.get("feature_ratio")
        if self.threshold_rule_choice is not None and tr is not None:
            lines.append(
                f"paper threshold rule (tau=5, rho=1) on tuple_ratio={tr:.2f}, "
                f"feature_ratio={fr:.2f} -> {self.threshold_rule_choice}"
            )
        lines.append(
            f"calibration: {self.calibration.source} "
            f"(dense {self.calibration.dense_flops / 1e9:.1f} GFLOP/s, "
            f"dispatch {self.calibration.dispatch_overhead_s * 1e6:.1f} us/op)"
        )
        outcome = getattr(self, "outcome", None)
        if outcome is not None:
            lines.append(
                f"measured: {_fmt_seconds(outcome.measured_seconds)} vs predicted "
                f"{_fmt_seconds(outcome.predicted_seconds)} "
                f"({outcome.ratio:.2f}x, residual "
                f"{_fmt_seconds(abs(outcome.residual_seconds))} "
                f"{'over' if outcome.residual_seconds >= 0 else 'under'})"
            )
        else:
            lines.append("measured: not yet executed (no outcome recorded)")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """JSON-serializable form (the CI benchmark uploads this as an artifact)."""
        payload = {
            "workload": {"name": self.workload.name,
                         "iterations": self.workload.iterations},
            "data": dict(self.data_summary),
            "chosen": self.chosen.to_json(),
            "candidates": [c.to_json() for c in self.candidates],
            "threshold_rule_choice": self.threshold_rule_choice,
            "calibration": self.calibration.to_json(),
        }
        outcome = getattr(self, "outcome", None)
        if outcome is not None:
            payload["outcome"] = outcome.to_json()
        return payload


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f} ms"
    return f"{seconds * 1e6:.1f} us"
