"""Workload descriptors: the Table-1 operator footprint of an algorithm.

Each of the repo's ML algorithms touches the data matrix with a fixed,
statically known mix of Table-1 operators per iteration -- exactly the
operator footprints the paper tabulates when explaining its per-algorithm
speed-ups (Section 4).  A :class:`WorkloadDescriptor` captures that mix plus
the iteration count, which is all the planner needs to score candidate
execution plans: the dimensions come from the data matrix itself, the
calibration constants from :mod:`repro.core.planner.calibration`.

``cofactor_uses`` describes the co-factor form of an algorithm, where it has
one: GD linear regression can replace the per-iteration LMM/RMM pair with a
one-time ``crossprod(T)`` and ``T^T Y`` (the co-factor terms of Algorithms
13/14) and then iterate on ``d x d`` arithmetic only.  Only descriptors that
define it get a second, ``engine="cofactor"``, planner candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.cost import Operator


@dataclass(frozen=True)
class OperatorUse:
    """One operator of the workload's footprint.

    ``count`` executions happen either every iteration (``per_iteration=True``)
    or once per fit (loop-invariant precomputation, ``per_iteration=False``).
    ``x_cols`` is the width of the regular operand for LMM/RMM-shaped ops.
    """

    operator: Operator
    x_cols: int = 1
    count: float = 1.0
    per_iteration: bool = True


@dataclass(frozen=True)
class WorkloadDescriptor:
    """Operator mix + iteration count of one training (or scoring) workload."""

    name: str
    iterations: int
    uses: Tuple[OperatorUse, ...]
    #: Operator mix of the algorithm's co-factor form; ``None`` means the
    #: algorithm has none and is planned with the eager loop only.
    cofactor_uses: Optional[Tuple[OperatorUse, ...]] = field(default=None)
    #: ``d x d`` gram-vector products the co-factor form performs per
    #: iteration *instead of* the hoisted data passes (``gram @ w``); regular
    #: arithmetic, but unlike truly engine-independent work it does not cancel
    #: against the eager candidate, so the planner must price it.
    gram_applies: float = 0.0

    def total_count(self, use: OperatorUse) -> float:
        """Total executions of *use* over the whole fit."""
        return use.count * (self.iterations if use.per_iteration else 1)

    @property
    def engines(self) -> Tuple[str, ...]:
        """The engine axis of this workload's candidate space."""
        return ("eager",) if self.cofactor_uses is None else ("eager", "cofactor")

    def uses_for_engine(self, engine: str) -> Tuple[OperatorUse, ...]:
        if engine == "cofactor" and self.cofactor_uses is not None:
            return self.cofactor_uses
        return self.uses

    # -- per-algorithm footprints ---------------------------------------------

    @classmethod
    def logistic_regression(cls, max_iter: int) -> "WorkloadDescriptor":
        """Algorithm 3: one LMM (``T w``) and one transposed LMM (``T^T p``) per pass."""
        return cls(
            name="logreg-gd", iterations=max_iter,
            uses=(OperatorUse(Operator.LMM, x_cols=1),
                  OperatorUse(Operator.RMM, x_cols=1)),
        )

    @classmethod
    def linear_regression_gd(cls, max_iter: int,
                             cofactor: bool = True) -> "WorkloadDescriptor":
        """Algorithm 11 eager; the co-factor form hoists ``crossprod(T)`` / ``T^T Y``.

        The co-factor form is a full-batch fit, so a mini-batch fit passes
        ``cofactor=False`` and is planned with the eager loop only.
        """
        uses = (OperatorUse(Operator.LMM, x_cols=1), OperatorUse(Operator.RMM, x_cols=1))
        if not cofactor:
            return cls(name="linreg-gd", iterations=max_iter, uses=uses)
        return cls(
            name="linreg-gd", iterations=max_iter, uses=uses,
            cofactor_uses=(OperatorUse(Operator.CROSSPROD, per_iteration=False),
                           OperatorUse(Operator.RMM, x_cols=1, per_iteration=False)),
            gram_applies=1.0,  # the per-iteration gram @ w product
        )

    @classmethod
    def kmeans(cls, num_clusters: int, max_iter: int) -> "WorkloadDescriptor":
        """Algorithm 7: per-iteration ``T C`` and ``T^T A``; invariant norms ``T^2``."""
        return cls(
            name="kmeans", iterations=max_iter,
            uses=(OperatorUse(Operator.LMM, x_cols=num_clusters),
                  OperatorUse(Operator.RMM, x_cols=num_clusters),
                  OperatorUse(Operator.SCALAR, per_iteration=False),
                  OperatorUse(Operator.AGGREGATION, per_iteration=False)),
        )

    @classmethod
    def gnmf(cls, rank: int, max_iter: int) -> "WorkloadDescriptor":
        """Algorithm 8: per-iteration ``T^T W`` and ``T H`` at the factor rank."""
        return cls(
            name="gnmf", iterations=max_iter,
            uses=(OperatorUse(Operator.LMM, x_cols=rank),
                  OperatorUse(Operator.RMM, x_cols=rank)),
        )

    @classmethod
    def generic(cls) -> "WorkloadDescriptor":
        """A single pass over the representative operator mix (``TN.plan()`` default)."""
        return cls(
            name="generic", iterations=1,
            uses=(OperatorUse(Operator.SCALAR),
                  OperatorUse(Operator.AGGREGATION),
                  OperatorUse(Operator.LMM, x_cols=2),
                  OperatorUse(Operator.RMM, x_cols=2),
                  OperatorUse(Operator.CROSSPROD)),
        )
