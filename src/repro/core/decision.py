"""The paper's factorize-or-materialize decision rule.

Paper reference: Sections 3.7 and 5.1.  Factorized execution avoids the
computational redundancy introduced by the join, but when the join introduces
little or no redundancy (low tuple ratio and/or low feature ratio) the extra
operator-dispatch overhead of the rewrites can make the factorized version
*slower* -- empirically by less than 2x, but still worth avoiding.

The paper deliberately avoids per-operator cost models (they would tie the
framework to a specific LA backend and machine) and instead uses a simple
conservative disjunctive threshold rule tuned on the synthetic sweeps::

    use the factorized version  unless  tuple_ratio < tau  OR  feature_ratio < rho

with ``tau = 5`` and ``rho = 1``.  This module implements that rule, plus the
:func:`morpheus` convenience factory that applies it when constructing a data
matrix from base tables.

The repo's cost-based alternative, which also weighs engines, backends and
shard counts, is the calibrated planner: ``normalized.plan().factorized``
(and ``.explain()``), see :mod:`repro.core.planner`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.la.types import MatrixLike
from repro.core.normalized_matrix import NormalizedMatrix

#: Default tuple-ratio threshold (paper Section 5.1).
DEFAULT_TUPLE_RATIO_THRESHOLD = 5.0
#: Default feature-ratio threshold (paper Section 5.1).
DEFAULT_FEATURE_RATIO_THRESHOLD = 1.0


@dataclass(frozen=True)
class DecisionRule:
    """Disjunctive threshold rule on tuple ratio and feature ratio.

    ``predict`` returns ``True`` when the factorized version is expected to be
    at least as fast as the materialized one.  The thresholds are conservative
    in the sense described in the paper: the rule may wrongly predict a
    slow-down (forgoing a small win), but rarely predicts a win when there is a
    slow-down.
    """

    tuple_ratio_threshold: float = DEFAULT_TUPLE_RATIO_THRESHOLD
    feature_ratio_threshold: float = DEFAULT_FEATURE_RATIO_THRESHOLD

    def predict(self, tuple_ratio: float, feature_ratio: float) -> bool:
        """Return ``True`` if factorized execution should be used."""
        if tuple_ratio < self.tuple_ratio_threshold:
            return False
        if feature_ratio < self.feature_ratio_threshold:
            return False
        return True

    def explain(self, tuple_ratio: float, feature_ratio: float) -> str:
        """Human-readable explanation of the decision (used in benchmark logs)."""
        decision = self.predict(tuple_ratio, feature_ratio)
        verdict = "factorize" if decision else "materialize"
        return (
            f"tuple_ratio={tuple_ratio:.2f} (threshold {self.tuple_ratio_threshold}), "
            f"feature_ratio={feature_ratio:.2f} (threshold {self.feature_ratio_threshold}) "
            f"-> {verdict}"
        )


def morpheus(entity: Optional[MatrixLike], indicators: Sequence[MatrixLike],
             attributes: Sequence[MatrixLike],
             rule: Optional[DecisionRule] = None,
             force_factorized: bool = False
             ) -> Union[NormalizedMatrix, MatrixLike]:
    """Build the data matrix the way Morpheus would: factorized if profitable.

    Constructs a :class:`NormalizedMatrix` from the base matrices, applies the
    decision rule (*rule*, default :class:`DecisionRule`) and returns either
    the normalized matrix (factorized execution) or its materialization
    (standard execution).  ``force_factorized`` bypasses the decision, which
    is what the operator-level benchmarks do.
    """
    normalized = NormalizedMatrix(entity, list(indicators), list(attributes))
    rule = rule or DecisionRule()
    if force_factorized or rule.predict(normalized.tuple_ratio, normalized.feature_ratio):
        return normalized
    return normalized.materialize()


def morpheus_mn(indicators: Sequence[MatrixLike], attributes: Sequence[MatrixLike],
                redundancy_threshold: float = 1.5,
                force_factorized: bool = False
                ) -> Union[NormalizedMatrix, MatrixLike]:
    """M:N analogue of :func:`morpheus`.

    For M:N joins the tuple/feature ratios of the PK-FK rule do not directly
    apply; the natural analogue is the redundancy ratio (materialized size over
    base size), which grows as the join-attribute uniqueness degree shrinks.
    The factorized version is used when the ratio exceeds *redundancy_threshold*.
    """
    normalized = NormalizedMatrix(None, list(indicators), list(attributes))
    if force_factorized or normalized.redundancy_ratio() >= redundancy_threshold:
        return normalized
    return normalized.materialize()
