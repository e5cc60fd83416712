"""Arithmetic-operation cost models for standard vs. factorized operators.

Paper reference: Section 3.4 (Table 3) and Appendix F (Table 11).  The models
count multiplications and additions as a function of the base-table dimensions
``(n_S, d_S, n_R, d_R)`` and, where relevant, the width of the multiplied
matrix.  :class:`CostModel` holds them for a star schema with ``q`` joins --
the per-join terms add up, and ``q = 1`` is the paper's two-table form.  They
drive two things:

* the arithmetic term of the cost-based planner
  (:mod:`repro.core.planner`), and
* the analytical speed-up curves (``asymptotic_speedup``) used by the Table 3
  validation benchmark.

The paper's own decision rule (:mod:`repro.core.decision`) deliberately does
*not* use the cost model, to stay system-agnostic; it is kept that way.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict


class Operator(enum.Enum):
    """Operators with published cost expressions (Table 3 and Table 11)."""

    SCALAR = "scalar"
    AGGREGATION = "aggregation"
    LMM = "lmm"
    RMM = "rmm"
    CROSSPROD = "crossprod"
    PSEUDOINVERSE = "pseudoinverse"


@dataclass(frozen=True)
class OperatorCost:
    """Arithmetic-operation counts for the standard and factorized versions."""

    operator: Operator
    standard: float
    factorized: float

    @property
    def speedup(self) -> float:
        """Predicted speed-up = standard cost / factorized cost."""
        if self.factorized <= 0:
            return float("inf")
        return self.standard / self.factorized


def asymptotic_speedup(operator: Operator, tuple_ratio: float, feature_ratio: float) -> float:
    """Limit speed-ups of Table 11 as TR or FR grows.

    For the linear-cost operators the speed-up converges to ``1 + FR`` as the
    tuple ratio grows and to ``TR`` as the feature ratio grows; for
    cross-product the TR limit is ``(1 + FR)^2``.
    """
    if operator is Operator.CROSSPROD:
        return min((1.0 + feature_ratio) ** 2, _linear_speedup(tuple_ratio, feature_ratio) ** 2)
    return _linear_speedup(tuple_ratio, feature_ratio)


def _linear_speedup(tuple_ratio: float, feature_ratio: float) -> float:
    """Exact redundancy ratio for linear-cost operators: size(T) / size(S, R)."""
    denominator = 1.0 + feature_ratio / tuple_ratio
    if denominator <= 0:
        return float("inf")
    return (1.0 + feature_ratio) / denominator


class CostModel:
    """Cost model for a (possibly multi-join) normalized matrix.

    The per-join two-table formulas of Table 3 extend additively: the
    factorized cost of a star schema is the entity-table term plus one
    attribute-table term per join.
    """

    def __init__(self, n_s: int, d_s: int, attribute_dims: Dict[str, tuple] | list):
        if isinstance(attribute_dims, dict):
            attribute_dims = list(attribute_dims.values())
        self.n_s = int(n_s)
        self.d_s = int(d_s)
        self.attribute_dims = [(int(n), int(d)) for n, d in attribute_dims]

    @property
    def total_features(self) -> int:
        return self.d_s + sum(d for _, d in self.attribute_dims)

    def scalar(self) -> OperatorCost:
        standard = self.n_s * self.total_features
        factorized = self.n_s * self.d_s + sum(n * d for n, d in self.attribute_dims)
        return OperatorCost(Operator.SCALAR, standard, factorized)

    def lmm(self, x_cols: int = 1) -> OperatorCost:
        base = self.scalar()
        return OperatorCost(Operator.LMM, x_cols * base.standard, x_cols * base.factorized)

    def rmm(self, x_rows: int = 1) -> OperatorCost:
        base = self.scalar()
        return OperatorCost(Operator.RMM, x_rows * base.standard, x_rows * base.factorized)

    def crossprod(self) -> OperatorCost:
        d = self.total_features
        standard = 0.5 * d * d * self.n_s
        factorized = 0.5 * self.d_s * self.d_s * self.n_s
        for n_r, d_r in self.attribute_dims:
            factorized += 0.5 * d_r * d_r * n_r + self.d_s * d_r * n_r
        return OperatorCost(Operator.CROSSPROD, standard, factorized)

    def pseudoinverse(self) -> OperatorCost:
        """Table 11 pseudo-inverse costs, generalized additively to star schemas.

        Both sides reduce ``ginv`` to a cross-product plus a (transposed)
        LMM/RMM pass, so the multi-join generalization reuses the additive
        :meth:`scalar` base term exactly like the other operators.
        """
        n_s, d = self.n_s, self.total_features
        base = self.scalar().factorized
        if n_s > d:
            standard = 7 * n_s * d * d + 20 * d ** 3
            factorized = 27 * d ** 3 + self.crossprod().factorized + d * base
        else:
            standard = 7 * n_s * n_s * d + 20 * n_s ** 3
            factorized = 27 * n_s ** 3 + 0.5 * n_s * n_s * self.d_s + n_s * base
            for n_r, d_r in self.attribute_dims:
                factorized += 0.5 * n_r * n_r * d_r
        return OperatorCost(Operator.PSEUDOINVERSE, standard, factorized)

    def cost(self, operator: Operator, x_cols: int = 1) -> OperatorCost:
        """Dispatch to the per-operator model (the planner's entry point)."""
        if operator in (Operator.SCALAR, Operator.AGGREGATION):
            base = self.scalar()
            return OperatorCost(operator, base.standard, base.factorized)
        if operator is Operator.LMM:
            return self.lmm(x_cols)
        if operator is Operator.RMM:
            return self.rmm(x_cols)
        if operator is Operator.CROSSPROD:
            return self.crossprod()
        if operator is Operator.PSEUDOINVERSE:
            return self.pseudoinverse()
        raise ValueError(f"no cost model for operator {operator}")

    def summary(self) -> Dict[str, float]:
        """Predicted speed-ups for each modelled operator (used in reports)."""
        return {
            "scalar": self.scalar().speedup,
            "lmm": self.lmm().speedup,
            "rmm": self.rmm().speedup,
            "crossprod": self.crossprod().speedup,
        }
