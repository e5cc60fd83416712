"""Tests for the heuristic decision rule and the morpheus factory (Sections 3.7 / 5.1)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.decision import (
    DEFAULT_FEATURE_RATIO_THRESHOLD,
    DEFAULT_TUPLE_RATIO_THRESHOLD,
    DecisionRule,
    morpheus,
    morpheus_mn,
)
from repro.core.normalized_matrix import NormalizedMatrix


class TestDecisionRule:
    def test_default_thresholds_match_paper(self):
        rule = DecisionRule()
        assert rule.tuple_ratio_threshold == 5.0 == DEFAULT_TUPLE_RATIO_THRESHOLD
        assert rule.feature_ratio_threshold == 1.0 == DEFAULT_FEATURE_RATIO_THRESHOLD

    def test_factorize_in_redundant_region(self):
        assert DecisionRule().predict(tuple_ratio=10, feature_ratio=2)

    def test_materialize_when_tuple_ratio_low(self):
        assert not DecisionRule().predict(tuple_ratio=2, feature_ratio=4)

    def test_materialize_when_feature_ratio_low(self):
        assert not DecisionRule().predict(tuple_ratio=20, feature_ratio=0.5)

    def test_rule_is_disjunctive(self):
        # Both ratios low -> still materialize (no double counting).
        assert not DecisionRule().predict(tuple_ratio=1, feature_ratio=0.1)

    def test_boundary_values_factorize(self):
        assert DecisionRule().predict(tuple_ratio=5.0, feature_ratio=1.0)

    def test_just_below_boundary_materializes(self):
        assert not DecisionRule().predict(tuple_ratio=4.999, feature_ratio=1.0)
        assert not DecisionRule().predict(tuple_ratio=5.0, feature_ratio=0.999)

    def test_custom_thresholds(self):
        rule = DecisionRule(tuple_ratio_threshold=2, feature_ratio_threshold=0.5)
        assert rule.predict(tuple_ratio=3, feature_ratio=0.6)

    def test_explain_mentions_decision(self):
        text = DecisionRule().explain(10, 2)
        assert "factorize" in text
        text = DecisionRule().explain(1, 0.1)
        assert "materialize" in text


class TestBoundaryAndDegenerateInputs:
    """tau = 5 / rho = 1 boundary behaviour and division-by-zero guards."""

    def test_exactly_at_both_thresholds_factorizes(self):
        # The rule is >= on both axes: the boundary point belongs to the
        # factorize region (Section 5.1's conservative tuning).
        rule = DecisionRule()
        assert rule.predict(tuple_ratio=5.0, feature_ratio=1.0)
        assert rule.predict(tuple_ratio=5.0, feature_ratio=100.0)
        assert rule.predict(tuple_ratio=100.0, feature_ratio=1.0)

    def test_epsilon_below_either_threshold_materializes(self):
        rule = DecisionRule()
        eps = 1e-12
        assert not rule.predict(tuple_ratio=5.0 - eps, feature_ratio=1.0)
        assert not rule.predict(tuple_ratio=5.0, feature_ratio=1.0 - eps)

    def test_normalized_matrix_zero_row_attribute_table(self):
        # A degenerate empty attribute table must not raise ZeroDivisionError;
        # it contributes an infinite tuple ratio, which factorizes.  (No entity
        # row can reference it: an indicator row holds exactly one code.)
        entity = np.zeros((0, 2))
        indicator = sp.csr_matrix((0, 0))
        attribute = np.zeros((0, 3))
        normalized = NormalizedMatrix(entity, [indicator], [attribute], validate=False)
        assert normalized.tuple_ratio == float("inf")
        assert DecisionRule().predict(normalized.tuple_ratio, normalized.feature_ratio)

    def test_normalized_matrix_zero_entity_features(self):
        indicator = sp.csr_matrix(np.eye(4))
        normalized = NormalizedMatrix(None, [indicator], [np.ones((4, 2))])
        assert normalized.feature_ratio == float("inf")
        assert normalized.entity_width == 0

    def test_infinite_ratios_flow_through_the_rule(self):
        rule = DecisionRule()
        assert rule.predict(float("inf"), float("inf"))
        assert not rule.predict(float("inf"), 0.0)
        assert not rule.predict(0.0, float("inf"))

    def test_explain_reports_both_ratios_and_thresholds(self):
        text = DecisionRule().explain(7.5, 2.25)
        assert "tuple_ratio=7.50" in text
        assert "feature_ratio=2.25" in text
        assert "threshold 5.0" in text
        assert "threshold 1.0" in text
        assert text.endswith("factorize")

    def test_explain_at_boundary_says_factorize(self):
        assert DecisionRule().explain(5.0, 1.0).endswith("factorize")

    def test_explain_below_boundary_says_materialize(self):
        assert DecisionRule().explain(4.999, 1.0).endswith("materialize")


@pytest.fixture
def redundant():
    """TR = 10, FR = 2 at 1000x30: large enough that the planner's default
    calibration factorizes (at the 240x15 scale of ``single_join_dense`` it
    materializes, because dispatch overhead dominates)."""
    from repro.datasets.synthetic import SyntheticPKFKConfig, generate_pk_fk

    config = SyntheticPKFKConfig.from_ratios(
        tuple_ratio=10, feature_ratio=2, num_attribute_rows=100,
        num_entity_features=10, seed=0)
    return generate_pk_fk(config)


class TestStrategies:
    """The cost-based alternative to the threshold rule is ``tn.plan()``."""

    def test_cost_strategy_factorizes_redundant_data(self, redundant):
        plan = redundant.normalized.plan()
        assert plan.factorized
        assert "chosen:" in plan.explain()


class TestMorpheusFactory:
    def test_returns_normalized_when_redundant(self, single_join_dense):
        dataset, _, _ = single_join_dense
        # TR = 6, FR = 2: above both thresholds.
        out = morpheus(dataset.entity, dataset.indicators, dataset.attributes)
        assert isinstance(out, NormalizedMatrix)

    def test_returns_materialized_when_not_redundant(self, single_join_dense):
        dataset, _, materialized = single_join_dense
        strict = DecisionRule(tuple_ratio_threshold=100.0)
        out = morpheus(dataset.entity, dataset.indicators, dataset.attributes, rule=strict)
        assert isinstance(out, np.ndarray)
        assert np.allclose(out, materialized)

    def test_force_factorized_overrides_rule(self, single_join_dense):
        dataset, _, _ = single_join_dense
        strict = DecisionRule(tuple_ratio_threshold=100.0)
        out = morpheus(dataset.entity, dataset.indicators, dataset.attributes,
                       rule=strict, force_factorized=True)
        assert isinstance(out, NormalizedMatrix)

    def test_factory_output_is_numerically_correct(self, single_join_dense):
        dataset, _, materialized = single_join_dense
        out = morpheus(dataset.entity, dataset.indicators, dataset.attributes)
        assert np.allclose(out.to_dense(), materialized)


class TestMorpheusMNFactory:
    def test_returns_normalized_for_high_redundancy(self, mn_dataset):
        dataset, _, _ = mn_dataset
        out = morpheus_mn([dataset.left_indicator, dataset.right_indicator],
                          [dataset.left, dataset.right])
        assert isinstance(out, NormalizedMatrix) and out.entity is None

    def test_returns_materialized_below_threshold(self, mn_dataset):
        dataset, normalized, materialized = mn_dataset
        threshold = normalized.redundancy_ratio() + 1.0
        out = morpheus_mn([dataset.left_indicator, dataset.right_indicator],
                          [dataset.left, dataset.right],
                          redundancy_threshold=threshold)
        assert isinstance(out, np.ndarray)
        assert np.allclose(out, materialized)

    def test_force_factorized(self, mn_dataset):
        dataset, _, _ = mn_dataset
        out = morpheus_mn([dataset.left_indicator, dataset.right_indicator],
                          [dataset.left, dataset.right],
                          redundancy_threshold=1e9, force_factorized=True)
        assert isinstance(out, NormalizedMatrix) and out.entity is None
