"""Tests for the M:N normalized matrix (paper Section 3.6, Appendices D/E).

An M:N matrix is the entity-less :class:`NormalizedMatrix`; these tests run
the Table-1 operators on the M:N fixtures, including what is specific to that
form: multi-component fan-out, shared component tables and transposed M:N.
"""

import numpy as np
import pytest

from repro import MNNormalizedMatrix
from repro.core.normalized_matrix import NormalizedMatrix
from repro.exceptions import IndicatorError, NotSupportedError, ShapeError
from repro.la.ops import indicator_from_labels


class TestConstruction:
    def test_shape(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        assert normalized.shape == materialized.shape

    def test_component_metadata(self, mn_dataset):
        _, normalized, _ = mn_dataset
        assert normalized.num_joins == 2
        assert normalized.attribute_widths == [6, 6]
        assert normalized.entity_width == 0

    def test_multi_component(self, mn_multi_component):
        normalized, materialized = mn_multi_component
        assert normalized.num_joins == 3
        assert normalized.shape == materialized.shape

    def test_constructor_returns_entityless_normalized_matrix(self, mn_dataset):
        """The M:N constructor builds the star form without an entity block;
        it gains the star operators the old M:N class lacked (log, the ratios)."""
        dataset, _, materialized = mn_dataset
        normalized = MNNormalizedMatrix([dataset.left_indicator, dataset.right_indicator],
                                        [dataset.left, dataset.right])
        assert isinstance(normalized, NormalizedMatrix)
        assert normalized.entity is None
        assert np.allclose(normalized.to_dense(), materialized)
        positive = normalized ** 2 + 1.0
        assert np.allclose(positive.log().to_dense(), np.log(materialized ** 2 + 1.0))
        n_out = materialized.shape[0]
        expected = np.mean([n_out / dataset.left.shape[0], n_out / dataset.right.shape[0]])
        assert normalized.tuple_ratio == pytest.approx(expected)
        assert normalized.feature_ratio == float("inf")

    def test_requires_components(self):
        with pytest.raises(ShapeError):
            MNNormalizedMatrix([], [])

    def test_indicator_attribute_count_mismatch(self, mn_dataset):
        dataset, _, _ = mn_dataset
        with pytest.raises(ShapeError):
            MNNormalizedMatrix([dataset.left_indicator], [dataset.left, dataset.right])

    def test_row_count_mismatch_rejected(self, mn_dataset):
        dataset, _, _ = mn_dataset
        truncated = dataset.right_indicator[:-1, :]
        with pytest.raises(ShapeError):
            MNNormalizedMatrix([dataset.left_indicator, truncated], [dataset.left, dataset.right])

    def test_invalid_indicator_rejected(self, mn_dataset):
        dataset, _, _ = mn_dataset
        bad = dataset.left_indicator.toarray()
        bad[0, :] = 0
        with pytest.raises(IndicatorError):
            MNNormalizedMatrix([bad, dataset.right_indicator], [dataset.left, dataset.right])

    def test_invalid_crossprod_method(self, mn_dataset):
        dataset, _, _ = mn_dataset
        with pytest.raises(ValueError):
            MNNormalizedMatrix([dataset.left_indicator, dataset.right_indicator],
                               [dataset.left, dataset.right], crossprod_method="magic")

    def test_redundancy_ratio_grows_with_fanout(self, mn_dataset):
        _, normalized, _ = mn_dataset
        assert normalized.redundancy_ratio() > 1.0


class TestScalarOps:
    @pytest.mark.parametrize("expression,reference", [
        (lambda t: t * 2.0, lambda m: m * 2.0),
        (lambda t: 2.0 * t, lambda m: 2.0 * m),
        (lambda t: t + 1.0, lambda m: m + 1.0),
        (lambda t: t - 1.0, lambda m: m - 1.0),
        (lambda t: 1.0 - t, lambda m: 1.0 - m),
        (lambda t: t / 2.0, lambda m: m / 2.0),
        (lambda t: t ** 2, lambda m: m ** 2),
        (lambda t: -t, lambda m: -m),
    ])
    def test_scalar_ops_match(self, mn_dataset, expression, reference):
        _, normalized, materialized = mn_dataset
        result = expression(normalized)
        assert isinstance(result, NormalizedMatrix) and result.entity is None
        assert np.allclose(result.to_dense(), reference(materialized))

    def test_apply_function(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        assert np.allclose(normalized.apply(np.tanh).to_dense(), np.tanh(materialized))

    def test_exp_convenience(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        assert np.allclose(normalized.exp().to_dense(), np.exp(materialized))

    def test_elementwise_matrix_op_materializes(self, mn_dataset, rng):
        _, normalized, materialized = mn_dataset
        other = rng.standard_normal(materialized.shape)
        assert np.allclose(normalized + other, materialized + other)

    def test_elementwise_matrix_op_shape_mismatch(self, mn_dataset, rng):
        _, normalized, _ = mn_dataset
        with pytest.raises(ShapeError):
            normalized * rng.standard_normal((2, 2))


class TestAggregations:
    def test_rowsums(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        assert np.allclose(normalized.rowsums().ravel(), materialized.sum(axis=1))

    def test_colsums(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        assert np.allclose(normalized.colsums().ravel(), materialized.sum(axis=0))

    def test_total_sum(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        assert np.isclose(normalized.total_sum(), materialized.sum())

    def test_multi_component_aggregations(self, mn_multi_component):
        normalized, materialized = mn_multi_component
        assert np.allclose(normalized.rowsums().ravel(), materialized.sum(axis=1))
        assert np.allclose(normalized.colsums().ravel(), materialized.sum(axis=0))
        assert np.isclose(normalized.total_sum(), materialized.sum())

    def test_transposed_aggregations(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        assert np.allclose(normalized.T.rowsums().ravel(), materialized.T.sum(axis=1))
        assert np.allclose(normalized.T.colsums().ravel(), materialized.T.sum(axis=0))

    def test_numpy_style_sum(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        assert np.isclose(normalized.sum(), materialized.sum())
        assert np.allclose(normalized.sum(axis=0).ravel(), materialized.sum(axis=0))
        assert np.allclose(normalized.sum(axis=1).ravel(), materialized.sum(axis=1))
        with pytest.raises(ValueError):
            normalized.sum(axis=3)


class TestMultiplication:
    def test_lmm(self, mn_dataset, rng):
        _, normalized, materialized = mn_dataset
        x = rng.standard_normal((materialized.shape[1], 3))
        assert np.allclose(normalized @ x, materialized @ x)

    def test_rmm(self, mn_dataset, rng):
        _, normalized, materialized = mn_dataset
        x = rng.standard_normal((2, materialized.shape[0]))
        assert np.allclose(x @ normalized, x @ materialized)

    def test_transposed_lmm(self, mn_dataset, rng):
        _, normalized, materialized = mn_dataset
        p = rng.standard_normal((materialized.shape[0], 2))
        assert np.allclose(normalized.T @ p, materialized.T @ p)

    def test_transposed_rmm(self, mn_dataset, rng):
        _, normalized, materialized = mn_dataset
        x = rng.standard_normal((2, materialized.shape[1]))
        assert np.allclose(x @ normalized.T, x @ materialized.T)

    def test_multi_component_lmm(self, mn_multi_component, rng):
        normalized, materialized = mn_multi_component
        x = rng.standard_normal((materialized.shape[1], 2))
        assert np.allclose(normalized @ x, materialized @ x)

    def test_mn_times_mn_falls_back(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        rng = np.random.default_rng(3)
        # Build a second M:N matrix whose row count equals the first one's width.
        width = materialized.shape[1]
        components = [rng.standard_normal((4, 3)), rng.standard_normal((6, 2))]
        indicators = [
            indicator_from_labels(np.concatenate([np.arange(4), rng.integers(0, 4, size=width - 4)]),
                                  num_columns=4),
            indicator_from_labels(np.concatenate([np.arange(6), rng.integers(0, 6, size=width - 6)]),
                                  num_columns=6),
        ]
        other = MNNormalizedMatrix(indicators, components)
        expected = materialized @ other.to_dense()
        assert np.allclose(normalized @ other, expected)

    def test_dot_alias(self, mn_dataset, rng):
        _, normalized, materialized = mn_dataset
        x = rng.standard_normal((materialized.shape[1], 1))
        assert np.allclose(normalized.dot(x), materialized @ x)


class TestCrossprodAndGinv:
    def test_crossprod_efficient(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        assert np.allclose(normalized.crossprod(), materialized.T @ materialized)

    def test_crossprod_naive(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        assert np.allclose(normalized.crossprod("naive"), materialized.T @ materialized)

    def test_crossprod_multi_component(self, mn_multi_component):
        normalized, materialized = mn_multi_component
        assert np.allclose(normalized.crossprod(), materialized.T @ materialized)

    def test_gram_transposed(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        assert np.allclose(normalized.T.crossprod(), materialized @ materialized.T)

    def test_ginv(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        assert np.allclose(normalized.ginv(), np.linalg.pinv(materialized), atol=1e-6)

    def test_ginv_transposed(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        assert np.allclose(normalized.T.ginv(), np.linalg.pinv(materialized.T), atol=1e-6)

    def test_equals_materialized_helper(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        assert normalized.equals_materialized(materialized)
        assert not normalized.equals_materialized(materialized * 2.0)


class TestTransposeFlag:
    def test_double_transpose(self, mn_dataset):
        _, normalized, _ = mn_dataset
        assert not normalized.T.T.transposed

    def test_transposed_shape(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        assert normalized.T.shape == materialized.T.shape

    def test_transposed_materialize(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        assert np.allclose(normalized.T.to_dense(), materialized.T)


class TestMNTakeRows:
    """Regression: M:N matrices lacked take_rows, so splits/batching silently
    only worked on star schemas."""

    def test_selected_rows_match_materialized(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        indices = np.array([0, 5, 9, 17, 3])
        subset = normalized.take_rows(indices)
        assert type(subset) is type(normalized)
        assert np.allclose(subset.to_dense(), materialized[indices, :])

    def test_multi_component(self, mn_multi_component):
        normalized, materialized = mn_multi_component
        indices = np.arange(0, materialized.shape[0], 3)
        assert np.allclose(normalized.take_rows(indices).to_dense(), materialized[indices, :])

    def test_boolean_mask(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        mask = np.zeros(materialized.shape[0], dtype=bool)
        mask[::4] = True
        assert np.allclose(normalized.take_rows(mask).to_dense(), materialized[mask, :])

    def test_duplicate_and_reordered_rows(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        indices = np.array([7, 7, 1, 0])
        assert np.allclose(normalized.take_rows(indices).to_dense(), materialized[indices, :])

    def test_component_tables_are_shared(self, mn_dataset):
        _, normalized, _ = mn_dataset
        subset = normalized.take_rows(np.array([0, 1, 2]))
        assert all(a is b for a, b in zip(subset.attributes, normalized.attributes))

    def test_out_of_range_rejected(self, mn_dataset):
        _, normalized, _ = mn_dataset
        with pytest.raises(ShapeError):
            normalized.take_rows(np.array([0, normalized.shape[0]]))

    def test_wrong_mask_length_rejected(self, mn_dataset):
        _, normalized, _ = mn_dataset
        with pytest.raises(ShapeError):
            normalized.take_rows(np.zeros(3, dtype=bool))

    def test_transposed_rejected(self, mn_dataset):
        _, normalized, _ = mn_dataset
        with pytest.raises(NotSupportedError):
            normalized.T.take_rows(np.array([0]))

    def test_operators_on_subset_stay_factorized(self, mn_dataset, rng):
        _, normalized, materialized = mn_dataset
        indices = np.array([2, 4, 6, 8, 10])
        subset = normalized.take_rows(indices)
        x = rng.standard_normal((materialized.shape[1], 2))
        assert np.allclose(subset @ x, materialized[indices] @ x)
        assert np.allclose(subset.crossprod(),
                           materialized[indices].T @ materialized[indices])
