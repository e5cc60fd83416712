"""Tests for the LMM / RMM rewrite rules (paper Sections 3.3.3 and 3.3.4)."""

import numpy as np
import pytest

from repro.core.rewrite import multiplication
from repro.exceptions import ShapeError


class TestLeftMultiplication:
    def test_vector_operand(self, single_join_dense, rng):
        _, normalized, materialized = single_join_dense
        w = rng.standard_normal((materialized.shape[1], 1))
        assert np.allclose(normalized @ w, materialized @ w)

    def test_matrix_operand(self, single_join_dense, rng):
        _, normalized, materialized = single_join_dense
        x = rng.standard_normal((materialized.shape[1], 7))
        assert np.allclose(normalized @ x, materialized @ x)

    def test_multi_join(self, multi_join_dense, rng):
        _, normalized, materialized = multi_join_dense
        x = rng.standard_normal((materialized.shape[1], 3))
        assert np.allclose(normalized @ x, materialized @ x)

    def test_sparse_base(self, single_join_sparse, rng):
        normalized, dense = single_join_sparse
        x = rng.standard_normal((dense.shape[1], 2))
        assert np.allclose(normalized @ x, dense @ x)

    def test_no_entity_features(self, no_entity_features, rng):
        normalized, dense = no_entity_features
        x = rng.standard_normal((dense.shape[1], 4))
        assert np.allclose(normalized @ x, dense @ x)

    def test_one_dimensional_operand_promoted(self, single_join_dense, rng):
        _, normalized, materialized = single_join_dense
        w = rng.standard_normal(materialized.shape[1])
        assert np.allclose((normalized @ w).ravel(), materialized @ w)

    def test_shape_mismatch_raises(self, single_join_dense, rng):
        _, normalized, _ = single_join_dense
        with pytest.raises(ShapeError):
            normalized @ rng.standard_normal((3, 2))

    def test_dot_alias(self, single_join_dense, rng):
        _, normalized, materialized = single_join_dense
        w = rng.standard_normal((materialized.shape[1], 1))
        assert np.allclose(normalized.dot(w), materialized @ w)

    def test_result_is_regular_matrix(self, single_join_dense, rng):
        _, normalized, materialized = single_join_dense
        out = normalized @ rng.standard_normal((materialized.shape[1], 2))
        assert isinstance(out, np.ndarray)


class TestRightMultiplication:
    def test_row_vector(self, single_join_dense, rng):
        _, normalized, materialized = single_join_dense
        x = rng.standard_normal((1, materialized.shape[0]))
        assert np.allclose(x @ normalized, x @ materialized)

    def test_matrix_operand(self, single_join_dense, rng):
        _, normalized, materialized = single_join_dense
        x = rng.standard_normal((5, materialized.shape[0]))
        assert np.allclose(x @ normalized, x @ materialized)

    def test_multi_join(self, multi_join_dense, rng):
        _, normalized, materialized = multi_join_dense
        x = rng.standard_normal((4, materialized.shape[0]))
        assert np.allclose(x @ normalized, x @ materialized)

    def test_no_entity_features(self, no_entity_features, rng):
        normalized, dense = no_entity_features
        x = rng.standard_normal((2, dense.shape[0]))
        assert np.allclose(x @ normalized, x @ dense)

    def test_sparse_base(self, single_join_sparse, rng):
        normalized, dense = single_join_sparse
        x = rng.standard_normal((3, dense.shape[0]))
        assert np.allclose(x @ normalized, x @ dense)

    def test_shape_mismatch_raises(self, single_join_dense, rng):
        _, normalized, _ = single_join_dense
        with pytest.raises(ShapeError):
            rng.standard_normal((2, 5)) @ normalized


class TestTransposedMultiplication:
    """Appendix A: T^T X and X T^T routed through the untransposed rewrites."""

    def test_transposed_lmm(self, single_join_dense, rng):
        _, normalized, materialized = single_join_dense
        p = rng.standard_normal((materialized.shape[0], 1))
        assert np.allclose(normalized.T @ p, materialized.T @ p)

    def test_transposed_lmm_matrix(self, multi_join_dense, rng):
        _, normalized, materialized = multi_join_dense
        p = rng.standard_normal((materialized.shape[0], 6))
        assert np.allclose(normalized.T @ p, materialized.T @ p)

    def test_transposed_rmm(self, single_join_dense, rng):
        _, normalized, materialized = single_join_dense
        x = rng.standard_normal((3, materialized.shape[1]))
        assert np.allclose(x @ normalized.T, x @ materialized.T)

    def test_gram_via_transpose_chain(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        assert np.allclose(normalized.T @ materialized, materialized.T @ materialized)

    def test_transposed_sparse(self, single_join_sparse, rng):
        normalized, dense = single_join_sparse
        p = rng.standard_normal((dense.shape[0], 2))
        assert np.allclose(normalized.T @ p, dense.T @ p)


class TestRewriteFunctionsDirectly:
    """The free functions expose the multiplication-order ablation of Section 3.3.3."""

    def test_lmm_star_matches_materialized_order(self, single_join_dense, rng):
        dataset, normalized, materialized = single_join_dense
        x = rng.standard_normal((materialized.shape[1], 3))
        fast = multiplication.lmm_star(dataset.entity, dataset.indicators, dataset.attributes, x)
        slow = multiplication.lmm_star_materialized_order(
            dataset.entity, dataset.indicators, dataset.attributes, x)
        assert np.allclose(fast, slow)
        assert np.allclose(fast, materialized @ x)

    def test_lmm_star_shape_check(self, single_join_dense, rng):
        dataset, _, _ = single_join_dense
        with pytest.raises(ShapeError):
            multiplication.lmm_star(dataset.entity, dataset.indicators, dataset.attributes,
                                    rng.standard_normal((2, 2)))

    def test_rmm_star_shape_check(self, single_join_dense, rng):
        dataset, _, _ = single_join_dense
        with pytest.raises(ShapeError):
            multiplication.rmm_star(dataset.entity, dataset.indicators, dataset.attributes,
                                    rng.standard_normal((2, 2)))

    def test_lmm_mn_shape_check(self, mn_dataset, rng):
        dataset, normalized, _ = mn_dataset
        with pytest.raises(ShapeError):
            multiplication.lmm_star(None, normalized.indicators, normalized.attributes,
                                    rng.standard_normal((1, 1)))

    def test_rmm_mn_shape_check(self, mn_dataset, rng):
        dataset, normalized, _ = mn_dataset
        with pytest.raises(ShapeError):
            multiplication.rmm_star(None, normalized.indicators, normalized.attributes,
                                    rng.standard_normal((1, 1)))
