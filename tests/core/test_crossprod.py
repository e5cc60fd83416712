"""Tests for the cross-product rewrite rules (paper Section 3.3.5, Algorithms 1/2)."""

import numpy as np
import pytest

from repro.core.rewrite import crossprod as rules


class TestCrossprodEfficient:
    def test_single_join(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        assert np.allclose(normalized.crossprod(), materialized.T @ materialized)

    def test_multi_join(self, multi_join_dense):
        _, normalized, materialized = multi_join_dense
        assert np.allclose(normalized.crossprod(), materialized.T @ materialized)

    def test_sparse(self, single_join_sparse):
        normalized, dense = single_join_sparse
        assert np.allclose(normalized.crossprod(), dense.T @ dense)

    def test_no_entity_features(self, no_entity_features):
        normalized, dense = no_entity_features
        assert np.allclose(normalized.crossprod(), dense.T @ dense)

    def test_result_is_symmetric(self, multi_join_dense):
        _, normalized, _ = multi_join_dense
        gram = normalized.crossprod()
        assert np.allclose(gram, gram.T)

    def test_gram_alias(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        assert np.allclose(normalized.gram(), materialized.T @ materialized)


class TestCrossprodNaive:
    def test_single_join(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        assert np.allclose(normalized.crossprod("naive"), materialized.T @ materialized)

    def test_multi_join(self, multi_join_dense):
        _, normalized, materialized = multi_join_dense
        assert np.allclose(normalized.crossprod("naive"), materialized.T @ materialized)

    def test_naive_equals_efficient(self, multi_join_dense):
        _, normalized, _ = multi_join_dense
        assert np.allclose(normalized.crossprod("naive"), normalized.crossprod("efficient"))

    def test_method_set_at_construction(self, single_join_dense):
        dataset, _, materialized = single_join_dense
        from repro.core.normalized_matrix import NormalizedMatrix
        naive = NormalizedMatrix(dataset.entity, dataset.indicators, dataset.attributes,
                                 crossprod_method="naive")
        assert np.allclose(naive.crossprod(), materialized.T @ materialized)


class TestGramTransposed:
    def test_single_join(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        assert np.allclose(normalized.T.crossprod(), materialized @ materialized.T)

    def test_multi_join(self, multi_join_dense):
        _, normalized, materialized = multi_join_dense
        assert np.allclose(normalized.T.crossprod(), materialized @ materialized.T)

    def test_sparse(self, single_join_sparse):
        normalized, dense = single_join_sparse
        assert np.allclose(normalized.T.crossprod(), dense @ dense.T)

    def test_no_entity_features(self, no_entity_features):
        normalized, dense = no_entity_features
        assert np.allclose(normalized.T.crossprod(), dense @ dense.T)


class TestRewriteFunctionsDirectly:
    def test_star_naive_function(self, multi_join_dense):
        dataset, _, materialized = multi_join_dense
        out = rules.crossprod_star_naive(dataset.entity, dataset.indicators, dataset.attributes)
        assert np.allclose(out, materialized.T @ materialized)

    def test_star_efficient_function(self, multi_join_dense):
        dataset, _, materialized = multi_join_dense
        out = rules.crossprod_star_efficient(dataset.entity, dataset.indicators, dataset.attributes)
        assert np.allclose(out, materialized.T @ materialized)

    def test_gram_transposed_star_function(self, multi_join_dense):
        dataset, _, materialized = multi_join_dense
        out = rules.gram_transposed_star(dataset.entity, dataset.indicators, dataset.attributes)
        assert np.allclose(out, materialized @ materialized.T)

    def test_mn_naive_function(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        out = rules.crossprod_star_naive(None, normalized.indicators, normalized.attributes)
        assert np.allclose(out, materialized.T @ materialized)

    def test_mn_efficient_function(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        out = rules.crossprod_star_efficient(None, normalized.indicators, normalized.attributes)
        assert np.allclose(out, materialized.T @ materialized)

    def test_gram_transposed_mn_function(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        out = rules.gram_transposed_star(None, normalized.indicators, normalized.attributes)
        assert np.allclose(out, materialized @ materialized.T)


class TestCrossprodComposition:
    """Cross-product after scalar rewrites -- normalized output feeds normalized input."""

    def test_crossprod_of_scaled_matrix(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        scaled = normalized * 2.0
        assert np.allclose(scaled.crossprod(), (2.0 * materialized).T @ (2.0 * materialized))

    def test_crossprod_of_squared_matrix(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        squared = normalized ** 2
        reference = (materialized ** 2).T @ (materialized ** 2)
        assert np.allclose(squared.crossprod(), reference)
