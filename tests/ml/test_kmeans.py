"""Tests for K-Means clustering (paper Algorithms 7 and 15)."""

import tracemalloc

import numpy as np
import pytest

from repro.core.normalized_matrix import NormalizedMatrix
from repro.la.ops import indicator_from_labels
from repro.ml.kmeans import KMeans
from repro.ml.metrics import within_cluster_ss


class TestFactorizedEquivalence:
    def test_centroids_match_materialized(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        factorized = KMeans(num_clusters=4, max_iter=8, seed=1).fit(normalized)
        standard = KMeans(num_clusters=4, max_iter=8, seed=1).fit(materialized)
        assert np.allclose(factorized.centroids_, standard.centroids_, atol=1e-8)

    def test_labels_match_materialized(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        factorized = KMeans(num_clusters=4, max_iter=8, seed=1).fit(normalized)
        standard = KMeans(num_clusters=4, max_iter=8, seed=1).fit(materialized)
        assert np.array_equal(factorized.labels_, standard.labels_)

    def test_multi_join_equivalence(self, multi_join_dense):
        _, normalized, materialized = multi_join_dense
        factorized = KMeans(num_clusters=3, max_iter=6, seed=2).fit(normalized)
        standard = KMeans(num_clusters=3, max_iter=6, seed=2).fit(materialized)
        assert np.allclose(factorized.centroids_, standard.centroids_, atol=1e-8)

    def test_mn_join_equivalence(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        factorized = KMeans(num_clusters=3, max_iter=6, seed=3).fit(normalized)
        standard = KMeans(num_clusters=3, max_iter=6, seed=3).fit(materialized)
        assert np.allclose(factorized.centroids_, standard.centroids_, atol=1e-8)

    def test_explicit_initial_centroids(self, single_join_dense, rng):
        _, normalized, materialized = single_join_dense
        init = rng.standard_normal((materialized.shape[1], 3))
        factorized = KMeans(num_clusters=3, max_iter=5).fit(normalized, initial_centroids=init)
        standard = KMeans(num_clusters=3, max_iter=5).fit(materialized, initial_centroids=init)
        assert np.allclose(factorized.centroids_, standard.centroids_, atol=1e-9)


class TestClusteringBehaviour:
    def _blobs(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        centers = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]])
        points = np.vstack([
            centers[i] + 0.5 * rng.standard_normal((30, 2)) for i in range(3)
        ])
        return points, np.repeat(np.arange(3), 30)

    def test_recovers_well_separated_blobs(self):
        points, truth = self._blobs()
        model = KMeans(num_clusters=3, max_iter=20, seed=5).fit(points)
        # Every true cluster should map to exactly one predicted cluster.
        for cluster in range(3):
            assigned = model.labels_[truth == cluster]
            assert len(np.unique(assigned)) == 1

    def test_inertia_positive_and_small_for_blobs(self):
        points, _ = self._blobs(seed=1)
        model = KMeans(num_clusters=3, max_iter=20, seed=5).fit(points)
        assert model.inertia_ is not None
        assert model.inertia_ < within_cluster_ss(points, np.zeros(len(points), dtype=int),
                                                  np.tile(points.mean(axis=0).reshape(-1, 1), (1, 3)))

    def test_history_non_increasing_tail(self):
        points, _ = self._blobs(seed=2)
        model = KMeans(num_clusters=3, max_iter=15, seed=6, track_history=True).fit(points)
        assert model.history_[-1] <= model.history_[0] + 1e-9

    def test_predict_assigns_to_nearest_centroid(self):
        points, truth = self._blobs(seed=3)
        model = KMeans(num_clusters=3, max_iter=20, seed=7).fit(points)
        new_points = np.array([[0.2, -0.1], [9.8, 10.2]])
        predictions = model.predict(new_points)
        assert predictions[0] == model.predict(np.array([[0.0, 0.0]]))[0]
        assert predictions[1] == model.predict(np.array([[10.0, 10.0]]))[0]

    def test_predict_on_normalized_matrix(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        model = KMeans(num_clusters=4, max_iter=5, seed=8).fit(normalized)
        assert np.array_equal(model.predict(normalized), model.predict(materialized))

    def test_empty_cluster_keeps_previous_centroid(self):
        # Two far centroids, one unreachable: no point should be assigned to it.
        points = np.vstack([np.zeros((10, 2)), np.ones((10, 2))])
        init = np.array([[0.0, 1.0, 100.0], [0.0, 1.0, 100.0]])
        model = KMeans(num_clusters=3, max_iter=3).fit(points, initial_centroids=init)
        assert np.allclose(model.centroids_[:, 2], [100.0, 100.0])
        assert np.all(np.isfinite(model.centroids_))


class TestValidation:
    def test_invalid_num_clusters(self):
        with pytest.raises(ValueError):
            KMeans(num_clusters=0)

    def test_wrong_initial_centroid_shape(self, single_join_dense):
        _, normalized, _ = single_join_dense
        with pytest.raises(ValueError):
            KMeans(num_clusters=3).fit(normalized, initial_centroids=np.ones((2, 2)))

    def test_predict_before_fit(self, single_join_dense):
        _, normalized, _ = single_join_dense
        with pytest.raises(RuntimeError):
            KMeans(num_clusters=2).predict(normalized)

    def test_labels_within_range(self, single_join_dense):
        _, normalized, _ = single_join_dense
        model = KMeans(num_clusters=4, max_iter=5, seed=9).fit(normalized)
        assert model.labels_.min() >= 0
        assert model.labels_.max() < 4


class TestMemory:
    def test_fit_peak_has_no_dense_assignment_or_doubled_copy(self):
        """The fit's traced peak, first fit included, stays below four n x k
        blocks.  A dense n x k one-hot assignment (4 MB here) plus a ``2 T``
        copy (8 MB) would exceed it; ``test_row_tiled_fits.py`` holds the
        warm fit to less than one block."""
        rng = np.random.default_rng(0)
        n, k = 50_000, 10
        entity = rng.random((n, 20))
        attributes = [rng.random((500, 10)), rng.random((100, 10))]
        indicators = [
            indicator_from_labels(np.concatenate([np.arange(r.shape[0]),
                                                  rng.integers(0, r.shape[0], n - r.shape[0])]),
                                  num_columns=r.shape[0])
            for r in attributes]
        matrix = NormalizedMatrix(entity, indicators, attributes)
        bound = 4 * n * k * 8
        tracemalloc.start()
        try:
            KMeans(num_clusters=k, max_iter=3).fit(matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, f"peak {peak / 1e6:.1f} MB >= bound {bound / 1e6:.1f} MB"
