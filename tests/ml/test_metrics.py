"""Tests for the evaluation metrics in :mod:`repro.ml.metrics`."""

import warnings

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.ml import metrics


class TestAccuracy:
    def test_perfect(self):
        assert metrics.accuracy([1, -1, 1], [1, -1, 1]) == 1.0

    def test_half(self):
        assert metrics.accuracy([1, -1], [1, 1]) == 0.5

    def test_column_vectors_accepted(self):
        assert metrics.accuracy(np.ones((3, 1)), np.ones(3)) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            metrics.accuracy([1, 2], [1])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            metrics.accuracy([], [])


class TestLogLoss:
    def test_confident_correct_is_small(self):
        assert metrics.log_loss([1, -1], [0.99, 0.01]) < 0.05

    def test_confident_wrong_is_large(self):
        assert metrics.log_loss([1, -1], [0.01, 0.99]) > 2.0

    def test_zero_one_labels_supported(self):
        a = metrics.log_loss([1, 0], [0.9, 0.1])
        b = metrics.log_loss([1, -1], [0.9, 0.1])
        assert a == pytest.approx(b)

    def test_clipping_avoids_infinities(self):
        assert np.isfinite(metrics.log_loss([1], [0.0]))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            metrics.log_loss([], [])


class TestRegressionMetrics:
    def test_mse_zero_for_exact(self):
        assert metrics.mean_squared_error([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_mse_value(self):
        assert metrics.mean_squared_error([0.0, 0.0], [1.0, 3.0]) == pytest.approx(5.0)

    def test_rmse_is_sqrt_of_mse(self):
        assert metrics.root_mean_squared_error([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))

    def test_r2_perfect(self):
        assert metrics.r2_score([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_r2_mean_predictor_is_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert metrics.r2_score(y, np.full(3, y.mean())) == pytest.approx(0.0)

    def test_r2_constant_target(self):
        assert metrics.r2_score([2.0, 2.0], [2.0, 2.0]) == 1.0
        assert metrics.r2_score([2.0, 2.0], [1.0, 3.0]) == 0.0

    def test_mse_empty_rejected(self):
        with pytest.raises(ShapeError):
            metrics.mean_squared_error([], [])


class TestClusteringAndFactorizationMetrics:
    def test_within_cluster_ss_zero_at_centroids(self):
        data = np.array([[0.0, 0.0], [1.0, 1.0]])
        centroids = data.T  # each point is its own centroid
        labels = np.array([0, 1])
        assert metrics.within_cluster_ss(data, labels, centroids) == 0.0

    def test_within_cluster_ss_value(self):
        data = np.array([[0.0], [2.0]])
        centroids = np.array([[1.0]])
        labels = np.array([0, 0])
        assert metrics.within_cluster_ss(data, labels, centroids) == pytest.approx(2.0)

    def test_within_cluster_ss_accepts_normalized(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        labels = np.zeros(materialized.shape[0], dtype=int)
        centroids = materialized.mean(axis=0, keepdims=True).T
        a = metrics.within_cluster_ss(normalized, labels, centroids)
        b = metrics.within_cluster_ss(materialized, labels, centroids)
        assert a == pytest.approx(b)

    def test_within_cluster_ss_label_mismatch(self):
        with pytest.raises(ShapeError):
            metrics.within_cluster_ss(np.ones((3, 2)), np.zeros(2, dtype=int), np.ones((2, 1)))

    def test_reconstruction_error_zero_for_exact_factors(self):
        w = np.ones((4, 2))
        h = np.ones((3, 2))
        data = w @ h.T
        assert metrics.reconstruction_error(data, w, h) == pytest.approx(0.0)

    def test_reconstruction_error_accepts_normalized(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        w = np.zeros((materialized.shape[0], 2))
        h = np.zeros((materialized.shape[1], 2))
        assert metrics.reconstruction_error(normalized, w, h) == pytest.approx(
            np.linalg.norm(materialized))


class TestScoreClipping:
    """Regression: probability/loss paths clipped inconsistently with the fit
    loops, so extreme scores overflowed in predict_proba but not in fit."""

    def test_clip_scores_bounds(self):
        clipped = metrics.clip_scores(np.array([-1e9, -1.0, 0.0, 2.0, 1e9]))
        assert clipped.min() == -metrics.SCORE_CLIP
        assert clipped.max() == metrics.SCORE_CLIP
        assert np.array_equal(clipped[1:4], [-1.0, 0.0, 2.0])

    def test_sigmoid_saturates_without_warnings(self):
        extreme = np.array([-1e12, -800.0, 0.0, 800.0, 1e12])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any overflow warning fails the test
            probs = metrics.sigmoid(extreme)
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(0.0)
        assert probs[2] == pytest.approx(0.5)
        assert probs[-1] == pytest.approx(1.0)

    def test_sigmoid_matches_reference_in_normal_range(self):
        z = np.linspace(-30, 30, 101)
        assert np.allclose(metrics.sigmoid(z), 1.0 / (1.0 + np.exp(-z)))

    def test_predict_proba_on_extreme_scores_is_finite(self):
        from repro.ml import LogisticRegressionGD

        rng = np.random.default_rng(0)
        data = rng.standard_normal((40, 3)) * 1e6  # enormous raw scores
        labels = np.where(rng.standard_normal(40) > 0, 1.0, -1.0)
        model = LogisticRegressionGD(max_iter=2, step_size=1.0)
        model.fit(data, labels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs = model.predict_proba(data)
            loss = metrics.log_loss(labels, probs)
        assert np.all(np.isfinite(probs))
        assert np.isfinite(loss)

    def test_log_loss_handles_saturated_probabilities(self):
        # sigmoid saturates to exact 0.0/1.0; log_loss must not produce log(0).
        labels = np.array([1.0, -1.0, 1.0, -1.0])
        probs = np.array([1.0, 0.0, 0.0, 1.0])
        assert np.isfinite(metrics.log_loss(labels, probs))
