"""Hand-written full-batch loops: the oracles of the estimators' one training loop.

Each function is one estimator's iteration written out as the paper's
pseudo-code spells it -- ``max_iter`` LA passes over the whole data matrix,
each updating the model once -- with no batches, epochs or step methods.
The estimators run a full-batch fit as ``max_iter`` one-batch epochs of
their shared training loop (:meth:`repro.ml.base.IterativeEstimator._run_epochs`);
``tests/ml/test_fit_oracles.py`` checks that the two agree bit for bit.

Every oracle takes a configured (unfitted) estimator for its settings and
initial state, and the operand the fit runs on (already sharded by
``n_jobs``); it returns the fitted attributes by name.
"""

from __future__ import annotations

import numpy as np

from repro.core.tiles import squared_row_norms
from repro.la import ops as la_ops
from repro.la.generic import to_dense_result
from repro.ml.kmeans import nearest_centroids
from repro.ml.metrics import clip_scores


def linear_regression(model, data, y: np.ndarray) -> dict:
    """Algorithm 11: ``w -= alpha * T^T (T w - Y)`` per iteration."""
    w = np.zeros((data.shape[1], 1))
    history = []
    for _ in range(model.max_iter):
        residual = to_dense_result(data @ w) - y
        gradient = to_dense_result(data.T @ residual)
        w = w - model.step_size * gradient
        if model.track_history:
            history.append(float(np.sum(residual ** 2)))
    return {"coef_": w, "history_": history}


def logistic_regression(model, data, y: np.ndarray) -> dict:
    """Algorithm 3: ``w += alpha * T^T (Y / (1 + exp(T w)))`` per iteration."""
    w = np.zeros((data.shape[1], 1))
    alpha = model.step_size
    history = []
    for _ in range(model.max_iter):
        scores = to_dense_result(data @ w)
        # Clip the exponent to keep exp finite; beyond +/-500 the factor is
        # numerically 0 or 1 anyway, so the update is unchanged.
        if model.update == "paper":
            p = y / (1.0 + np.exp(clip_scores(scores)))
        else:
            p = y / (1.0 + np.exp(clip_scores(y * scores)))
        w = w + alpha * to_dense_result(data.T @ p)
        if model.track_history:
            history.append(model._negative_log_likelihood(scores, y))
    return {"coef_": w, "history_": history}


def kmeans(model, data) -> dict:
    """Algorithm 7: assign every row, then move every centroid, per iteration."""
    centroids = model._initial_centroids(data)
    # Loop-invariant term, hoisted: the per-point squared norms rowSums(T ^ 2).
    point_norms = squared_row_norms(data)
    labels = np.empty(data.shape[0], dtype=np.intp)
    nearest = np.empty(data.shape[0])
    history = []
    for _ in range(model.max_iter):
        nearest_centroids(data, centroids, point_norms, labels, nearest)
        counts, sums = model._cluster_sums(data, labels)
        # Keep the previous centroid for empty clusters instead of dividing by zero.
        safe_counts = np.where(counts > 0, counts, 1.0)
        updated = sums / safe_counts
        centroids = np.where(counts > 0, updated, centroids)
        if model.track_history:
            history.append(float(np.sum(nearest)))
    return {"centroids_": centroids, "labels_": labels,
            "inertia_": float(np.sum(nearest)), "history_": history}


def _objective(data, w: np.ndarray, h: np.ndarray) -> float:
    """Squared Frobenius reconstruction error (densifies; diagnostics only)."""
    dense = data.to_dense() if hasattr(data, "to_dense") else np.asarray(data)
    return float(np.linalg.norm(dense - w @ h.T) ** 2)


def gnmf(model, data) -> dict:
    """Algorithm 8: the ``H`` then ``W`` multiplicative updates per iteration."""
    w, h = model._initial_factors(*data.shape)
    history = []
    for _ in range(model.max_iter):
        # H update: numerator T^T W is a factorized transposed LMM.
        numerator_h = to_dense_result(data.T @ w)                    # d x r
        denominator_h = h @ la_ops.crossprod(w) + model.epsilon      # d x r
        h = h * numerator_h / denominator_h
        # W update: numerator T H is a factorized LMM, consumed tile by tile.
        model._update_w(data, w, h)
        if model.track_history:
            history.append(_objective(data, w, h))
    return {"w_": w, "h_": h, "history_": history}
