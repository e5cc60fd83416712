"""Uniform inference-input validation across the four ML algorithms.

Plain matrices, normalized matrices, nested sequences and 1-row (1-D)
inputs must all be accepted the same way by every
``predict``/``predict_proba``/``decision_function``/``transform``, and every
shape problem must surface as :class:`repro.exceptions.ShapeError` -- never
a bare numpy broadcasting error.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.ml import (
    GNMF,
    KMeans,
    LinearRegressionCofactor,
    LinearRegressionGD,
    LinearRegressionNE,
    LogisticRegressionGD,
)


@pytest.fixture
def fitted_models(single_join_dense, rng):
    _, normalized, materialized = single_join_dense
    dense = np.asarray(materialized)
    y = rng.standard_normal(dense.shape[0])
    labels = np.where(y > 0, 1.0, -1.0)
    nonneg = np.abs(dense)
    models = {
        "linreg_ne": LinearRegressionNE().fit(dense, y),
        "linreg_gd": LinearRegressionGD(max_iter=3).fit(dense, y),
        "linreg_cf": LinearRegressionCofactor(max_iter=3).fit(dense, y),
        "logreg": LogisticRegressionGD(max_iter=3).fit(dense, labels),
        "kmeans": KMeans(num_clusters=3, max_iter=3).fit(dense),
        "gnmf": GNMF(rank=2, max_iter=3).fit(nonneg),
    }
    return models, normalized, dense


def _infer(name, model, data):
    if name == "kmeans":
        return model.predict(data)
    if name == "gnmf":
        return model.transform(data)
    return model.predict(data)


ALL_MODELS = ["linreg_ne", "linreg_gd", "linreg_cf", "logreg", "kmeans", "gnmf"]


@pytest.mark.parametrize("name", ALL_MODELS)
def test_one_row_1d_input_matches_2d(fitted_models, name):
    models, _, dense = fitted_models
    model = models[name]
    row = dense[4]
    assert row.ndim == 1
    one = _infer(name, model, row)
    two = _infer(name, model, dense[4:5])
    np.testing.assert_allclose(np.asarray(one), np.asarray(two), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_nested_sequence_input_accepted(fitted_models, name):
    models, _, dense = fitted_models
    model = models[name]
    as_list = dense[:3].tolist()
    np.testing.assert_allclose(
        np.asarray(_infer(name, model, as_list)),
        np.asarray(_infer(name, model, dense[:3])),
        rtol=1e-12, atol=1e-12,
    )


@pytest.mark.parametrize("name", ALL_MODELS)
def test_normalized_matrix_input_accepted(fitted_models, name):
    models, normalized, dense = fitted_models
    model = models[name]
    np.testing.assert_allclose(
        np.asarray(_infer(name, model, normalized)),
        np.asarray(_infer(name, model, dense)),
        rtol=1e-8, atol=1e-8,
    )


@pytest.mark.parametrize("name", ALL_MODELS)
def test_wrong_feature_count_raises_shape_error(fitted_models, name):
    models, _, dense = fitted_models
    model = models[name]
    with pytest.raises(ShapeError, match="features"):
        _infer(name, model, dense[:, :-1])
    with pytest.raises(ShapeError):
        _infer(name, model, dense[0, :-1])


@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("name", ["linreg_gd", "logreg", "kmeans", "gnmf"])
def test_partial_fit_width_mismatch_raises_shape_error(fitted_models, name, n_jobs):
    models, _, dense = fitted_models
    model = models[name]
    model.n_jobs = n_jobs
    weights = {attr: np.copy(getattr(model, attr))
               for attr in ("coef_", "centroids_", "w_", "h_") if hasattr(model, attr)}
    d = dense.shape[1]
    batch = np.abs(dense[:12, :-1])
    args = () if name in ("kmeans", "gnmf") else (np.ones(12),)
    message = rf"{type(model).__name__}\.partial_fit: batch has {d - 1} features .* {d}"
    with pytest.raises(ShapeError, match=message):
        model.partial_fit(batch, *args)
    for attr, before in weights.items():
        assert np.array_equal(getattr(model, attr), before), attr


@pytest.mark.parametrize("name", ALL_MODELS)
def test_bad_rank_raises_shape_error(fitted_models, name):
    models, _, dense = fitted_models
    model = models[name]
    with pytest.raises(ShapeError):
        _infer(name, model, dense.reshape(dense.shape[0], dense.shape[1], 1))


def test_logreg_proba_and_labels_on_one_row(fitted_models):
    models, _, dense = fitted_models
    model = models["logreg"]
    proba = model.predict_proba(dense[0])
    assert proba.shape == (1, 1)
    assert 0.0 <= float(proba[0, 0]) <= 1.0
    assert model.predict(dense[0]).shape == (1, 1)


def test_transposed_normalized_matrix_rejected(fitted_models):
    models, normalized, _ = fitted_models
    with pytest.raises(ShapeError):
        models["linreg_gd"].predict(normalized.T)


def test_non_numeric_input_raises_shape_error(fitted_models):
    models, _, _ = fitted_models
    with pytest.raises(ShapeError):
        models["linreg_gd"].predict([["a", "b"]])
