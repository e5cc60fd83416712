"""Tests for Gaussian non-negative matrix factorization (Algorithms 8 and 16)."""

import numpy as np
import pytest

from repro.core.normalized_matrix import NormalizedMatrix
from repro.ml.gnmf import GNMF
from repro.ml.metrics import reconstruction_error


@pytest.fixture
def nonnegative_normalized(single_join_dense):
    """A non-negative normalized matrix (GNMF requires non-negative data)."""
    dataset, normalized, _ = single_join_dense
    positive = NormalizedMatrix(np.abs(dataset.entity), dataset.indicators,
                                [np.abs(a) for a in dataset.attributes])
    return positive, np.asarray(positive.materialize())


class TestFactorizedEquivalence:
    def test_factors_match_materialized(self, nonnegative_normalized):
        normalized, materialized = nonnegative_normalized
        factorized = GNMF(rank=3, max_iter=8, seed=1).fit(normalized)
        standard = GNMF(rank=3, max_iter=8, seed=1).fit(materialized)
        assert np.allclose(factorized.w_, standard.w_, atol=1e-7)
        assert np.allclose(factorized.h_, standard.h_, atol=1e-7)

    def test_explicit_initial_factors(self, nonnegative_normalized, rng):
        normalized, materialized = nonnegative_normalized
        n, d = materialized.shape
        w0 = rng.uniform(0.1, 1.0, size=(n, 2))
        h0 = rng.uniform(0.1, 1.0, size=(d, 2))
        factorized = GNMF(rank=2, max_iter=5).fit(normalized, initial_w=w0, initial_h=h0)
        standard = GNMF(rank=2, max_iter=5).fit(materialized, initial_w=w0, initial_h=h0)
        assert np.allclose(factorized.w_, standard.w_, atol=1e-8)

    def test_mn_join_equivalence(self, mn_dataset):
        dataset, _, _ = mn_dataset
        from repro.core import MNNormalizedMatrix
        positive = MNNormalizedMatrix([dataset.left_indicator, dataset.right_indicator],
                                      [np.abs(dataset.left), np.abs(dataset.right)])
        dense = positive.to_dense()
        factorized = GNMF(rank=3, max_iter=6, seed=2).fit(positive)
        standard = GNMF(rank=3, max_iter=6, seed=2).fit(dense)
        assert np.allclose(factorized.w_, standard.w_, atol=1e-7)


class TestFactorizationBehaviour:
    def test_factors_stay_nonnegative(self, nonnegative_normalized):
        normalized, _ = nonnegative_normalized
        model = GNMF(rank=4, max_iter=10, seed=3).fit(normalized)
        assert np.all(model.w_ >= 0)
        assert np.all(model.h_ >= 0)

    def test_factor_shapes(self, nonnegative_normalized):
        normalized, materialized = nonnegative_normalized
        model = GNMF(rank=4, max_iter=3, seed=4).fit(normalized)
        assert model.w_.shape == (materialized.shape[0], 4)
        assert model.h_.shape == (materialized.shape[1], 4)

    def test_objective_decreases(self, nonnegative_normalized):
        normalized, _ = nonnegative_normalized
        model = GNMF(rank=4, max_iter=15, seed=5, track_history=True).fit(normalized)
        assert model.history_[-1] <= model.history_[0]

    def test_reconstruction_better_than_zero_baseline(self, nonnegative_normalized):
        normalized, materialized = nonnegative_normalized
        model = GNMF(rank=5, max_iter=30, seed=6).fit(normalized)
        error = reconstruction_error(materialized, model.w_, model.h_)
        baseline = float(np.linalg.norm(materialized))
        assert error < baseline

    def test_exact_low_rank_matrix_recovered_well(self):
        rng = np.random.default_rng(7)
        w_true = rng.uniform(0.5, 1.5, size=(40, 3))
        h_true = rng.uniform(0.5, 1.5, size=(8, 3))
        data = w_true @ h_true.T
        model = GNMF(rank=3, max_iter=300, seed=8).fit(data)
        relative = reconstruction_error(data, model.w_, model.h_) / np.linalg.norm(data)
        assert relative < 0.05

    def test_reconstruct_method(self, nonnegative_normalized):
        normalized, materialized = nonnegative_normalized
        model = GNMF(rank=3, max_iter=5, seed=9).fit(normalized)
        assert model.reconstruct().shape == materialized.shape


class TestValidation:
    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            GNMF(rank=0)

    def test_wrong_initial_factor_shape(self, nonnegative_normalized):
        normalized, _ = nonnegative_normalized
        with pytest.raises(ValueError):
            GNMF(rank=3, max_iter=1).fit(normalized, initial_w=np.ones((2, 3)),
                                         initial_h=np.ones((3, 3)))

    def test_reconstruct_before_fit(self):
        with pytest.raises(RuntimeError):
            GNMF(rank=2).reconstruct()
