"""Mini-batch / streaming equivalence suite for the four ML algorithms.

Three contracts, per the streaming issue's acceptance criteria:

* one epoch with ``batch_size >= n_rows`` (unshuffled) matches the full-batch
  solver **bit for bit** -- the identity fast path hands the solver the very
  same operand;
* factorized mini-batch training matches materialized mini-batch training to
  ``1e-8`` across star and M:N fixtures, for ``solver="sgd"`` fits and for
  raw ``partial_fit`` streams alike;
* the streaming knobs compose with the existing ``engine=`` / ``n_jobs=``
  surface, including ``engine="auto"`` dispatching to a streamed plan under a
  memory budget.
"""

import numpy as np
import pytest

from repro.core.planner import CalibrationProfile, Planner
from repro.core.planner.memory import entity_stream_nbytes
from repro.ml import GNMF, KMeans, LinearRegressionGD, LogisticRegressionGD

ATOL = 1e-8


def _labels(y):
    arr = np.asarray(y).ravel()
    return np.where(arr > np.median(arr), 1.0, -1.0)


@pytest.fixture(params=["star", "mn"])
def fixture_pair(request, multi_join_dense, mn_dataset):
    """(normalized, materialized, regression target, class labels) per family."""
    if request.param == "star":
        dataset, normalized, materialized = multi_join_dense
        target = np.asarray(dataset.target, dtype=np.float64).ravel()
    else:
        _, normalized, materialized = mn_dataset
        rng = np.random.default_rng(17)
        target = rng.standard_normal(materialized.shape[0])
    return normalized, np.asarray(materialized), target, _labels(target)


class TestFullBatchBitForBit:
    """batch_size >= n_rows, one solver per algorithm: identical arithmetic."""

    def test_linear_regression(self, fixture_pair):
        normalized, materialized, y, _ = fixture_pair
        n = materialized.shape[0]
        full = LinearRegressionGD(max_iter=4, step_size=1e-4).fit(normalized, y)
        sgd = LinearRegressionGD(max_iter=4, step_size=1e-4, solver="sgd",
                                 batch_size=n).fit(normalized, y)
        assert np.array_equal(full.coef_, sgd.coef_)

    def test_linear_regression_oversized_batch(self, fixture_pair):
        normalized, materialized, y, _ = fixture_pair
        full = LinearRegressionGD(max_iter=3, step_size=1e-4).fit(normalized, y)
        sgd = LinearRegressionGD(max_iter=3, step_size=1e-4, solver="sgd",
                                 batch_size=10 ** 9).fit(normalized, y)
        assert np.array_equal(full.coef_, sgd.coef_)

    def test_logistic_regression(self, fixture_pair):
        normalized, materialized, _, labels = fixture_pair
        n = materialized.shape[0]
        full = LogisticRegressionGD(max_iter=4).fit(normalized, labels)
        sgd = LogisticRegressionGD(max_iter=4, solver="sgd", batch_size=n
                                   ).fit(normalized, labels)
        assert np.array_equal(full.coef_, sgd.coef_)

    def test_kmeans(self, fixture_pair):
        normalized, materialized, _, _ = fixture_pair
        n = materialized.shape[0]
        full = KMeans(num_clusters=3, max_iter=4).fit(normalized)
        sgd = KMeans(num_clusters=3, max_iter=4, solver="sgd", batch_size=n
                     ).fit(normalized)
        assert np.array_equal(full.centroids_, sgd.centroids_)
        assert np.array_equal(full.labels_, sgd.labels_)
        assert full.inertia_ == sgd.inertia_

    def test_gnmf(self, fixture_pair):
        _, materialized, _, _ = fixture_pair
        nonneg = np.abs(materialized) + 0.1
        n = nonneg.shape[0]
        full = GNMF(rank=3, max_iter=4).fit(nonneg)
        sgd = GNMF(rank=3, max_iter=4, solver="sgd", batch_size=n).fit(nonneg)
        assert np.array_equal(full.w_, sgd.w_)
        assert np.array_equal(full.h_, sgd.h_)


class TestShuffledOneBatchEpoch:
    """One shuffled batch covering every row is the full-batch fit up to summation order."""

    def test_all_four(self, fixture_pair):
        normalized, materialized, y, labels = fixture_pair
        n = materialized.shape[0]
        sgd = dict(solver="sgd", batch_size=n, shuffle=True, seed=3)
        for make, args in (
                (lambda **kw: LinearRegressionGD(max_iter=3, step_size=1e-4, **kw), (y,)),
                (lambda **kw: LogisticRegressionGD(max_iter=3, **kw), (labels,)),
                (lambda **kw: KMeans(num_clusters=3, max_iter=3, **kw), ()),
                (lambda **kw: GNMF(rank=2, max_iter=3, **kw), ())):
            data = normalized + 5.0 if not args else normalized
            full = make(seed=3).fit(data, *args)
            shuffled = make(**sgd).fit(data, *args)
            for attr in ("coef_", "centroids_", "w_", "h_"):
                if hasattr(full, attr):
                    assert np.allclose(getattr(full, attr), getattr(shuffled, attr),
                                       rtol=1e-10, atol=1e-12), attr
            if isinstance(full, KMeans):
                assert np.array_equal(full.predict(data), shuffled.labels_)


class TestMinibatchKMeansReportsFinalModel:
    """A mini-batch K-Means fit's labels_/inertia_ come from its final centroids."""

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_labels_and_inertia(self, fixture_pair, shuffle):
        normalized, materialized, _, _ = fixture_pair
        model = KMeans(num_clusters=3, max_iter=3, solver="sgd", batch_size=23,
                       shuffle=shuffle).fit(normalized)
        assert np.array_equal(model.labels_, model.predict(materialized))
        distances = ((materialized[:, :, None] - model.centroids_[None]) ** 2).sum(axis=1)
        assert np.isclose(model.inertia_, distances.min(axis=1).sum(), rtol=1e-9)


class TestFactorizedMatchesMaterializedMinibatch:
    """solver="sgd" with genuine mini-batches: F and M agree to 1e-8."""

    BATCH = 23

    def test_linear_regression(self, fixture_pair):
        normalized, materialized, y, _ = fixture_pair
        kwargs = dict(max_iter=3, step_size=1e-4, solver="sgd", batch_size=self.BATCH)
        f = LinearRegressionGD(**kwargs).fit(normalized, y)
        m = LinearRegressionGD(**kwargs).fit(materialized, y)
        assert np.allclose(f.coef_, m.coef_, atol=ATOL)

    def test_linear_regression_shuffled(self, fixture_pair):
        normalized, materialized, y, _ = fixture_pair
        kwargs = dict(max_iter=3, step_size=1e-4, solver="sgd",
                      batch_size=self.BATCH, shuffle=True, seed=5)
        f = LinearRegressionGD(**kwargs).fit(normalized, y)
        m = LinearRegressionGD(**kwargs).fit(materialized, y)
        assert np.allclose(f.coef_, m.coef_, atol=ATOL)

    def test_logistic_regression(self, fixture_pair):
        normalized, materialized, _, labels = fixture_pair
        kwargs = dict(max_iter=3, solver="sgd", batch_size=self.BATCH)
        f = LogisticRegressionGD(**kwargs).fit(normalized, labels)
        m = LogisticRegressionGD(**kwargs).fit(materialized, labels)
        assert np.allclose(f.coef_, m.coef_, atol=ATOL)

    def test_logistic_regression_exact_update(self, fixture_pair):
        normalized, materialized, _, labels = fixture_pair
        kwargs = dict(max_iter=3, solver="sgd", batch_size=self.BATCH, update="exact")
        f = LogisticRegressionGD(**kwargs).fit(normalized, labels)
        m = LogisticRegressionGD(**kwargs).fit(materialized, labels)
        assert np.allclose(f.coef_, m.coef_, atol=ATOL)

    def test_kmeans(self, fixture_pair):
        normalized, materialized, _, _ = fixture_pair
        kwargs = dict(num_clusters=3, max_iter=3, solver="sgd", batch_size=self.BATCH)
        f = KMeans(**kwargs).fit(normalized)
        m = KMeans(**kwargs).fit(materialized)
        assert np.allclose(f.centroids_, m.centroids_, atol=ATOL)
        assert np.array_equal(f.labels_, m.labels_)
        assert np.isclose(f.inertia_, m.inertia_, atol=1e-6)

    def test_gnmf_star(self, multi_join_dense):
        # GNMF needs element-wise non-negative data; shift the attribute and
        # entity blocks of the star fixture through the scalar rewrites so
        # the factorized operand stays normalized.
        _, normalized, materialized = multi_join_dense
        shift = float(np.abs(materialized).max()) + 1.0
        nonneg_f = normalized + shift
        nonneg_m = np.asarray(materialized) + shift
        kwargs = dict(rank=3, max_iter=3, solver="sgd", batch_size=self.BATCH)
        f = GNMF(**kwargs).fit(nonneg_f)
        m = GNMF(**kwargs).fit(nonneg_m)
        assert np.allclose(f.w_, m.w_, atol=ATOL)
        assert np.allclose(f.h_, m.h_, atol=ATOL)


class TestPartialFitStreams:
    """Raw partial_fit streams: factorized slices vs. dense slices."""

    def _batches(self, n, size=19):
        for start in range(0, n, size):
            yield np.arange(start, min(start + size, n))

    def test_linear_regression_partial_fit(self, fixture_pair):
        normalized, materialized, y, _ = fixture_pair
        y2 = y.reshape(-1, 1)
        f = LinearRegressionGD(step_size=1e-4)
        m = LinearRegressionGD(step_size=1e-4)
        for idx in self._batches(materialized.shape[0]):
            f.partial_fit(normalized.take_rows(idx), y2[idx])
            m.partial_fit(materialized[idx], y2[idx])
        assert f.coef_ is not None
        assert np.allclose(f.coef_, m.coef_, atol=ATOL)

    def test_logistic_regression_partial_fit(self, fixture_pair):
        normalized, materialized, _, labels = fixture_pair
        lab = labels.reshape(-1, 1)
        f = LogisticRegressionGD()
        m = LogisticRegressionGD()
        for idx in self._batches(materialized.shape[0]):
            f.partial_fit(normalized.take_rows(idx), lab[idx])
            m.partial_fit(materialized[idx], lab[idx])
        assert np.allclose(f.coef_, m.coef_, atol=ATOL)

    def test_kmeans_partial_fit(self, fixture_pair):
        normalized, materialized, _, _ = fixture_pair
        f = KMeans(num_clusters=3)
        m = KMeans(num_clusters=3)
        for idx in self._batches(materialized.shape[0]):
            f.partial_fit(normalized.take_rows(idx))
            m.partial_fit(materialized[idx])
        assert np.allclose(f.centroids_, m.centroids_, atol=ATOL)

    def test_gnmf_partial_fit_grows_w(self, fixture_pair):
        _, materialized, _, _ = fixture_pair
        nonneg = np.abs(materialized) + 0.1
        model = GNMF(rank=2)
        for idx in self._batches(nonneg.shape[0]):
            model.partial_fit(nonneg[idx])
        assert model.w_.shape == (nonneg.shape[0], 2)
        assert np.all(np.isfinite(model.w_)) and np.all(np.isfinite(model.h_))

    def test_gnmf_partial_fit_with_row_indices(self, fixture_pair):
        _, materialized, _, _ = fixture_pair
        nonneg = np.abs(materialized) + 0.1
        n = nonneg.shape[0]
        whole = GNMF(rank=2, max_iter=1, solver="sgd", batch_size=19).fit(nonneg)
        manual = GNMF(rank=2, max_iter=1)
        manual.w_, manual.h_ = whole._initial_factors(n, nonneg.shape[1])
        for idx in self._batches(n):
            manual.partial_fit(nonneg[idx], row_indices=idx)
        assert np.allclose(whole.w_, manual.w_, atol=ATOL)
        assert np.allclose(whole.h_, manual.h_, atol=ATOL)

    def test_partial_fit_initializes_lazily(self, fixture_pair):
        normalized, materialized, y, _ = fixture_pair
        model = LinearRegressionGD(step_size=1e-4)
        assert model.coef_ is None
        model.partial_fit(normalized.take_rows(np.arange(5)), y[:5])
        assert model.coef_.shape == (materialized.shape[1], 1)


class TestStreamingComposition:
    def test_sgd_composes_with_n_jobs(self, multi_join_dense):
        dataset, normalized, _ = multi_join_dense
        y = dataset.target
        serial = LinearRegressionGD(max_iter=3, step_size=1e-4, solver="sgd",
                                    batch_size=29).fit(normalized, y)
        sharded = LinearRegressionGD(max_iter=3, step_size=1e-4, solver="sgd",
                                     batch_size=29, n_jobs=2).fit(normalized, y)
        assert np.allclose(serial.coef_, sharded.coef_, atol=1e-10)

    def test_auto_engine_memory_budget_dispatches_streamed(self, multi_join_dense):
        dataset, normalized, materialized = multi_join_dense
        y = dataset.target
        budget = entity_stream_nbytes(normalized) // 2
        auto = LinearRegressionGD(max_iter=3, step_size=1e-4, engine="auto",
                                  memory_budget=budget)
        auto.planner = Planner(calibration=CalibrationProfile.default(),
                               charge_materialization=False, memory_budget=budget)
        auto.fit(normalized, y)
        assert auto.plan_.chosen.backend == "streamed"
        assert auto.plan_.chosen.batch_rows < normalized.shape[0]
        # A streamed plan runs the full-batch epoch one row batch at a time,
        # so it learns the unbudgeted batch fit's model.
        reference = LinearRegressionGD(max_iter=3, step_size=1e-4).fit(
            np.asarray(materialized), y)
        assert np.allclose(auto.coef_, reference.coef_, atol=ATOL)

    def test_memory_budget_sizes_sgd_batches(self, multi_join_dense):
        dataset, normalized, materialized = multi_join_dense
        y = dataset.target
        d = materialized.shape[1]
        budget = 31 * d * 8
        model = LinearRegressionGD(max_iter=2, step_size=1e-4, solver="sgd",
                                   memory_budget=budget)
        model.fit(normalized, y)
        explicit = LinearRegressionGD(
            max_iter=2, step_size=1e-4, solver="sgd",
            batch_size=model._epoch(normalized).batch_rows).fit(normalized, y)
        assert np.allclose(model.coef_, explicit.coef_, atol=1e-12)

    def test_solver_validation(self):
        with pytest.raises(ValueError):
            LinearRegressionGD(solver="bogus")
        with pytest.raises(ValueError):
            LogisticRegressionGD(batch_size=0)
        with pytest.raises(ValueError):
            KMeans(memory_budget=-1)

    def test_track_history_records_epochs(self, multi_join_dense):
        dataset, normalized, _ = multi_join_dense
        model = LinearRegressionGD(max_iter=3, step_size=1e-4, solver="sgd",
                                   batch_size=29, track_history=True)
        model.fit(normalized, dataset.target)
        assert len(model.history_) == 3
        assert all(np.isfinite(v) for v in model.history_)


class TestTrackHistoryIsObservational:
    def test_gnmf_history_does_not_change_the_model(self, multi_join_dense):
        # Regression: the tracked objective used to re-iterate the shuffled
        # training iterator, consuming an extra permutation per epoch.
        _, _, materialized = multi_join_dense
        nonneg = np.abs(np.asarray(materialized)) + 0.1
        kwargs = dict(rank=2, max_iter=3, solver="sgd", batch_size=19,
                      shuffle=True, seed=4)
        tracked = GNMF(track_history=True, **kwargs).fit(nonneg)
        plain = GNMF(track_history=False, **kwargs).fit(nonneg)
        assert np.array_equal(tracked.w_, plain.w_)
        assert np.array_equal(tracked.h_, plain.h_)
        assert len(tracked.history_) == 3

    def test_kmeans_history_does_not_change_the_model(self, multi_join_dense):
        _, normalized, _ = multi_join_dense
        kwargs = dict(num_clusters=3, max_iter=3, solver="sgd", batch_size=19,
                      shuffle=True, seed=4)
        tracked = KMeans(track_history=True, **kwargs).fit(normalized)
        plain = KMeans(track_history=False, **kwargs).fit(normalized)
        assert np.array_equal(tracked.centroids_, plain.centroids_)
