"""Row-tiled K-Means and GNMF iterations: equivalence and the memory guard.

The per-iteration n-row steps of batch K-Means (nearest centroid) and GNMF
(the ``W`` update) run over row tiles inside each shard
(:mod:`repro.core.tiles`).  On integer-valued data built so that every
intermediate is exactly representable, serial, ``n_jobs=2`` sharded,
materialized and budgeted ``engine="auto"`` fits whose plan streams the rows
(``Partitioned.streamed``) must agree bit for bit; and a fit must not hold an
``n x k`` array at any point (``tracemalloc`` measures the Python heap
deterministically, where RSS would be too noisy for a unit test).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import GNMF, KMeans, NormalizedMatrix
from repro.core.planner.memory import entity_stream_nbytes
from repro.core.rewrite.multiplication import TILE_ROWS
from repro.la.ops import indicator_from_labels

#: Four clusters of 2**13 rows: each shard of a two-way split spans two tiles,
#: and every cluster mean is a dyadic rational, so all sums stay exact.
CLUSTER_ROWS = 2 ** 13
NUM_CLUSTERS = 4
N_ROWS = NUM_CLUSTERS * CLUSTER_ROWS


def _surjective(rng, n: int, count: int) -> np.ndarray:
    return rng.permutation(np.concatenate([np.arange(count),
                                           rng.integers(0, count, n - count)]))


def _blobs():
    """Entity rows around four far-apart integer centres; small integer tables."""
    rng = np.random.default_rng(24)
    truth = rng.permutation(np.repeat(np.arange(NUM_CLUSTERS), CLUSTER_ROWS))
    centres = 100.0 * np.arange(NUM_CLUSTERS)[:, None] * np.array([[1.0, -1.0, 2.0]])
    entity = centres[truth] + rng.integers(0, 4, size=(N_ROWS, 3))
    attributes = [rng.integers(0, 4, size=(50, 2)).astype(float),
                  rng.integers(0, 4, size=(20, 2)).astype(float)]
    indicators = [indicator_from_labels(_surjective(rng, N_ROWS, r.shape[0]),
                                        num_columns=r.shape[0]) for r in attributes]
    matrix = NormalizedMatrix(entity, indicators, attributes)
    initial = np.hstack([centres, np.ones((NUM_CLUSTERS, 4))]).T   # d x k
    return matrix, truth, initial


def _runs(matrix):
    """``(name, data, settings)`` of every path the agreement tests compare.

    ``"streamed"`` is an ``engine="auto"`` fit whose budget (half the
    entity and indicator bytes) leaves the planner only the streamed plan,
    cut into batches that straddle the row tiles.
    """
    dense = np.asarray(matrix.to_dense())
    budget = entity_stream_nbytes(matrix) // 2
    return (("serial", matrix, dict(n_jobs=1)), ("sharded", matrix, dict(n_jobs=2)),
            ("materialized", dense, dict(n_jobs=1)),
            ("materialized-sharded", dense, dict(n_jobs=2)),
            ("streamed", matrix, dict(engine="auto", memory_budget=budget)))


class TestKMeansAgreement:
    @pytest.fixture(scope="class")
    def fits(self):
        matrix, truth, initial = _blobs()
        dense = np.asarray(matrix.to_dense())
        runs = {}
        for name, data, settings in _runs(matrix):
            runs[name] = KMeans(num_clusters=NUM_CLUSTERS, max_iter=3, track_history=True,
                                **settings).fit(data, initial_centroids=initial)
        return runs, dense, truth

    def test_serial_sharded_and_materialized_fits_are_bit_identical(self, fits):
        runs, _, truth = fits
        serial = runs["serial"]
        assert np.array_equal(serial.labels_, truth)
        assert runs["streamed"].plan_.chosen.backend == "streamed"
        assert runs["streamed"].plan_.chosen.batch_rows % TILE_ROWS != 0
        for name, model in runs.items():
            assert np.array_equal(model.labels_, serial.labels_), name
            assert np.array_equal(model.centroids_, serial.centroids_), name
            assert model.inertia_ == serial.inertia_, name
            assert np.array_equal(model.history_, serial.history_), name

    def test_inertia_is_the_sum_of_row_minima_of_the_distance_matrix(self, fits):
        runs, dense, _ = fits
        model = runs["sharded"]
        centroids = model.centroids_    # the fit's fixed point: the last assignment's too
        distances = ((dense ** 2).sum(axis=1)[:, None] + (centroids ** 2).sum(axis=0)
                     - 2 * dense @ centroids)
        assert np.array_equal(np.argmin(distances, axis=1), model.labels_)
        assert model.inertia_ == float(np.sum(distances.min(axis=1)))

    def test_inertia_on_unrounded_data(self):
        rng = np.random.default_rng(5)
        n = TILE_ROWS + 77
        attributes = [rng.random((30, 4))]
        matrix = NormalizedMatrix(rng.random((n, 3)),
                                  [indicator_from_labels(_surjective(rng, n, 30),
                                                         num_columns=30)], attributes)
        model = KMeans(num_clusters=5, max_iter=1, n_jobs=2).fit(matrix)
        dense = np.asarray(matrix.to_dense())
        start = KMeans(num_clusters=5)._initial_centroids(dense)
        distances = ((dense ** 2).sum(axis=1)[:, None] + (start ** 2).sum(axis=0)
                     - 2 * dense @ start)
        assert np.array_equal(np.argmin(distances, axis=1), model.labels_)
        assert model.inertia_ == pytest.approx(distances.min(axis=1).sum(), rel=1e-12)


class TestGNMFAgreement:
    """One multiplicative iteration from ``W = 1`` and ``H`` rows ``[1, 3]``
    with ``epsilon = 0``: every denominator of the ``H`` update is
    ``4 n = 2**17``, so ``H`` and ``T H`` are exact and all paths agree."""

    @pytest.fixture(scope="class")
    def problem(self):
        matrix, _, _ = _blobs()
        positive = NormalizedMatrix(np.abs(matrix.entity) + 1, matrix.indicators,
                                    [r + 1 for r in matrix.attributes])
        initial_w = np.ones((N_ROWS, 2))
        initial_h = np.tile([1.0, 3.0], (positive.shape[1], 1))
        return positive, initial_w, initial_h

    def test_serial_sharded_and_materialized_fits_are_bit_identical(self, problem):
        matrix, initial_w, initial_h = problem
        dense = np.asarray(matrix.to_dense())
        runs = {}
        for name, data, settings in _runs(matrix):
            runs[name] = GNMF(rank=2, max_iter=1, epsilon=0.0, track_history=True,
                              **settings).fit(data, initial_w=initial_w, initial_h=initial_h)
        serial = runs["serial"]
        assert runs["streamed"].plan_.chosen.backend == "streamed"
        for name, model in runs.items():
            assert np.array_equal(model.w_, serial.w_), name
            assert np.array_equal(model.h_, serial.h_), name
            assert np.array_equal(model.history_, serial.history_), name
        h = initial_h * (dense.T @ initial_w) / (initial_h @ (initial_w.T @ initial_w))
        w = initial_w * (dense @ h) / (initial_w @ (h.T @ h))
        assert np.array_equal(serial.h_, h)
        assert np.array_equal(serial.w_, w)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_initial_w_is_never_mutated(self, problem, n_jobs):
        matrix, initial_w, initial_h = problem
        before = initial_w.copy()
        model = GNMF(rank=2, max_iter=2, n_jobs=n_jobs).fit(
            matrix, initial_w=initial_w, initial_h=initial_h)
        assert np.array_equal(initial_w, before)
        assert not np.shares_memory(model.w_, initial_w)


# -- memory guard ------------------------------------------------------------

def _guard_matrix():
    rng = np.random.default_rng(0)
    n = 50_000
    attributes = [rng.random((500, 10)), rng.random((100, 10))]
    indicators = [indicator_from_labels(_surjective(rng, n, r.shape[0]),
                                        num_columns=r.shape[0]) for r in attributes]
    return NormalizedMatrix(rng.random((n, 20)), indicators, attributes)


def _outputs(model) -> int:
    if isinstance(model, KMeans):
        return model.labels_.nbytes + model.centroids_.nbytes
    return model.w_.nbytes + model.h_.nbytes


@pytest.mark.parametrize("n_jobs", [1, 2], ids=["serial", "two-shards"])
@pytest.mark.parametrize("estimator", ["kmeans", "gnmf"])
def test_fit_holds_less_than_one_n_by_k_array(estimator, n_jobs):
    """A fit's traced peak, beyond its persistent outputs, stays below one
    ``n x k`` float64 array (4 MB here).  The first fit builds per-matrix
    state that later fits reuse (each indicator's CSR form, the shard
    views), so the second fit is the one measured."""
    matrix = _guard_matrix()
    k = 10

    def make():
        if estimator == "kmeans":
            return KMeans(num_clusters=k, max_iter=3, n_jobs=n_jobs)
        return GNMF(rank=k, max_iter=3, n_jobs=n_jobs)

    make().fit(matrix)
    tracemalloc.start()
    try:
        model = make().fit(matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = matrix.shape[0] * k * 8
    transient = peak - _outputs(model)
    assert transient < bound, (
        f"{estimator} n_jobs={n_jobs}: {transient / 1e6:.2f} MB beyond the outputs "
        f">= one n x k array ({bound / 1e6:.2f} MB)")
