"""A streamed plan changes where the rows are held, never what is learned.

On a 60,000-row star with one 3,000 x 20 dimension, a 2 MB ``memory_budget``
is below both the materialized join (12 MB) and the entity and indicator
matrices a full-pass factorized plan streams through (2.9 MB), so every
``engine="auto"`` fit plans ``factorized/eager/streamed``.  A full-batch fit
then runs its one-batch epoch over ``Partitioned.streamed``: it learns the
unbudgeted batch fit's model, holding one row batch at a time.  An sgd fit
keeps its own mini-batches, sized by its budget as the plan is.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.datasets.synthetic import generate_star
from repro.ml import GNMF, KMeans, LinearRegressionGD, LogisticRegressionGD

BUDGET = 2e6

ESTIMATORS = {
    "linreg": lambda **kw: LinearRegressionGD(max_iter=5, step_size=1e-6, **kw),
    "logreg": lambda **kw: LogisticRegressionGD(max_iter=5, **kw),
    "kmeans": lambda **kw: KMeans(num_clusters=5, max_iter=5, **kw),
    "gnmf": lambda **kw: GNMF(rank=5, max_iter=3, **kw),
}

FITTED = ("coef_", "centroids_", "labels_", "inertia_", "w_", "h_", "history_")

#: n-row float64/intp vectors a full-batch fit keeps by design: the
#: regressions' residual or score vector, K-Means' squared norms, labels and
#: nearest distances (GNMF keeps its ``w_``).
KEPT_VECTORS = {"linreg": 1, "logreg": 1, "kmeans": 3}


@pytest.fixture(scope="module")
def star():
    """``{name: (data, fit args)}`` over one 60,000-row star."""
    dataset = generate_star(num_entity_rows=60_000, num_entity_features=5,
                            attribute_tables=[(3000, 20)], seed=0)
    matrix = dataset.normalized
    target = np.asarray(dataset.target, dtype=np.float64).ravel()
    labels = np.where(target > np.median(target), 1.0, -1.0)
    return {"linreg": (matrix, (target,)), "logreg": (matrix, (labels,)),
            "kmeans": (matrix, ()), "gnmf": (matrix + 5.0, ())}


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_budgeted_auto_fit_equals_the_batch_fit(star, name):
    data, args = star[name]
    make = ESTIMATORS[name]
    batch = make(track_history=True).fit(data, *args)
    auto = make(track_history=True, engine="auto", memory_budget=BUDGET).fit(data, *args)
    assert auto.plan_.chosen.label.startswith("factorized/eager/streamed@")
    assert auto.plan_.chosen.batch_rows < data.shape[0]
    for attr in FITTED:
        expected = getattr(batch, attr, None)
        if expected is not None:
            assert np.allclose(getattr(auto, attr), expected, atol=1e-8), attr


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_budgeted_fit_peak_stays_within_the_budget(star, name):
    """The traced peak, beyond the per-row arrays every batch fit keeps, fits
    the budget.  The first fit builds per-matrix state that later fits reuse,
    so the second fit is the one measured."""
    data, args = star[name]

    def make():
        return ESTIMATORS[name](engine="auto", memory_budget=BUDGET)

    make().fit(data, *args)
    tracemalloc.start()
    try:
        model = make().fit(data, *args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.plan_.chosen.backend == "streamed"
    kept = model.w_.nbytes if name == "gnmf" else KEPT_VECTORS[name] * data.shape[0] * 8
    assert peak - kept <= BUDGET, (
        f"{name}: {(peak - kept) / 1e6:.2f} MB beyond the kept rows > {BUDGET / 1e6:.0f} MB")


@pytest.mark.parametrize("n_jobs", [None, 2])
def test_sgd_fit_under_a_streamed_plan_keeps_its_batches(star, n_jobs):
    """Its budget sizes its mini-batches as it sizes the plan's batches, and
    they run on the plan's one shard."""
    data, args = star["linreg"]

    def make(**kw):
        return LinearRegressionGD(max_iter=2, step_size=1e-6, solver="sgd",
                                  memory_budget=BUDGET, **kw)

    auto = make(engine="auto", n_jobs=n_jobs).fit(data, *args)
    assert auto.plan_.chosen.backend == "streamed" and auto.plan_.n_jobs == 1
    assert auto._epoch(data).batch_rows == auto.plan_.chosen.batch_rows
    assert np.array_equal(auto.coef_, make(n_jobs=1).fit(data, *args).coef_)


def test_gnmf_history_densifies_one_row_batch_at_a_time(star):
    """``track_history`` densifies the reconstruction error piece by piece:
    the fit never holds the ``n x d`` join (12 MB here)."""
    data, _ = star["gnmf"]

    def make():
        return GNMF(rank=5, max_iter=2, track_history=True, engine="auto",
                    memory_budget=BUDGET)

    make().fit(data)
    tracemalloc.start()
    try:
        model = make().fit(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(model.history_) == 2
    assert peak - model.w_.nbytes < data.shape[0] * data.shape[1] * 8


def test_gnmf_history_holds_at_most_two_row_batches(star):
    """Each piece's residual is formed in its ``W H^T`` buffer: beyond ``w_``,
    the tracked fit's peak is the densified batch and that buffer (the
    difference as a third array would put it at three)."""
    data, _ = star["gnmf"]

    def make():
        return GNMF(rank=5, max_iter=2, track_history=True, engine="auto",
                    memory_budget=BUDGET)

    make().fit(data)
    tracemalloc.start()
    try:
        model = make().fit(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    batch_bytes = model.plan_.chosen.batch_rows * data.shape[1] * 8
    assert peak - model.w_.nbytes < 2.5 * batch_bytes, (
        f"{(peak - model.w_.nbytes) / batch_bytes:.2f} row batches beyond w_")
