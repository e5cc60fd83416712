"""Every full-batch fit equals its hand-written loop in ``fit_oracles``, bit for bit.

A ``solver="batch"`` fit -- and a ``solver="sgd"`` fit whose one unshuffled
batch covers every row -- runs ``max_iter`` one-batch epochs of the shared
training loop.  These tests hold it to the plain full-batch loop of each
algorithm on star, M:N and dense inputs (and a star large enough for the
row-tiled LMM), serial and sharded, with and without ``track_history``.
A budgeted ``engine="auto"`` fit whose plan streams the rows runs the same
loop over ``Partitioned.streamed`` at the plan's batch size, and equals the
hand-written loop over that operand.
"""

import numpy as np
import pytest

from repro.core.partitioned import Partitioned
from repro.core.planner.memory import entity_stream_nbytes
from repro.datasets.synthetic import generate_star
from repro.ml import GNMF, KMeans, LinearRegressionGD, LogisticRegressionGD
from repro.ml.base import as_column, shard_for_jobs

from tests.ml import fit_oracles

ESTIMATORS = {
    "linreg": (lambda **kw: LinearRegressionGD(max_iter=3, step_size=1e-4, **kw),
               fit_oracles.linear_regression, "target"),
    "logreg": (lambda **kw: LogisticRegressionGD(max_iter=3, update="exact", **kw),
               fit_oracles.logistic_regression, "labels"),
    "kmeans": (lambda **kw: KMeans(num_clusters=3, max_iter=3, **kw),
               fit_oracles.kmeans, None),
    "gnmf": (lambda **kw: GNMF(rank=2, max_iter=3, **kw), fit_oracles.gnmf, None),
}


@pytest.fixture(scope="module")
def tiled_star():
    """A star with more rows than one LMM row tile (8,192)."""
    dataset = generate_star(num_entity_rows=9000, num_entity_features=3,
                            attribute_tables=[(60, 4), (300, 2)], seed=29)
    return dataset.normalized, np.asarray(dataset.target, dtype=np.float64).ravel()


@pytest.fixture(params=["star", "mn", "dense", "tiled"])
def operand(request, multi_join_dense, mn_dataset, tiled_star):
    """``{"matrix", "target", "labels", "nonneg"}`` of one input family."""
    if request.param == "mn":
        _, matrix, materialized = mn_dataset
        target = np.random.default_rng(17).standard_normal(materialized.shape[0])
    elif request.param == "tiled":
        matrix, target = tiled_star
    else:
        dataset, matrix, materialized = multi_join_dense
        target = np.asarray(dataset.target, dtype=np.float64).ravel()
        if request.param == "dense":
            matrix = np.asarray(materialized)
    labels = np.where(target > np.median(target), 1.0, -1.0)
    return {"matrix": matrix, "target": target, "labels": labels, "nonneg": matrix + 5.0}


@pytest.mark.parametrize("solver", ["batch", "sgd-one-batch"])
@pytest.mark.parametrize("track_history", [False, True])
@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_fit_equals_full_batch_oracle(operand, name, n_jobs, track_history, solver):
    make, oracle, target_key = ESTIMATORS[name]
    data = operand["nonneg"] if name == "gnmf" else operand["matrix"]
    kwargs = dict(n_jobs=n_jobs, track_history=track_history)
    if solver == "sgd-one-batch":
        kwargs.update(solver="sgd", batch_size=data.shape[0])
    targets = () if target_key is None else (operand[target_key],)

    model = make(**kwargs).fit(data, *targets)
    expected = oracle(make(**kwargs), shard_for_jobs(data, n_jobs),
                      *(as_column(t) for t in targets))

    for attr, value in expected.items():
        assert np.array_equal(np.asarray(getattr(model, attr)), np.asarray(value)), attr
    assert len(model.history_) == (3 if track_history else 0)


@pytest.mark.parametrize("track_history", [False, True])
@pytest.mark.parametrize("n_jobs", [None, 2])
@pytest.mark.parametrize("name", ["linreg", "logreg"])
def test_streamed_auto_fit_equals_full_batch_oracle(operand, name, n_jobs, track_history):
    """Half the entity and indicator bytes leave the planner only the streamed plan."""
    make, oracle, target_key = ESTIMATORS[name]
    data, target = operand["matrix"], as_column(operand[target_key])
    budget = entity_stream_nbytes(data) // 2
    kwargs = dict(n_jobs=n_jobs, track_history=track_history)

    model = make(engine="auto", memory_budget=budget, **kwargs).fit(data, target)
    batch_rows = model.plan_.chosen.batch_rows
    assert model.plan_.chosen.backend == "streamed" and batch_rows < data.shape[0]
    expected = oracle(make(**kwargs), Partitioned.streamed(data, batch_rows), target)

    for attr, value in expected.items():
        assert np.array_equal(np.asarray(getattr(model, attr)), np.asarray(value)), attr
    assert len(model.history_) == (3 if track_history else 0)
