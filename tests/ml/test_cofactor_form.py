"""The co-factor form of GD linear regression under ``engine="auto"``.

When the planner picks the ``cofactor`` candidate, ``LinearRegressionGD``
computes ``crossprod(T)`` and ``T^T Y`` once and iterates
``w -= alpha (crossprod(T) w - T^T Y)``.  That is Algorithm 11's update
rewritten, so the coefficients (and, with ``track_history``, the per-iteration
residual sums of squares) must match the eager serial loop to 1e-8 -- on
star, M:N and two-hop snowflake schemas, serial and sharded.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import MNNormalizedMatrix
from repro.core.normalized_matrix import NormalizedMatrix
from repro.core.planner import CalibrationProfile, Planner
from repro.la.ops import indicator_from_labels
from repro.ml import LinearRegressionGD

ITERS = 6
STEP = 1e-4
TOL = dict(rtol=1e-8, atol=1e-8)


class CofactorPlanner(Planner):
    """Deterministic planner that ranks the factorized co-factor candidate first.

    Workloads without a co-factor form keep the planner's own ranking.
    """

    def __init__(self, **kwargs):
        super().__init__(calibration=CalibrationProfile.default(), **kwargs)

    def plan(self, data, workload=None, n_shards=None):
        plan = super().plan(data, workload, n_shards=n_shards)
        ranked = sorted(plan.candidates,
                        key=lambda c: not (c.engine == "cofactor" and c.factorized))
        return replace(plan, candidates=tuple(ranked))


def _labels(rng, n_rows: int, n_ref: int) -> np.ndarray:
    """Surjective foreign-key labels (every referenced row appears)."""
    labels = np.concatenate([np.arange(n_ref), rng.integers(0, n_ref, size=n_rows - n_ref)])
    rng.shuffle(labels)
    return labels


def _star(rng):
    n_s = 120
    indicators, attributes = [], []
    for n_r, width in ((15, 4), (9, 3)):
        indicators.append(indicator_from_labels(_labels(rng, n_s, n_r), num_columns=n_r))
        attributes.append(rng.standard_normal((n_r, width)))
    return NormalizedMatrix(rng.standard_normal((n_s, 3)), indicators, attributes)


def _mn(rng):
    n_out, dom = 110, 18
    indicators, attributes = [], []
    for width in (4, 2):
        indicators.append(indicator_from_labels(_labels(rng, n_out, dom), num_columns=dom))
        attributes.append(rng.standard_normal((dom, width)))
    return MNNormalizedMatrix(indicators, attributes)


def _snowflake(rng):
    """Entity -> store -> region (a two-hop alias) plus a direct product join."""
    n_s, n_store, n_region, n_product = 100, 12, 4, 7
    chain = (indicator_from_labels(_labels(rng, n_s, n_store), num_columns=n_store)
             @ indicator_from_labels(_labels(rng, n_store, n_region), num_columns=n_region))
    product = indicator_from_labels(_labels(rng, n_s, n_product), num_columns=n_product)
    return NormalizedMatrix(rng.standard_normal((n_s, 2)), [chain, product],
                            [rng.standard_normal((n_region, 3)),
                             rng.standard_normal((n_product, 4))])


SCHEMAS = {"star": _star, "mn": _mn, "snowflake": _snowflake}


def _problem(schema: str):
    rng = np.random.default_rng(sorted(SCHEMAS).index(schema))
    data = SCHEMAS[schema](rng)
    return data, rng.standard_normal((data.shape[0], 1))


@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("track_history", [False, True], ids=["coef", "history"])
@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_cofactor_plan_matches_eager_serial(schema, track_history, n_jobs):
    data, y = _problem(schema)
    auto = LinearRegressionGD(max_iter=ITERS, step_size=STEP, engine="auto",
                              n_jobs=n_jobs, track_history=track_history)
    auto.planner = CofactorPlanner()
    auto.fit(data, y)
    assert auto.plan_.engine == "cofactor"
    assert auto.plan_.factorized
    assert auto.plan_.n_jobs == n_jobs

    eager = LinearRegressionGD(max_iter=ITERS, step_size=STEP, engine="eager", n_jobs=1,
                               track_history=track_history).fit(data, y)
    np.testing.assert_allclose(auto.coef_, eager.coef_, **TOL)
    if track_history:
        assert len(auto.history_) == ITERS
        np.testing.assert_allclose(auto.history_, eager.history_, **TOL)
    else:
        assert auto.history_ == []


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_sgd_fit_plans_the_eager_loop_it_runs(schema):
    """The co-factor form is a full-batch fit: an sgd fit is offered none, so
    even a planner that ranks co-factor candidates first plans the eager loop."""
    data, y = _problem(schema)
    auto = LinearRegressionGD(max_iter=ITERS, step_size=STEP, engine="auto",
                              solver="sgd", batch_size=32)
    auto.planner = CofactorPlanner()
    auto.fit(data, y)
    assert auto.plan_.engine == "eager"
    assert {c.engine for c in auto.plan_.candidates} == {"eager"}
    eager = LinearRegressionGD(max_iter=ITERS, step_size=STEP, solver="sgd",
                               batch_size=32, n_jobs=1)
    if not auto.plan_.factorized:
        data = data.to_dense()
    np.testing.assert_allclose(auto.coef_, eager.fit(data, y).coef_, **TOL)


def test_engine_is_eager_or_auto():
    # "cofactor" is a planner candidate, not a user-facing engine.
    assert LinearRegressionGD.ENGINES == ("eager", "auto")
    for engine in ("deferred", "", "cofactor"):
        with pytest.raises(ValueError, match="engine must be one of"):
            LinearRegressionGD(engine=engine)
