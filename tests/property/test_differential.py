"""Property-based differential testing of every Table-1 operator.

The test generates random normalized schemas from a seeded RNG -- dimensions,
number of joins, PK-FK star vs. M:N join, dense vs. sparse base matrices,
base-matrix sparsity -- and checks, for every backend view of the same
logical matrix ``T``, that each Table-1 operator agrees with the plain-NumPy
reference computed on the materialized ``T`` to within ``1e-8``:

* ``normalized-dense`` / ``normalized-sparse`` -- the eager factorized
  rewrites of :class:`NormalizedMatrix` (star and M:N);
* ``chunked``             -- the serial ORE-style chunked preset of
  :class:`Partitioned`;
* ``sharded``             -- the parallel factorized sharded preset
  (random shard count, serial and thread pools);
* ``sharded-matrix``      -- the sharded preset over the plain matrix;
* ``streamed``            -- the out-of-core streamed preset (random batch
  size), whose operators visit the factorized operand one batch at a time.

Every backend runs every check, transposed operators included.

Each backend sees ``CASES_PER_BACKEND`` generated cases (>= 200), split into
batches so a failure pinpoints its seed range; the failing seed is embedded
in the assertion message for replay.  Everything is deterministically seeded,
so CI runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import MNNormalizedMatrix
from repro.core.normalized_matrix import NormalizedMatrix
from repro.core.partitioned import Partitioned
from repro.la.ops import indicator_from_labels

ATOL = 1e-8
RTOL = 1e-8

BACKENDS = ("normalized-dense", "normalized-sparse", "chunked", "sharded",
            "sharded-matrix", "streamed")
BATCHES = 20
CASES_PER_BATCH = 10
CASES_PER_BACKEND = BATCHES * CASES_PER_BATCH  # 200 generated cases per backend


@dataclass
class Case:
    """One generated schema: the logical matrix under test and its reference."""

    seed: int
    description: str
    dense: np.ndarray            # reference materialized T as plain ndarray
    normalized: object           # NormalizedMatrix (star or M:N)


def _random_pk_fk(rng: np.random.Generator, seed: int, sparse_bases: bool) -> Case:
    """A star-schema PK-FK case: 1-2 joins, optional entity features."""
    num_joins = int(rng.integers(1, 3))
    n_s = int(rng.integers(1, 41))
    d_s = int(rng.integers(0, 5))
    entity = None
    if d_s > 0:
        entity = rng.standard_normal((n_s, d_s))
        if sparse_bases:
            entity = sp.csr_matrix(np.where(rng.random((n_s, d_s)) < 0.5, entity, 0.0))
    indicators, attributes = [], []
    for _ in range(num_joins):
        n_r = int(rng.integers(1, n_s + 1))
        d_r = int(rng.integers(1, 6))
        attribute = rng.standard_normal((n_r, d_r))
        if sparse_bases:
            attribute = sp.csr_matrix(np.where(rng.random((n_r, d_r)) < 0.6, attribute, 0.0))
        # Every attribute row referenced at least once (the paper's standing
        # assumption), remaining foreign keys uniform.
        labels = np.concatenate([np.arange(n_r), rng.integers(0, n_r, size=n_s - n_r)])
        rng.shuffle(labels)
        indicators.append(indicator_from_labels(labels, num_columns=n_r))
        attributes.append(attribute)
    if entity is None and not indicators:
        entity = rng.standard_normal((n_s, 2))
    normalized = NormalizedMatrix(entity, indicators, attributes)
    dense = np.asarray(normalized.to_dense())
    return Case(seed, f"pkfk(joins={num_joins}, n_s={n_s}, sparse={sparse_bases})",
                dense, normalized)


def _random_snowflake(rng: np.random.Generator, seed: int, sparse_bases: bool) -> Case:
    """A snowflake case: one 2-3 hop alias (its composed codes), optional extra
    star join."""
    import functools
    import operator

    n_s = int(rng.integers(2, 41))
    d_s = int(rng.integers(0, 4))
    entity = None
    if d_s > 0:
        entity = rng.standard_normal((n_s, d_s))
        if sparse_bases:
            entity = sp.csr_matrix(np.where(rng.random((n_s, d_s)) < 0.5, entity, 0.0))
    num_hops = int(rng.integers(2, 4))
    hops = []
    rows = n_s
    for _ in range(num_hops):
        n_next = int(rng.integers(1, rows + 1))
        # Each hop surjective (every referenced row reached), so the chain
        # product satisfies the full-column indicator invariant too.
        labels = np.concatenate([np.arange(n_next), rng.integers(0, n_next, size=rows - n_next)])
        rng.shuffle(labels)
        hops.append(indicator_from_labels(labels, num_columns=n_next))
        rows = n_next
    d_r = int(rng.integers(1, 5))
    attribute = rng.standard_normal((rows, d_r))
    if sparse_bases:
        attribute = sp.csr_matrix(np.where(rng.random((rows, d_r)) < 0.6, attribute, 0.0))
    indicators: list = [functools.reduce(operator.matmul, hops)]
    attributes: list = [attribute]
    if rng.random() < 0.5:  # mix a plain single-hop join next to the chain
        n_r = int(rng.integers(1, n_s + 1))
        d2 = int(rng.integers(1, 4))
        extra = rng.standard_normal((n_r, d2))
        if sparse_bases:
            extra = sp.csr_matrix(np.where(rng.random((n_r, d2)) < 0.6, extra, 0.0))
        labels = np.concatenate([np.arange(n_r), rng.integers(0, n_r, size=n_s - n_r)])
        rng.shuffle(labels)
        indicators.append(indicator_from_labels(labels, num_columns=n_r))
        attributes.append(extra)
    normalized = NormalizedMatrix(entity, indicators, attributes)
    dense = np.asarray(normalized.to_dense())
    return Case(seed, f"snowflake(hops={num_hops}, n_s={n_s}, sparse={sparse_bases})",
                dense, normalized)


def _random_mn(rng: np.random.Generator, seed: int, sparse_bases: bool) -> Case:
    """A general M:N equi-join case with 2-3 component tables."""
    num_components = int(rng.integers(2, 4))
    n_out = int(rng.integers(2, 41))
    indicators, attributes = [], []
    for _ in range(num_components):
        n_rows = int(rng.integers(1, n_out + 1))
        width = int(rng.integers(1, 5))
        component = rng.standard_normal((n_rows, width))
        if sparse_bases:
            component = sp.csr_matrix(np.where(rng.random((n_rows, width)) < 0.6, component, 0.0))
        labels = np.concatenate([np.arange(n_rows), rng.integers(0, n_rows, size=n_out - n_rows)])
        rng.shuffle(labels)
        indicators.append(indicator_from_labels(labels, num_columns=n_rows))
        attributes.append(component)
    normalized = MNNormalizedMatrix(indicators, attributes)
    dense = np.asarray(normalized.to_dense())
    return Case(seed, f"mn(components={num_components}, n_out={n_out}, sparse={sparse_bases})",
                dense, normalized)


def generate_case(seed: int, force_density: str = "random") -> Case:
    """Deterministically generate one random schema from *seed*."""
    rng = np.random.default_rng(seed)
    if force_density == "dense":
        sparse_bases = False
    elif force_density == "sparse":
        sparse_bases = True
    else:
        sparse_bases = bool(rng.random() < 0.5)
    if rng.random() < 0.35:
        return _random_mn(rng, seed, sparse_bases)
    if rng.random() < 0.3:
        return _random_snowflake(rng, seed, sparse_bases)
    return _random_pk_fk(rng, seed, sparse_bases)


def build_view(backend: str, case: Case, rng: np.random.Generator):
    """Build the backend's view of the case's logical matrix."""
    if backend in ("normalized-dense", "normalized-sparse"):
        return case.normalized
    if backend == "chunked":
        chunk_rows = int(rng.integers(1, case.dense.shape[0] + 1))
        return Partitioned.chunked(case.dense, chunk_rows)
    if backend == "sharded":
        n_shards = int(rng.integers(1, 7))
        pool = "thread" if rng.random() < 0.3 else "serial"
        return case.normalized.shard(n_shards, pool=pool)
    if backend == "sharded-matrix":
        n_shards = int(rng.integers(1, 7))
        return Partitioned.sharded(case.dense, n_shards, pool="serial")
    if backend == "streamed":
        batch_rows = int(rng.integers(1, case.dense.shape[0] + 1))
        return Partitioned.streamed(case.normalized, batch_rows=batch_rows)
    raise AssertionError(f"unknown backend {backend!r}")


def _as_dense(value) -> np.ndarray:
    if hasattr(value, "to_dense"):
        return np.asarray(value.to_dense())
    if sp.issparse(value):
        return np.asarray(value.todense())
    return np.asarray(value)


def operator_checks(view, dense: np.ndarray, rng: np.random.Generator,
                    backend: str) -> List[Tuple[str, Callable[[], object], np.ndarray]]:
    """(name, compute, expected) triples covering the Table-1 operator set."""
    n, d = dense.shape
    x = rng.standard_normal((d, int(rng.integers(1, 4))))
    w = rng.standard_normal((int(rng.integers(1, 4)), n))
    y = rng.standard_normal((n, int(rng.integers(1, 3))))
    scalar = float(rng.uniform(0.5, 3.0))
    checks = [
        ("lmm", lambda: view @ x, dense @ x),
        ("rmm", lambda: w @ view, w @ dense),
        ("transposed-lmm", lambda: view.T @ y, dense.T @ y),
        ("crossprod", lambda: view.crossprod(), dense.T @ dense),
        ("rowsums", lambda: view.rowsums(), dense.sum(axis=1, keepdims=True)),
        ("colsums", lambda: view.colsums(), dense.sum(axis=0, keepdims=True)),
        ("total-sum", lambda: np.asarray(view.total_sum()), np.asarray(dense.sum())),
        ("scalar-mul", lambda: (view * scalar) @ x, (dense * scalar) @ x),
        ("scalar-radd", lambda: (scalar + view).rowsums(),
         (scalar + dense).sum(axis=1, keepdims=True)),
        ("scalar-rsub", lambda: (scalar - view).colsums(),
         (scalar - dense).sum(axis=0, keepdims=True)),
        ("scalar-div", lambda: (view / scalar).rowsums(),
         (dense / scalar).sum(axis=1, keepdims=True)),
        ("square", lambda: (view ** 2).colsums(), (dense ** 2).sum(axis=0, keepdims=True)),
        ("negate", lambda: (-view).rowsums(), -dense.sum(axis=1, keepdims=True)),
        ("apply-exp", lambda: view.apply(np.exp).colsums(),
         np.exp(dense).sum(axis=0, keepdims=True)),
        ("gradient", lambda: view.T @ (view @ x), dense.T @ (dense @ x)),
        ("transposed-crossprod", lambda: view.T.crossprod(), dense @ dense.T),
        ("transposed-rowsums", lambda: view.T.rowsums(), dense.T.sum(axis=1, keepdims=True)),
    ]
    other = rng.standard_normal((n, d))
    w2 = rng.standard_normal((int(rng.integers(1, 4)), d))
    checks += [
        ("elementwise-matrix", lambda: view * other, dense * other),
        ("rmm-transposed", lambda: w2 @ view.T, w2 @ dense.T),
    ]
    # Drawn after every other input, so the checks above see unchanged draws.
    num_clusters = int(rng.integers(1, 5))
    assignment = indicator_from_labels(rng.integers(0, num_clusters, size=n),
                                       num_columns=num_clusters)
    checks.append(("indicator-multiplier", lambda: view.T @ assignment,
                   dense.T @ assignment.toarray()))
    return checks


def run_case(backend: str, seed: int) -> None:
    force = {"normalized-dense": "dense", "normalized-sparse": "sparse"}.get(backend, "random")
    case = generate_case(seed, force_density=force)
    rng = np.random.default_rng(seed + 1_000_003)
    view = build_view(backend, case, rng)
    _run_checks(backend, seed, case, view, rng)


def _run_checks(backend: str, seed: int, case: Case, view, rng) -> None:
    for name, compute, expected in operator_checks(view, case.dense, rng, backend):
        actual = _as_dense(compute())
        expected = np.asarray(expected)
        assert actual.shape == expected.shape or actual.size == expected.size, (
            f"[seed={seed}] {backend}/{name} on {case.description}: "
            f"shape {actual.shape} != {expected.shape}"
        )
        assert np.allclose(actual.reshape(expected.shape), expected, atol=ATOL, rtol=RTOL), (
            f"[seed={seed}] {backend}/{name} on {case.description}: max abs diff "
            f"{np.abs(actual.reshape(expected.shape) - expected).max():.3e} exceeds {ATOL}"
        )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("batch", range(BATCHES))
def test_differential(backend, batch):
    """Factorized / chunked / sharded operators agree with the dense reference."""
    for offset in range(CASES_PER_BATCH):
        run_case(backend, seed=batch * CASES_PER_BATCH + offset)


def test_case_count_meets_acceptance_floor():
    """The suite exercises at least 200 generated cases per backend."""
    assert CASES_PER_BACKEND >= 200


def test_generator_is_deterministic():
    """Same seed, same schema: required for CI reproducibility and replay."""
    a, b = generate_case(17), generate_case(17)
    assert a.description == b.description
    assert np.array_equal(a.dense, b.dense)


def test_generator_covers_all_join_families_and_densities():
    descriptions = [generate_case(seed).description for seed in range(CASES_PER_BACKEND)]
    assert any(d.startswith("pkfk") for d in descriptions)
    assert any(d.startswith("mn") for d in descriptions)
    assert any(d.startswith("snowflake") for d in descriptions)
    assert any("sparse=True" in d for d in descriptions)
    assert any("sparse=False" in d for d in descriptions)


# -- planner-chosen execution (engine="auto") ---------------------------------
# The same seeded schema generator drives the cost-based planner end to end: a
# fit with engine="auto" (whatever plan it picks -- materialized or
# factorized, eager loop or co-factor form, serial or sharded) must match the
# plain dense reference to the suite's 1e-8 tolerance, and the chosen Plan must be
# populated and explainable.  The planner gets the deterministic default
# calibration profile so no timing (or disk access) happens inside the test;
# correctness must hold for *any* profile, so fixing one loses no coverage.

AUTO_ENGINE_SEEDS = tuple(range(14))


def _deterministic_planner():
    from repro.core.planner import CalibrationProfile, Planner

    return Planner(calibration=CalibrationProfile.default())


def _assert_plan_populated(plan) -> None:
    assert plan is not None
    assert plan.candidates, "auto fit must score at least one candidate"
    text = plan.explain()
    assert "chosen:" in text
    assert "predicted" in text


@pytest.mark.parametrize("seed", AUTO_ENGINE_SEEDS)
def test_auto_engine_linreg_matches_dense_reference(seed):
    """engine="auto" GD linear regression equals the dense eager reference."""
    from repro.ml.linear_regression import LinearRegressionGD

    case = generate_case(seed)
    rng = np.random.default_rng(seed + 7_777_777)
    y = rng.standard_normal(case.dense.shape[0])
    auto = LinearRegressionGD(max_iter=3, step_size=1e-3, engine="auto")
    auto.planner = _deterministic_planner()
    auto.fit(case.normalized, y)
    reference = LinearRegressionGD(max_iter=3, step_size=1e-3).fit(case.dense, y)
    assert np.allclose(auto.coef_, reference.coef_, atol=ATOL, rtol=RTOL), (
        f"[seed={seed}] auto plan {auto.plan_.chosen.label} diverged on {case.description}: "
        f"max abs diff {np.abs(auto.coef_ - reference.coef_).max():.3e}"
    )
    _assert_plan_populated(auto.plan_)


@pytest.mark.parametrize("seed", AUTO_ENGINE_SEEDS[::3])
def test_auto_engine_logreg_matches_dense_reference(seed):
    """engine="auto" logistic regression equals the dense eager reference."""
    from repro.ml.logistic_regression import LogisticRegressionGD

    case = generate_case(seed)
    rng = np.random.default_rng(seed + 3_333_333)
    y = np.where(rng.standard_normal(case.dense.shape[0]) > 0, 1.0, -1.0)
    auto = LogisticRegressionGD(max_iter=3, engine="auto")
    auto.planner = _deterministic_planner()
    auto.fit(case.normalized, y)
    reference = LogisticRegressionGD(max_iter=3).fit(case.dense, y)
    assert np.allclose(auto.coef_, reference.coef_, atol=ATOL, rtol=RTOL), (
        f"[seed={seed}] auto plan {auto.plan_.chosen.label} diverged on {case.description}"
    )
    _assert_plan_populated(auto.plan_)


@pytest.mark.parametrize("seed", AUTO_ENGINE_SEEDS[::5])
def test_auto_engine_with_pinned_shards_matches_reference(seed):
    """engine="auto" composes with an explicit n_jobs: sharded, still exact."""
    from repro.ml.linear_regression import LinearRegressionGD

    case = generate_case(seed)
    if case.dense.shape[0] < 2:
        pytest.skip("sharding needs at least two rows")
    rng = np.random.default_rng(seed + 5_555_555)
    y = rng.standard_normal(case.dense.shape[0])
    auto = LinearRegressionGD(max_iter=3, step_size=1e-3, engine="auto", n_jobs=2)
    auto.planner = _deterministic_planner()
    auto.fit(case.normalized, y)
    assert auto.plan_.n_jobs == 2
    reference = LinearRegressionGD(max_iter=3, step_size=1e-3).fit(case.dense, y)
    assert np.allclose(auto.coef_, reference.coef_, atol=ATOL, rtol=RTOL), (
        f"[seed={seed}] sharded auto plan diverged on {case.description}"
    )
    _assert_plan_populated(auto.plan_)


# -- optional hypothesis layer -------------------------------------------------
# When hypothesis is installed (it is in the CI dev extras) an extra,
# derandomized exploration widens the seed space beyond the fixed grid above.
# The suite's 200-cases-per-backend guarantee never depends on it.
try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           backend=st.sampled_from(BACKENDS))
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    def test_differential_hypothesis(seed, backend):
        """Hypothesis-driven sweep over the full 31-bit seed space (derandomized)."""
        run_case(backend, seed)
except ImportError:  # pragma: no cover - hypothesis is optional
    pass
