"""Property-based differential testing of the incremental-maintenance layer.

Reuses the seeded schema generator of :mod:`tests.property.test_differential`
(star PK-FK and M:N join families, dense and sparse base matrices) and
checks, for 200+ generated cases, that **delta-patched state equals full
recompute** to within ``1e-8`` at every level of the stack:

* the successor matrix from ``apply_delta`` materializes identically to a
  normalized matrix rebuilt from scratch on the post-delta tables;
* every memoized join-invariant cache term (``crossprod``, LMM, transposed
  LMM, the aggregations) patched in place by the rank-|Δ| rules of
  :mod:`repro.core.rewrite.delta` equals the freshly computed term -- and is
  genuinely served from the cache (hits observed, no recompute);
* every execution backend view of the successor (chunked, sharded, plain
  sharded, streamed -- including the streamed ``Partitioned.apply_delta``
  passthrough) agrees with the post-delta dense reference;
* a serving partial patched by :func:`repro.serve.snapshot.patch_partial`
  is bit-compatible with :func:`~repro.serve.snapshot.compute_partial` on
  the post-delta table.

Deltas mix upserts and tombstone deletes; the failing seed is embedded in
every assertion message for replay.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.delta import MatrixDelta
from repro.core.lazy.expr import constant
from repro.core.mn_matrix import MNNormalizedMatrix
from repro.core.normalized_matrix import NormalizedMatrix
from repro.core.planner import DeltaPolicy
from repro.core.partitioned import Partitioned
from repro.exceptions import DeltaError
from repro.serve.snapshot import compute_partial, patch_partial

from tests.property.test_differential import build_view, generate_case

ATOL = 1e-8
RTOL = 1e-8
BATCHES = 20
CASES_PER_BATCH = 10
CASES = BATCHES * CASES_PER_BATCH  # 200 generated delta cases

#: Backends whose view of the *successor* matrix must match the reference.
SUCCESSOR_BACKENDS = ("chunked", "sharded", "sharded-matrix", "streamed")

#: Forces patching whenever algebraically possible -- the path under test.
ALWAYS_PATCH = DeltaPolicy(threshold=1.0)


def _random_delta(rng: np.random.Generator, attribute, version: int = 1) -> MatrixDelta:
    """A seeded row delta on *attribute*: upsert usually, tombstone sometimes."""
    n_rows = attribute.shape[0]
    b = int(rng.integers(1, n_rows + 1))
    rows = rng.choice(n_rows, size=b, replace=False)
    if rng.random() < 0.25:
        return MatrixDelta.tombstone(rows, attribute, version=version)
    new_values = rng.standard_normal((b, attribute.shape[1]))
    return MatrixDelta.upsert(rows, new_values, attribute, version=version)


def _rebuild(normalized, table_index: int, delta: MatrixDelta):
    """Full recompute baseline: a fresh matrix over the post-delta tables."""
    attributes = list(normalized.attributes)
    attributes[table_index] = delta.apply_to(attributes[table_index])
    if isinstance(normalized, MNNormalizedMatrix):
        return MNNormalizedMatrix(normalized.indicators, attributes)
    return NormalizedMatrix(normalized.entity, normalized.indicators, attributes)


def _warm_terms(lazy, x, y):
    """Evaluate (and thereby memoize) every patchable join-invariant term."""
    return {
        "crossprod": np.asarray(lazy.crossprod().evaluate()),
        "lmm": np.asarray((lazy @ x).evaluate()),
        "tlmm": np.asarray((lazy.T @ y).evaluate()),
        "rowsums": np.asarray(lazy.rowsums().evaluate()),
        "colsums": np.asarray(lazy.colsums().evaluate()),
        "total_sum": np.asarray(lazy.total_sum().evaluate()),
    }


def _references(dense, x_arr, y_arr):
    return {
        "crossprod": dense.T @ dense,
        "lmm": dense @ x_arr,
        "tlmm": dense.T @ y_arr,
        "rowsums": dense.sum(axis=1, keepdims=True),
        "colsums": dense.sum(axis=0, keepdims=True),
        "total_sum": np.asarray(dense.sum()),
    }


def _as_dense(value) -> np.ndarray:
    if hasattr(value, "to_dense"):
        return np.asarray(value.to_dense())
    if sp.issparse(value):
        return np.asarray(value.todense())
    return np.asarray(value)


def run_delta_case(seed: int) -> None:
    case = generate_case(seed)
    rng = np.random.default_rng(seed + 9_999_991)
    table_index = int(rng.integers(0, len(case.normalized.attributes)))
    attribute = case.normalized.attributes[table_index]
    delta = _random_delta(rng, attribute)
    context = f"[seed={seed}] {case.description} table={table_index} {delta!r}"

    # Warm the lazy cache with every patchable term pre-delta.
    n, d = case.dense.shape
    x_arr = rng.standard_normal((d, int(rng.integers(1, 4))))
    y_arr = rng.standard_normal((n, int(rng.integers(1, 3))))
    x, y = constant(x_arr), constant(y_arr)
    lazy = case.normalized.lazy()
    pre = _warm_terms(lazy, x, y)
    for name, expected in _references(case.dense, x_arr, y_arr).items():
        assert np.allclose(pre[name], expected, atol=ATOL, rtol=RTOL), (
            f"{context}: pre-delta {name} disagrees with dense reference"
        )

    # The tentpole property: delta-patched successor == full recompute.
    successor = case.normalized.apply_delta(table_index, delta, policy=ALWAYS_PATCH)
    rebuilt = _rebuild(case.normalized, table_index, delta)
    dense_after = np.asarray(rebuilt.to_dense())
    assert np.allclose(np.asarray(successor.to_dense()), dense_after,
                       atol=ATOL, rtol=RTOL), (
        f"{context}: successor matrix != rebuilt matrix"
    )
    assert successor.version == case.normalized.version + 1, context

    cache = successor._lazy_cache
    assert cache.patched >= 6, (
        f"{context}: expected all six term kinds patched, got {cache.patched}"
    )
    hits_before = cache.hits
    post = _warm_terms(successor.lazy(), x, y)
    assert cache.hits > hits_before, (
        f"{context}: post-delta terms were recomputed, not served patched"
    )
    for name, expected in _references(dense_after, x_arr, y_arr).items():
        assert np.allclose(post[name], np.asarray(expected), atol=ATOL, rtol=RTOL), (
            f"{context}: cache-patched {name} != full recompute (max abs diff "
            f"{np.abs(post[name] - np.asarray(expected)).max():.3e})"
        )

    # Every backend view of the successor agrees with the reference.
    class _SuccessorCase:
        dense = dense_after
        normalized = successor

    for backend in SUCCESSOR_BACKENDS:
        if backend == "streamed":
            batch_rows = int(rng.integers(1, n + 1))
            streamed = Partitioned.streamed(case.normalized, batch_rows=batch_rows)
            view = streamed.apply_delta(table_index, delta, policy=ALWAYS_PATCH)
        else:
            view = build_view(backend, _SuccessorCase, rng)
        got = _as_dense(view @ x_arr)
        assert np.allclose(got, dense_after @ x_arr, atol=ATOL, rtol=RTOL), (
            f"{context}: {backend} LMM over the successor diverged"
        )
        got = _as_dense(view.crossprod())
        assert np.allclose(got, dense_after.T @ dense_after, atol=ATOL, rtol=RTOL), (
            f"{context}: {backend} crossprod over the successor diverged"
        )

    # Serving partials: patch == recompute on the post-delta table.
    weights = rng.standard_normal((attribute.shape[1], 2))
    patched_partial = patch_partial(compute_partial(attribute, weights), delta, weights)
    fresh_partial = compute_partial(successor.attributes[table_index], weights)
    assert np.allclose(patched_partial, fresh_partial, atol=ATOL, rtol=RTOL), (
        f"{context}: patched serving partial != recomputed partial"
    )


@pytest.mark.parametrize("batch", range(BATCHES))
def test_delta_differential(batch):
    """Delta-patched state equals full recompute across the generated cases."""
    for offset in range(CASES_PER_BATCH):
        run_delta_case(seed=batch * CASES_PER_BATCH + offset)


def test_case_count_meets_acceptance_floor():
    assert CASES >= 200


# -- targeted properties beyond the generated sweep ---------------------------

def _small_star():
    from repro.la.ops import indicator_from_labels

    rng = np.random.default_rng(5)
    entity = rng.standard_normal((12, 2))
    k = indicator_from_labels(np.array([0, 1, 2, 3] * 3), num_columns=4)
    r = rng.standard_normal((4, 3))
    return NormalizedMatrix(entity, [k], [r]), r


def test_zero_threshold_policy_invalidates_instead_of_patching():
    """Correctness must not depend on the cost rule's verdict."""
    normalized, r = _small_star()
    lazy = normalized.lazy()
    lazy.crossprod().evaluate()
    delta = MatrixDelta.upsert([1], np.ones((1, 3)), r)
    successor = normalized.apply_delta(0, delta, policy=DeltaPolicy(threshold=0.0))
    cache = successor._lazy_cache
    assert cache.patched == 0 and cache.invalidated >= 1
    dense = np.asarray(successor.to_dense())
    assert np.allclose(np.asarray(successor.lazy().crossprod().evaluate()),
                       dense.T @ dense, atol=ATOL, rtol=RTOL)


def test_stale_delta_is_rejected():
    """A delta captured against a different table state must not patch."""
    normalized, r = _small_star()
    delta = MatrixDelta.upsert([0], np.zeros((1, 3)), r)
    stale = MatrixDelta(rows=delta.rows, old=delta.old + 1.0, new=delta.new,
                        num_rows=delta.num_rows)
    with pytest.raises(DeltaError, match="different version"):
        normalized.apply_delta(0, stale)


def test_growth_delta_rejected_on_matrices():
    """Row appends need a rebuild -- indicator shapes change."""
    normalized, r = _small_star()
    grow = MatrixDelta.upsert([r.shape[0]], np.zeros((1, 3)), r)
    with pytest.raises(DeltaError, match="appends rows"):
        normalized.apply_delta(0, grow)


def test_predecessor_cache_is_detached():
    """Post-delta, the predecessor must not serve entries patched for the successor."""
    normalized, r = _small_star()
    lazy = normalized.lazy()
    lazy.crossprod().evaluate()
    delta = MatrixDelta.upsert([2], np.full((1, 3), 7.0), r)
    successor = normalized.apply_delta(0, delta, policy=ALWAYS_PATCH)
    assert getattr(normalized, "_lazy_cache", None) is None
    assert getattr(normalized, "_lazy_token", None) is None
    assert successor._lazy_cache.patched >= 1
    # The predecessor still evaluates correctly (fresh cache, pre-delta data).
    dense = np.asarray(normalized.to_dense())
    assert np.allclose(np.asarray(normalized.lazy().crossprod().evaluate()),
                       dense.T @ dense, atol=ATOL, rtol=RTOL)


def test_chained_deltas_compose():
    """Version counters and patches accumulate across successive deltas."""
    normalized, r = _small_star()
    lazy = normalized.lazy()
    lazy.crossprod().evaluate()
    current, table = normalized, r
    for step in range(1, 4):
        rng = np.random.default_rng(step)
        delta = MatrixDelta.upsert([step], rng.standard_normal((1, 3)), table,
                                   version=step)
        current = current.apply_delta(0, delta, policy=ALWAYS_PATCH)
        table = current.attributes[0]
        assert current.version == step
    dense = np.asarray(current.to_dense())
    assert np.allclose(np.asarray(current.lazy().crossprod().evaluate()),
                       dense.T @ dense, atol=ATOL, rtol=RTOL)
