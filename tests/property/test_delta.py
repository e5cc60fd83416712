"""Property-based differential testing of the incremental-maintenance layer.

Reuses the seeded schema generator of :mod:`tests.property.test_differential`
(star PK-FK and M:N join families, dense and sparse base matrices) and
checks, for 200+ generated cases, that **delta-patched state equals full
recompute** to within ``1e-8`` at every level of the stack:

* the successor matrix from ``apply_delta`` materializes identically to a
  normalized matrix rebuilt from scratch on the post-delta tables;
* every join-invariant Table-1 term (``crossprod``, LMM, transposed LMM,
  the aggregations) computed on the predecessor and refreshed by
  :func:`repro.core.delta.patch_term` (the rank-|Δ| rules of
  :mod:`repro.core.rewrite.delta`) equals the term recomputed on the rebuilt
  matrix, and so does the co-factor matrix of a ``LinearRegressionCofactor``
  fit patched block by block;
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

from repro.core.delta import MatrixDelta, patch_term
from repro.core.normalized_matrix import NormalizedMatrix
from repro.core.partitioned import Partitioned
from repro.exceptions import DeltaError
from repro.ml import LinearRegressionCofactor
from repro.serve.snapshot import compute_partial, patch_partial

from tests.property.test_differential import build_view, generate_case

ATOL = 1e-8
RTOL = 1e-8
BATCHES = 20
CASES_PER_BATCH = 10
CASES = BATCHES * CASES_PER_BATCH  # 200 generated delta cases

#: Backends whose view of the *successor* matrix must match the reference.
SUCCESSOR_BACKENDS = ("chunked", "sharded", "sharded-matrix", "streamed")


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
    return NormalizedMatrix(normalized.entity, normalized.indicators, attributes)


def _terms(normalized, x, y):
    """Every patchable join-invariant term, computed eagerly on *normalized*."""
    return {
        "crossprod": np.asarray(normalized.crossprod()),
        "lmm": np.asarray(normalized @ x),
        "tlmm": np.asarray(normalized.T @ y),
        "rowsums": np.asarray(normalized.rowsums()),
        "colsums": np.asarray(normalized.colsums()),
        "total_sum": np.asarray(normalized.total_sum()),
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

    # Every patchable term, computed eagerly on the pre-delta matrix.
    n, d = case.dense.shape
    x_arr = rng.standard_normal((d, int(rng.integers(1, 4))))
    y_arr = rng.standard_normal((n, int(rng.integers(1, 3))))
    pre = _terms(case.normalized, x_arr, y_arr)
    for name, expected in _references(case.dense, x_arr, y_arr).items():
        assert np.allclose(pre[name], expected, atol=ATOL, rtol=RTOL), (
            f"{context}: pre-delta {name} disagrees with dense reference"
        )

    # The tentpole property: delta-patched successor == full recompute.
    successor = case.normalized.apply_delta(table_index, delta)
    rebuilt = _rebuild(case.normalized, table_index, delta)
    dense_after = np.asarray(rebuilt.to_dense())
    assert np.allclose(np.asarray(successor.to_dense()), dense_after,
                       atol=ATOL, rtol=RTOL), (
        f"{context}: successor matrix != rebuilt matrix"
    )
    assert successor.version == case.normalized.version + 1, context

    operands = {"lmm": x_arr, "tlmm": y_arr}
    recomputed = _terms(rebuilt, x_arr, y_arr)
    for name, value in pre.items():
        patched = np.asarray(_as_dense(patch_term(name, value, successor, table_index,
                                                  delta, operand=operands.get(name))))
        assert np.allclose(patched, recomputed[name], atol=ATOL, rtol=RTOL), (
            f"{context}: patched {name} != full recompute (max abs diff "
            f"{np.abs(patched - recomputed[name]).max():.3e})"
        )

    # The co-factor matrix [Y^T T; crossprod(T)] patched block by block.
    target = y_arr[:, :1]
    model = LinearRegressionCofactor(max_iter=1).fit(case.normalized, target)
    xty, gram = model.cofactor_[:1].T, model.cofactor_[1:]
    patched = np.vstack([
        patch_term("tlmm", xty, successor, table_index, delta, operand=target).T,
        patch_term("crossprod", gram, successor, table_index, delta),
    ])
    refit = LinearRegressionCofactor(max_iter=1).fit(rebuilt, target).cofactor_
    assert np.allclose(patched, refit, atol=ATOL, rtol=RTOL), (
        f"{context}: patched co-factor matrix != co-factor refit on the rebuilt matrix"
    )

    # Every backend view of the successor agrees with the reference.
    class _SuccessorCase:
        dense = dense_after
        normalized = successor

    for backend in SUCCESSOR_BACKENDS:
        if backend == "streamed":
            batch_rows = int(rng.integers(1, n + 1))
            streamed = Partitioned.streamed(case.normalized, batch_rows=batch_rows)
            view = streamed.apply_delta(table_index, delta)
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


def test_patch_leaves_the_pre_delta_term_untouched():
    """patch_term returns a fresh value; the predecessor keeps its own terms."""
    normalized, r = _small_star()
    gram = np.asarray(normalized.crossprod())
    before = gram.copy()
    delta = MatrixDelta.upsert([2], np.full((1, 3), 7.0), r)
    successor = normalized.apply_delta(0, delta)
    patched = patch_term("crossprod", gram, successor, 0, delta)
    assert patched is not gram
    np.testing.assert_array_equal(gram, before)
    dense = np.asarray(normalized.to_dense())
    assert np.allclose(np.asarray(normalized.crossprod()), dense.T @ dense,
                       atol=ATOL, rtol=RTOL)
    assert successor.version == normalized.version + 1


def test_chained_deltas_compose():
    """Version counters and patches accumulate across successive deltas."""
    normalized, r = _small_star()
    gram = np.asarray(normalized.crossprod())
    current, table = normalized, r
    for step in range(1, 4):
        rng = np.random.default_rng(step)
        delta = MatrixDelta.upsert([step], rng.standard_normal((1, 3)), table,
                                   version=step)
        current = current.apply_delta(0, delta)
        gram = patch_term("crossprod", gram, current, 0, delta)
        table = current.attributes[0]
        assert current.version == step
    dense = np.asarray(current.to_dense())
    assert np.allclose(gram, dense.T @ dense, atol=ATOL, rtol=RTOL)


def test_unknown_term_kind_is_rejected():
    normalized, r = _small_star()
    delta = MatrixDelta.upsert([0], np.zeros((1, 3)), r)
    with pytest.raises(DeltaError, match="no delta patch rule"):
        patch_term("ginv", np.eye(5), normalized.apply_delta(0, delta), 0, delta)
