"""Streaming layer: batch iterator, streamed operators, planner memory dimension."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import NormalizedBatchIterator, Partitioned
from repro.core.normalized_matrix import NormalizedMatrix
from repro.core.planner import CalibrationProfile, Planner
from repro.core.planner.memory import (
    batch_rows_for_budget,
    batch_rows_for_dims,
    entity_stream_nbytes,
    factorized_nbytes,
    materialized_nbytes,
    matrix_nbytes,
    streamed_batch_count,
)
from repro.exceptions import NotSupportedError, PlanningError, ShapeError


class TestNormalizedBatchIterator:
    def test_batches_cover_every_row_in_order(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        iterator = NormalizedBatchIterator(normalized, batch_size=17)
        seen = []
        for batch in iterator:
            assert batch.num_rows <= 17
            assert np.allclose(batch.data.to_dense(), materialized[batch.indices])
            seen.append(batch.indices)
        assert np.array_equal(np.concatenate(seen), np.arange(materialized.shape[0]))

    def test_len_and_num_batches(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        n = materialized.shape[0]
        iterator = NormalizedBatchIterator(normalized, batch_size=17)
        assert len(iterator) == -(-n // 17)

    def test_full_coverage_batch_is_the_operand_itself(self, single_join_dense):
        _, normalized, _ = single_join_dense
        batches = list(NormalizedBatchIterator(normalized))
        assert len(batches) == 1
        assert batches[0].data is normalized  # identity fast path: bit-for-bit

    def test_target_slices_align(self, single_join_dense):
        dataset, normalized, _ = single_join_dense
        target = np.asarray(dataset.target).reshape(-1, 1)
        for batch in NormalizedBatchIterator(normalized, target=dataset.target,
                                             batch_size=13):
            assert np.allclose(batch.target, target[batch.indices])

    def test_shuffle_is_seeded_and_varies_per_epoch(self, single_join_dense):
        _, normalized, _ = single_join_dense
        n = normalized.shape[0]
        it_a = NormalizedBatchIterator(normalized, batch_size=11, shuffle=True, seed=3)
        it_b = NormalizedBatchIterator(normalized, batch_size=11, shuffle=True, seed=3)
        epoch1_a = [b.indices for b in it_a]
        epoch1_b = [b.indices for b in it_b]
        epoch2_a = [b.indices for b in it_a]
        # Same seed, same epoch -> identical permutation; later epochs differ.
        assert all(np.array_equal(x, y) for x, y in zip(epoch1_a, epoch1_b))
        assert not all(np.array_equal(x, y) for x, y in zip(epoch1_a, epoch2_a))
        # Every epoch is still a permutation of all rows.
        assert sorted(np.concatenate(epoch2_a).tolist()) == list(range(n))

    def test_shuffled_batches_match_materialized(self, multi_join_dense):
        _, normalized, materialized = multi_join_dense
        for batch in NormalizedBatchIterator(normalized, batch_size=23,
                                             shuffle=True, seed=9):
            assert np.allclose(batch.data.to_dense(), materialized[batch.indices])

    def test_mn_matrix_batches(self, mn_dataset):
        _, normalized, materialized = mn_dataset
        for batch in NormalizedBatchIterator(normalized, batch_size=7):
            assert np.allclose(batch.data.to_dense(), materialized[batch.indices])

    def test_plain_matrix_batches(self, rng):
        dense = rng.standard_normal((31, 4))
        for batch in NormalizedBatchIterator(dense, batch_size=10):
            assert np.allclose(batch.data, dense[batch.indices])

    def test_sparse_plain_matrix_batches(self):
        matrix = sp.random(20, 5, density=0.4, random_state=0, format="csr")
        dense = np.asarray(matrix.todense())
        for batch in NormalizedBatchIterator(matrix, batch_size=6):
            assert np.allclose(np.asarray(batch.data.todense()), dense[batch.indices])

    def test_memory_budget_mode_bounds_batches(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        n, d = materialized.shape
        budget = 37 * d * 8  # roughly 37 densified rows
        iterator = NormalizedBatchIterator(normalized, memory_budget=budget)
        assert 1 <= iterator.batch_size < n
        for batch in iterator:
            assert batch.num_rows * d * 8 <= budget + d * 8

    def test_transposed_operand_rejected(self, single_join_dense):
        _, normalized, _ = single_join_dense
        with pytest.raises(NotSupportedError):
            NormalizedBatchIterator(normalized.T)

    def test_mismatched_target_rejected(self, single_join_dense):
        _, normalized, _ = single_join_dense
        with pytest.raises(ShapeError):
            NormalizedBatchIterator(normalized, target=np.zeros(3))

    def test_invalid_batch_size_rejected(self, single_join_dense):
        _, normalized, _ = single_join_dense
        with pytest.raises(ValueError):
            NormalizedBatchIterator(normalized, batch_size=0)

    def test_unstreamable_operand_rejected(self, single_join_dense):
        _, normalized, _ = single_join_dense
        sharded = normalized.shard(2)
        with pytest.raises(NotSupportedError):
            NormalizedBatchIterator(sharded)

    def test_batches_method_on_normalized_matrix(self, single_join_dense):
        _, normalized, _ = single_join_dense
        iterator = normalized.batches(batch_size=9)
        assert isinstance(iterator, NormalizedBatchIterator)
        assert iterator.batch_size == 9


class TestPartitionedStreamed:
    @pytest.fixture(params=["star", "mn", "plain"])
    def view_and_dense(self, request, multi_join_dense, mn_dataset, rng):
        if request.param == "star":
            _, normalized, dense = multi_join_dense
            return Partitioned.streamed(normalized, batch_rows=23), np.asarray(dense)
        if request.param == "mn":
            _, normalized, dense = mn_dataset
            return Partitioned.streamed(normalized, batch_rows=11), np.asarray(dense)
        dense = rng.standard_normal((37, 6))
        return Partitioned.streamed(dense, batch_rows=10), dense

    def test_operator_surface_matches_dense(self, view_and_dense, rng):
        view, dense = view_and_dense
        n, d = dense.shape
        x = rng.standard_normal((d, 3))
        w = rng.standard_normal((2, n))
        y = rng.standard_normal((n, 2))
        assert view.shape == dense.shape
        assert np.allclose(view @ x, dense @ x)
        assert np.allclose(w @ view, w @ dense)
        assert np.allclose(view.T @ y, dense.T @ y)
        assert np.allclose(view.crossprod(), dense.T @ dense)
        assert np.allclose(view.T.crossprod(), dense @ dense.T)
        assert np.allclose(view.rowsums(), dense.sum(axis=1, keepdims=True))
        assert np.allclose(view.colsums(), dense.sum(axis=0, keepdims=True))
        assert np.isclose(view.total_sum(), dense.sum())
        assert np.allclose(view.to_dense(), dense)

    def test_scalar_ops_stay_streamed_and_match(self, view_and_dense, rng):
        view, dense = view_and_dense
        x = rng.standard_normal((dense.shape[1], 2))
        scaled = 2.5 * view
        assert isinstance(scaled, Partitioned)
        assert np.allclose(scaled @ x, (2.5 * dense) @ x)
        assert np.allclose((view + 1.0).rowsums(), (dense + 1.0).sum(axis=1, keepdims=True))
        assert np.allclose((1.0 - view).colsums(), (1.0 - dense).sum(axis=0, keepdims=True))
        assert np.allclose((view / 2.0).total_sum(), (dense / 2.0).sum())
        assert np.allclose((view ** 2).colsums(), (dense ** 2).sum(axis=0, keepdims=True))
        assert np.allclose((-view).rowsums(), -dense.sum(axis=1, keepdims=True))
        assert np.allclose(view.apply(np.exp).colsums(),
                           np.exp(dense).sum(axis=0, keepdims=True))

    def test_elementwise_matrix_op_streams_and_matches(self, view_and_dense, rng):
        view, dense = view_and_dense
        other = rng.standard_normal(dense.shape)
        assert np.allclose(view * other, dense * other)
        assert np.allclose(view.T + other.T, dense.T + other.T)

    def test_solve_matches_lstsq(self, multi_join_dense, rng):
        _, normalized, dense = multi_join_dense
        view = Partitioned.streamed(normalized, batch_rows=19)
        rhs = rng.standard_normal((dense.shape[0], 1))
        expected = np.linalg.lstsq(np.asarray(dense), rhs, rcond=None)[0]
        assert np.allclose(view.solve(rhs), expected, atol=1e-6)

    def test_transpose_round_trip(self, view_and_dense):
        view, dense = view_and_dense
        assert view.T.shape == dense.T.shape
        assert view.T.T.shape == dense.shape

    def test_shape_mismatches_rejected(self, view_and_dense):
        view, dense = view_and_dense
        with pytest.raises(ShapeError):
            view @ np.zeros((dense.shape[1] + 1, 2))
        with pytest.raises(ShapeError):
            np.zeros((2, dense.shape[0] + 1)) @ view
        with pytest.raises(ShapeError):
            view * np.zeros((dense.shape[0] + 1, dense.shape[1]))

    def test_scalar_ops_are_deferred_and_work_on_sparse_sources(self):
        # Regression: scalar ops used to transform the source eagerly --
        # building a full source-sized copy and crashing on sparse plain
        # sources (scipy rejects sparse + nonzero scalar).
        matrix = sp.random(12, 4, density=0.5, random_state=0, format="csr")
        dense = np.asarray(matrix.todense())
        view = Partitioned.streamed(matrix, batch_rows=5)
        shifted = view + 2.0
        assert shifted.source is view.source  # deferred: no transformed copy
        assert np.allclose(shifted.rowsums(), (dense + 2.0).sum(axis=1, keepdims=True))
        assert np.allclose((3.0 - view).colsums(),
                           (3.0 - dense).sum(axis=0, keepdims=True))
        composed = (view * 2.0).apply(np.exp)
        assert np.allclose(composed.crossprod(),
                           np.exp(dense * 2.0).T @ np.exp(dense * 2.0))
        assert np.allclose((view + 1.0).T.crossprod(),
                           (dense + 1.0) @ (dense + 1.0).T)

    def test_stream_method_and_memory_budget(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        n, d = materialized.shape
        view = normalized.stream(memory_budget=29 * d * 8)
        assert isinstance(view, Partitioned)
        assert 1 <= view.batch_rows < n
        assert view.num_batches > 1
        assert np.allclose(view.crossprod(), materialized.T @ materialized)
        assert view.batch_rows == batch_rows_for_budget(normalized, 29 * d * 8)
        assert normalized.stream().num_batches == 1

    def test_transposed_source_and_empty_batches_rejected(self, single_join_dense):
        _, normalized, _ = single_join_dense
        with pytest.raises(NotSupportedError):
            Partitioned.streamed(normalized.T, batch_rows=5)
        with pytest.raises(ValueError):
            Partitioned.streamed(normalized, batch_rows=0)


class TestMemoryModel:
    def test_matrix_nbytes(self, rng):
        dense = rng.standard_normal((10, 4))
        assert matrix_nbytes(dense) == dense.nbytes
        sparse = sp.random(50, 20, density=0.1, random_state=0, format="csr")
        assert matrix_nbytes(sparse) > 0
        assert matrix_nbytes(None) == 0

    def test_normalized_footprints_ordering(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        assert materialized_nbytes(normalized) == materialized.size * 8
        assert 0 < entity_stream_nbytes(normalized) <= factorized_nbytes(normalized)
        assert factorized_nbytes(normalized) < materialized_nbytes(normalized)

    def test_batch_rows_for_budget_clamps(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        n, d = materialized.shape
        assert batch_rows_for_budget(normalized, 10 * d * 8) <= n
        assert batch_rows_for_budget(normalized, 1) == 1  # degrades, never refuses
        assert batch_rows_for_budget(normalized, 1e12) == n
        with pytest.raises(ValueError):
            batch_rows_for_budget(normalized, 0)

    @pytest.mark.parametrize("budget", [0, -1, float("nan"), float("inf")])
    @pytest.mark.parametrize("entry", ["Planner", "LogisticRegressionGD",
                                       "NormalizedBatchIterator", "Partitioned.streamed"])
    def test_memory_budget_must_be_positive_and_finite(self, single_join_dense,
                                                       entry, budget):
        from repro.ml import LogisticRegressionGD

        _, normalized, _ = single_join_dense
        build = {
            "Planner": lambda: Planner(memory_budget=budget),
            "LogisticRegressionGD": lambda: LogisticRegressionGD(memory_budget=budget),
            "NormalizedBatchIterator":
                lambda: NormalizedBatchIterator(normalized, memory_budget=budget),
            "Partitioned.streamed":
                lambda: Partitioned.streamed(normalized, memory_budget=budget),
        }[entry]
        with pytest.raises(ValueError, match="memory_budget"):
            build()

    def test_batch_rows_for_dims_without_row_count(self):
        # Streaming CSV ingestion sizes chunks before knowing the row count.
        rows = batch_rows_for_dims(0, 10, 1, memory_budget=8000)
        assert rows >= 1

    def test_streamed_batch_count(self):
        assert streamed_batch_count(10, 3) == 4
        assert streamed_batch_count(9, 3) == 3
        assert streamed_batch_count(0, 3) == 0


class TestPlannerMemoryDimension:
    def _planner(self, budget):
        return Planner(calibration=CalibrationProfile.default(), memory_budget=budget)

    def test_tight_budget_chooses_streamed(self, single_join_dense):
        _, normalized, _ = single_join_dense
        budget = entity_stream_nbytes(normalized) // 2
        plan = self._planner(budget).plan(normalized)
        assert plan.chosen.backend == "streamed"
        assert plan.chosen.factorized
        assert plan.chosen.batch_rows >= 1
        assert "streamed" in plan.chosen.label

    def test_mid_budget_drops_materialized_candidates(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        budget = (entity_stream_nbytes(normalized) + materialized.size * 8) // 2
        plan = self._planner(budget).plan(normalized)
        assert all(c.factorized for c in plan.candidates)

    def test_loose_budget_keeps_all_candidates(self, single_join_dense):
        _, normalized, _ = single_join_dense
        loose = self._planner(1e12).plan(normalized)
        unbudgeted = Planner(calibration=CalibrationProfile.default()).plan(normalized)
        assert {c.label for c in unbudgeted.candidates} <= {c.label for c in loose.candidates}

    def test_streamed_batch_rows_respect_budget(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        d = materialized.shape[1]
        budget = 41 * d * 8
        plan = self._planner(budget).plan(normalized)
        streamed = [c for c in plan.candidates if c.backend == "streamed"]
        assert streamed and streamed[0].batch_rows * d * 8 <= budget

    def test_summary_reports_memory(self, single_join_dense):
        _, normalized, _ = single_join_dense
        plan = self._planner(1e12).plan(normalized)
        assert plan.data_summary["materialized_bytes"] > 0
        assert plan.data_summary["factorized_bytes"] > 0
        assert plan.data_summary["memory_budget"] == 1e12

    def test_unstreamable_operand_over_budget_raises(self, rng):
        dense = rng.standard_normal((64, 8))
        chunked_planner = self._planner(8)  # 1 element worth of budget
        with pytest.raises(PlanningError):
            chunked_planner.plan(Partitioned.chunked(dense, 16))

    def test_plan_json_round_trips_batch_rows(self, single_join_dense):
        import json

        _, normalized, _ = single_join_dense
        budget = entity_stream_nbytes(normalized) // 2
        plan = self._planner(budget).plan(normalized)
        payload = json.loads(json.dumps(plan.to_json()))
        assert payload["chosen"]["backend"] == "streamed"
        assert payload["chosen"]["batch_rows"] == plan.chosen.batch_rows


class TestZeroRowStreaming:
    def test_empty_iterator_yields_nothing(self):
        attribute = np.arange(6.0).reshape(3, 2)
        indicator = sp.csr_matrix((0, 3))
        normalized = NormalizedMatrix(np.zeros((0, 1)), [indicator], [attribute],
                                      validate=False)
        iterator = NormalizedBatchIterator(normalized, batch_size=4)
        assert len(iterator) == 0
        assert list(iterator) == []

    def test_empty_streamed_matrix_aggregates(self):
        attribute = np.arange(6.0).reshape(3, 2)
        indicator = sp.csr_matrix((0, 3))
        normalized = NormalizedMatrix(np.zeros((0, 1)), [indicator], [attribute],
                                      validate=False)
        view = Partitioned.streamed(normalized, batch_rows=4)
        assert view.shape == (0, 3)
        assert view.colsums().shape == (1, 3)
        assert view.total_sum() == 0.0

    def test_empty_chunked_matrix_aggregates(self):
        view = Partitioned.chunked(np.zeros((0, 3)), 4)
        assert view.shape == (0, 3)
        assert view.num_chunks == 1
        assert view.colsums().shape == (1, 3)
        assert view.rowsums().shape == (0, 1)
        assert view.total_sum() == 0.0
        assert np.array_equal(view.crossprod(), np.zeros((3, 3)))
        assert np.array_equal(view.T @ np.zeros((0, 2)), np.zeros((3, 2)))
        assert view.to_dense().shape == (0, 3)
