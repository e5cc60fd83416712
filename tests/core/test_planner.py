"""Unit tests for the cost-based adaptive execution planner.

Everything here runs against :meth:`CalibrationProfile.default` so no timing
ever happens inside a test: the planner's *ranking* logic is deterministic
given a profile, and the calibration probe has its own (smoke-level) test.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from repro.bench.harness import PlanEvaluation
from repro.core.cost import CostModel, Operator
from repro.core.decision import DecisionRule
from repro.core.planner import (
    CalibrationProfile,
    Plan,
    Planner,
    WorkloadDescriptor,
    describe_data,
)
from repro.core.planner.workload import OperatorUse


@pytest.fixture
def planner() -> Planner:
    return Planner(calibration=CalibrationProfile.default(), shard_candidates=(2, 4))


@pytest.fixture
def redundant():
    """TR = 20, FR = 4 at 8000x50: deep inside the factorize-wins region, and
    large enough that arithmetic, not Python dispatch overhead, dominates the
    predicted costs (at the 240x15 scale of the shared ``single_join_dense``
    fixture the planner correctly prefers materialized execution -- the same
    regime the paper's thresholds guard)."""
    from repro.datasets.synthetic import SyntheticPKFKConfig, generate_pk_fk

    config = SyntheticPKFKConfig.from_ratios(
        tuple_ratio=20, feature_ratio=4, num_attribute_rows=400,
        num_entity_features=10, seed=0)
    return generate_pk_fk(config).normalized


class TestCalibrationProfile:
    def test_default_is_deterministic(self):
        assert CalibrationProfile.default() == CalibrationProfile.default()
        assert CalibrationProfile.default().source == "default"

    def test_json_roundtrip(self, tmp_path):
        profile = CalibrationProfile.default()
        path = tmp_path / "calibration.json"
        profile.save(path)
        assert CalibrationProfile.load(path) == profile

    def test_load_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps({"version": 999}))
        with pytest.raises(ValueError, match="unsupported calibration format"):
            CalibrationProfile.load(path)

    def test_cache_path_env_override(self, monkeypatch, tmp_path):
        from repro.core.planner import cache_path

        target = tmp_path / "custom.json"
        monkeypatch.setenv("REPRO_CALIBRATION_CACHE", str(target))
        assert cache_path() == target
        monkeypatch.delenv("REPRO_CALIBRATION_CACHE")
        assert cache_path() == pathlib.Path.home() / ".cache" / "morpheus-repro" / "calibration.json"

    def test_get_profile_default_mode_skips_disk(self, monkeypatch, tmp_path):
        from repro.core.planner import get_profile, reset_profile_cache

        monkeypatch.setenv("REPRO_CALIBRATION", "default")
        monkeypatch.setenv("REPRO_CALIBRATION_CACHE", str(tmp_path / "calib.json"))
        reset_profile_cache()
        profile = get_profile()
        assert profile == CalibrationProfile.default()
        assert not (tmp_path / "calib.json").exists()
        reset_profile_cache()

    def test_save_is_atomic_and_leaves_no_temp_files(self, tmp_path):
        # Regression: save() used to write the cache file in place, so a
        # concurrent reader could observe a torn JSON document.
        profile = CalibrationProfile.default()
        path = tmp_path / "nested" / "calibration.json"
        profile.save(path)
        profile.save(path)  # overwrite path exercises os.replace on existing
        assert CalibrationProfile.load(path) == profile
        leftovers = [p for p in path.parent.iterdir() if p.name != path.name]
        assert leftovers == []

    def test_torn_cache_file_triggers_reprobe(self, monkeypatch, tmp_path):
        # A corrupt (half-written) cache must not crash get_profile in auto
        # mode -- it re-probes and rewrites the cache.
        from repro.core.planner import get_profile, reset_profile_cache
        from repro.core.planner import calibration as calibration_module

        cache = tmp_path / "calibration.json"
        cache.write_text('{"version": 2, "dense_flops": 2.5e9, "spar')  # torn
        monkeypatch.setenv("REPRO_CALIBRATION", "auto")
        monkeypatch.setenv("REPRO_CALIBRATION_CACHE", str(cache))
        probed = CalibrationProfile.default()
        monkeypatch.setattr(calibration_module, "probe", lambda: probed)
        reset_profile_cache()
        try:
            assert get_profile() == probed
            assert CalibrationProfile.load(cache) == probed  # cache repaired
        finally:
            reset_profile_cache()

    def test_v3_cache_triggers_reprobe(self, monkeypatch, tmp_path):
        # Caches written in an older format carry fields that no longer
        # exist: version 3 the fused planner candidate's gather rate, version
        # 4 the lazy engine's per-node overhead.  Auto mode re-probes both.
        from repro.core.planner import get_profile, reset_profile_cache
        from repro.core.planner import calibration as calibration_module

        cache = tmp_path / "calibration.json"
        current = CalibrationProfile.default().to_json()
        stale_payloads = (
            {**current, "version": 3, "fused_gather_rows": 2e9},
            {**current, "version": 4, "lazy_node_overhead_s": 3e-6},
        )
        monkeypatch.setenv("REPRO_CALIBRATION", "auto")
        monkeypatch.setenv("REPRO_CALIBRATION_CACHE", str(cache))
        probed = replace(CalibrationProfile.default(), dense_flops=1e9, source="probe")
        monkeypatch.setattr(calibration_module, "probe", lambda: probed)
        for stale in stale_payloads:
            cache.write_text(json.dumps(stale))
            reset_profile_cache()
            try:
                assert get_profile("auto") == probed
                assert CalibrationProfile.load(cache) == probed  # rewritten as v5
            finally:
                reset_profile_cache()

    def test_default_constants_unchanged(self):
        """Plans price with the same constants as before the v5 format."""
        assert CalibrationProfile.default().to_json() == {
            "version": 5,
            "dense_flops": 2.5e9,
            "sparse_flops": 1e9,
            "indicator_flops": 5e8,
            "dispatch_overhead_s": 5e-6,
            "sparse_dispatch_overhead_s": 1e-5,
            "shard_overhead_s": 5e-5,
            "materialize_bandwidth": 2e8,
            "parallel_efficiency": 0.6,
            "source": "default",
        }

    def test_probe_produces_positive_constants(self):
        from repro.core.planner import probe

        profile = probe(repeats=1)
        assert profile.source == "probe"
        assert profile.dense_flops > 0
        assert profile.sparse_flops > 0
        assert profile.dispatch_overhead_s > 0
        assert profile.shard_overhead_s > 0
        assert profile.materialize_bandwidth > 0
        assert 0.1 <= profile.parallel_efficiency <= 1.0


class TestWorkloadDescriptor:
    def test_per_algorithm_footprints_cover_table1_ops(self):
        logreg = WorkloadDescriptor.logistic_regression(10)
        assert logreg.iterations == 10
        assert {u.operator for u in logreg.uses} == {Operator.LMM, Operator.RMM}

        kmeans = WorkloadDescriptor.kmeans(num_clusters=7, max_iter=5)
        widths = {u.operator: u.x_cols for u in kmeans.uses}
        assert widths[Operator.LMM] == 7
        invariant = [u for u in kmeans.uses if not u.per_iteration]
        assert invariant, "kmeans precomputations must be loop-invariant"

    def test_linreg_gd_cofactor_variant_hoists_invariants(self):
        wl = WorkloadDescriptor.linear_regression_gd(50)
        assert wl.cofactor_uses is not None
        assert all(not u.per_iteration for u in wl.cofactor_uses)
        assert wl.engines == ("eager", "cofactor")
        assert wl.uses_for_engine("cofactor") == wl.cofactor_uses
        assert wl.uses_for_engine("eager") == wl.uses

    def test_total_count_scales_with_iterations(self):
        wl = WorkloadDescriptor.gnmf(rank=3, max_iter=8)
        assert wl.total_count(wl.uses[0]) == 8
        once = OperatorUse(Operator.CROSSPROD, per_iteration=False)
        assert wl.total_count(once) == 1


class TestDescribeData:
    def test_normalized_star(self, redundant):
        profile = describe_data(redundant)
        assert profile.kind == "normalized"
        assert profile.can_factorize
        assert profile.n_rows == redundant.shape[0]
        assert profile.tuple_ratio == pytest.approx(redundant.tuple_ratio)
        assert isinstance(profile.model, CostModel)

    def test_transposed_normalized_uses_untransposed_dims(self, redundant):
        profile = describe_data(redundant.T)
        assert profile.n_rows == redundant.shape[0]
        assert profile.n_cols == redundant.shape[1]

    def test_mn_normalized(self, mn_dataset):
        _, normalized, _ = mn_dataset
        profile = describe_data(normalized)
        assert profile.kind == "normalized"
        assert profile.can_factorize
        assert profile.tuple_ratio == pytest.approx(normalized.tuple_ratio)
        assert profile.redundancy_ratio == pytest.approx(normalized.redundancy_ratio())

    def test_plain_matrix(self):
        profile = describe_data(np.ones((30, 4)))
        assert profile.kind == "plain"
        assert not profile.can_factorize
        assert profile.num_joins == 0

    def test_describe_data_ratios_guard_degenerate_schemas(self):
        # The planner reads the ratios off the matrix, whose zero guards turn
        # degenerate schemas into infinities rather than ZeroDivisionError.
        import scipy.sparse as sp

        from repro.core.normalized_matrix import NormalizedMatrix

        degenerate = NormalizedMatrix(np.zeros((0, 2)), [sp.csr_matrix((0, 0))],
                                      [np.zeros((0, 3))], validate=False)
        profile = describe_data(degenerate)
        assert profile.tuple_ratio == float("inf")


class TestPlannerChoices:
    def test_redundant_data_factorizes(self, planner, redundant):
        plan = planner.plan(redundant, WorkloadDescriptor.logistic_regression(20))
        assert plan.factorized
        assert plan.threshold_rule_choice == "factorize"

    def test_low_redundancy_materializes_under_long_workloads(self, planner):
        from repro.datasets.synthetic import SyntheticPKFKConfig, generate_pk_fk

        config = SyntheticPKFKConfig.from_ratios(
            tuple_ratio=1, feature_ratio=0.25, num_attribute_rows=200,
            num_entity_features=8, seed=0)
        dataset = generate_pk_fk(config)
        plan = planner.plan(dataset.normalized,
                            WorkloadDescriptor.logistic_regression(50))
        assert not plan.factorized
        assert plan.threshold_rule_choice == "materialize"

    def test_linreg_gd_prefers_cofactor_form(self, planner, redundant):
        plan = planner.plan(redundant, WorkloadDescriptor.linear_regression_gd(40))
        assert plan.engine == "cofactor"
        assert set(plan.chosen.breakdown) == {"arithmetic", "dispatch", "one-time"}

    @pytest.mark.parametrize("workload", [
        WorkloadDescriptor.logistic_regression(40),
        WorkloadDescriptor.kmeans(num_clusters=5, max_iter=40),
        WorkloadDescriptor.gnmf(rank=4, max_iter=40),
    ], ids=lambda wl: wl.name)
    def test_only_linreg_scores_a_cofactor_candidate(self, planner, redundant, workload):
        plan = planner.plan(redundant, workload)
        assert {c.engine for c in plan.candidates} == {"eager"}

    def test_wide_matrix_linreg_gd_prefers_eager(self, planner):
        # On a short-and-wide matrix the co-factor form's per-iteration d x d
        # gram-vector product outweighs the hoisted data passes; the planner
        # must charge it (gram_applies) and pick eager.
        from repro.core.normalized_matrix import NormalizedMatrix
        from repro.la.ops import indicator_from_labels

        rng = np.random.default_rng(0)
        n_s, n_r = 200, 50
        entity = rng.standard_normal((n_s, 100))
        attribute = rng.standard_normal((n_r, 900))
        labels = np.concatenate([np.arange(n_r), rng.integers(0, n_r, size=n_s - n_r)])
        wide = NormalizedMatrix(entity, [indicator_from_labels(labels, num_columns=n_r)],
                                [attribute])  # 200 x 1000
        plan = planner.plan(wide, WorkloadDescriptor.linear_regression_gd(200))
        assert plan.engine == "eager"

    def test_plain_input_never_plans_factorized(self, planner):
        plan = planner.plan(np.ones((100, 6)), WorkloadDescriptor.generic())
        assert all(not c.factorized for c in plan.candidates)
        assert plan.threshold_rule_choice is None

    def test_pinned_shard_count_restricts_the_axis(self, planner, redundant):
        plan = planner.plan(redundant, WorkloadDescriptor.generic(), n_shards=2)
        assert {c.n_shards for c in plan.candidates} == {2}
        assert plan.n_jobs == 2
        assert plan.backend == "sharded"

    @pytest.mark.parametrize("candidates", [(0,), (-3,), (1,), (2, 1)])
    def test_shard_candidates_below_two_rejected(self, candidates):
        # Serial execution is always scored; a count below 2 would score it
        # again, or produce a "sharded" plan with n_jobs <= 0.
        with pytest.raises(ValueError, match="shard_candidates"):
            Planner(calibration=CalibrationProfile.default(), shard_candidates=candidates)

    def test_shard_axis_clamped_to_row_count(self, planner):
        plan = planner.plan(np.ones((3, 2)), WorkloadDescriptor.generic())
        assert {c.n_shards for c in plan.candidates} == {1, 2}

    def test_sharding_wins_when_parallelism_is_cheap(self, redundant, monkeypatch):
        # Free fan-out, four workers, perfectly efficient: the cost model must
        # rank the 4-shard candidate first.

        import repro.la.parallel as parallel

        monkeypatch.setattr(parallel, "default_workers", lambda: 4)
        cheap = replace(CalibrationProfile.default(),
                        dispatch_overhead_s=0.0, sparse_dispatch_overhead_s=0.0,
                        shard_overhead_s=0.0, parallel_efficiency=1.0)
        planner = Planner(calibration=cheap, shard_candidates=(4,))
        plan = planner.plan(redundant, WorkloadDescriptor.logistic_regression(30))
        assert plan.backend == "sharded"
        assert plan.n_jobs == 4

    def test_sharding_loses_when_fanout_is_expensive(self, planner, redundant):
        # The default profile's per-shard dispatch overhead dwarfs the
        # arithmetic of this small matrix, so serial execution must win.
        plan = planner.plan(redundant, WorkloadDescriptor.logistic_regression(30))
        assert plan.backend != "sharded"

    def test_candidates_sorted_by_predicted_cost(self, planner, redundant):
        plan = planner.plan(redundant, WorkloadDescriptor.gnmf(5, 10))
        costs = [c.predicted_seconds for c in plan.candidates]
        assert costs == sorted(costs)
        assert plan.chosen is plan.candidates[0]


class TestPlanReporting:
    def test_explain_reports_predicted_vs_chosen_costs(self, planner, redundant):
        plan = planner.plan(redundant, WorkloadDescriptor.logistic_regression(20))
        text = plan.explain()
        assert "chosen:" in text
        assert "predicted" in text
        assert "rank 2:" in text
        assert "x chosen" in text              # alternatives priced vs the pick
        assert "paper threshold rule" in text  # ties back to Section 5.1
        assert "calibration: default" in text

    def test_plan_to_json_is_serializable(self, planner, redundant):
        plan = planner.plan(redundant, WorkloadDescriptor.kmeans(4, 6))
        payload = json.dumps(plan.to_json())
        decoded = json.loads(payload)
        assert decoded["chosen"]["factorized"] is True
        assert decoded["workload"]["name"] == "kmeans"
        assert len(decoded["candidates"]) == len(plan.candidates)

    def test_breakdown_terms_sum_to_prediction(self, planner, redundant):
        plan = planner.plan(redundant, WorkloadDescriptor.generic())
        for candidate in plan.candidates:
            assert candidate.predicted_seconds == pytest.approx(
                sum(candidate.breakdown.values()))

    def test_empty_plan_is_rejected(self, planner, redundant):
        complete = planner.plan(redundant)
        with pytest.raises(ValueError, match="at least one scored candidate"):
            Plan(candidates=(), workload=complete.workload,
                 data_summary=complete.data_summary,
                 calibration=complete.calibration)


class TestSurfaceIntegration:
    def test_normalized_matrix_plan_method(self, redundant):
        plan = redundant.plan()
        assert isinstance(plan, Plan)
        assert plan.workload.name == "generic"
        # chunked plans exist only for chunked operands
        assert all(c.backend != "chunked" for c in plan.candidates)

    def test_mn_matrix_plan_method(self, mn_dataset):
        _, normalized, _ = mn_dataset
        plan = normalized.plan()
        assert isinstance(plan, Plan)
        assert plan.data_summary["kind"] == "normalized"

    def test_auto_engine_exposes_plan(self, redundant):
        from repro.ml.logistic_regression import LogisticRegressionGD

        rng = np.random.default_rng(0)
        y = np.where(rng.standard_normal(redundant.shape[0]) > 0, 1.0, -1.0)
        model = LogisticRegressionGD(max_iter=3, engine="auto")
        model.planner = Planner(calibration=CalibrationProfile.default())
        model.fit(redundant, y)
        assert model.plan_ is not None
        assert "chosen:" in model.plan_.explain()
        assert model.coef_ is not None

    def test_auto_engine_matches_eager_reference(self, single_join_dense):
        from repro.ml.linear_regression import LinearRegressionGD

        _, normalized, materialized = single_join_dense
        rng = np.random.default_rng(1)
        y = rng.standard_normal(normalized.shape[0])
        auto = LinearRegressionGD(max_iter=4, engine="auto")
        auto.planner = Planner(calibration=CalibrationProfile.default())
        auto.fit(normalized, y)
        reference = LinearRegressionGD(max_iter=4).fit(materialized, y)
        assert np.allclose(auto.coef_, reference.coef_, atol=1e-8)

    def test_auto_engine_explicit_n_jobs_1_pins_serial(self, redundant, monkeypatch):
        # n_jobs=1 must guarantee serial execution even when the planner would
        # otherwise shard (cheap-parallelism profile, 4 workers).

        import repro.la.parallel as parallel
        from repro.ml.logistic_regression import LogisticRegressionGD

        monkeypatch.setattr(parallel, "default_workers", lambda: 4)
        cheap = replace(CalibrationProfile.default(),
                        dispatch_overhead_s=0.0, sparse_dispatch_overhead_s=0.0,
                        shard_overhead_s=0.0, parallel_efficiency=1.0)
        rng = np.random.default_rng(8)
        y = np.where(rng.standard_normal(redundant.shape[0]) > 0, 1.0, -1.0)

        pinned = LogisticRegressionGD(max_iter=3, engine="auto", n_jobs=1)
        pinned.planner = Planner(calibration=cheap, shard_candidates=(4,))
        pinned.fit(redundant, y)
        assert {c.n_shards for c in pinned.plan_.candidates} == {1}

        free = LogisticRegressionGD(max_iter=3, engine="auto")
        free.planner = Planner(calibration=cheap, shard_candidates=(4,))
        free.fit(redundant, y)
        assert free.plan_.n_jobs == 4  # default None leaves the axis free

    def test_pinned_shard_count_clamped_to_rows(self, planner):
        from repro.datasets.synthetic import SyntheticPKFKConfig, generate_pk_fk

        config = SyntheticPKFKConfig.from_ratios(
            tuple_ratio=1, feature_ratio=1, num_attribute_rows=3,
            num_entity_features=2, seed=0)
        tiny = generate_pk_fk(config).normalized  # 3 rows
        plan = planner.plan(tiny, WorkloadDescriptor.generic(), n_shards=8)
        assert plan.n_jobs == 3  # clamped like shard_bounds itself

    def test_describe_data_plain_sharded_operand(self):
        from repro.core.partitioned import Partitioned

        sharded = Partitioned.sharded(np.ones((60, 5)), 4, pool="thread")
        profile = describe_data(sharded)
        assert profile.kind == "sharded"
        assert profile.layouts == (False,)
        assert profile.partitions == 4
        assert profile.parallel_partitions
        assert describe_data(sharded.T).kind == "sharded"  # transposed view
        plan = Planner(calibration=CalibrationProfile.default()).plan(sharded)
        assert plan.n_jobs == 4
        assert plan.backend == "sharded"

    def test_mn_plan_explain_reports_threshold_rule(self, mn_dataset):
        _, normalized, _ = mn_dataset
        plan = Planner(calibration=CalibrationProfile.default()).plan(normalized)
        text = plan.explain()
        assert "paper threshold rule (tau=5, rho=1)" in text
        expected = DecisionRule().predict(normalized.tuple_ratio, normalized.feature_ratio)
        assert plan.threshold_rule_choice == ("factorize" if expected else "materialize")

    def test_describe_data_chunked_operand(self):
        from repro.core.partitioned import Partitioned

        chunked = Partitioned.chunked(np.ones((100, 4)), chunk_rows=30)
        profile = describe_data(chunked)
        assert profile.kind == "chunked"
        assert profile.layouts == (False,)
        assert profile.partitions == 4
        assert describe_data(chunked.T).kind == "chunked"  # transposed view

    def test_chunked_operand_plan_reports_chunked_backend(self):
        from repro.core.partitioned import Partitioned

        planner = Planner(calibration=CalibrationProfile.default(),
                          shard_candidates=(2, 4))
        chunked = Partitioned.chunked(np.ones((100, 4)), chunk_rows=10)
        plan = planner.plan(chunked, WorkloadDescriptor.logistic_regression(5))
        assert all(c.backend == "chunked" and c.n_shards == 1
                   for c in plan.candidates)
        # dispatch is priced at the real 10-chunk fan-out: strictly more than
        # the same workload on the equivalent monolithic matrix.
        mono = planner.plan(np.ones((100, 4)),
                            WorkloadDescriptor.logistic_regression(5),
                            n_shards=1)
        chunked_eager = next(c for c in plan.candidates if c.engine == "eager")
        mono_eager = next(c for c in mono.candidates if c.engine == "eager")
        assert chunked_eager.breakdown["dispatch"] > mono_eager.breakdown["dispatch"]

    def test_auto_engine_pins_serial_for_undispatchable_operands(self):
        # Chunked operands pass through shard_for_jobs unchanged, so a sharded
        # plan could never be realized: the resolver pins the shard axis and
        # the reported plan matches what actually runs.
        from repro.core.partitioned import Partitioned
        from repro.ml.linear_regression import LinearRegressionGD

        rng = np.random.default_rng(4)
        dense = rng.standard_normal((64, 5))
        chunked = Partitioned.chunked(dense, chunk_rows=16)
        y = rng.standard_normal(64)
        model = LinearRegressionGD(max_iter=3, step_size=1e-3, engine="auto")
        model.planner = Planner(calibration=CalibrationProfile.default(),
                                shard_candidates=(2, 4))
        model.fit(chunked, y)
        assert model.plan_.n_jobs == 1
        assert all(c.n_shards == 1 for c in model.plan_.candidates)
        reference = LinearRegressionGD(max_iter=3, step_size=1e-3).fit(dense, y)
        assert np.allclose(model.coef_, reference.coef_, atol=1e-10)

    def test_auto_engine_never_densifies_sharded_normalized_input(self, single_join_dense):
        # A pre-sharded normalized operand has a fixed layout: engine="auto"
        # must neither materialize the join output nor re-shard it, and the
        # fit must still run (shard-parallel) through the factorized rewrites.
        from repro.ml.logistic_regression import LogisticRegressionGD

        _, normalized, materialized = single_join_dense
        sharded = normalized.shard(4, pool="serial")
        rng = np.random.default_rng(6)
        y = np.where(rng.standard_normal(normalized.shape[0]) > 0, 1.0, -1.0)
        model = LogisticRegressionGD(max_iter=3, engine="auto")
        model.planner = Planner(calibration=CalibrationProfile.default(),
                                shard_candidates=(2, 4))
        model.fit(sharded, y)
        assert getattr(sharded, "_materialized_view", None) is None
        # The plan truthfully reports the fixed factorized layout and the
        # operand's own 4-shard fan-out, and prices the engine choice with
        # factorized operator costs at that fan-out.
        assert model.plan_.factorized
        assert model.plan_.n_jobs == 4
        assert model.plan_.backend == "sharded"
        assert model.plan_.data_summary["kind"] == "sharded-normalized"
        assert all(c.factorized and c.n_shards == 4 for c in model.plan_.candidates)
        reference = LogisticRegressionGD(max_iter=3).fit(materialized, y)
        assert np.allclose(model.coef_, reference.coef_, atol=1e-8)

    def test_describe_data_sharded_normalized_uses_factorized_costs(self, single_join_dense):
        _, normalized, _ = single_join_dense
        sharded = normalized.shard(3, pool="serial")
        profile = describe_data(sharded)
        assert profile.kind == "sharded-normalized"
        assert profile.layouts == (True,)
        assert profile.n_rows == normalized.shape[0]
        assert profile.n_cols == normalized.shape[1]
        assert profile.num_joins == normalized.num_joins
        assert profile.partitions == sharded.num_shards
        assert not profile.parallel_partitions  # serial pool: no speedup
        assert describe_data(normalized.shard(3, pool="thread")).parallel_partitions
        # transposed wrapper: same untransposed dimensions
        assert describe_data(sharded.T).n_rows == normalized.shape[0]

    def test_auto_engine_respects_explicit_n_jobs(self, single_join_dense):
        from repro.ml.logistic_regression import LogisticRegressionGD

        _, normalized, materialized = single_join_dense
        rng = np.random.default_rng(2)
        y = np.where(rng.standard_normal(normalized.shape[0]) > 0, 1.0, -1.0)
        model = LogisticRegressionGD(max_iter=3, engine="auto", n_jobs=2)
        model.planner = Planner(calibration=CalibrationProfile.default())
        model.fit(normalized, y)
        assert model.plan_.n_jobs == 2
        reference = LogisticRegressionGD(max_iter=3).fit(materialized, y)
        assert np.allclose(model.coef_, reference.coef_, atol=1e-8)


class TestPlanEvaluation:
    def test_slowdown_and_within(self):
        ev = PlanEvaluation(parameters={}, auto_label="a", auto_seconds=0.15,
                            best_label="b", best_seconds=0.1)
        assert ev.slowdown == pytest.approx(1.5)
        assert ev.within(1.5)
        assert not ev.within(1.4)

    def test_nan_measurements_never_pass(self):
        ev = PlanEvaluation(parameters={}, auto_label="a",
                            auto_seconds=float("nan"), best_label="b",
                            best_seconds=0.1)
        assert math.isnan(ev.slowdown)
        assert not ev.within(10.0)

    def test_zero_best_guard(self):
        ev = PlanEvaluation(parameters={}, auto_label="a", auto_seconds=0.1,
                            best_label="b", best_seconds=0.0)
        assert ev.slowdown == float("inf")
        ev2 = PlanEvaluation(parameters={}, auto_label="a", auto_seconds=0.0,
                             best_label="b", best_seconds=0.0)
        assert ev2.slowdown == 1.0
