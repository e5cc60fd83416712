"""The cost-based adaptive execution planner.

Where the paper stops at a static two-threshold heuristic (Section 5.1), the
repo now has a whole lattice of execution choices -- materialized vs.
factorized layout, serial vs. sharded backends, shard counts, streamed
mini-batches under a memory budget, and for GD linear regression the eager
loop vs. its co-factor form -- and the profitable corner moves with the
workload.
:class:`Planner` closes that loop: it combines the paper's Table 3 / Table 11
arithmetic models (:class:`~repro.core.cost.CostModel`) with the machine
calibration constants (:mod:`repro.core.planner.calibration`) and a
:class:`~repro.core.planner.workload.WorkloadDescriptor`, scores every
candidate plan in predicted wall-clock seconds, and returns an explainable
:class:`~repro.core.planner.plan.Plan`.

The predicted cost of a candidate is a sum of three terms:

* **arithmetic** -- operator flops (standard or factorized counts) divided by
  the calibrated throughput, scaled by the shard-parallel speedup model
  ``1 + (workers - 1) * parallel_efficiency``;
* **dispatch** -- per-primitive-call overhead: factorized rewrites issue
  roughly ``2 + 2q`` dense primitive calls plus ``q`` sparse indicator
  scatters per operator (q = number of joins); the scatter pass and the block
  assembly are additionally priced per row at a calibrated rate, since
  ``K @ (R X)`` behaves nothing like a dense matmul.  Every call is
  multiplied by the operand's fan-out: its shard, chunk or batch count;
* **one-time** -- materialization of the join output when a materialized plan
  is chosen for normalized input, and shard-construction setup.

Only work that differs between candidates is priced: per-iteration
regular-matrix work common to all of them (e.g. K-Means' assignment step)
cancels in the comparison, while engine-specific regular work -- the ``d x d``
gram-vector product the co-factor form performs *instead of* the hoisted data
passes -- is charged via :attr:`WorkloadDescriptor.gram_applies`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.exceptions import PlanningError
from repro.core.cost import CostModel, Operator
from repro.core.normalized_matrix import NormalizedMatrix
from repro.core.planner import memory as memory_model
from repro.core.planner.calibration import CalibrationProfile, get_profile
from repro.core.planner.plan import Plan, ScoredCandidate
from repro.core.planner.workload import WorkloadDescriptor
from repro.la.types import is_sparse

_PLANS_TOTAL = obs.REGISTRY.counter(
    "repro_planner_plans_total",
    "Plans produced, by workload, chosen engine/backend and calibration source",
    labels=("workload", "engine", "backend", "calibration"),
)
_CANDIDATES_SCORED = obs.REGISTRY.counter(
    "repro_planner_candidates_scored_total",
    "Candidate strategies scored across all planning calls",
    labels=("workload",),
)
_CANDIDATE_SECONDS = obs.REGISTRY.gauge(
    "repro_planner_candidate_predicted_seconds",
    "Predicted wall-clock seconds per candidate of the most recent plan",
    labels=("workload", "candidate"),
)


@dataclass(frozen=True)
class _DataProfile:
    """What the planner needs to know about the operand being planned for."""

    kind: str  # "normalized", "sharded-normalized", "sharded", "chunked"
    #            or "plain"
    model: CostModel
    sparse: bool
    n_rows: int
    n_cols: int
    num_joins: int
    can_factorize: bool         # layout is still a free choice
    fixed_factorized: bool = False  # layout is fixed *factorized* (pre-sharded)
    partitions: int = 1         # row partitions of a chunked/sharded operand
    parallel_partitions: bool = False  # partitions execute on a parallel pool
    tuple_ratio: Optional[float] = None
    feature_ratio: Optional[float] = None
    redundancy_ratio: Optional[float] = None
    #: resident bytes of the materialized / factorized representations plus
    #: the per-pass factorized working set (the planner's memory dimension;
    #: see repro.core.planner.memory).
    materialized_bytes: int = 0
    factorized_bytes: int = 0
    stream_bytes: int = 0

    @property
    def layouts(self) -> tuple:
        """The layout axis of the candidate space for this operand."""
        if self.can_factorize:
            return (True, False)
        return (True,) if self.fixed_factorized else (False,)


def describe_data(data) -> _DataProfile:
    """Build the planner's view of a data matrix of any supported family."""
    from repro.core.partitioned import Partitioned

    mem = dict(
        materialized_bytes=memory_model.materialized_nbytes(data),
        factorized_bytes=memory_model.factorized_nbytes(data),
        stream_bytes=memory_model.entity_stream_nbytes(data),
    )
    if isinstance(data, Partitioned):
        # A row-partitioned operand: the layout and the partition fan-out are
        # fixed by the operand, only the engine is free -- priced at its own
        # partition count (and pool parallelism).  Factorized pieces share
        # the attribute matrices, so one piece (or the streamed source)
        # carries the per-join dimensions and the costs stay factorized.
        sample = data.parts[0]
        n_rows, n_cols = data.logical_rows, data.logical_cols
        parallel = data.executor.pool.name != "serial"
        if data.factorized:
            attribute_dims = [(r.shape[0], r.shape[1]) for r in sample.attributes]
            bases = list(sample.attributes)
            if sample.entity is not None:
                bases.append(sample.entity)
            kind = "sharded-normalized"
            model = CostModel(n_rows, sample.entity_width, attribute_dims)
        else:
            attribute_dims, bases = [], data.parts
            kind = "sharded" if parallel else "chunked"
            model = CostModel(n_rows, n_cols, [])
        return _DataProfile(
            kind=kind, model=model, sparse=any(is_sparse(b) for b in bases),
            n_rows=n_rows, n_cols=n_cols, num_joins=len(attribute_dims),
            can_factorize=False, fixed_factorized=data.factorized,
            partitions=data.num_pieces, parallel_partitions=parallel, **mem,
        )
    if isinstance(data, NormalizedMatrix):
        plain = data.T if data.transposed else data
        attribute_dims = [(r.shape[0], r.shape[1]) for r in plain.attributes]
        model = CostModel(plain.logical_rows, plain.entity_width, attribute_dims)
        bases = ([plain.entity] if plain.entity is not None else []) + list(plain.attributes)
        return _DataProfile(
            kind="normalized", model=model,
            sparse=any(is_sparse(b) for b in bases),
            n_rows=plain.logical_rows, n_cols=plain.logical_cols,
            num_joins=plain.num_joins, can_factorize=True,
            tuple_ratio=plain.tuple_ratio, feature_ratio=plain.feature_ratio,
            redundancy_ratio=plain.redundancy_ratio(), **mem,
        )
    # Plain dense/sparse operands: the layout is fixed, only
    # the engine and the shard count remain to be chosen.
    n_rows, n_cols = int(data.shape[0]), int(data.shape[1])
    return _DataProfile(
        kind="plain", model=CostModel(n_rows, n_cols, []),
        sparse=is_sparse(data), n_rows=n_rows, n_cols=n_cols,
        num_joins=0, can_factorize=False, **mem,
    )


class Planner:
    """Scores candidate execution plans and returns the cheapest as a :class:`Plan`.

    Parameters
    ----------
    calibration:
        A :class:`CalibrationProfile`; defaults to :func:`get_profile` (disk
        cache or one-time probe, ``REPRO_CALIBRATION=default`` for constants).
    shard_candidates:
        Shard counts (each at least 2) to consider beyond serial execution.
        Defaults to ``(2, 4, cpu_count)`` filtered to the machine.
    charge_materialization:
        Whether a materialized plan for normalized input pays the one-time
        join-materialization cost (the honest cold-start default).  The ML
        ``engine="auto"`` path disables it: the estimators memoize the
        materialized view per data matrix, so across repeated fits the
        conversion is a one-time setup (like the calibration probe itself)
        and the plan should optimize the steady state.
    memory_budget:
        Optional per-pass working-set budget in bytes -- the planner's memory
        dimension (see :mod:`repro.core.planner.memory`).  The budget bounds
        what one data pass streams through beyond the always-resident
        attribute tables: candidates whose working set exceeds it (a
        materialized/chunked plan whose dense join output does not fit, a
        full-pass factorized plan whose entity + indicator matrices do not
        fit) are infeasible and dropped, and a ``"streamed"`` candidate --
        execution over :meth:`~repro.core.partitioned.Partitioned.streamed`,
        one row batch at a time, at the batch size
        :func:`~repro.core.planner.memory.batch_rows_for_budget` derives from
        the budget -- is scored instead.  When the materialized footprint
        exceeds the budget the streamed (or full-pass factorized) plan is all
        that remains, which is how ``engine="auto"`` runs the same full-batch
        fit over a larger-than-budget matrix.
    """

    def __init__(self, calibration: Optional[CalibrationProfile] = None,
                 shard_candidates: Optional[Sequence[int]] = None,
                 charge_materialization: bool = True,
                 memory_budget: Optional[float] = None):
        self.calibration = calibration
        self.charge_materialization = bool(charge_materialization)
        self.memory_budget = memory_model.validate_memory_budget(memory_budget)
        if shard_candidates is None:
            from repro.la.parallel import default_workers

            cores = default_workers()
            shard_candidates = sorted({n for n in (2, 4, cores) if 1 < n <= cores})
        self.shard_candidates = tuple(int(n) for n in shard_candidates)
        if any(n < 2 for n in self.shard_candidates):
            raise ValueError(
                f"shard_candidates must all be at least 2 (serial execution is "
                f"always scored), got {self.shard_candidates}")

    # -- public API -----------------------------------------------------------

    def plan(self, data, workload: Optional[WorkloadDescriptor] = None,
             n_shards: Optional[int] = None) -> Plan:
        """Score all candidates for *data* under *workload* and rank them.

        ``n_shards`` restricts the shard axis to one explicit value (the ML
        estimators pass a user-supplied ``n_jobs`` through here, leaving the
        planner to choose only the layout and the engine).
        """
        workload = workload or WorkloadDescriptor.generic()
        with obs.span("planner.plan", workload=workload.name):
            profile = self.calibration or get_profile()
            data_profile = describe_data(data)
            candidates = self._score_all(data_profile, workload, profile, n_shards)
            plan = Plan(
                candidates=tuple(candidates),
                workload=workload,
                data_summary=self._summary(data_profile),
                calibration=profile,
                threshold_rule_choice=self._threshold_choice(data_profile),
            )
            if obs.enabled():
                self._record_plan_metrics(plan)
        return plan

    @staticmethod
    def _record_plan_metrics(plan: Plan) -> None:
        """Publish the chosen plan and its candidate scores to the registry."""
        chosen = plan.chosen
        _PLANS_TOTAL.labels(
            workload=plan.workload.name,
            engine=chosen.engine,
            backend=chosen.backend,
            calibration=plan.calibration.source,
        ).inc()
        _CANDIDATES_SCORED.labels(workload=plan.workload.name).inc(
            len(plan.candidates)
        )
        for candidate in plan.candidates:
            _CANDIDATE_SECONDS.labels(
                workload=plan.workload.name, candidate=candidate.label
            ).set(candidate.predicted_seconds)
        obs.annotate(
            chosen=chosen.label,
            predicted_seconds=chosen.predicted_seconds,
            candidates=len(plan.candidates),
            calibration=plan.calibration.source,
        )

    # -- candidate enumeration and scoring ------------------------------------

    def _score_all(self, dp: _DataProfile, workload: WorkloadDescriptor,
                   profile: CalibrationProfile, n_shards: Optional[int]
                   ) -> List[ScoredCandidate]:
        layouts = dp.layouts
        if n_shards is not None and n_shards > 1:
            # Clamp like the shard views themselves do: a 3-row matrix never
            # has more than 3 non-empty shards, whatever n_jobs says.
            shard_axis: Tuple[int, ...] = (max(1, min(int(n_shards), dp.n_rows)),)
        elif n_shards is not None:
            shard_axis = (1,)
        else:
            shard_axis = (1,) + tuple(n for n in self.shard_candidates if n <= dp.n_rows)
        if dp.kind == "chunked":
            shard_axis = (1,)  # chunked operands cannot be re-sharded
        elif dp.kind in ("sharded-normalized", "sharded"):
            # The operand's shard fan-out is fixed by the user; price (and
            # report) every candidate at that fan-out.
            shard_axis = (dp.partitions,)
        serial_backend = "chunked" if dp.kind == "chunked" else (
            "sparse" if dp.sparse else "dense")

        candidates = []
        for factorized in layouts:
            for engine in workload.engines:
                for shards in shard_axis:
                    backend = serial_backend if shards == 1 else "sharded"
                    candidates.append(self._score(
                        dp, workload, profile, factorized, engine, backend, shards))

        # Memory dimension: drop candidates whose resident footprint exceeds
        # the budget and add the streamed candidate (one row batch resident
        # at a time) for row-selectable operands.  It is always feasible by
        # construction -- its batch size is derived from the same budget --
        # so a larger-than-budget matrix still gets a plan.
        if self.memory_budget is not None:
            feasible = [c for c in candidates if self._fits_budget(dp, c)]
            streamed = []
            if dp.kind in ("normalized", "plain"):
                # Streamed execution: the per-pass working set is one row
                # batch's slice, so it is feasible under any budget.  The
                # layout follows the operand (factorized batches for
                # normalized input, row slices for plain input); chunked and
                # pre-sharded operands have no row-selection surface.
                batch_rows = memory_model.batch_rows_for_dims(
                    dp.n_rows, dp.n_cols, dp.num_joins, self.memory_budget)
                streamed.append(self._score(
                    dp, workload, profile, dp.can_factorize, "eager", "streamed", 1,
                    batch_rows=batch_rows))
            candidates = feasible + streamed
            if not candidates:
                raise PlanningError(
                    f"no execution plan fits the memory budget "
                    f"({self.memory_budget:.0f} bytes): materialized passes need "
                    f"{dp.materialized_bytes} bytes, factorized passes need "
                    f"{dp.stream_bytes} bytes, and a "
                    f"{dp.kind} operand cannot be streamed"
                )

        # On exact cost ties prefer: fewer shards, the eager engine, the
        # input's own layout (no conversion risk), and the simplest backend
        # (the operand's serial one before sharded before streamed).
        backend_rank = {"sharded": 1, "streamed": 2}
        input_factorized = dp.can_factorize or dp.fixed_factorized

        def sort_key(c: ScoredCandidate):
            return (
                c.predicted_seconds,
                c.n_shards,
                0 if c.engine == "eager" else 1,
                0 if c.factorized == input_factorized else 1,
                backend_rank.get(c.backend, 0),
            )

        candidates.sort(key=sort_key)
        return candidates

    def _fits_budget(self, dp: _DataProfile, candidate: ScoredCandidate) -> bool:
        """Whether a candidate's per-pass working set fits the memory budget.

        The budget bounds what one data pass streams through *beyond the
        always-resident attribute tables*: a materialized pass touches the
        dense ``n_S x d`` join output (a chunked operand holds its row
        chunks in memory, so it is *not* an escape hatch from the budget),
        a factorized pass touches the entity and indicator matrices, and the
        streamed backend touches one row batch's slice at a time -- which is
        why it is the fallback that always fits.
        """
        budget = self.memory_budget
        if budget is None:
            return True
        footprint = dp.stream_bytes if candidate.factorized else dp.materialized_bytes
        return footprint <= budget

    def _score(self, dp: _DataProfile, workload: WorkloadDescriptor,
               profile: CalibrationProfile, factorized: bool, engine: str,
               backend: str, shards: int,
               batch_rows: Optional[int] = None) -> ScoredCandidate:
        uses = workload.uses_for_engine(engine)

        # Arithmetic: Table 3 / Table 11 counts over the calibrated throughput,
        # plus the row-wise overhead passes factorized execution performs on
        # top of the base-matrix products: the indicator scatters (K @ (R X))
        # and the block assembly of the partial results -- about (q + 1)
        # extra n_S-row touches per operator (validated against the measured
        # sweep grid), priced at the calibrated scatter rate.  This term is
        # what makes high-TR / low-FR schemas (big n_S, little arithmetic
        # saved) correctly favour the materialized plan even though the raw
        # flop counts say otherwise.
        flops = 0.0
        total_ops = 0.0
        overhead_rows = 0.0
        scatter_calls = 0.0
        for use in uses:
            count = workload.total_count(use)
            cost = dp.model.cost(use.operator, use.x_cols)
            flops += count * (cost.factorized if factorized else cost.standard)
            total_ops += count
            if factorized and dp.num_joins:
                width = use.x_cols if use.operator in (Operator.LMM, Operator.RMM) else 1
                overhead_rows += count * (dp.num_joins + 1) * dp.n_rows * width
                scatter_calls += count * dp.num_joins
        throughput = profile.sparse_flops if dp.sparse else profile.dense_flops
        speedup = 1.0
        fixed_partitioning = dp.kind in ("sharded-normalized", "sharded")
        if shards > 1 and (not fixed_partitioning or dp.parallel_partitions):
            from repro.la.parallel import default_workers

            workers = min(shards, default_workers())
            speedup = 1.0 + (workers - 1) * profile.parallel_efficiency
        # The scatter/assembly passes fan out across shards exactly like the
        # base-matrix products, so both terms share the parallel speedup.
        arithmetic_s = (flops / throughput + overhead_rows / profile.indicator_flops) / speedup
        if engine == "cofactor" and workload.gram_applies:
            # Per-iteration gram-vector products of the co-factor form
            # (``gram @ w``): regular d x d arithmetic that the eager
            # candidates do NOT perform, so it cannot cancel and must be
            # priced -- it is what caps the co-factor win on wide matrices.
            arithmetic_s += (workload.iterations * workload.gram_applies
                             * float(dp.n_cols) ** 2 / profile.dense_flops)

        # Dispatch: primitive calls per operator, multiplied by the fan-out.
        # A factorized operator issues ~2 dense calls plus, per join, two
        # small base-matrix calls and one sparse indicator scatter.
        calls_per_op = (2.0 + 2.0 * max(dp.num_joins, 1)) if factorized else 1.0
        fanout = float(shards)
        if backend == "streamed":
            # Every operator is executed once per row batch.
            fanout = float(max(
                memory_model.streamed_batch_count(dp.n_rows, batch_rows or dp.n_rows), 1))
        if backend == "chunked":  # a chunked operand: its own fan-out
            fanout = float(dp.partitions)
        dispatch_s = total_ops * calls_per_op * fanout * profile.dispatch_overhead_s
        dispatch_s += scatter_calls * fanout * profile.sparse_dispatch_overhead_s
        if shards > 1:
            dispatch_s += total_ops * shards * profile.shard_overhead_s
        if backend == "streamed":
            # Cutting a factorized batch slices the entity plus each indicator
            # matrix once per batch per pass -- priced at the sparse dispatch
            # rate like any other indicator touch.
            dispatch_s += (fanout * workload.iterations * (dp.num_joins + 1)
                           * profile.sparse_dispatch_overhead_s)

        # One-time costs: materializing the join output, shard construction.
        one_time_s = 0.0
        if dp.can_factorize and not factorized and self.charge_materialization:
            one_time_s += dp.n_rows * dp.n_cols / profile.materialize_bandwidth
        if shards > 1:
            one_time_s += shards * profile.shard_overhead_s

        breakdown = {
            "arithmetic": arithmetic_s,
            "dispatch": dispatch_s,
            "one-time": one_time_s,
        }
        return ScoredCandidate(
            factorized=factorized, engine=engine, backend=backend, n_shards=shards,
            predicted_seconds=sum(breakdown.values()), breakdown=breakdown,
            batch_rows=batch_rows,
        )

    # -- reporting helpers -----------------------------------------------------

    def _summary(self, dp: _DataProfile) -> dict:
        summary = {
            "kind": dp.kind,
            "shape": (dp.n_rows, dp.n_cols),
            "sparse": dp.sparse,
            "num_joins": dp.num_joins,
            "materialized_bytes": dp.materialized_bytes,
            "factorized_bytes": dp.factorized_bytes,
        }
        if self.memory_budget is not None:
            summary["memory_budget"] = self.memory_budget
        if dp.tuple_ratio is not None:
            summary["tuple_ratio"] = dp.tuple_ratio
            summary["feature_ratio"] = dp.feature_ratio
        if dp.redundancy_ratio is not None:
            summary["redundancy_ratio"] = dp.redundancy_ratio
        return summary

    @staticmethod
    def _threshold_choice(dp: _DataProfile) -> Optional[str]:
        if dp.kind != "normalized":
            return None
        from repro.core.decision import DecisionRule

        rule = DecisionRule()
        return ("factorize" if rule.predict(dp.tuple_ratio, dp.feature_ratio)
                else "materialize")
