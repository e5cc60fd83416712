"""The ledger's metric catalog and the small statistics it is reported with.

Three families of metrics, each a name with a unit and a direction:

* ``END_TO_END`` -- what a user of the library sees on every workload.  These
  are the metrics ``BENCHMARK.json`` gates with a bound; an untraced run
  prints exactly these on its last output line.
* ``DETAIL`` -- the per-operation timings behind ``op_ms_min`` (one fit kind,
  the refresh, one serving request kind).  A detail metric exists only on the
  workloads that run that operation; untraced runs record them in their
  result file and ``compare.py`` judges them with their own bound, blocking
  like the gated metrics: the geometric mean alone misses one slower kind.
* ``PER_LAYER`` -- counts, busy times and ratios of single layers, from the
  separate traced run.  No bound; each names the end-to-end metric it should
  move and the workload where most of its work happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

TRAINING = ("star-eager", "snowflake-auto", "mn-stream")
SERVING = ("serve-update",)
WORKLOADS = TRAINING + SERVING

#: How far a timing may worsen before it counts as a regression.  Wider than
#: the 10% the ledger was specified with: the 2-vCPU machine it was measured
#: on changes speed for minutes at a time, so ten 24 s runs of one workload
#: spread by up to about 24% (quartile distance over median; README.md has
#: the measurements).  BENCHMARK.json allows at most 0.25, kept for setup_s.
TIME_BOUND = 0.24

#: Short estimator keys, in the round-robin order every training cycle uses.
ESTIMATORS = ("linreg", "logreg", "kmeans", "gnmf")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                      # "lower" or "higher"
    bound: float = 0.0               # end-to-end and detail metrics only
    layer: str = ""                  # per-layer metrics only
    moves: str = ""                  # end-to-end metric it should move
    workloads: Tuple[str, ...] = WORKLOADS  # where it applies / does most work
    definition: str = ""


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25, definition=(
        "median over seven set-ups of input generation, the relational build "
        "and, for serving, model train + registry round trip + scorer build")),
    Metric("peak_rss_mb", "MB", "lower", 0.10, definition=(
        "ru_maxrss at the end of the timed phase, before the oracle phase")),
    Metric("op_ms_min", "ms", "lower", TIME_BOUND, definition=(
        "geometric mean, over the workload's operation kinds, of each kind's "
        "fastest latency in the timed phase")),
)

DETAIL: Tuple[Metric, ...] = tuple(
    [Metric(f"{est}_fit_s", "s", "lower", TIME_BOUND, workloads=TRAINING,
            definition=f"median wall time of one {est} fit")
     for est in ESTIMATORS]
    + [
        Metric("refresh_ms_p50", "ms", "lower", TIME_BOUND, workloads=("snowflake-auto",),
               definition="median of Table.upsert_rows + NormalizedMatrix.apply_delta"),
        Metric("point_ms_p50", "ms", "lower", TIME_BOUND, workloads=SERVING,
               definition="score_row, from its due time to its return"),
        Metric("point_ms_p99", "ms", "lower", TIME_BOUND, workloads=SERVING),
        Metric("batch_ms_p50", "ms", "lower", TIME_BOUND, workloads=SERVING,
               definition="predict_proba_rows of 256 rows, from its due time"),
        Metric("topk_ms_p50", "ms", "lower", TIME_BOUND, workloads=SERVING,
               definition="top_k(100), from its due time"),
        Metric("topk_ms_p90", "ms", "lower", TIME_BOUND, workloads=SERVING),
        Metric("delta_visible_ms_p50", "ms", "lower", TIME_BOUND, workloads=SERVING,
               definition="due time of apply_delta(wait=False) to its future's completion"),
        Metric("delta_visible_ms_p90", "ms", "lower", TIME_BOUND, workloads=SERVING),
        Metric("serve_ops_per_s", "ops/s", "higher", TIME_BOUND, workloads=SERVING,
               definition="closed loop after the open loop: one caller, same mix and deltas"),
        Metric("error_rate", "ratio", "lower", 0.0,
               definition="failed ops / attempted ops (exception or oracle mismatch)"),
    ]
)

KERNELS = (
    "gather_add", "scatter_right", "scatter_crossprod", "cross_block",
    "entity_cross_block", "gather_gram", "gather_rows", "scatter_colsums",
    "scatter_total", "gather_dot", "partial_scores", "sgd_step",
    "logistic_sgd_step", "take_indicator_rows",
)
OPS = ("lmm", "rmm", "crossprod", "agg", "take_rows", "apply_delta")
REWRITES = ("multiplication", "crossprod", "aggregation", "scalar_ops", "delta")

_FITS = "*_fit_s"
_SERVE_E2E = "point_ms_*, batch_ms_p50, topk_ms_*, delta_visible_ms_*"


def _per_layer() -> Tuple[Metric, ...]:
    m: List[Metric] = []

    def add(name, unit, better, layer, moves, workloads, definition=""):
        m.append(Metric(name, unit, better, layer=layer, moves=moves,
                        workloads=tuple(workloads), definition=definition))

    for est in ESTIMATORS:
        add(f"ml.{est}.self_s", "s", "lower", "ml", f"{est}_fit_s", TRAINING,
            "fit time not inside any wrapped callee")
    add("planner.plan_s", "s", "lower", "core.planner", _FITS, ("snowflake-auto",))
    add("planner.residual_ratio_p50", "ratio", "lower", "core.planner", _FITS,
        ("snowflake-auto",), "median measured / predicted seconds of auto plans")
    for share in ("sharded", "lazy", "materialized", "streamed"):
        add(f"planner.share.{share}", "ratio", "higher", "core.planner", _FITS,
            ("snowflake-auto",), f"share of auto plans that chose {share}")
    for op in OPS:
        moves = "refresh_ms_p50" if op == "apply_delta" else _FITS
        add(f"op.{op}.calls", "count", "lower", "core", moves, ("star-eager",))
        add(f"op.{op}.self_s", "s", "lower", "core", moves, ("star-eager",))
    for rule in REWRITES:
        moves = "refresh_ms_p50" if rule == "delta" else _FITS
        where = ("snowflake-auto",) if rule == "delta" else ("star-eager", "snowflake-auto")
        add(f"rewrite.{rule}.calls", "count", "lower", "core.rewrite", moves, where)
        add(f"rewrite.{rule}.self_s", "s", "lower", "core.rewrite", moves, where)
    for kernel in KERNELS:
        serving = kernel in ("gather_dot", "partial_scores")
        moves = _SERVE_E2E if serving else _FITS
        where = SERVING if serving else ("star-eager", "mn-stream")
        add(f"kernel.{kernel}.calls", "count", "lower", "la.kernels", moves, where)
        add(f"kernel.{kernel}.self_s", "s", "lower", "la.kernels", moves, where)
        add(f"kernel.{kernel}.bytes", "bytes", "lower", "la.kernels", moves, where,
            "operand + result nbytes of array arguments, as computed")
    add("chain.calls", "count", "lower", "la.chain", _FITS, ("snowflake-auto",))
    add("chain.self_s", "s", "lower", "la.chain", _FITS, ("snowflake-auto",))
    add("lazy.hits", "count", "higher", "core.lazy", "linreg_fit_s", ("snowflake-auto",))
    add("lazy.misses", "count", "lower", "core.lazy", "linreg_fit_s", ("snowflake-auto",))
    add("lazy.hit_ratio", "ratio", "higher", "core.lazy", "linreg_fit_s", ("snowflake-auto",))
    add("lazy.patched", "count", "higher", "core.lazy", "linreg_fit_s", ("snowflake-auto",))
    add("lazy.invalidated", "count", "lower", "core.lazy", "linreg_fit_s", ("snowflake-auto",))
    add("parallel.fanouts", "count", "lower", "core.shard+la.parallel", _FITS, ("snowflake-auto",))
    add("parallel.tasks", "count", "lower", "core.shard+la.parallel", _FITS, ("snowflake-auto",))
    add("parallel.busy_s", "s", "lower", "core.shard+la.parallel", _FITS, ("snowflake-auto",),
        "summed duration of shard tasks")
    add("parallel.wait_s", "s", "lower", "core.shard+la.parallel", _FITS, ("snowflake-auto",),
        "summed delay from fan-out start to task start")
    add("parallel.efficiency", "ratio", "higher", "core.shard+la.parallel", _FITS,
        ("snowflake-auto",), "task busy / (fan-out wall x workers)")
    add("stream.batches", "count", "lower", "core.stream", _FITS, ("mn-stream",))
    add("stream.rows", "count", "lower", "core.stream", _FITS, ("mn-stream",))
    add("stream.fetch_s", "s", "lower", "core.stream", _FITS, ("mn-stream",),
        "inclusive time of batch take_rows/slice_rows")
    add("delta.rows", "count", "lower", "core.delta", "refresh_ms_p50, linreg_fit_s",
        ("snowflake-auto",))
    add("delta.patch_ratio", "ratio", "higher", "core.delta", "refresh_ms_p50, linreg_fit_s",
        ("snowflake-auto",), "patched / (patched + invalidated) cache entries")
    serve_moves = _SERVE_E2E + ", serve_ops_per_s"
    add("serve.score_rows.calls", "count", "lower", "serve", serve_moves, SERVING)
    add("serve.score_rows.self_s", "s", "lower", "serve", serve_moves, SERVING)
    add("serve.lru_hit_ratio", "ratio", "higher", "serve", "point_ms_*", SERVING)
    add("serve.topk.skip_ratio", "ratio", "higher", "serve", "topk_ms_*", SERVING)
    add("serve.topk.rows_scored", "count", "lower", "serve", "topk_ms_*", SERVING,
        "rows scored exactly per top_k call")
    add("serve.patch_s", "s", "lower", "serve", "delta_visible_ms_*", SERVING,
        "time in the snapshot update functions")
    add("serve.swap_wait_ms_p50", "ms", "lower", "serve", "delta_visible_ms_*", SERVING,
        "median swap duration outside its update function (lock wait + publish)")
    add("serve.swaps", "count", "lower", "serve", "delta_visible_ms_*", SERVING)
    for part, where in (("data", WORKLOADS), ("relational", ("snowflake-auto", "serve-update")),
                        ("train", SERVING), ("scorer", SERVING)):
        add(f"setup.{part}_s", "s", "lower", "relational+setup", "setup_s", where)
    add("loadgen.late_ms_p99", "ms", "lower", "loadgen", "validity of serve-update", SERVING,
        "p99 of request start minus due time, untraced open loop")
    add("loadgen.offered_rps", "1/s", "higher", "loadgen", "validity of serve-update", SERVING)
    add("loadgen.achieved_rps", "1/s", "higher", "loadgen", "validity of serve-update", SERVING)
    for kind in ("materialized", "eager"):
        for est in ESTIMATORS:
            add(f"ref.{kind}.{est}_fit_s", "s", "lower", "reference", "none", TRAINING,
                f"{est} fitted {kind} in the oracle phase")
    add("ref.cofactor_fit_s", "s", "lower", "reference", "none", TRAINING,
        "LinearRegressionCofactor fit in the oracle phase")
    add("trace.overhead_ratio", "ratio", "lower", "tracing", "none", WORKLOADS,
        "traced / untraced geometric mean of the per-kind median latencies")
    return tuple(m)


PER_LAYER: Tuple[Metric, ...] = _per_layer()


def detail_for(workload: str) -> Tuple[Metric, ...]:
    return tuple(m for m in DETAIL if workload in m.workloads)


# -- statistics --------------------------------------------------------------

def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (NumPy's default method), q in [0, 1]."""
    data = sorted(values)
    if not data:
        raise ValueError("quantile of no values")
    pos = (len(data) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def ratio(part: float, whole: float) -> float:
    """part / whole, or 0 when there is no whole (a layer the workload never reached)."""
    return part / whole if whole else 0.0


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def entry(value: float, unit: str, n: int) -> dict:
    return {"value": float(value), "unit": unit, "n": int(n)}
